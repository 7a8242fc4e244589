"""Equations of motion in descriptor form and their local-coordinate form.

A mechanical model supplies a constant block-diagonal mass matrix over 6N
twist coordinates, a force vector (applied plus velocity-dependent bias),
holonomic constraints g(q) with their velocity Jacobian A(q), and the
curvature term adotv = (d/dt A) V. The dynamics layer solves the saddle
point system

    [ M  A^T ] [Vdot  ]   [ Q     ]
    [ A   0  ] [lambda] = [ -adotv]

for accelerations and multipliers through its Schur complement: with the
constant inverse M^-1 the multipliers solve the small symmetric positive
definite system

    (A M^-1 A^T) lambda = A M^-1 Q + adotv,    Vdot = M^-1 (Q - A^T lambda),

solved in :func:`least_norm` (one eigendecomposition), which the
projection of a system with a joint between two bodies reuses. Without
constraints Vdot = M^-1 Q, which the model applies body by body in floats.

When every joint holds a body to the ground the geometry makes the Schur
complement constant up to rotations: A M^-1 A^T = F K F^T, with
F = blockdiag(R_a) over the joints' bodies and K a constant the model
factors once (its ``ground_schur``). The multipliers are then solved in
joint frames in floats, lam~ = K^-1 r~ with r~_j = R_a^T (A M^-1 Q +
adotv)_j, which is (u_v + u_w x p) + w x (v + w x p) for body-fixed twists
and u_w x p + R_a^T u_v + w x (w x p) for mixed ones (u = M^-1 Q); then
lam_j = R_a lam~_j and Vdot = u - M^-1 A^T lam, with no Jacobian, eigh or
6N x 6N product per stage. K's eigenvalues are those of A M^-1 A^T, so
the gate is the same ratio, computed once. The projection's grams factor
the same way (``ground_grams``): A D^2 A^T = F K_c F^T for the diagonal
D = diag(1 / chart_scale) of its Gauss-Newton step, and A A^T for its
velocity stage is the case chart_scale = 1, so :func:`ground_increment`
and :func:`ground_velocity_projection` share the solve's back-substitution
lam~ -> A^T lam. A system with a joint between two bodies, whose Schur
complement couples bodies through their relative rotation, keeps the
dense path through :func:`least_norm`. The velocity residual |A V| of
every model comes from its float ``point_velocities``, never from a
Jacobian.

The state derivative is then rewritten in the local chart coordinates of a
transition-map combo:

    qdot  -> Xdot = dpsi_inv(-X) V   (per body)
    Vdot  -> from the saddle system evaluated at q = apply_lgt(combo, q_k, X)

The model reads q only through its pose, so a stage builds q on the
model's first read of a body, and not at all when the model reads none (a
weightless free body). At X = 0, the first RK stage, q is q_k itself, whose
poses the previous step has already built. The inverse differential enters
only through its action on the twist: ``combo_dpsi_inv(combo, -X_i, V_i)``
is a float expression per body, and no 6x6 matrix is formed during a step.

A stage works on lists of Python floats. numpy enters only in the dense
constrained solve, which converts Q once and returns Vdot with one tolist,
and in the array of multipliers the joint-frame solve returns.

Models are duck-typed; see :mod:`liembs.models` for the interface in use:
attributes ``n_bodies``, ``group_model``, ``mass_matrix``, ``mass_inverse``
(the inverse of ``mass_matrix``), ``n_constraints`` and methods
``forces(qs, V, t)`` and ``apply_mass_inverse(Q)`` (lists of floats),
``constraints(qs)``, ``jacobian(qs)``, ``adotv(qs, V)``, ``energy(qs, V)``
and ``point_velocities(qs, V)`` (A V as a list of floats). The attribute
``ground_schur``, the factor above, is optional: it is read with a None
default, and a model without it takes the dense paths. A model whose
``ground_schur`` is not None also supplies ``ground_grams``.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from operator import mul

import numpy as np

from .errors import SingularKkt
from .lgt import (
    alpha_map,
    apply_lgt_stacked,
    combo,
    combo_dpsi_inv,
    require_compatible,
)
from .motiongroups import SEMIDIRECT

_RCOND_LIMIT = 1.0e-12
_SCHUR = "Schur complement A M^-1 A^T"
# The chart scale whose projection gram is A A^T (W = I).
_UNIT_SCALE = (1.0,) * 6

# The multipliers of every unconstrained solve: one shared, read-only array.
_NO_MULTIPLIERS = np.zeros(0)
_NO_MULTIPLIERS.flags.writeable = False


@dataclass(frozen=True)
class MbsState:
    """Stacked state: per-body absolute coordinates, twists, and time."""

    qs: tuple
    V: np.ndarray
    t: float


def make_state(qs, v, t=0.0):
    """MbsState from any iterable of AbsCoords and a 6N velocity vector."""
    qs = tuple(qs)
    v = np.asarray(v, dtype=float)
    if v.shape != (6 * len(qs),):
        raise ValueError(
            f"velocity length {v.shape} does not match {len(qs)} bodies"
        )
    return MbsState(qs, v, float(t))


def _inf_norm(xs):
    """max |x_i| of a nonempty list of floats; NaN if an entry is NaN, since
    a non-finite sum defers to numpy, which propagates it."""
    if math.isfinite(sum(xs)):
        return max(map(abs, xs))
    return float(np.max(np.abs(xs)))


def _eigh_rcond(gram):
    """(w, v, rcond): the eigh V diag(w) V^T of a symmetric gram and its
    reciprocal condition w_min / w_max as a float, 0 when w_max is not
    positive (a zero or non-finite gram) or when eigh fails (on a NaN
    entry; w and v are then None). An indefinite gram gives a negative
    ratio."""
    try:
        w, v = np.linalg.eigh(gram)
    except np.linalg.LinAlgError:
        return None, None, 0.0
    ws = w.tolist()
    return w, v, ws[0] / ws[-1] if ws[-1] > 0 else 0.0


def _require_rcond(rcond, what):
    """SingularKkt naming what unless rcond is at least 1e-12."""
    if not rcond >= _RCOND_LIMIT:  # the negated test catches NaN
        raise SingularKkt(
            f"{what} reciprocal condition {rcond:.3e} below {_RCOND_LIMIT:.0e}"
        )


def _require_finite_multipliers(xs, what):
    """SingularKkt naming what unless every float in xs is finite: a finite
    sum settles it, and one that overflows checks entry by entry."""
    if not (math.isfinite(sum(xs)) or all(map(math.isfinite, xs))):
        raise SingularKkt(f"{what} gave non-finite multipliers")


def least_norm(a, w_at, rhs, what):
    """(W A^T lam, lam) with (A W A^T) lam = rhs, for w_at = W A^T and W
    symmetric positive definite: the one solve of every dense constraint
    correction, on one eigh V diag(w) V^T of A W A^T. SingularKkt naming
    what when its reciprocal condition w_min / w_max is below 1e-12, or
    when rhs or lam is not finite; rhs is checked before the products, so a
    non-finite entry meets no numpy arithmetic."""
    w, v, rcond = _eigh_rcond(a @ w_at)
    _require_rcond(rcond, what)
    _require_finite_multipliers(rhs.tolist(), what)
    lam = v @ ((rhs @ v) / w)
    _require_finite_multipliers(lam.tolist(), what)
    return w_at @ lam, lam


def _joint_rotations(qs, joints):
    """R_a of each joint's body as three rows of floats."""
    return [alpha_map(qs[k // 6])[0].tolist() for k, _ in joints]


def _back_substitute(model, joints, k_inv, rots, r, what):
    """(A^T lam, lam) for the joint-frame right-hand side r (3 floats per
    joint): lam~ = K^-1 r from the rows k_inv, lam_j = R_a lam~_j, and body
    a's block of A^T lam gains (p x lam~_j, lam~_j) for body-fixed twists,
    (p x lam~_j, lam_j) for mixed ones; both as lists of floats.
    SingularKkt naming what when lam~ is not finite."""
    lam_j = [sum(map(mul, row, r)) for row in k_inv]
    _require_finite_multipliers(lam_j, what)
    semidirect = model.group_model == SEMIDIRECT
    lam = []
    at_lam = [0.0] * (6 * model.n_bodies)
    for i, (k, (p0, p1, p2)) in enumerate(joints):
        l0, l1, l2 = lam_j[3 * i : 3 * i + 3]
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rots[i]
        x0 = r00 * l0 + r01 * l1 + r02 * l2
        x1 = r10 * l0 + r11 * l1 + r12 * l2
        x2 = r20 * l0 + r21 * l1 + r22 * l2
        lam += (x0, x1, x2)
        at_lam[k] += p1 * l2 - p2 * l1
        at_lam[k + 1] += p2 * l0 - p0 * l2
        at_lam[k + 2] += p0 * l1 - p1 * l0
        if semidirect:
            x0, x1, x2 = l0, l1, l2  # body-fixed twists take the joint frame force
        at_lam[k + 3] += x0
        at_lam[k + 4] += x1
        at_lam[k + 5] += x2
    return at_lam, lam


def _solve_in_joint_frames(model, factor, qs, v, u):
    """(Vdot, lam) of a system whose every joint holds a body to the
    ground, from u = M^-1 Q and the model's constant factor: the joint
    frame multipliers lam~ = K^-1 r~ with r~_j = R_a^T (A u + adotv)_j, in
    floats, then lam_j = R_a lam~_j and Vdot = u - M^-1 A^T lam."""
    joints, rcond, k_inv = factor
    _require_rcond(rcond, _SCHUR)
    semidirect = model.group_model == SEMIDIRECT
    rots, r = [], []
    for k, (p0, p1, p2) in joints:
        rot = alpha_map(qs[k // 6])[0].tolist()
        rots.append(rot)
        w0, w1, w2, v0, v1, v2 = v[k : k + 6]
        a0, a1, a2, b0, b1, b2 = u[k : k + 6]
        # d = v + omega x p for body-fixed twists, omega x p for mixed ones
        d0 = w1 * p2 - w2 * p1
        d1 = w2 * p0 - w0 * p2
        d2 = w0 * p1 - w1 * p0
        if semidirect:
            d0, d1, d2 = v0 + d0, v1 + d1, v2 + d2
        else:  # the point's world velocity term R^T u_v
            (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot
            b0, b1, b2 = (
                r00 * b0 + r10 * b1 + r20 * b2,
                r01 * b0 + r11 * b1 + r21 * b2,
                r02 * b0 + r12 * b1 + r22 * b2,
            )
        r += (
            b0 + (a1 * p2 - a2 * p1) + (w1 * d2 - w2 * d1),
            b1 + (a2 * p0 - a0 * p2) + (w2 * d0 - w0 * d2),
            b2 + (a0 * p1 - a1 * p0) + (w0 * d1 - w1 * d0),
        )
    at_lam, lam = _back_substitute(model, joints, k_inv, rots, r, _SCHUR)
    correction = model.apply_mass_inverse(at_lam)
    return [a - b for a, b in zip(u, correction)], np.array(lam)


def ground_increment(model, qs, g, chart_scale, what):
    """The Gauss-Newton increment dX = D A^T lam, (A D^2 A^T) lam = -g with
    D = diag(1 / chart_scale), of a model whose every joint holds a body to
    the ground, in joint frames: lam~ solves K lam~ = r~ with
    r~_j = -R_a^T g_j and K the model's constant ``ground_grams`` factor
    for chart_scale. g and the result are lists of floats. SingularKkt
    naming what from the gate on K or on non-finite multipliers."""
    joints = model.ground_schur[0]
    rcond, k_inv = model.ground_grams[chart_scale]
    _require_rcond(rcond, what)
    rots = _joint_rotations(qs, joints)
    r = []
    for i, ((r00, r01, r02), (r10, r11, r12), (r20, r21, r22)) in enumerate(rots):
        g0, g1, g2 = g[3 * i : 3 * i + 3]
        r += (
            -(r00 * g0 + r10 * g1 + r20 * g2),
            -(r01 * g0 + r11 * g1 + r21 * g2),
            -(r02 * g0 + r12 * g1 + r22 * g2),
        )
    at_lam, _ = _back_substitute(model, joints, k_inv, rots, r, what)
    return [x / c for x, c in zip(at_lam, chart_scale * model.n_bodies)]


def ground_velocity_projection(model, qs, v, what):
    """V - A^T lam with (A A^T) lam = A V, the orthogonal projection of the
    twists v (a list of floats) onto the null space of A, for a model whose
    every joint holds a body to the ground, in joint frames: lam~ solves
    K lam~ = r~ with K the unit-scale ``ground_grams`` factor and
    r~_j = R_a^T (A V)_j, which is v + omega x p for body-fixed twists and
    R_a^T rdot + omega x p for mixed ones. SingularKkt naming what from
    the gate on K or on non-finite multipliers."""
    joints = model.ground_schur[0]
    rcond, k_inv = model.ground_grams[_UNIT_SCALE]
    _require_rcond(rcond, what)
    semidirect = model.group_model == SEMIDIRECT
    rots = _joint_rotations(qs, joints)
    r = []
    for rot, (k, (p0, p1, p2)) in zip(rots, joints):
        w0, w1, w2, b0, b1, b2 = v[k : k + 6]
        if not semidirect:  # R^T rdot
            (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot
            b0, b1, b2 = (
                r00 * b0 + r10 * b1 + r20 * b2,
                r01 * b0 + r11 * b1 + r21 * b2,
                r02 * b0 + r12 * b1 + r22 * b2,
            )
        r += (
            b0 + (w1 * p2 - w2 * p1),
            b1 + (w2 * p0 - w0 * p2),
            b2 + (w0 * p1 - w1 * p0),
        )
    at_lam, _ = _back_substitute(model, joints, k_inv, rots, r, what)
    return [a - b for a, b in zip(v, at_lam)]


def solve_kkt(model, qs, v, t):
    """Accelerations and constraint multipliers at coordinates qs, twists v
    (a list of floats) and time t.

    Returns (Vdot, lam): Vdot a list of floats and lam an array of world
    frame multipliers. For unconstrained models lam is one shared empty
    read-only array and Vdot is the model's apply_mass_inverse(Q). A model
    whose ``ground_schur`` factor is not None is solved in joint frames in
    floats; any other constrained model through :func:`least_norm` with
    W = M^-1. SingularKkt from the gate on the Schur complement A M^-1 A^T
    (redundant constraints or a singular configuration).
    """
    q = model.forces(qs, v, t)
    if model.n_constraints == 0:
        return model.apply_mass_inverse(q), _NO_MULTIPLIERS
    factor = getattr(model, "ground_schur", None)
    if factor is not None:
        return _solve_in_joint_frames(
            model, factor, qs, v, model.apply_mass_inverse(q)
        )

    m_inv = model.mass_inverse
    m_inv_q = m_inv @ q
    a = model.jacobian(qs)
    rhs = a @ m_inv_q + model.adotv(qs, v)
    correction, lam = least_norm(a, m_inv @ a.T, rhs, _SCHUR)
    return (m_inv_q - correction).tolist(), lam


def forward_dynamics(model, qs, v, t):
    """The acceleration component of :func:`solve_kkt`."""
    vdot, _ = solve_kkt(model, qs, v, t)
    return vdot


class _OnFirstRead(Sequence):
    """The coordinates build() returns, built on the first read and kept,
    so a right-hand side that reads none builds none; n is their count."""

    __slots__ = ("_build", "_n", "_items")

    def __init__(self, build, n):
        self._build, self._n, self._items = build, n, None

    def __getitem__(self, i):
        items = self._items
        if items is None:
            items = self._items = self._build()
        return items[i]

    def __iter__(self):
        return iter(self[:])

    def __len__(self):
        return self._n


def local_rhs(model, cmb, qs_k, x, v, t):
    """Right-hand side of the local-coordinate state equations.

    qs_k are the absolute coordinates frozen at the step start, x the
    stacked local coordinates and v the stacked twists, both lists of 6N
    floats. Returns (Vdot, Xdot) as lists of floats, where
    Xdot_i = dpsi_inv(-x_i) V_i in the combo's chart and Vdot comes from
    the saddle system at the reconstructed configuration
    apply_lgt(cmb, qs_k, x). That configuration is qs_k itself when x is
    zero, and otherwise is built by one apply_lgt_stacked call on the
    model's first read of it, or never. A stage the model reads no
    coordinate of therefore cannot raise from the transition map (such as
    CompoundAnglePi near a composed angle of 2 pi); the step's own update
    of the configuration still can.
    """
    cmb = combo(cmb)
    # The combo is its own label, formatted only if the check raises.
    require_compatible(cmb, cmb.abs_kind, cmb.group_model, model, qs_k)
    neg_x = [-c for c in x]
    if any(neg_x):
        qs = _OnFirstRead(lambda: apply_lgt_stacked(cmb, qs_k, x), len(qs_k))
    else:
        qs = qs_k
    vdot = forward_dynamics(model, qs, v, t)
    xdot = []
    for i in range(0, 6 * model.n_bodies, 6):
        xdot += combo_dpsi_inv(cmb, neg_x[i : i + 6], v[i : i + 6])
    return vdot, xdot


def constraint_residuals(model, state):
    """Infinity norms of the position and velocity constraint violations,
    the latter from the model's float ``point_velocities``."""
    if model.n_constraints == 0:
        return 0.0, 0.0
    g = model.constraints(state.qs).tolist()
    gv = model.point_velocities(state.qs, state.V.tolist())
    return _inf_norm(g), _inf_norm(gv)
