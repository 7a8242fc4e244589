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

solved in :func:`least_norm` (one eigendecomposition) when no
joint-frame factor below serves. Without constraints Vdot = M^-1 Q, which
the model applies body by body in floats.

A joint's rows of A depend on the configuration only through the rotation
R_a of the body at its first end, and of the body at its second, so the
constrained solve works in joint frames, lam_j = R_a lam~_j. When every
joint holds a body to the ground, A M^-1 A^T = F K F^T with
F = blockdiag(R_a) and K constant. When one joint i, the link, joins body
a to a body b that no other joint holds, and one or more others c each
hold a body to the ground (the two-body chain), it is
K + blockdiag(0, Q G Q^T) in joint frames, with K over every joint's end
on its body a, Q = R_a^T R_b of the link and G the constant of its end on
b. The model condenses the constant part once (its ``ground_schur``): K^-1
with no link; with one, K_cc^-1, L = K_ic K_cc^-1, T0 = K_ii - L K_ci and
G.

A stage then solves in floats, with no Jacobian, adotv, eigh or 6N x 6N
product. Joint j's residual r~_j = R_a^T (A u + adotv)_j, u = M^-1 Q, is
a closed form at body a's end: (u_v + u_w x p) + w x (v + w x p) for
body-fixed twists and R_a^T u_v + u_w x p + w x (w x p) for mixed ones;
the link's less the same terms at body b's end, in R_b's frame, turned by
Q. With no link lam~ = K^-1 r~. With one, the stage forms the 3x3 pivot
T = T0 + Q G Q^T, solves it by its adjugate, lam~_i = T^-1 (r~_i -
L r~_c), and lam~_c = K_cc^-1 r~_c - L^T lam~_i. One back-substitution
gives A^T lam, body b's end included, and Vdot = u - M^-1 A^T lam.

With no link K's eigenvalues are those of A M^-1 A^T, so the gate is the
same ratio, computed once. With one it is a lower bound on that ratio, by
Ostrowski's theorem on the block factorization: min(w_min(K_cc),
4 det T / tr(T)^2) / (max(w_max(K_cc), tr T) kappa^2), kappa the
condition number of [[I, 0], [L, I]], where only det T varies. A stage
whose T fails Sylvester's test, or whose bound is below 1e-10, a hundred
times the gate, goes to the dense path, whose eigh gate decides it with
the same message; so a stage the bound accepts is one eigh accepts. Any
other constrained system (two or more links, a link alone, or one whose
body b another joint holds) takes the dense path through
:func:`least_norm` at every stage.

The projection grams factor the same way (``ground_grams``, one per
weight): the Gauss-Newton gram A D^2 A^T, D = diag(1 / chart_scale), and
the velocity gram A A^T, the case chart_scale = 1, have the constant part
K, and with a link L, T0 and G, of their own weight. The Schur solve,
:func:`ground_increment` and :func:`ground_velocity_projection` share one
multiplier solve, :func:`_joint_frame_solve`, and differ only in their
residual r~: R_a^T (A u + adotv) for the stage, -R_a^T g_j for
Gauss-Newton, where the link's b end has none of its own, and R_a^T A V
for the velocity projection. A projection whose pivot fails its gate
takes the dense path through :func:`least_norm`, as a stage does. The
velocity residual |A V| of every model comes from its float
``point_velocities``, never from a Jacobian.

The joint-frame solve builds the world multipliers lam only for a caller
that reads them: :func:`forward_dynamics`, through which every stage
solves, asks :func:`solve_kkt` for none.

The state derivative is then rewritten in the local chart coordinates of a
transition-map combo:

    qdot  -> Xdot = dpsi_inv(-X) V   (per body)
    Vdot  -> from the saddle system evaluated at the pose alpha(q_k) psi(X)

which is the pose of apply_lgt(combo, q_k, X), the group element
g_k exp(X) at which Munthe-Kaas evaluates an RK stage. The model reads a
body only through its pose, so a stage hands it that pose alone:
:func:`~liembs.lgt.lgt_poses` composes R_k exp(x) or R_k cay(c), and
r_k + y or r_k + R_k t(y), in floats, on the model's first read of a body,
and not at all when the model reads none (a weightless free body). A stage
runs no transition map, so it cannot raise CompoundAnglePi; only the
step's update of the configuration can. At X = 0, the first RK stage, q is
q_k itself, whose poses the previous step has already built. The inverse
differential enters only through its action on the twist:
``combo_dpsi_inv(combo, -X_i, V_i)`` is a float expression per body, and
no 6x6 matrix is formed during a step.

A stage works on lists of Python floats. numpy enters only in the dense
constrained solve, which converts Q once and returns Vdot with one tolist,
and in the array of multipliers the joint-frame solve returns.

Models are duck-typed; see :mod:`liembs.models` for the interface in use.
A stage configuration acts as AbsCoords: reading ``kind``, ``rot`` or ``r``
of one builds the stage's coordinates through one apply_lgt_stacked call,
shared by every body. The model supplies
attributes ``n_bodies``, ``group_model``, ``mass_matrix``, ``mass_inverse``
(the inverse of ``mass_matrix``), ``n_constraints`` and methods
``forces(qs, V, t)`` and ``apply_mass_inverse(Q)`` (lists of floats),
``constraints(qs)``, ``jacobian(qs)``, ``adotv(qs, V)``, ``energy(qs, V)``
and ``point_velocities(qs, V)`` (A V as a list of floats). The attribute
``ground_schur``, the factor above, and ``ground_grams`` are optional:
each is read with a None default, and a model without them takes the
dense paths.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass
from operator import mul, sub

import numpy as np

from .errors import SingularKkt
from .lgt import (
    alpha_map,
    apply_lgt_stacked,
    combo,
    combo_dpsi_inv,
    lgt_poses,
    require_compatible,
)
from .motiongroups import SEMIDIRECT

_RCOND_LIMIT = 1.0e-12
# The least lower bound on the Schur complement's reciprocal condition with
# which a body-to-body joint's pivot is solved in joint frames, before the
# model's margin for rounding: a hundred times the gate, so that any stage
# it passes passes eigh's gate too.
_PIVOT_LIMIT = 1.0e-10
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
    positive (a zero gram), when the ratio is not finite (a non-finite
    gram, whose eigenvalues can be NaN) or when eigh fails (on a NaN
    entry; w and v are then None). An indefinite gram gives a negative
    ratio."""
    try:
        w, v = np.linalg.eigh(gram)
    except np.linalg.LinAlgError:
        return None, None, 0.0
    ws = w.tolist()
    rcond = ws[0] / ws[-1] if ws[-1] > 0 else 0.0
    return w, v, rcond if math.isfinite(rcond) else 0.0


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
    non-finite entry meets no numpy arithmetic. The products run with
    numpy's overflow and invalid-value warnings off: a gram that overflows
    is not finite, and the gate reads its reciprocal condition as 0."""
    with np.errstate(over="ignore", invalid="ignore"):
        w, v, rcond = _eigh_rcond(a @ w_at)
        _require_rcond(rcond, what)
        _require_finite_multipliers(rhs.tolist(), what)
        lam = v @ ((rhs @ v) / w)
        _require_finite_multipliers(lam.tolist(), what)
        return w_at @ lam, lam


def _matvec(rows, x):
    """The product of the rows and the vector x, all floats, as a list."""
    return [sum(map(mul, row, x)) for row in rows]


def _end_residuals(semidirect, qs, ends, x, v=None):
    """(r, rots) at the joint ends (6 k, p) at coordinates qs: rots holds
    each end's body rotation R as three rows of floats, and r the floats
    R^T (A x + adotv) per end, the velocity of the body point p under the
    twists x in R's frame, x_v + x_w x p for body-fixed twists and
    R^T x_v + x_w x p for mixed ones, plus, for twists v, the curvature
    w x d, d = v + w x p for body-fixed twists and w x p for mixed ones
    (none when v is None)."""
    rots, r = [], []
    for k, (p0, p1, p2) in ends:
        rot = alpha_map(qs[k // 6])[0].tolist()
        rots.append(rot)
        a0, a1, a2, b0, b1, b2 = x[k : k + 6]
        if not semidirect:
            (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot
            b0, b1, b2 = (
                r00 * b0 + r10 * b1 + r20 * b2,
                r01 * b0 + r11 * b1 + r21 * b2,
                r02 * b0 + r12 * b1 + r22 * b2,
            )
        b0 += a1 * p2 - a2 * p1
        b1 += a2 * p0 - a0 * p2
        b2 += a0 * p1 - a1 * p0
        if v is not None:
            w0, w1, w2, v0, v1, v2 = v[k : k + 6]
            d0 = w1 * p2 - w2 * p1
            d1 = w2 * p0 - w0 * p2
            d2 = w0 * p1 - w1 * p0
            if semidirect:
                d0, d1, d2 = v0 + d0, v1 + d1, v2 + d2
            b0 += w1 * d2 - w2 * d1
            b1 += w2 * d0 - w0 * d2
            b2 += w0 * d1 - w1 * d0
        r += (b0, b1, b2)
    return r, rots


def _back_substitute(model, ends, rots, lam_j, what, world):
    """(A^T lam, lam) from the joint-frame forces lam_j, 3 floats per joint
    end (6 k, p) in the frame of its body's rotation R (rots, one per end):
    the end's world force is R lam~_j, and its body's block of A^T lam
    gains (p x lam~_j, lam~_j) for body-fixed twists, (p x lam~_j, R lam~_j)
    for mixed ones. A^T lam is a list of floats, and lam the world forces
    as one when world is true and None otherwise. SingularKkt naming what
    when lam~ is not finite."""
    _require_finite_multipliers(lam_j, what)
    semidirect = model.group_model == SEMIDIRECT
    lam = []
    at_lam = [0.0] * (6 * model.n_bodies)
    for i, (k, (p0, p1, p2)) in enumerate(ends):
        l0, l1, l2 = lam_j[3 * i : 3 * i + 3]
        if world or not semidirect:
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
    return at_lam, lam if world else None


def _link_pivot(link, rot_a, rot_b):
    """(bound, t_inv, Q) for the pivot T = T0 + Q G Q^T, Q = R_a^T R_b, of
    the link part of a factor (see
    ``SphericalJointSystem._joint_frame_factors``): bound =
    min(k_min, 4 det T / tr^2) / scale, a lower bound on the reciprocal
    condition of the Schur complement A M^-1 A^T, and t_inv the upper
    triangle of T^-1, from its adjugate, as six floats. bound is 0 unless T
    passes Sylvester's test with a finite determinant (NaN fails it), t_inv
    is None unless also bound reaches the factor's floor (1e-10 and a
    margin for the rounding of M^-1), and Q is given as its rows."""
    (t00, t01, t02, t11, t12, t22), g, (k_min, tr, scale, floor) = link[3:]
    (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = rot_a
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = rot_b
    (g00, g01, g02), (g10, g11, g12), (g20, g21, g22) = g
    q00 = a00 * b00 + a10 * b10 + a20 * b20
    q01 = a00 * b01 + a10 * b11 + a20 * b21
    q02 = a00 * b02 + a10 * b12 + a20 * b22
    q10 = a01 * b00 + a11 * b10 + a21 * b20
    q11 = a01 * b01 + a11 * b11 + a21 * b21
    q12 = a01 * b02 + a11 * b12 + a21 * b22
    q20 = a02 * b00 + a12 * b10 + a22 * b20
    q21 = a02 * b01 + a12 * b11 + a22 * b21
    q22 = a02 * b02 + a12 * b12 + a22 * b22
    # T += H Q^T, row i of H = Q G being row i of Q times G
    h0 = q00 * g00 + q01 * g10 + q02 * g20
    h1 = q00 * g01 + q01 * g11 + q02 * g21
    h2 = q00 * g02 + q01 * g12 + q02 * g22
    t00 += h0 * q00 + h1 * q01 + h2 * q02
    t01 += h0 * q10 + h1 * q11 + h2 * q12
    t02 += h0 * q20 + h1 * q21 + h2 * q22
    h0 = q10 * g00 + q11 * g10 + q12 * g20
    h1 = q10 * g01 + q11 * g11 + q12 * g21
    h2 = q10 * g02 + q11 * g12 + q12 * g22
    t11 += h0 * q10 + h1 * q11 + h2 * q12
    t12 += h0 * q20 + h1 * q21 + h2 * q22
    h0 = q20 * g00 + q21 * g10 + q22 * g20
    h1 = q20 * g01 + q21 * g11 + q22 * g21
    h2 = q20 * g02 + q21 * g12 + q22 * g22
    t22 += h0 * q20 + h1 * q21 + h2 * q22
    c00 = t11 * t22 - t12 * t12
    c01 = t02 * t12 - t01 * t22
    c02 = t01 * t12 - t02 * t11
    c11 = t00 * t22 - t02 * t02
    c12 = t01 * t02 - t00 * t12
    c22 = t00 * t11 - t01 * t01
    det = t00 * c00 + t01 * c01 + t02 * c02
    q = (q00, q01, q02), (q10, q11, q12), (q20, q21, q22)
    if not (t00 > 0.0 and c22 > 0.0 and 0.0 < det < math.inf):
        return 0.0, None, q
    bound = min(k_min, 4.0 * (det / tr) / tr) / scale
    if not bound >= floor:
        return bound, None, q
    inv = 1.0 / det
    t_inv = c00 * inv, c01 * inv, c02 * inv, c11 * inv, c12 * inv, c22 * inv
    return bound, t_inv, q


def _joint_frame_solve(model, factor, r, rots, what, world):
    """(A^T lam, lam) with (A W A^T) lam = F r~ for the weight W of a
    joint-frame factor (see ``SphericalJointSystem._joint_frame_factors``),
    F = blockdiag(R_a), or None when its link's pivot fails its gate.

    r holds three floats per end of the factor, every joint's a end and
    then the link's b end, and rots their rotations. Without a link
    lam~ = K^-1 r~. With one, c the other joints, r~_i = r_i - Q e_b with
    e_b the link's b end entries and Q = R_a^T R_b, lam~_i = T^-1 (r~_i -
    L r~_c) and lam~_c = K_cc^-1 r~_c - L^T lam~_i, and body b's end takes
    the force -Q^T lam~_i. A^T lam and lam are as :func:`_back_substitute`
    gives them. SingularKkt naming what from the gate on K (K_cc with a
    link) or on non-finite multipliers."""
    ends, rcond, k_inv, link = factor
    _require_rcond(rcond, what)
    if link is None:
        lam_j = _matvec(k_inv, r)
    else:
        i, l_rows, l_cols = link[:3]
        _, t_inv, q = _link_pivot(link, rots[i], rots[-1])
        if t_inv is None:
            return None
        e0, e1, e2 = r[-3:]
        y0, y1, y2 = r[3 * i : 3 * i + 3]
        r_c = r[: 3 * i] + r[3 * i + 3 : -3]
        f0, f1, f2 = _matvec(l_rows, r_c)
        (q00, q01, q02), (q10, q11, q12), (q20, q21, q22) = q
        y0 -= f0 + (q00 * e0 + q01 * e1 + q02 * e2)
        y1 -= f1 + (q10 * e0 + q11 * e1 + q12 * e2)
        y2 -= f2 + (q20 * e0 + q21 * e1 + q22 * e2)
        s00, s01, s02, s11, s12, s22 = t_inv
        l0 = s00 * y0 + s01 * y1 + s02 * y2
        l1 = s01 * y0 + s11 * y1 + s12 * y2
        l2 = s02 * y0 + s12 * y1 + s22 * y2
        lam_j = [
            z - (g0 * l0 + g1 * l1 + g2 * l2)
            for z, (g0, g1, g2) in zip(_matvec(k_inv, r_c), l_cols)
        ]
        lam_j[3 * i : 3 * i] = l0, l1, l2
        lam_j += (
            -(q00 * l0 + q10 * l1 + q20 * l2),
            -(q01 * l0 + q11 * l1 + q21 * l2),
            -(q02 * l0 + q12 * l1 + q22 * l2),
        )
    return _back_substitute(model, ends, rots, lam_j, what, world)


def _solve_in_joint_frames(model, factor, qs, v, u, multipliers):
    """(Vdot, lam) from u = M^-1 Q and the model's joint-frame factor of
    A M^-1 A^T, or None when its link's pivot fails its gate: joint j's
    residual R_a^T (A u + adotv)_j at body a's end is u's point velocity
    there plus the curvature (:func:`_end_residuals`), and the link's b end
    gives the same terms in R_b's frame; :func:`_joint_frame_solve` takes
    them to A^T lam. Then Vdot = u - M^-1 A^T lam, and lam, the world
    multipliers lam_j = R_a lam~_j, is None unless multipliers is true."""
    semidirect = model.group_model == SEMIDIRECT
    r, rots = _end_residuals(semidirect, qs, factor[0], u, v)
    solved = _joint_frame_solve(model, factor, r, rots, _SCHUR, multipliers)
    if solved is None:
        return None
    at_lam, lam = solved
    vdot = list(map(sub, u, model.apply_mass_inverse(at_lam)))
    return vdot, None if lam is None else np.array(lam[: model.n_constraints])


def ground_increment(model, qs, g, chart_scale, what):
    """The Gauss-Newton increment dX = D A^T lam, (A D^2 A^T) lam = -g with
    D = diag(1 / chart_scale), in joint frames with the model's
    ``ground_grams`` factor for chart_scale: joint j's residual is
    -R_a^T g_j, and a link's b end has none of its own. g and the result
    are lists of floats; None when the factor is None or its link's pivot
    fails its gate. SingularKkt naming what from the gate on K or on
    non-finite multipliers."""
    factor = model.ground_grams[chart_scale]
    if factor is None:
        return None
    rots = [alpha_map(qs[k // 6])[0].tolist() for k, _ in factor[0]]
    r = [0.0] * (3 * len(rots))
    for j in range(0, len(g), 3):
        (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rots[j // 3]
        g0, g1, g2 = g[j : j + 3]
        r[j : j + 3] = (
            -(r00 * g0 + r10 * g1 + r20 * g2),
            -(r01 * g0 + r11 * g1 + r21 * g2),
            -(r02 * g0 + r12 * g1 + r22 * g2),
        )
    solved = _joint_frame_solve(model, factor, r, rots, what, False)
    if solved is None:
        return None
    return [x / c for x, c in zip(solved[0], chart_scale * model.n_bodies)]


def ground_velocity_projection(model, qs, v, what):
    """V - A^T lam with (A A^T) lam = A V, the orthogonal projection of the
    twists v (a list of floats) onto the null space of A, in joint frames
    with the model's unit-scale ``ground_grams`` factor: joint j's residual
    is R_a^T (A V)_j from :func:`_end_residuals`. None when the factor is
    None or its link's pivot fails its gate. SingularKkt naming what from
    the gate on K or on non-finite multipliers."""
    factor = model.ground_grams[_UNIT_SCALE]
    if factor is None:
        return None
    semidirect = model.group_model == SEMIDIRECT
    r, rots = _end_residuals(semidirect, qs, factor[0], v)
    solved = _joint_frame_solve(model, factor, r, rots, what, False)
    if solved is None:
        return None
    return list(map(sub, v, solved[0]))


def solve_kkt(model, qs, v, t, *, multipliers=True):
    """Accelerations and constraint multipliers at coordinates qs, twists v
    (a list of floats) and time t.

    Returns (Vdot, lam): Vdot a list of floats and lam an array of world
    frame multipliers. For unconstrained models lam is one shared empty
    read-only array and Vdot is the model's apply_mass_inverse(Q). A model
    whose ``ground_schur`` factor is not None is solved in joint frames in
    floats, and then lam is None unless multipliers is true; a stage whose
    body-to-body pivot fails its gate, and any other constrained model,
    through :func:`least_norm` with W = M^-1. SingularKkt from the gate on
    the Schur complement A M^-1 A^T (redundant constraints or a singular
    configuration).
    """
    q = model.forces(qs, v, t)
    if model.n_constraints == 0:
        return model.apply_mass_inverse(q), _NO_MULTIPLIERS
    factor = getattr(model, "ground_schur", None)
    if factor is not None:
        u = model.apply_mass_inverse(q)
        solved = _solve_in_joint_frames(model, factor, qs, v, u, multipliers)
        if solved is not None:
            return solved

    m_inv = model.mass_inverse
    a = model.jacobian(qs)
    # As in least_norm: a product that overflows reaches its gates quietly.
    with np.errstate(over="ignore", invalid="ignore"):
        m_inv_q = m_inv @ q
        rhs = a @ m_inv_q + model.adotv(qs, v)
        correction, lam = least_norm(a, m_inv @ a.T, rhs, _SCHUR)
        return (m_inv_q - correction).tolist(), lam


def forward_dynamics(model, qs, v, t):
    """The acceleration component of :func:`solve_kkt`, which then builds
    no world multipliers in joint frames."""
    vdot, _ = solve_kkt(model, qs, v, t, multipliers=False)
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


class _StageCoords:
    """One body's configuration at an RK stage. ``pose`` is composed by
    :func:`~liembs.lgt.lgt_poses`; any other public attribute (``kind``,
    ``rot``, ``r``) is read from the AbsCoords that coords, shared by the
    stage's bodies, builds for all of them through one apply_lgt_stacked
    call on the first such read."""

    __slots__ = ("pose", "_coords", "_i")

    def __init__(self, pose, coords, i):
        self.pose, self._coords, self._i = pose, coords, i

    def __getattr__(self, name):
        # Reached only for names that are not slots.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._coords[self._i], name)


def _stage_coords(cmb, qs_k, x):
    """The configuration at the local coordinates x: one
    :class:`_StageCoords` per body, their poses composed in one lgt_poses
    call."""
    coords = _OnFirstRead(lambda: apply_lgt_stacked(cmb, qs_k, x), len(qs_k))
    return [
        _StageCoords(pose, coords, i)
        for i, pose in enumerate(lgt_poses(cmb, qs_k, x))
    ]


def local_rhs(model, cmb, qs_k, x, v, t):
    """Right-hand side of the local-coordinate state equations.

    qs_k are the absolute coordinates frozen at the step start, x the
    stacked local coordinates and v the stacked twists, both lists of 6N
    floats. Returns (Vdot, Xdot) as lists of floats, where
    Xdot_i = dpsi_inv(-x_i) V_i in the combo's chart and Vdot comes from
    the saddle system at the configuration whose pose is
    compose(alpha_map(q_k), psi(x)) body by body. That configuration is
    qs_k itself when x is zero. Otherwise its poses are composed in floats
    by one lgt_poses call on the model's first read of a body, or never,
    and its coordinates are built by one apply_lgt_stacked call only if
    the model reads kind, rot or r of one. No stage of a model that reads
    only poses runs the transition map, so none raises CompoundAnglePi;
    the step's own update of the configuration still can.
    """
    cmb = combo(cmb)
    # The combo is its own label, formatted only if the check raises.
    require_compatible(cmb, cmb.abs_kind, cmb.group_model, model, qs_k)
    neg_x = [-c for c in x]
    if any(neg_x):
        qs = _OnFirstRead(lambda: _stage_coords(cmb, qs_k, x), len(qs_k))
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
