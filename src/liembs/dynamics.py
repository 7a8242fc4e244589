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

solved in :func:`least_norm` (one eigendecomposition), which the projection
reuses. Without constraints Vdot = M^-1 Q, which the model applies body
by body in floats. The state derivative is then
rewritten in the local chart coordinates of a transition-map combo:

    qdot  -> Xdot = dpsi_inv(-X) V   (per body)
    Vdot  -> from the saddle system evaluated at q = apply_lgt(combo, q_k, X)

The model reads q only through its pose, so a stage builds q on the
model's first read of a body, and not at all when the model reads none (a
weightless free body). At X = 0, the first RK stage, q is q_k itself, whose
poses the previous step has already built. The inverse differential enters
only through its action on the twist: ``combo_dpsi_inv(combo, -X_i, V_i)``
is a float expression per body, and no 6x6 matrix is formed during a step.

A stage works on lists of Python floats. numpy enters only in the
constrained solve, which converts Q once and returns Vdot with one tolist.

Models are duck-typed; see :mod:`liembs.models` for the interface in use:
attributes ``n_bodies``, ``group_model``, ``mass_matrix``, ``mass_inverse``
(the inverse of ``mass_matrix``), ``n_constraints`` and methods
``forces(qs, V, t)`` and ``apply_mass_inverse(Q)`` (lists of floats),
``constraints(qs)``, ``jacobian(qs)``, ``adotv(qs, V)``, ``energy(qs, V)``.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import SingularKkt
from .lgt import apply_lgt_stacked, combo, combo_dpsi_inv, require_compatible

_RCOND_LIMIT = 1.0e-12

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


def _inf_norm(x):
    """max |x_i| of a nonempty float array as a float; NaN if an entry is
    NaN, since a non-finite float sum defers to numpy, which propagates it."""
    xs = x.tolist()
    if math.isfinite(sum(xs)):
        return max(map(abs, xs))
    return float(np.max(np.abs(x)))


def least_norm(a, w_at, rhs, what):
    """(W A^T lam, lam) with (A W A^T) lam = rhs, for w_at = W A^T and W
    symmetric positive definite: the one solve of every constraint
    correction, on one eigh V diag(w) V^T of A W A^T. SingularKkt naming
    what when its reciprocal condition w_min / w_max is below 1e-12 or lam
    is not finite."""
    try:
        w, v = np.linalg.eigh(a @ w_at)
        ws = w.tolist()
        rcond = ws[0] / ws[-1] if ws[-1] > 0 else 0.0
    except np.linalg.LinAlgError:  # eigh does not converge on a NaN entry
        rcond = 0.0
    if not rcond >= _RCOND_LIMIT:  # the negated test catches NaN
        raise SingularKkt(
            f"{what} reciprocal condition {rcond:.3e} below {_RCOND_LIMIT:.0e}"
        )
    lam = v @ ((rhs @ v) / w)
    # A finite sum settles it; one that overflows checks entry by entry.
    lams = lam.tolist()
    if not (math.isfinite(sum(lams)) or all(map(math.isfinite, lams))):
        raise SingularKkt(f"{what} gave non-finite multipliers")
    return w_at @ lam, lam


def solve_kkt(model, qs, v, t):
    """Accelerations and constraint multipliers at coordinates qs, twists v
    (a list of floats) and time t.

    Returns (Vdot, lam): Vdot a list of floats, lam an array from
    :func:`least_norm` with W = M^-1. For unconstrained models lam is one
    shared empty read-only array and Vdot is the model's
    apply_mass_inverse(Q). SingularKkt from the gate on
    the Schur complement A M^-1 A^T (redundant constraints or a singular
    configuration).
    """
    q = model.forces(qs, v, t)
    if model.n_constraints == 0:
        return model.apply_mass_inverse(q), _NO_MULTIPLIERS

    m_inv = model.mass_inverse
    m_inv_q = m_inv @ q
    a = model.jacobian(qs)
    rhs = a @ m_inv_q + model.adotv(qs, v)
    correction, lam = least_norm(a, m_inv @ a.T, rhs, "Schur complement A M^-1 A^T")
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
    """Infinity norms of the position and velocity constraint violations."""
    if model.n_constraints == 0:
        return 0.0, 0.0
    g = model.constraints(state.qs)
    gv = model.jacobian(state.qs) @ state.V
    return _inf_norm(g), _inf_norm(gv)
