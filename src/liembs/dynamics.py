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

factored by Cholesky in :func:`least_norm`, which the projection reuses.
Without constraints Vdot = M^-1 Q. The state derivative is then rewritten
in the local chart coordinates of a transition-map combo:

    qdot  -> Xdot = dpsi_inv(-X) V   (per body)
    Vdot  -> from the saddle system evaluated at q = apply_lgt(combo, q_k, X)

Models are duck-typed; see :mod:`liembs.models` for the interface in use:
attributes ``n_bodies``, ``group_model``, ``mass_matrix``, ``mass_inverse``
(the inverse of ``mass_matrix``), ``n_constraints`` and methods
``forces(qs, V, t)``, ``constraints(qs)``, ``jacobian(qs)``,
``adotv(qs, V)``, ``energy(qs, V)``.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpocon, dpotrf, dpotrs

from .errors import SingularKkt
from .lgt import apply_lgt_stacked, combo, combo_dpsi_inv, require_compatible

_RCOND_LIMIT = 1.0e-12


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


def least_norm(a, w_at, rhs, what):
    """(W A^T lam, lam) with (A W A^T) lam = rhs, for w_at = W A^T and W
    symmetric positive definite: the one Cholesky solve of every constraint
    correction. SingularKkt naming what when the reciprocal condition of
    A W A^T (0 if Cholesky fails) is below 1e-12 or lam is not finite."""
    gram = a @ w_at
    chol, info = dpotrf(gram)
    rcond = dpocon(chol, np.abs(gram).sum(axis=0).max())[0] if info == 0 else 0.0
    if not rcond >= _RCOND_LIMIT:  # the negated test catches NaN
        raise SingularKkt(
            f"{what} reciprocal condition {rcond:.3e} below {_RCOND_LIMIT:.0e}"
        )
    lam, _ = dpotrs(chol, rhs)
    if not np.isfinite(lam).all():
        raise SingularKkt(f"{what} gave non-finite multipliers")
    return w_at @ lam, lam


def solve_kkt(model, state):
    """Accelerations and constraint multipliers at a state.

    Returns (Vdot, lam), lam from :func:`least_norm` with W = M^-1 and
    empty for unconstrained models. Raises SingularKkt when the Schur
    complement A M^-1 A^T is not positive definite or its reciprocal
    condition estimate is below 1e-12 (redundant constraints or a singular
    configuration), and when the multipliers come out non-finite.
    """
    q = model.forces(state.qs, state.V, state.t)
    m_inv = model.mass_inverse
    m_inv_q = m_inv @ q
    if model.n_constraints == 0:
        return m_inv_q, np.zeros(0)

    a = model.jacobian(state.qs)
    rhs = a @ m_inv_q + model.adotv(state.qs, state.V)
    correction, lam = least_norm(a, m_inv @ a.T, rhs, "Schur complement A M^-1 A^T")
    return m_inv_q - correction, lam


def forward_dynamics(model, state):
    """The acceleration component of :func:`solve_kkt`."""
    vdot, _ = solve_kkt(model, state)
    return vdot


def local_rhs(model, cmb, qs_k, x, v, t):
    """Right-hand side of the local-coordinate state equations.

    qs_k are the absolute coordinates frozen at the step start, x the
    stacked local coordinates, v the stacked twists. Returns (Vdot, Xdot)
    where Xdot_i = dpsi_inv(-x_i) V_i in the combo's chart and Vdot comes
    from the saddle system at the reconstructed configuration.
    """
    cmb = combo(cmb)
    require_compatible(
        f"combo {cmb.id}", cmb.abs_kind, cmb.group_model, model, qs_k
    )
    x = np.asarray(x, dtype=float)
    v = np.asarray(v, dtype=float)
    qs = apply_lgt_stacked(cmb, qs_k, x)
    vdot = forward_dynamics(model, MbsState(tuple(qs), v, t))
    xdot = np.empty_like(v)
    for i in range(model.n_bodies):
        s = slice(6 * i, 6 * i + 6)
        xdot[s] = combo_dpsi_inv(cmb, -x[s]) @ v[s]
    return vdot, xdot


def constraint_residuals(model, state):
    """Infinity norms of the position and velocity constraint violations."""
    if model.n_constraints == 0:
        return 0.0, 0.0
    g = model.constraints(state.qs)
    gv = model.jacobian(state.qs) @ state.V
    return float(np.max(np.abs(g))), float(np.max(np.abs(gv)))
