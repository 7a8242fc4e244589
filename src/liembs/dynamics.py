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

factored by Cholesky. Without constraints Vdot = M^-1 Q. The state
derivative is then rewritten in the local chart coordinates of a
transition-map combo:

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


def cholesky(matrix, message):
    """Upper Cholesky factor of a symmetric positive definite matrix, for
    ``dpotrs``; raises SingularKkt(message) when LAPACK ``dpotrf`` fails."""
    chol, info = dpotrf(matrix)
    if info != 0:
        raise SingularKkt(message)
    return chol


def solve_kkt(model, state):
    """Accelerations and constraint multipliers at a state.

    Returns (Vdot, lam) with lam empty for unconstrained models. Raises
    SingularKkt when the Schur complement A M^-1 A^T is not positive
    definite or its reciprocal condition estimate is below 1e-12
    (redundant constraints or a singular configuration), and when the
    multipliers come out non-finite.
    """
    q = model.forces(state.qs, state.V, state.t)
    m_inv = model.mass_inverse
    m_inv_q = m_inv @ q
    if model.n_constraints == 0:
        return m_inv_q, np.zeros(0)

    a = model.jacobian(state.qs)
    m_inv_at = m_inv @ a.T
    schur = a @ m_inv_at
    chol = cholesky(schur, "Schur complement A M^-1 A^T is not positive definite")
    rcond = dpocon(chol, np.abs(schur).sum(axis=0).max())[0]
    if not rcond >= _RCOND_LIMIT:  # the negated test catches NaN
        raise SingularKkt(
            f"Schur complement A M^-1 A^T reciprocal condition {rcond:.3e} "
            f"below {_RCOND_LIMIT:.0e}"
        )
    rhs = a @ m_inv_q + model.adotv(state.qs, state.V)
    lam, _ = dpotrs(chol, rhs)
    if not np.isfinite(lam).all():
        raise SingularKkt("saddle-point solve gave non-finite multipliers")
    return m_inv_q - m_inv_at @ lam, lam


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
    gnorm = float(np.max(np.abs(g))) if g.size else 0.0
    gvnorm = float(np.max(np.abs(gv))) if gv.size else 0.0
    return gnorm, gvnorm
