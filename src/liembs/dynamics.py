"""Equations of motion in descriptor form and their local-coordinate form.

A mechanical model supplies a constant block-diagonal mass matrix over 6N
twist coordinates, a force vector (applied plus velocity-dependent bias),
holonomic constraints g(q) with their velocity Jacobian A(q), and the
curvature term adotv = (d/dt A) V. The dynamics layer solves the saddle
point system

    [ M  A^T ] [Vdot  ]   [ Q     ]
    [ A   0  ] [lambda] = [ -adotv]

for accelerations and multipliers, and rewrites the state derivative in the
local chart coordinates of a transition-map combo:

    qdot  -> Xdot = dpsi_inv(-X) V   (per body)
    Vdot  -> from the saddle system evaluated at q = apply_lgt(combo, q_k, X)

Models are duck-typed; see :mod:`liembs.models` for the interface in use:
attributes ``n_bodies``, ``group_model``, ``mass_matrix``, ``n_constraints``,
``mass_factor`` (the Cholesky factor of ``mass_matrix`` as ``cho_factor``
returns it; read only when ``n_constraints`` is 0) and methods
``forces(qs, V, t)``, ``constraints(qs)``, ``jacobian(qs)``,
``adotv(qs, V)``, ``energy(qs, V)``.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, lu_factor, lu_solve
from scipy.linalg.lapack import dgecon

from .errors import SingularKkt, VariantMismatch
from .lgt import apply_lgt_stacked, combo, combo_dpsi_inv

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


def solve_kkt(model, state):
    """Accelerations and constraint multipliers at a state.

    Returns (Vdot, lam) with lam empty for unconstrained models. Raises
    SingularKkt when the saddle matrix has reciprocal condition estimate
    below 1e-12 (redundant constraints or a singular configuration).
    """
    q = model.forces(state.qs, state.V, state.t)
    m_bar = model.n_constraints
    if m_bar == 0:
        return cho_solve(model.mass_factor, q), np.zeros(0)

    n = 6 * model.n_bodies
    a = model.jacobian(state.qs)
    kkt = np.zeros((n + m_bar, n + m_bar))
    kkt[:n, :n] = model.mass_matrix
    kkt[:n, n:] = a.T
    kkt[n:, :n] = a
    rhs = np.concatenate([q, -model.adotv(state.qs, state.V)])

    anorm = np.linalg.norm(kkt, 1)
    lu, piv = lu_factor(kkt)
    rcond, info = dgecon(lu, anorm, norm="1")
    if info != 0 or rcond < _RCOND_LIMIT:
        raise SingularKkt(
            f"saddle matrix reciprocal condition {rcond:.3e} below "
            f"{_RCOND_LIMIT:.0e}"
        )
    sol = lu_solve((lu, piv), rhs)
    return sol[:n], sol[n:]


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
    if cmb.group_model != model.group_model:
        raise VariantMismatch(
            f"combo {cmb.id} uses {cmb.group_model} twists but the model "
            f"is built for {model.group_model}"
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
