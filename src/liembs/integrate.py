"""Fixed-step time integrators on the local-coordinate state equations.

One classical RK4 routine on a flat state vector serves every scheme, and
:func:`step` advances one step of the configured scheme and projection:

* ``MuntheKaasRK4`` — RK4 on the local model ``(Xdot, Vdot) = local_rhs``
  with ``y = (X, V)`` restarted from ``X = 0`` every step, the configuration
  advanced through the transition map afterwards. The restart makes the
  local model an ordinary ODE on R^{6N}, so any one-step tableau applies;
* ``LocalVectorRK4`` — the name of the plain vector-space method this
  literally is; it runs the same code;
* ``BaselineQuatRK4`` — RK4 on ``y = (Q, r, V)`` with the quaternion rate
  equation ``Qdot = 1/2 Q (0, omega)`` and explicit renormalization each
  step, kept as the reference point the chart-based schemes are measured
  against.

Constraint drift is controlled, when requested, by a post-step projection:
Gauss-Newton on the position constraints moving the configuration through
chart increments, followed by an exact orthogonal velocity projection.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError
from scipy.linalg import cho_factor, cho_solve

from .dynamics import MbsState, constraint_residuals, forward_dynamics, local_rhs
from .errors import (
    ChartBoundary,
    InconsistentState,
    LiembsError,
    NoConvergence,
    SingularKkt,
    StepFailed,
    VariantMismatch,
)
from .lgt import QUAT_POS, apply_lgt_stacked, combo, quat_norm_error, quat_pos
from .motiongroups import DIRECT_PRODUCT, SEMIDIRECT
from .rotmaps import quat_mul

MUNTHE_KAAS_RK4 = "MuntheKaasRK4"
LOCAL_VECTOR_RK4 = "LocalVectorRK4"
BASELINE_QUAT_RK4 = "BaselineQuatRK4"

SCHEMES = (MUNTHE_KAAS_RK4, LOCAL_VECTOR_RK4, BASELINE_QUAT_RK4)

PROJECTION_OFF = "off"
PROJECTION_POSITION_VELOCITY = "position+velocity"

PROJECTION_MODES = (PROJECTION_OFF, PROJECTION_POSITION_VELOCITY)

# Residuals of the initial state must sit below this bound before a run.
_CONSISTENCY_TOL = 1.0e-10


@dataclass(frozen=True)
class IntegratorConfig:
    """Everything a fixed-step run needs besides the model and the state."""

    scheme: str
    combo: object = None
    h: float = 1.0e-3
    t_end: float = 1.0
    projection: str = PROJECTION_OFF
    projection_tol: float = 1.0e-10
    projection_max_iter: int = 20

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}"
            )
        if self.projection not in PROJECTION_MODES:
            raise ValueError(
                f"unknown projection mode {self.projection!r}; "
                f"expected one of {PROJECTION_MODES}"
            )
        if not (math.isfinite(self.h) and self.h > 0.0):
            raise ValueError("step size h must be positive and finite")
        if not (math.isfinite(self.t_end) and self.t_end >= 0.0):
            raise ValueError("t_end must be finite and nonnegative")
        if not self.projection_tol > 0.0:
            raise ValueError("projection_tol must be positive")
        if self.projection_max_iter < 1:
            raise ValueError("projection_max_iter must be at least 1")
        if self.scheme != BASELINE_QUAT_RK4:
            combo(self.combo)  # raises ValueError on an unknown id
        elif self.projection != PROJECTION_OFF:
            raise ValueError(
                "the baseline scheme has no chart to project through; "
                "set projection='off'"
            )


@dataclass(frozen=True)
class TrajectoryRecord:
    """Uniformly sampled trajectory with per-step diagnostics.

    Arrays are indexed by record (row k is time t[k]; row count equals
    floor(t_end/h)+1). ``q`` stacks each body's numeric coordinates
    (rotation part first), ``qnorm_err`` holds the per-body quaternion norm
    drift |  ||Q|| - 1 | and is None for axis-angle coordinates. For the
    baseline scheme the drift is measured before renormalization.
    """

    t: np.ndarray
    q: np.ndarray
    v: np.ndarray
    energy: np.ndarray
    gnorm: np.ndarray
    gvnorm: np.ndarray
    qnorm_err: object
    final_state: MbsState
    scheme: str
    combo_id: object = None

    def __len__(self):
        return self.t.size


def _guard_chart(x, n_bodies):
    """Abort the step if any body's local rotation leaves the pi-ball."""
    for i in range(n_bodies):
        rot = x[6 * i : 6 * i + 3]
        norm = math.sqrt(float(rot @ rot))
        if norm > math.pi:
            raise ChartBoundary(
                f"local rotation norm {norm:.6f} exceeds the per-step chart "
                "budget pi; reduce the step size"
            )


def _rk4(rate, t0, y0, h, guard):
    """One classical RK4 step of y' = rate(t, y) on a flat state vector.

    guard(y) runs on every stage state and on the result before it is used.
    """
    ks = [rate(t0, y0)]
    for c in (0.5, 0.5, 1.0):
        y = y0 + (c * h) * ks[-1]
        guard(y)
        ks.append(rate(t0 + c * h, y))
    k1, k2, k3, k4 = ks
    y = y0 + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    guard(y)
    return y


def _require_baseline_state(model, state):
    if model.group_model != DIRECT_PRODUCT:
        raise VariantMismatch(
            "the baseline quaternion scheme integrates rdot = v and needs "
            "the direct-product twist convention"
        )
    for q in state.qs:
        if q.kind != QUAT_POS:
            raise VariantMismatch(
                "the baseline quaternion scheme needs QuatPos absolute "
                f"coordinates, got {q.kind!r}"
            )


def _unit_quat_coords(y, n_bodies):
    """QuatPos coordinates of the (Q, r) part of a baseline state vector,
    each quaternion renormalized, and the norms it had."""
    quats, rs = y[: 4 * n_bodies], y[4 * n_bodies : 7 * n_bodies]
    qs, norms = [], np.empty(n_bodies)
    for i in range(n_bodies):
        quat = quats[4 * i : 4 * i + 4]
        norms[i] = math.sqrt(float(quat @ quat))
        qs.append(quat_pos(quat / norms[i], rs[3 * i : 3 * i + 3]))
    return tuple(qs), norms


def _baseline_rate(model, t, y):
    """Rates of y = (Q, r, V): quaternion kinematics, rdot = v, dynamics."""
    n_bodies = model.n_bodies
    quats, v = y[: 4 * n_bodies], y[7 * n_bodies :]
    qs, _ = _unit_quat_coords(y, n_bodies)
    vdot = forward_dynamics(model, MbsState(qs, v, t))
    qdot = np.empty_like(quats)
    for i in range(n_bodies):
        omega = v[6 * i : 6 * i + 3]
        qdot[4 * i : 4 * i + 4] = 0.5 * quat_mul(
            quats[4 * i : 4 * i + 4], np.array([0.0, omega[0], omega[1], omega[2]])
        )
    rdot = v.reshape(n_bodies, 6)[:, 3:].ravel()
    return np.concatenate([qdot, rdot, vdot])


def step(model, config, state):
    """Advance one step of the configured scheme and projection.

    Returns ``(state, qnorm_drift)``. For the baseline the drift is the
    per-body quaternion norm error before renormalization; the chart
    schemes preserve the norm by construction and return None.
    """
    h = config.h
    n_bodies = model.n_bodies
    if config.scheme == BASELINE_QUAT_RK4:
        _require_baseline_state(model, state)
        y0 = np.concatenate(
            [q.rot for q in state.qs] + [q.r for q in state.qs] + [state.V]
        )
        y = _rk4(
            lambda t, yy: _baseline_rate(model, t, yy), state.t, y0, h,
            lambda yy: None,
        )
        qs, norms = _unit_quat_coords(y, n_bodies)
        return MbsState(qs, y[7 * n_bodies :], state.t + h), np.abs(norms - 1.0)

    # The chart restarts at X = 0, so y = (X, V) is an ordinary ODE state.
    cmb = combo(config.combo)
    n = state.V.size

    def rate(t, y):
        vdot, xdot = local_rhs(model, cmb, state.qs, y[:n], y[n:], t)
        return np.concatenate([xdot, vdot])

    y = _rk4(
        rate, state.t, np.concatenate([np.zeros(n), state.V]), h,
        lambda yy: _guard_chart(yy[:n], n_bodies),
    )
    qs = apply_lgt_stacked(cmb, state.qs, y[:n])
    state = MbsState(tuple(qs), y[n:], state.t + h)
    if config.projection == PROJECTION_POSITION_VELOCITY:
        state = project(
            model, cmb, state, config.projection_tol, config.projection_max_iter
        )
    return state, None


def _chart_increment_scale(cmb, n_bodies):
    """Diagonal of the chart differential at zero, stacked over bodies.

    Gauss-Newton corrections move the configuration through
    ``apply_lgt(cmb, q, dX)``; to first order that changes the constraint
    by ``A J dX`` where ``J`` is the coordinate map's differential at the
    origin: the identity for the exponential charts, doubled on the blocks
    a Cayley chart covers (both for the extended-Rodrigues chart, only the
    rotation block when the translation factor is the identity chart).
    """
    if cmb.chart == "exp":
        per_body = np.ones(6)
    elif cmb.group_model == SEMIDIRECT:
        per_body = np.full(6, 2.0)
    else:
        per_body = np.array([2.0, 2.0, 2.0, 1.0, 1.0, 1.0])
    return np.tile(per_body, n_bodies)


def project(model, cmb, state, tol, max_iter):
    """Return the state pulled back onto the constraint manifold.

    Position stage: Gauss-Newton through chart increments until the
    position residual infinity norm drops below tol. Velocity stage: exact
    orthogonal projection of V onto the null space of the Jacobian.
    """
    if model.n_constraints == 0:
        return state
    cmb = combo(cmb)
    qs = list(state.qs)
    scale = _chart_increment_scale(cmb, model.n_bodies)

    iterations = 0
    while True:
        g = model.constraints(qs)
        if float(np.max(np.abs(g))) < tol:
            break
        if iterations >= max_iter:
            raise NoConvergence(
                f"position projection still at |g|={np.max(np.abs(g)):.3e} "
                f"after {max_iter} iterations (tol {tol:.3e})"
            )
        a_chart = model.jacobian(qs) * scale[np.newaxis, :]
        dx = np.linalg.lstsq(a_chart, -g, rcond=None)[0]
        qs = apply_lgt_stacked(cmb, qs, dx)
        iterations += 1

    a = model.jacobian(qs)
    try:
        factor = cho_factor(a @ a.T)
    except LinAlgError as exc:
        raise SingularKkt(
            "constraint Jacobian is rank deficient; cannot project velocity"
        ) from exc
    v = state.V - a.T @ cho_solve(factor, a @ state.V)
    return MbsState(tuple(qs), v, state.t)


def _coords_row(qs):
    return np.concatenate([np.concatenate([q.rot, q.r]) for q in qs])


def integrate(model, config, state0):
    """Run the fixed-step loop and record diagnostics at every step.

    The initial state must satisfy the constraints (position and velocity
    residuals below 1e-10). Failures inside a step are re-raised as
    StepFailed with the step index and time attached.
    """
    baseline = config.scheme == BASELINE_QUAT_RK4
    if baseline:
        cmb = None
        _require_baseline_state(model, state0)
        quat_diag = True
    else:
        cmb = combo(config.combo)
        if cmb.group_model != model.group_model:
            raise VariantMismatch(
                f"combo {cmb.id} uses {cmb.group_model} twists but the "
                f"model is built for {model.group_model}"
            )
        for q in state0.qs:
            if q.kind != cmb.abs_kind:
                raise VariantMismatch(
                    f"combo {cmb.id} transports {cmb.abs_kind} coordinates, "
                    f"got {q.kind!r}"
                )
        quat_diag = cmb.abs_kind == QUAT_POS

    gnorm0, gvnorm0 = constraint_residuals(model, state0)
    if gnorm0 > _CONSISTENCY_TOL or gvnorm0 > _CONSISTENCY_TOL:
        raise InconsistentState(
            f"initial residuals |g|={gnorm0:.3e}, |A V|={gvnorm0:.3e} "
            f"exceed {_CONSISTENCY_TOL:.0e}"
        )

    n_steps = int(math.floor(config.t_end / config.h + 1.0e-9))
    n_records = n_steps + 1
    n_bodies = model.n_bodies

    t_arr = np.empty(n_records)
    q_arr = np.empty((n_records, _coords_row(state0.qs).size))
    v_arr = np.empty((n_records, 6 * n_bodies))
    e_arr = np.empty(n_records)
    g_arr = np.empty(n_records)
    gv_arr = np.empty(n_records)
    qn_arr = np.zeros((n_records, n_bodies)) if quat_diag else None

    state = state0

    def _record(k, drift=None):
        t_arr[k] = state.t
        q_arr[k] = _coords_row(state.qs)
        v_arr[k] = state.V
        e_arr[k] = model.energy(state.qs, state.V)
        g_arr[k], gv_arr[k] = constraint_residuals(model, state)
        if qn_arr is not None:
            if drift is not None:
                qn_arr[k] = drift
            else:
                qn_arr[k] = [abs(quat_norm_error(q)) for q in state.qs]

    _record(0)
    for k in range(n_steps):
        try:
            state, drift = step(model, config, state)
        except LiembsError as exc:
            raise StepFailed(k, state.t, exc) from exc
        _record(k + 1, drift)

    return TrajectoryRecord(
        t=t_arr,
        q=q_arr,
        v=v_arr,
        energy=e_arr,
        gnorm=g_arr,
        gvnorm=gv_arr,
        qnorm_err=qn_arr,
        final_state=state,
        scheme=config.scheme,
        combo_id=None if baseline else cmb.id,
    )
