"""Fixed-step time integrators on the local-coordinate state equations.

One classical RK4 routine on a flat list of Python floats serves every
scheme, and :func:`step` advances one step of the configured scheme and
projection. numpy enters a step only at its boundary, where the new
state's twists become an array, and in the constrained solve and the
projection:

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
import numbers
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    MbsState,
    _OnFirstRead,
    _inf_norm,
    constraint_residuals,
    forward_dynamics,
    ground_increment,
    ground_velocity_projection,
    least_norm,
    local_rhs,
)
from .errors import (
    ChartBoundary,
    InconsistentState,
    InvalidConfig,
    LiembsError,
    NoConvergence,
    NonFiniteState,
    StepFailed,
)
from .lgt import (
    QUAT_POS,
    apply_lgt_stacked,
    combo,
    quat_pos,
    require_compatible,
)
from .motiongroups import DIRECT_PRODUCT
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

# What the projection's two least-norm corrections name when they fail.
_CHART_GRAM = "chart-scaled A A^T"
_VELOCITY_GRAM = "velocity projection A A^T"


def step_count(t_end, h):
    """The number n of steps of size h to t_end; InvalidConfig naming t_end
    unless t_end / h is finite and within 1e-9 * max(1, n) of n, so no run
    stops short."""
    ratio = t_end / h
    n = round(ratio) if math.isfinite(ratio) else 0
    if not abs(ratio - n) <= 1.0e-9 * max(1, n):
        raise InvalidConfig(
            "t_end", f"t_end / h = {ratio:.9g} is not a whole number of steps"
        )
    return n


def _real(field, value):
    """value as a float; InvalidConfig naming field unless it is a real
    number and not a bool, which would pass as 0 or 1. An int past the
    float range reads as inf."""
    if type(value) is bool or not isinstance(value, numbers.Real):
        raise InvalidConfig(
            field, f"{field} must be a number, not {type(value).__name__}"
        )
    try:
        return float(value)
    except OverflowError:
        return math.inf


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
        """InvalidConfig naming the field of the first bad value."""
        if self.scheme not in SCHEMES:
            raise InvalidConfig(
                "scheme", f"unknown scheme {self.scheme!r}; expected one of {SCHEMES}"
            )
        if self.projection not in PROJECTION_MODES:
            raise InvalidConfig(
                "projection",
                f"unknown projection mode {self.projection!r}; "
                f"expected one of {PROJECTION_MODES}",
            )
        h = _real("h", self.h)
        if not (math.isfinite(h) and h > 0.0):
            raise InvalidConfig("h", "step size h must be positive and finite")
        t_end = _real("t_end", self.t_end)
        if not (math.isfinite(t_end) and t_end >= 0.0):
            raise InvalidConfig("t_end", "t_end must be finite and nonnegative")
        step_count(self.t_end, self.h)
        tol = _real("projection_tol", self.projection_tol)
        if not (math.isfinite(tol) and tol > 0.0):
            raise InvalidConfig(
                "projection_tol", "projection_tol must be positive and finite"
            )
        max_iter = self.projection_max_iter
        if type(max_iter) is bool or not isinstance(max_iter, int) or max_iter < 1:
            raise InvalidConfig(
                "projection_max_iter", "projection_max_iter must be an integer >= 1"
            )
        if self.scheme != BASELINE_QUAT_RK4:
            combo(self.combo)  # InvalidConfig naming combo on an unknown id
        elif self.projection != PROJECTION_OFF:
            raise InvalidConfig(
                "projection",
                "the baseline scheme has no chart to project through; "
                "set projection='off'",
            )


@dataclass(frozen=True)
class TrajectoryRecord:
    """Uniformly sampled trajectory with per-step diagnostics.

    Arrays are indexed by record (row k is time t[k]; row count equals
    t_end/h + 1). ``q`` stacks each body's numeric coordinates
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
    """Abort the step if any body's local rotation leaves the pi-ball; x is
    the list of the 6N local coordinates."""
    for i in range(0, 6 * n_bodies, 6):
        a, b, c = x[i : i + 3]
        norm = math.sqrt(a * a + b * b + c * c)
        if not norm <= math.pi:  # NaN trips the guard too
            raise ChartBoundary(
                f"local rotation norm {norm:.6f} exceeds the per-step chart "
                "budget pi; reduce the step size"
            )


def _rk4(rate, t0, y0, h, guard):
    """One classical RK4 step of y' = rate(t, y) on a flat list of floats.

    guard(y) runs on every stage state and on the result before it is used.
    """
    ks = [rate(t0, y0)]
    for c in (0.5, 0.5, 1.0):
        ch = c * h
        y = [a + ch * k for a, k in zip(y0, ks[-1])]
        guard(y)
        ks.append(rate(t0 + ch, y))
    h6 = h / 6.0
    y = [
        a + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        for a, k1, k2, k3, k4 in zip(y0, *ks)
    ]
    guard(y)
    return y


def _require_finite(name, values):
    """NonFiniteState naming name unless every float in values is finite;
    a finite sum settles it, since a NaN or inf entry carries through."""
    if not (math.isfinite(sum(values)) or all(map(math.isfinite, values))):
        raise NonFiniteState(f"non-finite {name} in the step")


def _guard_finite(y, n_bodies):
    """Abort the baseline step at a stage or result y = (Q, r, V) with a NaN
    or infinite entry, naming the part, before any coordinates are built."""
    if math.isfinite(sum(y)):
        return
    _require_finite("quaternions", y[: 4 * n_bodies])
    _require_finite("positions r", y[4 * n_bodies : 7 * n_bodies])
    _require_finite("twists V", y[7 * n_bodies :])


def scheme_kinds(config):
    """(label, absolute-coordinate kind, twist group model) of the scheme a
    config runs; the baseline integrates rdot = v on quaternions."""
    if config.scheme == BASELINE_QUAT_RK4:
        return "the baseline quaternion scheme", QUAT_POS, DIRECT_PRODUCT
    cmb = combo(config.combo)
    return f"combo {cmb.id}", cmb.abs_kind, cmb.group_model


def _unit_quat_coords(y, n_bodies):
    """QuatPos coordinates of the (Q, r) part of a baseline state y, a list
    of floats, each quaternion renormalized, and the norms it had."""
    qs, norms = [], []
    for i in range(n_bodies):
        a, b, c, d = y[4 * i : 4 * i + 4]
        norm = math.sqrt(a * a + b * b + c * c + d * d)
        r = y[4 * n_bodies + 3 * i : 4 * n_bodies + 3 * i + 3]
        qs.append(quat_pos([a / norm, b / norm, c / norm, d / norm], r))
        norms.append(norm)
    return tuple(qs), norms


def _baseline_rate(model, t, y):
    """Rates of y = (Q, r, V), a list of floats: quaternion kinematics,
    rdot = v, dynamics. The stage's coordinates are built only if the model
    reads them."""
    n_bodies = model.n_bodies
    qs = _OnFirstRead(lambda: _unit_quat_coords(y, n_bodies)[0], n_bodies)
    v = y[7 * n_bodies :]
    vdot = forward_dynamics(model, qs, v, t)
    rate = []
    for i in range(n_bodies):
        omega = v[6 * i : 6 * i + 3]
        qdot = quat_mul(y[4 * i : 4 * i + 4], [0.0, *omega]).tolist()
        rate += [0.5 * c for c in qdot]
    for i in range(n_bodies):
        rate += v[6 * i + 3 : 6 * i + 6]
    return rate + vdot


def step(model, config, state):
    """Advance one step of the configured scheme and projection.

    Returns ``(state, qnorm_drift, residuals)``. For the baseline the drift
    is the per-body quaternion norm error before renormalization; the chart
    schemes preserve the norm by construction and return None. residuals
    is the ``(gnorm, gvnorm)`` pair of :func:`project` when it ran, else
    None. Raises NonFiniteState, naming the quantity, when the new state
    (or, for the baseline, a stage state) has a NaN or infinite entry, so
    no such value reaches a projection or a record.
    """
    h = config.h
    n_bodies = model.n_bodies
    if config.scheme == BASELINE_QUAT_RK4:
        require_compatible(*scheme_kinds(config), model, state.qs)
        y0 = [c for q in state.qs for c in q.rot.tolist()]
        y0 += [c for q in state.qs for c in q.r.tolist()]
        y = _rk4(
            lambda t, yy: _baseline_rate(model, t, yy), state.t,
            y0 + state.V.tolist(), h, lambda yy: _guard_finite(yy, n_bodies),
        )
        qs, norms = _unit_quat_coords(y, n_bodies)
        state = MbsState(qs, np.array(y[7 * n_bodies :]), state.t + h)
        return state, [abs(norm - 1.0) for norm in norms], None

    # The chart restarts at X = 0, so y = (X, V) is an ordinary ODE state.
    cmb = combo(config.combo)
    n = 6 * n_bodies

    def rate(t, y):
        vdot, xdot = local_rhs(model, cmb, state.qs, y[:n], y[n:], t)
        return xdot + vdot

    y = _rk4(
        rate, state.t, [0.0] * n + state.V.tolist(), h,
        lambda yy: _guard_chart(yy, n_bodies),
    )
    v = y[n:]
    _require_finite("twists V", v)
    qs = apply_lgt_stacked(cmb, state.qs, y[:n])
    # The chart guard has passed X, so only a position can overflow here.
    _require_finite("positions r", [c for q in qs for c in q.r.tolist()])
    state = MbsState(tuple(qs), np.array(v), state.t + h)
    residuals = None
    if config.projection == PROJECTION_POSITION_VELOCITY:
        state, residuals = project(
            model, cmb, state, config.projection_tol, config.projection_max_iter
        )
    return state, None, residuals


def project(model, cmb, state, tol, max_iter):
    """Return the state pulled back onto the constraint manifold, and its
    residuals.

    Position stage: Gauss-Newton through chart increments until the
    position residual infinity norm drops below tol. Velocity stage: exact
    orthogonal projection of V onto the null space of the Jacobian. Both
    are least-norm corrections with W = I (SingularKkt on a Jacobian
    without full row rank, which spherical joints always have). A model
    whose ``ground_grams`` is not None (every joint holds a body to the
    ground, or one link joins a body that no other joint holds, as in the
    two-body chain) makes both in joint frames, in floats, with those
    constant factors (:func:`~liembs.dynamics.ground_increment` and
    :func:`~liembs.dynamics.ground_velocity_projection`); a correction
    whose link pivot fails its gate, and any other model, through
    :func:`least_norm` on its dense Jacobian. Returns
    ``(state, (gnorm, gvnorm))``: the infinity norms of g at the final
    coordinates and of A V at the projected twists, bitwise what
    :func:`constraint_residuals` gives for that state.
    """
    if model.n_constraints == 0:
        return state, (0.0, 0.0)
    cmb = combo(cmb)
    qs = list(state.qs)
    joint_frames = getattr(model, "ground_grams", None) is not None

    for iteration in range(max_iter + 1):
        g = model.constraints(qs)
        gs = g.tolist()
        gnorm = _inf_norm(gs)
        if gnorm < tol:
            break
        if iteration == max_iter:
            raise NoConvergence(
                f"position projection still at |g|={gnorm:.3e} "
                f"after {max_iter} iterations (tol {tol:.3e})"
            )
        # To first order apply_lgt(cmb, q, dX) moves the constraint by
        # A dpsi(0) dX, and dpsi(0) is diagonal, the inverse of chart_scale.
        dx = None
        if joint_frames:
            dx = ground_increment(model, qs, gs, cmb.chart_scale, _CHART_GRAM)
        if dx is None:
            a_chart = model.jacobian(qs) / np.tile(cmb.chart_scale, model.n_bodies)
            dx, _ = least_norm(a_chart, a_chart.T, -g, _CHART_GRAM)
            dx = dx.tolist()
        qs = apply_lgt_stacked(cmb, qs, dx)

    vs = None
    if joint_frames:
        vs = ground_velocity_projection(model, qs, state.V.tolist(), _VELOCITY_GRAM)
    if vs is None:
        a = model.jacobian(qs)
        correction, _ = least_norm(a, a.T, a @ state.V, _VELOCITY_GRAM)
        v = state.V - correction
        vs = v.tolist()
    else:
        v = np.array(vs)
    gvnorm = _inf_norm(model.point_velocities(qs, vs))
    return MbsState(tuple(qs), v, state.t), (gnorm, gvnorm)


def integrate(model, config, state0):
    """Run the fixed-step loop and record diagnostics at every step.

    The initial state must satisfy the constraints (position and velocity
    residuals below 1e-10). Failures inside a step (a LiembsError, an
    ArithmeticError or a ValueError, which includes numpy's LinAlgError)
    are re-raised as StepFailed with the step index and time attached.

    The record is one float block with a row per step, written from one
    list; the fields of the TrajectoryRecord are views of its columns.
    """
    label, abs_kind, group_model = scheme_kinds(config)
    require_compatible(label, abs_kind, group_model, model, state0.qs)
    quat_diag = abs_kind == QUAT_POS

    gnorm0, gvnorm0 = constraint_residuals(model, state0)
    if not (gnorm0 <= _CONSISTENCY_TOL and gvnorm0 <= _CONSISTENCY_TOL):
        raise InconsistentState(
            f"initial residuals |g|={gnorm0:.3e}, |A V|={gvnorm0:.3e} "
            f"exceed {_CONSISTENCY_TOL:.0e}"
        )

    n_steps = step_count(config.t_end, config.h)
    n_bodies = model.n_bodies
    # Columns: t, each body's (rot, r), V, energy, gnorm, gvnorm, and the
    # quaternion drift of each body for quaternion coordinates.
    n_q = sum(q.rot.size + q.r.size for q in state0.qs)
    e = 1 + n_q + 6 * n_bodies
    try:
        block = np.empty((n_steps + 1, e + 3 + (n_bodies if quat_diag else 0)))
    # numpy raises ValueError for a shape past its index range and
    # MemoryError for one within it that the host cannot hold.
    except (ValueError, MemoryError) as exc:
        raise InvalidConfig(
            "t_end", f"t_end / h = {n_steps:.9g} steps do not fit in a record: {exc}"
        ) from exc

    state = state0

    def _record(k, drift=None, residuals=None):
        row = [state.t]
        norms = []
        for q in state.qs:
            rot = q.rot.tolist()
            row += rot
            row += q.r.tolist()
            if quat_diag and drift is None:
                a, b, c, d = rot
                norms.append(abs(math.sqrt(a * a + b * b + c * c + d * d) - 1.0))
        v = state.V.tolist()
        row += v
        row.append(model.energy(state.qs, v))
        if residuals is None:
            residuals = constraint_residuals(model, state)
        row += residuals
        row += norms if drift is None else drift
        block[k] = row

    _record(0, residuals=(gnorm0, gvnorm0))
    if not math.isfinite(block[0, e]):
        raise InconsistentState(f"initial energy {block[0, e]} is not finite")
    for k in range(n_steps):
        try:
            state, drift, residuals = step(model, config, state)
        # Float kernels raise ValueError (math.cos(inf)) or OverflowError
        # where numpy would return NaN; LinAlgError is a ValueError.
        except (LiembsError, ArithmeticError, ValueError) as exc:
            raise StepFailed(k, state.t, exc) from exc
        _record(k + 1, drift, residuals)

    return TrajectoryRecord(
        t=block[:, 0],
        q=block[:, 1 : 1 + n_q],
        v=block[:, 1 + n_q : e],
        energy=block[:, e],
        gnorm=block[:, e + 1],
        gvnorm=block[:, e + 2],
        qnorm_err=block[:, e + 3 :] if quat_diag else None,
        final_state=state,
        scheme=config.scheme,
        combo_id=None
        if config.scheme == BASELINE_QUAT_RK4
        else combo(config.combo).id,
    )
