"""Tests for the fixed-step integrators and the constraint projection."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

import liembs.integrate
from liembs import lgt
from liembs.cli import load_scenario
from liembs.dynamics import constraint_residuals, make_state, solve_kkt
from liembs.errors import (
    ChartBoundary,
    InconsistentState,
    InvalidConfig,
    NoConvergence,
    NonFiniteState,
    SingularKkt,
    StepFailed,
    VariantMismatch,
)
from liembs.integrate import (
    BASELINE_QUAT_RK4,
    LOCAL_VECTOR_RK4,
    MUNTHE_KAAS_RK4,
    PROJECTION_POSITION_VELOCITY,
    IntegratorConfig,
    _unit_quat_coords,
    integrate,
    project,
    step,
)
from liembs.lgt import (
    AXIS_ANGLE_POS,
    COMBO_IDS,
    QUAT_POS,
    alpha_map,
    combo,
    identity_coords,
    quat_pos,
)
from liembs.models import (
    BodyParams,
    SphericalJointSystem,
    free_rigid_body,
    pinned_body,
    two_body_chain,
)
from liembs.motiongroups import (
    DIRECT_PRODUCT,
    SEMIDIRECT,
    dcay_inv_se3,
    dexp_inv_se3,
)
from liembs.rotmaps import exp_so3, exp_sp1

import oracles


_FREE = BodyParams(mass=1.0, inertia=(1.0, 2.0, 3.0), gravity=(0.0, 0.0, 0.0))
_SPHERE = BodyParams(mass=1.0, inertia=(2.0, 2.0, 2.0), gravity=(0.0, 0.0, 0.0))


def _initial_coords(cmb, rot=None, r=(0.0, 0.0, 0.0)):
    q = identity_coords(combo(cmb).abs_kind)
    r = np.asarray(r, dtype=float)
    if rot is None:
        return type(q)(q.kind, q.rot, r)
    return type(q)(q.kind, np.asarray(rot, dtype=float), r)


def _free_model(cmb, params=_FREE):
    return free_rigid_body(params, combo(cmb).group_model)


def _step(model, cid, state, h, scheme=MUNTHE_KAAS_RK4):
    """One step without projection; the drift output is dropped."""
    return step(model, IntegratorConfig(scheme, cid, h=h), state)[0]


def _tumble_start(cmb):
    model = _free_model(cmb)
    q0 = identity_coords(combo(cmb).abs_kind)
    v0 = np.array([0.5, 4.0, 0.3, 0.0, 0.0, 0.0])
    return model, make_state([q0], v0)


def test_zero_velocity_zero_force_is_fixed_point():
    for cid in ("1a", "2c"):
        model = _free_model(cid)
        state = make_state([identity_coords(combo(cid).abs_kind)], np.zeros(6))
        out = _step(model, cid, state, 0.1)
        assert np.allclose(out.V, 0.0)
        rot0, r0 = alpha_map(state.qs[0])
        rot1, r1 = alpha_map(out.qs[0])
        assert np.allclose(rot0, rot1, atol=1e-15)
        assert np.allclose(r0, r1, atol=1e-15)


@pytest.mark.parametrize("cid", COMBO_IDS)
def test_spherical_body_advances_by_exact_exponential(cid):
    # Constant omega on a spherical body: the flow is a one-parameter
    # subgroup. In the exponential charts the local rate is exactly
    # constant, so RK4 reproduces exp(h*hat(omega)) at any step size; in
    # the Cayley charts the coaxial rate obeys xdot = (1+|x|^2)/2 * omega,
    # so exactness to 1e-12 needs the per-step angle small.
    cmb = combo(cid)
    h = 0.05 if cmb.chart == "exp" else 2e-3
    model = _free_model(cid, _SPHERE)
    omega = np.array([0.3, -1.1, 0.7])
    state = make_state(
        [identity_coords(cmb.abs_kind)],
        np.concatenate([omega, np.zeros(3)]),
    )
    rot_exact = np.eye(3)
    for _ in range(10):
        state = _step(model, cid, state, h)
        rot_exact = rot_exact @ exp_so3(h * omega)
    rot, _ = alpha_map(state.qs[0])
    assert np.max(np.abs(rot - rot_exact)) < 1e-12


def test_local_vector_scheme_is_bit_identical():
    model, state = _tumble_start("1a")
    a = _step(model, "1a", state, 1e-2, MUNTHE_KAAS_RK4)
    b = _step(model, "1a", state, 1e-2, LOCAL_VECTOR_RK4)
    assert np.array_equal(a.V, b.V)
    for qa, qb in zip(a.qs, b.qs):
        assert np.array_equal(qa.rot, qb.rot)
        assert np.array_equal(qa.r, qb.r)


@pytest.mark.parametrize("cid", COMBO_IDS)
def test_global_error_is_fourth_order(cid):
    # Halving h on the tumbling body must shrink the global error 16-fold.
    model, state = _tumble_start(cid)
    t_end = 1.0
    errs = []
    ref = integrate(
        model,
        IntegratorConfig(MUNTHE_KAAS_RK4, cid, h=5e-4, t_end=t_end),
        state,
    )
    rot_ref, _ = alpha_map(ref.final_state.qs[0])
    for h in (1e-2, 5e-3):
        rec = integrate(
            model, IntegratorConfig(MUNTHE_KAAS_RK4, cid, h=h, t_end=t_end), state
        )
        rot, _ = alpha_map(rec.final_state.qs[0])
        errs.append(np.max(np.abs(rot - rot_ref)))
    order = math.log2(errs[0] / errs[1])
    assert 3.8 < order < 4.2, (cid, errs)


def test_one_step_equals_two_half_steps_to_fifth_order():
    # The X=0 restart carries no hidden state: halving the step only
    # changes the result at the local truncation level O(h^5).
    model, state = _tumble_start("2a")
    for h in (1e-2, 5e-3):
        one = _step(model, "2a", state, h)
        half = _step(model, "2a", _step(model, "2a", state, h / 2), h / 2)
        gap = np.max(np.abs(one.V - half.V))
        assert gap < 5.0 * h**5
    assert gap > 0.0


def test_combo_independence_of_the_flow():
    # All 8 combos discretize the same ODE: final poses agree to 1e-8.
    poses = []
    for cid in COMBO_IDS:
        model, state = _tumble_start(cid)
        rec = integrate(
            model, IntegratorConfig(MUNTHE_KAAS_RK4, cid, h=1e-3, t_end=1.0), state
        )
        poses.append(alpha_map(rec.final_state.qs[0]))
    rot0, r0 = poses[0]
    for rot, r in poses[1:]:
        assert np.max(np.abs(rot - rot0)) < 1e-8
        assert np.max(np.abs(r - r0)) < 1e-8


def test_quaternion_norm_is_preserved_without_renormalization():
    model, state = _tumble_start("1c")
    rec = integrate(
        model, IntegratorConfig(MUNTHE_KAAS_RK4, "1c", h=1e-3, t_end=2.0), state
    )
    assert np.max(rec.qnorm_err) < 1e-13


def test_baseline_drifts_and_lgt_does_not():
    # Pre-renormalization norm drift per baseline step scales like
    # (|omega| h / 2)^6 / 72; h must be coarse enough to lift it well
    # clear of roundoff.
    h, t_end = 2e-2, 5.0
    model, state = _tumble_start("1b")
    lgt_rec = integrate(
        model, IntegratorConfig(MUNTHE_KAAS_RK4, "1b", h=h, t_end=t_end), state
    )
    base_rec = integrate(
        model, IntegratorConfig(BASELINE_QUAT_RK4, h=h, t_end=t_end), state
    )
    assert np.max(base_rec.qnorm_err) > 1e-12
    assert np.max(lgt_rec.qnorm_err) < 1e-12


def test_baseline_single_step_error_is_fifth_order_not_exact():
    # Constant omega: the chart step is exact, the quaternion RK4 step
    # carries a genuine O(h^5) defect.
    model = _free_model("1b", _SPHERE)
    omega = np.array([0.0, 0.0, 2.0])
    state = make_state(
        [identity_coords("quatpos")], np.concatenate([omega, np.zeros(3)])
    )
    errs = []
    for h in (0.1, 0.05):
        exact = exp_so3(h * omega)
        lgt_rot, _ = alpha_map(_step(model, "1b", state, h).qs[0])
        base_rot, _ = alpha_map(_step(model, None, state, h, BASELINE_QUAT_RK4).qs[0])
        assert np.max(np.abs(lgt_rot - exact)) < 1e-14
        errs.append(np.max(np.abs(base_rot - exact)))
    assert errs[0] > 1e-9
    assert errs[0] / errs[1] == pytest.approx(32.0, rel=0.15)


def test_baseline_requires_quatpos_direct_product():
    sd_model = _free_model("1a")
    state = make_state([identity_coords("quatpos")], np.zeros(6))
    cfg = IntegratorConfig(BASELINE_QUAT_RK4, h=1e-2)
    with pytest.raises(VariantMismatch):
        step(sd_model, cfg, state)
    dp_model = _free_model("2b")
    aa_state = make_state([identity_coords(AXIS_ANGLE_POS)], np.zeros(6))
    with pytest.raises(VariantMismatch):
        step(dp_model, cfg, aa_state)


def test_chart_boundary_guard_fires_on_oversized_step():
    model = _free_model("1a", _SPHERE)
    state = make_state(
        [identity_coords("quatpos")], np.array([0.0, 0.0, 5.0, 0.0, 0.0, 0.0])
    )
    with pytest.raises(ChartBoundary):
        step(model, IntegratorConfig(MUNTHE_KAAS_RK4, "1a", h=1.0), state)
    with pytest.raises(StepFailed) as info:
        integrate(
            model, IntegratorConfig(MUNTHE_KAAS_RK4, "1a", h=1.0, t_end=2.0), state
        )
    assert info.value.step_index == 0


def _pendulum(cmb, omega0=1.0):
    params = BodyParams(mass=2.0, inertia=(0.12, 0.1, 0.06))
    cmb = combo(cmb)
    model = pinned_body(params, (0.0, 0.0, 0.5), group_model=cmb.group_model)
    q0 = _initial_coords(cmb.id, r=(0.0, 0.0, -0.5))
    # Rotation about the pin through x keeps A V = 0: v = omega x (-p).
    # At the identity rotation both twist conventions give the same numbers.
    omega = np.array([omega0, 0.0, 0.0])
    p = np.array([0.0, 0.0, 0.5])
    v0 = np.concatenate([omega, np.cross(omega, -p)])
    return model, make_state([q0], v0)


def test_projection_restores_perturbed_state():
    model, state = _pendulum("1a")
    qs = state.qs
    bumped = quat_pos(qs[0].rot, qs[0].r + np.array([1e-4, 0.0, -1e-4]))
    bad = make_state([bumped], state.V + np.array([0, 0, 0, 1e-4, 0, 0]))
    fixed = project(model, "1a", bad, tol=1e-12, max_iter=5)[0]
    g = model.constraints(fixed.qs)
    assert np.max(np.abs(g)) < 1e-12
    av = model.jacobian(fixed.qs) @ fixed.V
    assert np.max(np.abs(av)) < 1e-13


@pytest.mark.parametrize("cid", COMBO_IDS)
def test_projection_converges_in_every_chart(cid):
    model, state = _pendulum(cid)
    q0 = state.qs[0]
    bumped = type(q0)(q0.kind, q0.rot, q0.r + np.array([1e-4, -5e-5, 1e-4]))
    bad = make_state([bumped], state.V)
    fixed = project(model, cid, bad, tol=1e-12, max_iter=5)[0]
    assert np.max(np.abs(model.constraints(fixed.qs))) < 1e-12


def test_projection_leaves_consistent_state_unchanged():
    model, state = _pendulum("1a")
    out = project(model, "1a", state, tol=1e-10, max_iter=3)[0]
    assert np.array_equal(out.V, state.V)
    assert np.array_equal(out.qs[0].rot, state.qs[0].rot)
    assert np.array_equal(out.qs[0].r, state.qs[0].r)


def test_projection_raises_after_max_iter():
    model, state = _pendulum("1a")
    q0 = state.qs[0]
    bumped = quat_pos(q0.rot, q0.r + np.array([0.3, 0.0, 0.0]))
    bad = make_state([bumped], state.V)
    with pytest.raises(NoConvergence):
        project(model, "1a", bad, tol=1e-15, max_iter=1)


class _StopAtIncrement(Exception):
    """Raised by a spy in place of the first chart update of a projection."""


@pytest.mark.parametrize("cid", COMBO_IDS)
@pytest.mark.parametrize("n_bodies", [1, 2], ids=["pinned_body", "two_body_chain"])
def test_gauss_newton_increment_is_the_least_squares_solution(
    monkeypatch, n_bodies, cid
):
    cmb = combo(cid)
    p1 = BodyParams(mass=1.2, inertia=(0.4, 0.5, 0.3))
    p2 = BodyParams(mass=0.7, inertia=(0.1, 0.2, 0.15))
    if n_bodies == 1:
        model = pinned_body(p1, (0.0, 0.0, 0.3), group_model=cmb.group_model)
    else:
        joints = ((0.0, 0.0, 0.3), (0.0, 0.0, -0.3), (0.1, 0.0, 0.25))
        model = two_body_chain(p1, p2, joints, group_model=cmb.group_model)
    increments = []

    def first_increment(cmb, qs, dx):
        increments.append(dx)
        raise _StopAtIncrement

    monkeypatch.setattr("liembs.integrate.apply_lgt_stacked", first_increment)
    matrix = {
        "a": dexp_inv_se3,
        "b": oracles.dexp_inv_dp,
        "c": oracles.dcay_inv_dp,
        "d": dcay_inv_se3,
    }
    dpsi_inv_0 = np.diag(matrix[cid[1]](np.zeros(6)))
    rng = np.random.default_rng(11)
    for _ in range(5):
        qs = []
        for _ in range(n_bodies):
            rho = rng.uniform(-1.5, 1.5, 3)
            rot = exp_sp1(rho) if cmb.abs_kind == QUAT_POS else rho
            qs.append(_initial_coords(cid, rot, rng.uniform(-0.5, 0.5, 3)))
        state = make_state(qs, np.zeros(6 * n_bodies))
        with pytest.raises(_StopAtIncrement):
            project(model, cid, state, tol=1e-12, max_iter=5)
        want = oracles.lstsq_chart_increment(model, dpsi_inv_0, state.qs)
        assert np.max(np.abs(increments[-1] - want)) <= 1e-12 * np.max(np.abs(want))


def test_velocity_projection_rejects_an_ill_conditioned_jacobian():
    # The joint stated twice, the copy's Jacobian tilted by 1e-7 P: A A^T is
    # positive definite in floating point but has condition near 1e15.
    model, state = _pendulum("1a", omega0=1.0)
    tilt = 1e-7 * np.random.default_rng(3).standard_normal((3, 6))

    class NearlyRedundant:
        # Without the pendulum's constant factor, project takes the dense
        # path through this Jacobian.
        n_constraints = 6
        ground_schur = ground_grams = None

        def __getattr__(self, name):
            return getattr(model, name)

        def constraints(self, qs):
            return np.tile(model.constraints(qs), 2)

        def jacobian(self, qs):
            a = model.jacobian(qs)
            return np.vstack([a, a + tilt])

    a = NearlyRedundant().jacobian(state.qs)
    assert np.linalg.cond(a @ a.T) > 1e14
    with pytest.raises(SingularKkt, match="reciprocal condition"):
        project(NearlyRedundant(), "1a", state, tol=1e-10, max_iter=3)


def test_a_nan_constraint_reaches_the_residuals_and_stops_the_projection():
    # The NaN follows a finite entry: a plain max over the entries would
    # skip it and read the constraints as met.
    model, state = _pendulum("1a")

    class NanConstraint:
        def __getattr__(self, name):
            return getattr(model, name)

        def constraints(self, qs):
            g = model.constraints(qs).copy()
            g[1] = math.nan
            return g

    gnorm, gvnorm = constraint_residuals(NanConstraint(), state)
    assert math.isnan(gnorm)
    assert gvnorm == constraint_residuals(model, state)[1]
    with pytest.raises(SingularKkt, match="non-finite multipliers"):
        project(NanConstraint(), "1a", state, tol=1e-10, max_iter=3)


class _Dense:
    """A model seen without its constant joint-frame factors, so that
    project takes the dense least_norm path through its Jacobian."""

    ground_schur = ground_grams = None

    def __init__(self, model):
        self._model = model

    def __getattr__(self, name):
        return getattr(self._model, name)


_HELD_BODIES = (
    BodyParams(mass=2.0, inertia=(0.12, 0.1, 0.06)),
    BodyParams(mass=0.7, inertia=(0.1, 0.2, 0.15), gravity=(0.3, 0.0, -9.81)),
)
# Per body held to the ground: its pin in the body frame, the world anchor
# and the rotation vector of its orientation.
_HELD_PINS = (
    ((0.0, 0.0, 0.5), (0.0, 0.0, 0.0), (0.4, -0.3, 0.2)),
    ((0.2, -0.1, -0.25), (0.5, 0.2, 0.1), (-0.7, 0.1, 0.5)),
)


def _held_to_the_ground(cid, n_bodies):
    """n_bodies bodies in their CoM frames, each pinned to the ground, at
    rest in a pose that meets the constraints."""
    pins = _HELD_PINS[:n_bodies]
    model = SphericalJointSystem(
        _HELD_BODIES[:n_bodies],
        [(i, p, None, anchor) for i, (p, anchor, _) in enumerate(pins)],
        combo(cid).group_model,
    )
    qs = []
    for p, anchor, rho in pins:
        rho = np.array(rho)
        rot = exp_sp1(rho) if combo(cid).abs_kind == QUAT_POS else rho
        qs.append(_initial_coords(cid, rot, np.array(anchor) - exp_so3(rho) @ p))
    return model, make_state(qs, np.zeros(6 * n_bodies))


def _shipped_pendulum(cid):
    root = Path(__file__).resolve().parent.parent
    model, state, _ = load_scenario(root / "scenarios" / "pendulum_pinned.json").build(
        combo_id=cid
    )
    return model, state


# The rotation vectors of the two chain bodies' orientations.
_CHAIN_POSE = ((0.4, -0.3, 0.2), (-0.7, 0.1, 0.5))


def _posed_chain(cid, bodies, points):
    """The two-body chain of the bodies and joint points, anchored at the
    origin, at rest in the orientations _CHAIN_POSE, its positions solved
    from its joints."""
    model = two_body_chain(*bodies, points, group_model=combo(cid).group_model)
    p_ground, p_link, p_b = (np.array(p) for p in points)
    rots = [exp_so3(np.array(rho)) for rho in _CHAIN_POSE]
    r0 = -rots[0] @ p_ground
    positions = (r0, r0 + rots[0] @ p_link - rots[1] @ p_b)
    qs = [
        _initial_coords(
            cid,
            exp_sp1(np.array(rho)) if combo(cid).abs_kind == QUAT_POS else rho,
            r,
        )
        for rho, r in zip(_CHAIN_POSE, positions)
    ]
    return model, make_state(qs, np.zeros(12))


def _shipped_chain(cid):
    """The shipped chain_swing model, posed as _posed_chain poses it."""
    path = Path(__file__).resolve().parent.parent / "scenarios" / "chain_swing.json"
    spec = json.loads(path.read_text())["model"]
    bodies = [
        BodyParams(mass=b["mass_kg"], inertia=b["inertia_kgm2"]) for b in spec["bodies"]
    ]
    model, state = _posed_chain(cid, bodies, spec["joint_points_m"])
    shipped, _, _ = load_scenario(path).build(combo_id=cid)
    assert model.ground_schur == shipped.ground_schur
    return model, state


_OFF_COM_CHAIN = (
    BodyParams(mass=1.2, inertia=(0.4, 0.5, 0.3), com_offset=(0.0, 0.1, -0.2)),
    BodyParams(mass=0.7, inertia=(0.1, 0.2, 0.15), com_offset=(-0.05, 0.1, 0.15)),
)
_OFF_COM_POINTS = ((0.1, 0.0, 0.3), (0.0, -0.1, -0.3), (0.05, 0.0, 0.25))
_SEMIDIRECT_IDS = ("1a", "1d", "2a", "2d")


def _count_dense_solves(monkeypatch):
    """A list that gains an entry for each least_norm call of project."""
    dense = liembs.integrate.least_norm
    calls = []
    monkeypatch.setattr(
        liembs.integrate, "least_norm", lambda *args: calls.append(1) or dense(*args)
    )
    return calls


@pytest.mark.parametrize(
    "system, cid",
    [("com_frame_pendulum", cid) for cid in COMBO_IDS]
    + [("shipped_pendulum", cid) for cid in _SEMIDIRECT_IDS]
    + [("two_pinned_bodies", cid) for cid in COMBO_IDS]
    + [("shipped_chain", cid) for cid in COMBO_IDS]
    + [("off_com_chain", cid) for cid in _SEMIDIRECT_IDS],
)
def test_the_joint_frame_projection_matches_the_dense_one(monkeypatch, system, cid):
    # Each body's position bumped off its joints and its twist bumped off
    # the constraint, so that Gauss-Newton iterates in both paths; the
    # joint-frame one never reaches the dense least_norm.
    if system == "shipped_pendulum":
        model, state = _shipped_pendulum(cid)
    elif system == "shipped_chain":
        model, state = _shipped_chain(cid)
    elif system == "off_com_chain":
        model, state = _posed_chain(cid, _OFF_COM_CHAIN, _OFF_COM_POINTS)
    else:
        n_bodies = 2 if system == "two_pinned_bodies" else 1
        model, state = _held_to_the_ground(cid, n_bodies)
    assert model.ground_grams is not None
    rng = np.random.default_rng(29)
    qs = [
        type(q)(q.kind, q.rot, q.r + rng.uniform(-1e-3, 1e-3, 3)) for q in state.qs
    ]
    bad = make_state(qs, state.V + rng.uniform(-0.5, 0.5, state.V.size))
    assert constraint_residuals(model, bad)[0] > 1e-5
    calls = _count_dense_solves(monkeypatch)
    got, _ = project(model, cid, bad, tol=1e-12, max_iter=10)
    assert calls == []
    want, _ = project(_Dense(model), cid, bad, tol=1e-12, max_iter=10)
    assert len(calls) >= 2  # a Gauss-Newton step and the velocity stage

    def coords(s):
        return np.concatenate([np.concatenate([q.rot, q.r]) for q in s.qs])

    for a, b in ((coords(got), coords(want)), (got.V, want.V)):
        assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))


@pytest.mark.parametrize("cid", COMBO_IDS)
def test_a_chain_between_the_gates_takes_the_dense_projection(monkeypatch, cid):
    # A 100 km arm on the second body leaves A A^T a reciprocal condition
    # near 5e-11: the pivot's bound sends the velocity stage to least_norm,
    # whose eigh gate passes it, and the projection is the dense one's.
    points = ((0.0, 0.0, 0.3), (0.0, 0.0, -0.3), (0.0, 0.0, 1e5))
    model, state = _posed_chain(cid, _HELD_BODIES, points)
    state = make_state(state.qs, np.random.default_rng(31).normal(size=12))
    a = model.jacobian(state.qs)
    w = np.linalg.eigvalsh(a @ a.T)
    assert 1e-12 < w[0] / w[-1] < 1e-10
    assert constraint_residuals(model, state)[0] < 1e-9
    calls = _count_dense_solves(monkeypatch)
    got, _ = project(model, cid, state, tol=1e-9, max_iter=3)
    assert len(calls) == 1
    want, _ = project(_Dense(model), cid, state, tol=1e-9, max_iter=3)
    assert np.array_equal(got.V, want.V)


@pytest.mark.parametrize("cid", COMBO_IDS)
def test_a_projection_gram_that_overflows_fails_the_dense_gate_quietly(cid):
    # A 1e160 m arm overflows the chain's velocity gram: its pivot fails,
    # and the dense least_norm reads the overflowed A A^T's reciprocal
    # condition as 0 without a numpy warning. The anchor far out keeps the
    # posed joints met exactly, so only the velocity stage runs.
    points = ((0.0, 0.0, 0.5), (0.0, 0.0, -0.5), (0.0, 0.0, 1e160))
    model = two_body_chain(
        *_HELD_BODIES, points, (0.0, 0.0, 1e160), combo(cid).group_model
    )
    qs = [_initial_coords(cid, r=(0.0, 0.0, z)) for z in (1e160, 0.0)]
    state = make_state(qs, np.ones(12))
    assert constraint_residuals(model, state)[0] == 0.0
    zero = r"velocity projection A A\^T reciprocal condition 0\.000e\+00"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularKkt, match=zero):
            project(model, cid, state, tol=1e-10, max_iter=3)


def test_pendulum_residuals_stay_small_with_projection():
    model, state = _pendulum("1a", omega0=2.0)
    cfg = IntegratorConfig(
        LOCAL_VECTOR_RK4,
        "1a",
        h=1e-3,
        t_end=2.0,
        projection=PROJECTION_POSITION_VELOCITY,
        projection_tol=1e-12,
    )
    rec = integrate(model, cfg, state)
    assert np.max(rec.gnorm) < 1e-8
    assert np.max(rec.gvnorm) < 1e-10


def test_integrate_rejects_inconsistent_start():
    model, state = _pendulum("1a")
    q0 = state.qs[0]
    bad = make_state([quat_pos(q0.rot, q0.r + np.array([1e-3, 0, 0]))], state.V)
    with pytest.raises(InconsistentState):
        integrate(model, IntegratorConfig(MUNTHE_KAAS_RK4, "1a", h=1e-3), bad)


def test_integrate_rejects_mismatched_combo():
    model, state = _tumble_start("1a")
    with pytest.raises(VariantMismatch):
        integrate(model, IntegratorConfig(MUNTHE_KAAS_RK4, "1b", h=1e-3), state)
    cfg = IntegratorConfig(MUNTHE_KAAS_RK4, "2a", h=1e-3)
    with pytest.raises(VariantMismatch):
        integrate(model, cfg, state)


def test_record_layout_and_count():
    model, state = _tumble_start("1a")
    rec = integrate(
        model, IntegratorConfig(MUNTHE_KAAS_RK4, "1a", h=1e-3, t_end=1.0), state
    )
    assert len(rec) == 1001
    assert rec.t.shape == (1001,)
    assert np.all(np.diff(rec.t) > 0)
    assert rec.t[0] == 0.0
    assert rec.t[-1] == pytest.approx(1.0, abs=1e-9)
    assert rec.q.shape == (1001, 7)
    assert rec.v.shape == (1001, 6)
    assert rec.qnorm_err.shape == (1001, 1)
    assert rec.combo_id == "1a"
    zero = integrate(
        model, IntegratorConfig(MUNTHE_KAAS_RK4, "1a", h=1e-3, t_end=0.0), state
    )
    assert len(zero) == 1
    assert np.array_equal(zero.q[0], rec.q[0])


def test_axis_angle_records_have_no_quaternion_diagnostic():
    model, state = _tumble_start("2a")
    rec = integrate(
        model, IntegratorConfig(MUNTHE_KAAS_RK4, "2a", h=1e-2, t_end=0.1), state
    )
    assert rec.qnorm_err is None
    assert rec.q.shape == (11, 6)


def test_determinism_bit_identical():
    model, state = _tumble_start("1d")
    cfg = IntegratorConfig(MUNTHE_KAAS_RK4, "1d", h=1e-2, t_end=1.0)
    a = integrate(model, cfg, state)
    b = integrate(model, cfg, state)
    assert np.array_equal(a.q, b.q)
    assert np.array_equal(a.v, b.v)


def test_energy_and_momentum_conservation():
    model, state = _tumble_start("1a")
    rec = integrate(
        model, IntegratorConfig(MUNTHE_KAAS_RK4, "1a", h=1e-3, t_end=10.0), state
    )
    e0 = rec.energy[0]
    assert np.max(np.abs(rec.energy - e0)) / abs(e0) < 1e-8
    l_start = model.angular_momentum(state.qs, state.V)
    l_end = model.angular_momentum(rec.final_state.qs, rec.final_state.V)
    drift = abs(np.linalg.norm(l_end) - np.linalg.norm(l_start))
    assert drift / np.linalg.norm(l_start) < 1e-8


def test_full_turns_complete_without_chart_boundary():
    # Ten revolutions at omega = 2 pi with h = 1e-3: per-step rotation is
    # ~0.0063 rad, far inside the chart, regardless of the total turn count.
    model = _free_model("2b", _SPHERE)
    omega = np.array([0.0, 0.0, 2.0 * math.pi])
    state = make_state(
        [identity_coords(AXIS_ANGLE_POS)], np.concatenate([omega, np.zeros(3)])
    )
    rec = integrate(
        model, IntegratorConfig(MUNTHE_KAAS_RK4, "2b", h=1e-3, t_end=10.0), state
    )
    rot, _ = alpha_map(rec.final_state.qs[0])
    assert np.max(np.abs(rot - np.eye(3))) < 1e-8


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig("RK4", "1a")
    with pytest.raises(ValueError):
        IntegratorConfig(MUNTHE_KAAS_RK4, "9z")
    for bad in (
        {"h": 0.0},
        {"h": math.inf},
        {"h": math.nan},
        {"t_end": math.inf},
        {"t_end": math.nan},
        {"t_end": -1.0},
        {"t_end": 1e308, "h": 1e-3},  # t_end / h overflows to inf
        {"t_end": 1.0, "h": 0.3},  # no whole number of steps reaches t_end
    ):
        with pytest.raises(ValueError):
            IntegratorConfig(MUNTHE_KAAS_RK4, "1a", **bad)
    with pytest.raises(ValueError):
        IntegratorConfig(MUNTHE_KAAS_RK4, "1a", projection="sometimes")
    with pytest.raises(ValueError):
        IntegratorConfig(BASELINE_QUAT_RK4, projection=PROJECTION_POSITION_VELOCITY)
    IntegratorConfig(BASELINE_QUAT_RK4)  # no combo needed


@pytest.mark.parametrize(
    "field, bad",
    [
        # A float count used to pass and fail the first projection with a
        # raw TypeError; an infinite tolerance switched the projection off.
        ("projection_max_iter", 1.5),
        ("projection_max_iter", 20.0),
        ("projection_max_iter", True),
        ("projection_tol", math.inf),
        ("projection_tol", math.nan),
    ],
)
def test_config_names_a_bad_projection_setting(field, bad):
    with pytest.raises(InvalidConfig) as info:
        IntegratorConfig(MUNTHE_KAAS_RK4, "1a", **{field: bad})
    assert info.value.field == field


@pytest.mark.parametrize(
    "field, bad",
    [
        # Each used to raise a raw TypeError, or pass a bool as 0 or 1, or
        # overflow converting an int past the float range.
        ("h", "0.001"),
        ("h", None),
        ("h", True),
        ("t_end", None),
        ("t_end", True),
        ("t_end", 10**400),
        ("projection_tol", "1e-10"),
        ("projection_tol", True),
    ],
    ids=[
        "h-str", "h-None", "h-bool", "t_end-None", "t_end-bool",
        "t_end-int-past-float", "projection_tol-str", "projection_tol-bool",
    ],
)
def test_config_names_a_setting_that_is_not_a_number(field, bad):
    with pytest.raises(InvalidConfig) as info:
        IntegratorConfig(MUNTHE_KAAS_RK4, "1a", **{field: bad})
    assert info.value.field == field


def test_pendulum_matches_small_oscillation_frequency():
    # Tiny-amplitude swing of a pinned body: the linearized frequency is
    # omega^2 = m g l / Theta_pivot about the pin axis.
    params = BodyParams(mass=2.0, inertia=(0.12, 0.1, 0.06))
    model = pinned_body(params, (0.0, 0.0, 0.5), group_model=SEMIDIRECT)
    amp = 1e-3
    rot0 = exp_so3(np.array([amp, 0.0, 0.0]))
    q0 = quat_pos(exp_sp1(np.array([amp, 0.0, 0.0])), rot0 @ [0.0, 0.0, -0.5])
    state = make_state([q0], np.zeros(6))
    rec = integrate(
        model, IntegratorConfig(MUNTHE_KAAS_RK4, "1a", h=1e-3, t_end=4.0), state
    )
    theta = rec.v[:, 0]  # omega_x tracks the swing rate
    crossings = np.where(np.diff(np.sign(theta + 1e-30)) != 0)[0]
    period = 2.0 * np.mean(np.diff(rec.t[crossings]))
    theta_pivot = 0.12 + 2.0 * 0.25
    expected = 2.0 * math.pi / math.sqrt(2.0 * 9.81 * 0.5 / theta_pivot)
    assert period == pytest.approx(expected, rel=1e-3)


class _NanForces:
    """A model whose forces are NaN; everything else comes from base."""

    def __init__(self, base):
        self._base = base

    def __getattr__(self, name):
        return getattr(self._base, name)

    def forces(self, qs, v, t):
        return np.full(6 * self._base.n_bodies, math.nan)


@pytest.mark.parametrize(
    "group, scheme, cid",
    [
        (SEMIDIRECT, MUNTHE_KAAS_RK4, "1a"),
        (DIRECT_PRODUCT, BASELINE_QUAT_RK4, None),
    ],
)
def test_nan_forces_fail_the_unconstrained_step(group, scheme, cid):
    model = _NanForces(free_rigid_body(_FREE, group))
    state = make_state([identity_coords("quatpos")], np.ones(6))
    cfg = IntegratorConfig(scheme, cid, h=1e-3, t_end=0.01)
    with pytest.raises(StepFailed) as info:
        integrate(model, cfg, state)
    assert info.value.step_index == 0
    # The chart guard sees the NaN rotation increment first; the baseline
    # has no chart and trips its finiteness guard on a stage state.
    cause = ChartBoundary if scheme == MUNTHE_KAAS_RK4 else NonFiniteState
    assert isinstance(info.value.__cause__, cause)


def test_nan_forces_fail_the_constrained_solve():
    params = BodyParams(mass=1.0, inertia=(0.1, 0.1, 0.05))
    model = _NanForces(pinned_body(params, (0.0, 0.0, 0.3)))
    q0 = quat_pos([1.0, 0.0, 0.0, 0.0], [0.0, 0.0, -0.3])
    state = make_state([q0], np.zeros(6))
    with pytest.raises(SingularKkt):
        solve_kkt(model, state.qs, state.V, state.t)
    cfg = IntegratorConfig(MUNTHE_KAAS_RK4, "1a", h=1e-3, t_end=0.01)
    with pytest.raises(StepFailed) as info:
        integrate(model, cfg, state)
    assert info.value.step_index == 0
    assert isinstance(info.value.__cause__, SingularKkt)


class _RaisingForces(_NanForces):
    """A model whose forces raise the given exception."""

    def __init__(self, base, exc):
        super().__init__(base)
        self._exc = exc

    def forces(self, qs, v, t):
        raise self._exc


@pytest.mark.parametrize(
    "exc",
    [
        OverflowError("math range error"),
        ValueError("math domain error"),
        np.linalg.LinAlgError("SVD did not converge"),
    ],
    ids=["overflow", "domain", "linalg"],
)
@pytest.mark.parametrize("scheme, cid", [(MUNTHE_KAAS_RK4, "1a"), (BASELINE_QUAT_RK4, None)])
def test_float_errors_in_a_step_become_step_failed(exc, scheme, cid):
    group = SEMIDIRECT if cid else DIRECT_PRODUCT
    model = _RaisingForces(free_rigid_body(_FREE, group), exc)
    state = make_state([identity_coords("quatpos")], np.ones(6))
    cfg = IntegratorConfig(scheme, cid, h=1e-3, t_end=0.01)
    with pytest.raises(StepFailed) as info:
        integrate(model, cfg, state)
    assert info.value.step_index == 0
    assert info.value.__cause__ is exc


@pytest.mark.parametrize("cid, kernel", [("1a", "quat_to_rotmat"), ("2d", "exp_so3")])
def test_each_pose_is_built_once(monkeypatch, cid, kernel):
    calls = []
    kernel_fn = getattr(lgt, kernel)

    def counted(rot):
        calls.append(1)
        return kernel_fn(rot)

    monkeypatch.setattr(lgt, kernel, counted)
    scenario = Path(__file__).resolve().parent.parent / "scenarios/chain_swing.json"
    model, state, cfg = load_scenario(scenario).build(combo_id=cid, t_end=0.1)
    rec = integrate(model, cfg, state)
    assert len(rec) == 101
    # Two bodies: the start pose once, then per step the new configuration,
    # posed once for every reader. Stage 1 reads the configuration the step
    # starts from, posed by the step before; stages 2-4 compose their poses
    # from it in floats (lgt_poses), with neither kernel.
    assert len(calls) == 2 + 2 * 100

    rot, _ = alpha_map(rec.final_state.qs[0])
    assert alpha_map(rec.final_state.qs[0])[0] is rot
    with pytest.raises(ValueError):
        rot[0, 0] = 2.0


@pytest.mark.parametrize("cid", COMBO_IDS)
def test_project_returns_the_residuals_of_its_state(cid):
    # A bumped pin makes Gauss-Newton iterate before the residuals are taken.
    model, state = _pendulum(cid)
    q0 = state.qs[0]
    bumped = type(q0)(q0.kind, q0.rot, q0.r + np.array([1e-4, -5e-5, 1e-4]))
    fixed, residuals = project(
        model, cid, make_state([bumped], state.V + 1e-3), tol=1e-12, max_iter=5
    )
    assert residuals == constraint_residuals(model, fixed)
    free, free_state = _tumble_start(cid)
    out, residuals = project(free, cid, free_state, tol=1e-12, max_iter=5)
    assert out is free_state and residuals == (0.0, 0.0)


def _recorded_state(model, rec, k):
    """The state of record row k, rebuilt from copies of the row."""
    kind = rec.final_state.qs[0].kind
    width = rec.q.shape[1] // model.n_bodies
    qs = []
    for i in range(model.n_bodies):
        row = rec.q[k, width * i : width * (i + 1)].copy()
        qs.append(lgt.AbsCoords(kind, row[:-3], row[-3:]))
    return make_state(qs, rec.v[k].copy(), rec.t[k])


# The pinned pendulum's frame is off its center of mass, which only the
# body-fixed twist models (columns a and d) admit.
_PROJECTED_RUNS = [("chain_swing.json", cid) for cid in COMBO_IDS] + [
    ("pendulum_pinned.json", cid) for cid in COMBO_IDS if cid[1] in "ad"
]


@pytest.mark.parametrize("scenario, cid", _PROJECTED_RUNS)
def test_recorded_residuals_are_bitwise_those_of_the_recorded_state(scenario, cid):
    root = Path(__file__).resolve().parent.parent
    loaded = load_scenario(root / "scenarios" / scenario)
    model, state, cfg = loaded.build(combo_id=cid, t_end=20 * loaded.h)
    assert cfg.projection == PROJECTION_POSITION_VELOCITY
    rec = integrate(model, cfg, state)
    assert len(rec) == 21
    for k in range(len(rec)):
        got = (rec.gnorm[k], rec.gvnorm[k])
        assert got == constraint_residuals(model, _recorded_state(model, rec, k)), k


@pytest.mark.parametrize(
    "scenario, scheme",
    [(name, cid) for name in ("free_tumble.json", "chain_swing.json") for cid in COMBO_IDS]
    + [("free_tumble.json", BASELINE_QUAT_RK4)],
)
def test_each_record_row_holds_the_energy_and_drift_of_its_state(scenario, scheme):
    root = Path(__file__).resolve().parent.parent
    loaded = load_scenario(root / "scenarios" / scenario)
    baseline = scheme == BASELINE_QUAT_RK4
    kwargs = {"scheme": scheme} if baseline else {"combo_id": scheme}
    model, state, cfg = loaded.build(t_end=20 * loaded.h, **kwargs)
    rec = integrate(model, cfg, state)
    n, n_bodies = 21, model.n_bodies
    quat = state.qs[0].kind == QUAT_POS
    width = 7 if quat else 6
    shapes = [rec.t.shape, rec.q.shape, rec.v.shape, rec.energy.shape]
    assert shapes == [(n,), (n, width * n_bodies), (n, 6 * n_bodies), (n,)]
    assert rec.gnorm.shape == rec.gvnorm.shape == (n,)
    fields = [rec.t, rec.q, rec.v, rec.energy, rec.gnorm, rec.gvnorm]
    if quat:
        assert rec.qnorm_err.shape == (n, n_bodies)
        fields.append(rec.qnorm_err)
    else:
        assert rec.qnorm_err is None
    assert all(field.dtype == np.float64 for field in fields)
    for k in range(n):
        recorded = _recorded_state(model, rec, k)
        assert rec.energy[k] == model.energy(recorded.qs, recorded.V), k
        if quat and not (baseline and k > 0):
            # The baseline records its drift before renormalizing.
            for i, q in enumerate(recorded.qs):
                assert rec.qnorm_err[k, i] == oracles.quat_norm_error(q), (k, i)
    if baseline:
        assert np.isfinite(rec.qnorm_err).all()


@pytest.mark.parametrize(
    "entry, bad, match",
    [
        (0, math.nan, "quaternion norm"),
        (4, math.nan, "position"),
        (4, math.inf, "position"),
    ],
)
def test_baseline_coordinates_reject_a_non_finite_entry(entry, bad, match):
    # The baseline rebuilds QuatPos coordinates from every RK stage vector
    # (Q, r, V); its stage guard stops such a vector first, inside integrate.
    y = np.array([1.0, 0.0, 0.0, 0.0, 0.1, 0.2, 0.3] + [0.0] * 6)
    assert _unit_quat_coords(y, 1)[0][0].kind == QUAT_POS
    y[entry] = bad
    with pytest.raises(InconsistentState, match=match):
        _unit_quat_coords(y, 1)
