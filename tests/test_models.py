"""Tests for the concrete mechanical models."""

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liembs.cli import load_scenario
from liembs.dynamics import forward_dynamics, make_state
from liembs.lgt import QUAT_POS, apply_lgt, axis_angle_pos, identity_coords, quat_pos
from liembs.models import (
    BodyParams,
    SphericalJointSystem,
    free_rigid_body,
    pinned_body,
    two_body_chain,
)
from liembs.motiongroups import DIRECT_PRODUCT, SEMIDIRECT
from liembs.rotmaps import exp_sp1, hat, quat_to_rotmat

import oracles


def _random_q(rng, scale=1.0):
    return quat_pos(
        exp_sp1(oracles.random_vector(rng, 2.0)), scale * rng.normal(size=3)
    )


def _combo_for(model):
    return "1a" if model.group_model == SEMIDIRECT else "1b"


def _fd_jacobian(model, qs, h=1e-7):
    """Finite-difference d g / d (twist direction) through the chart flow."""
    n = 6 * model.n_bodies
    cols = []
    cmb = _combo_for(model)
    for j in range(n):
        dv = np.zeros(n)
        dv[j] = h
        qp = [apply_lgt(cmb, qi, dv[6 * i : 6 * i + 6]) for i, qi in enumerate(qs)]
        qm = [apply_lgt(cmb, qi, -dv[6 * i : 6 * i + 6]) for i, qi in enumerate(qs)]
        cols.append((model.constraints(qp) - model.constraints(qm)) / (2 * h))
    return np.column_stack(cols)


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "field, value",
    [
        ("mass", 0.0),
        ("mass", _NAN),
        ("mass", _INF),
        ("mass", 1e-310),  # positive, but 1 / mass overflows
        ("inertia", (1, -1, 1)),
        ("inertia", (1e-310, 1, 1)),
        ("inertia", (1, _NAN, 1)),
        ("inertia", (1, 1, _INF)),
        ("inertia", (1, 1)),
        ("com_offset", (0.0, 0.1)),
        ("com_offset", (0.0, _NAN, 0.0)),
        ("com_offset", (_INF, 0.0, 0.0)),
        ("gravity", (0, -9.81)),
        ("gravity", (0.0, 0.0, -9.81, 0.0)),
        ("gravity", (0.0, 0.0, _NAN)),
        ("gravity", (0.0, -_INF, 0.0)),
    ],
)
def test_body_params_validation(field, value):
    # A two-entry gravity once reached forces as five entries per body and
    # failed in energy with a raw numpy error; a NaN mass passed unchecked.
    fields = {"mass": 1.0, "inertia": (1.0, 1.0, 1.0), field: value}
    with pytest.raises(ValueError, match=field):
        BodyParams(**fields)


def test_body_params_store_every_field_as_python_floats():
    params = BodyParams(
        mass=np.float64(1.5),
        inertia=np.array([1.0, 2.0, 3.0]),
        com_offset=np.array([0, 0, 1]),
        gravity=[0, 0, np.float32(-9.5)],
    )
    assert type(params.mass) is float
    for name, want in [
        ("inertia", (1.0, 2.0, 3.0)),
        ("com_offset", (0.0, 0.0, 1.0)),
        ("gravity", (0.0, 0.0, -9.5)),
    ]:
        got = getattr(params, name)
        assert got == want and [type(x) for x in got] == [float] * 3


@pytest.mark.parametrize(
    "joint",
    [
        (-1, (0, 0, 0.3), 1, (0, 0, 0)),
        (0, (0, 0, 0.3), 2, (0, 0, 0)),
        (1, (0, 0, 0.3), 1, (0, 0, 0)),
    ],
    ids=["negative", "past-the-end", "same-body"],
)
def test_joint_with_a_bad_body_index_is_rejected(joint):
    # Body -1 was read as the last body by constraints but written into the
    # previous joint's row by jacobian; body N failed at the first jacobian.
    body = BodyParams(mass=1.0, inertia=(0.1, 0.1, 0.02))
    ground = (0, (0, 0, 0.3), None, (0, 0, 0))
    with pytest.raises(ValueError, match="joint 1"):
        SphericalJointSystem([body, body], [ground, joint], SEMIDIRECT)


def test_a_mass_matrix_without_a_usable_inverse_names_its_body():
    # At 1e300 kg the rotational block m hat(s)^T hat(s) swamps the inertia
    # about the center of mass, and the 6x6 block is singular in floats.
    ok = BodyParams(mass=1.0, inertia=(0.1, 0.1, 0.02))
    heavy = BodyParams(mass=1e300, inertia=(0.1, 0.1, 0.02), com_offset=(0, 0, -0.5))
    with pytest.raises(ValueError, match="body 1: the mass matrix"):
        SphericalJointSystem([ok, heavy], [], SEMIDIRECT)


def test_free_body_rejects_off_com_frame():
    params = BodyParams(mass=1.0, inertia=(1, 1, 1), com_offset=(0, 0, 0.1))
    with pytest.raises(ValueError):
        free_rigid_body(params, SEMIDIRECT)


def test_direct_product_rejects_off_com_frame():
    params = BodyParams(mass=1.0, inertia=(1, 1, 1), com_offset=(0, 0, -0.5))
    with pytest.raises(ValueError):
        pinned_body(params, (0, 0, 0), group_model=DIRECT_PRODUCT)
    # The semidirect model accepts the same body.
    pinned_body(params, (0, 0, 0), group_model=SEMIDIRECT)


def test_mass_matrix_structure():
    params = BodyParams(
        mass=2.0, inertia=(0.12, 0.1, 0.06), com_offset=(0.0, 0.0, -0.5)
    )
    model = pinned_body(params, (0, 0, 0), group_model=SEMIDIRECT)
    m = model.mass_matrix
    assert np.allclose(m, m.T)
    assert np.all(np.linalg.eigvalsh(m) > 0)
    sh = hat([0.0, 0.0, -0.5])
    assert np.allclose(m[:3, :3], np.diag(params.inertia) - 2.0 * (sh @ sh))
    assert np.allclose(m[:3, 3:], 2.0 * sh)
    assert np.allclose(m[3:, 3:], 2.0 * np.eye(3))
    dp = free_rigid_body(
        BodyParams(mass=3.0, inertia=(1, 2, 3)), DIRECT_PRODUCT
    )
    assert np.allclose(dp.mass_matrix, np.diag([1, 2, 3, 3, 3, 3]))


def test_jacobians_match_finite_differences():
    rng = np.random.default_rng(70)
    params = BodyParams(
        mass=1.3, inertia=(0.2, 0.3, 0.4), com_offset=(0.05, -0.1, 0.2)
    )
    params_com = BodyParams(mass=0.8, inertia=(0.1, 0.15, 0.2))
    models = [
        pinned_body(params, (0.1, 0.0, 0.3), group_model=SEMIDIRECT),
        pinned_body(params_com, (0.1, 0.0, 0.3), group_model=DIRECT_PRODUCT),
        two_body_chain(
            params,
            params_com,
            ((0, 0, 0.3), (0, 0, -0.3), (0, 0, 0.25)),
            group_model=SEMIDIRECT,
        ),
        two_body_chain(
            params_com,
            params_com,
            ((0, 0, 0.3), (0, 0, -0.3), (0, 0, 0.25)),
            group_model=DIRECT_PRODUCT,
        ),
    ]
    for model in models:
        for _ in range(25):
            qs = [_random_q(rng) for _ in range(model.n_bodies)]
            a = model.jacobian(qs)
            fd = _fd_jacobian(model, qs)
            assert np.allclose(a, fd, atol=1e-6), type(model).__name__


def test_adotv_matches_finite_differences():
    # adotv must equal d/dt [A(q(t))] V with q(t) flowing along the fixed
    # twist V through the chart.
    rng = np.random.default_rng(71)
    params = BodyParams(
        mass=1.1, inertia=(0.3, 0.25, 0.2), com_offset=(0.0, 0.1, -0.15)
    )
    params_com = BodyParams(mass=0.9, inertia=(0.1, 0.2, 0.3))
    models = [
        pinned_body(params, (0.0, 0.0, 0.2), group_model=SEMIDIRECT),
        pinned_body(params_com, (0.0, 0.0, 0.2), group_model=DIRECT_PRODUCT),
        two_body_chain(
            params,
            params_com,
            ((0, 0, 0.2), (0, 0, -0.2), (0, 0, 0.15)),
            group_model=SEMIDIRECT,
        ),
    ]
    h = 1e-6
    for model in models:
        cmb = _combo_for(model)
        for _ in range(25):
            qs = [_random_q(rng) for _ in range(model.n_bodies)]
            v = rng.normal(size=6 * model.n_bodies)
            qp = [apply_lgt(cmb, qi, h * v[6 * i : 6 * i + 6]) for i, qi in enumerate(qs)]
            qm = [apply_lgt(cmb, qi, -h * v[6 * i : 6 * i + 6]) for i, qi in enumerate(qs)]
            fd = (model.jacobian(qp) - model.jacobian(qm)) / (2 * h) @ v
            assert np.allclose(model.adotv(qs, v), fd, atol=1e-6), type(model).__name__


def test_energy_values():
    params = BodyParams(
        mass=2.0, inertia=(0.12, 0.1, 0.06), com_offset=(0.0, 0.0, -0.5)
    )
    model = pinned_body(params, (0, 0, 0), group_model=SEMIDIRECT)
    q = identity_coords(QUAT_POS)
    v = np.zeros(6)
    # At rest the energy is pure potential of the center of mass at z=-0.5.
    assert model.energy([q], v) == pytest.approx(2.0 * 9.81 * (-0.5))
    v = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    # Angular kinetic term about the pivot axis x: Theta_xx + m l^2.
    expected_kin = 0.5 * (0.12 + 2.0 * 0.25)
    assert model.energy([q], v) == pytest.approx(expected_kin - 9.81)


def _energy_scale(model, qs, v):
    """V^T M V / 2 plus each body's |m g.(r + R s)|: the size of the terms
    the energy sums."""
    v = np.asarray(v, dtype=float)
    scale = 0.5 * float(v @ (model.mass_matrix @ v))
    for q, params in zip(qs, model.bodies):
        rot, r = q.pose
        com = r + rot @ np.asarray(params.com_offset)
        scale += abs(params.mass * float(np.asarray(params.gravity) @ com))
    return scale


_OFF_COM = BodyParams(
    mass=2.0, inertia=(0.12, 0.1, 0.06), com_offset=(0.1, -0.2, -0.5)
)


@pytest.mark.parametrize(
    "model",
    [
        pinned_body(_OFF_COM, (0.0, 0.0, 0.0), group_model=SEMIDIRECT),
        free_rigid_body(
            BodyParams(mass=1.5, inertia=(0.3, 0.5, 0.7), gravity=(0.5, -1.0, -9.81)),
            DIRECT_PRODUCT,
        ),
        two_body_chain(
            _OFF_COM,
            BodyParams(mass=1.0, inertia=(0.05, 0.08, 0.1), com_offset=(0.0, 0.0, -0.4)),
            ((0.0, 0.0, 0.5), (0.0, 0.0, -0.5), (0.0, 0.0, 0.4)),
            group_model=SEMIDIRECT,
        ),
    ],
    ids=["pinned_off_com_semidirect", "free_mixed_twists", "two_body_chain"],
)
def test_closed_form_energy_matches_the_dense_mass_matrix(model):
    rng = np.random.default_rng(79)
    for _ in range(50):
        qs = [_random_q(rng) for _ in range(model.n_bodies)]
        v = rng.normal(size=6 * model.n_bodies)
        got = model.energy(qs, v)
        want = oracles.dense_energy(model, qs, v)
        assert abs(got - want) <= 1e-14 * _energy_scale(model, qs, v), (got, want)
        assert type(got) is float
        assert model.energy(qs, v.tolist()) == got


def test_cross_representation_accelerations_agree():
    # The same physical state must produce the same world-frame
    # accelerations under body-fixed and mixed twists.
    params = BodyParams(mass=1.4, inertia=(0.5, 0.7, 0.9))
    sd = free_rigid_body(params, SEMIDIRECT)
    dp = free_rigid_body(params, DIRECT_PRODUCT)
    rng = np.random.default_rng(72)
    for _ in range(20):
        q = _random_q(rng)
        rot = quat_to_rotmat(q.rot)
        omega = rng.normal(size=3)
        rdot = rng.normal(size=3)
        v_sd = np.concatenate([omega, rot.T @ rdot])
        v_dp = np.concatenate([omega, rdot])
        a_sd = np.asarray(forward_dynamics(sd, [q], v_sd.tolist(), 0.0))
        a_dp = np.asarray(forward_dynamics(dp, [q], v_dp.tolist(), 0.0))
        assert np.allclose(a_sd[:3], a_dp[:3], atol=1e-12)
        # rddot = R (vdot + omega x v) for body-fixed twists.
        rddot = rot @ (a_sd[3:] + np.cross(omega, v_sd[3:]))
        assert np.allclose(rddot, a_dp[3:], atol=1e-11)


def test_free_body_angular_momentum_formula():
    params = BodyParams(mass=2.0, inertia=(1.0, 2.0, 3.0), gravity=(0, 0, 0))
    rng = np.random.default_rng(73)
    q = _random_q(rng)
    rot = quat_to_rotmat(q.rot)
    omega = rng.normal(size=3)
    rdot = rng.normal(size=3)
    sd = free_rigid_body(params, SEMIDIRECT)
    dp = free_rigid_body(params, DIRECT_PRODUCT)
    l_sd = sd.angular_momentum([q], np.concatenate([omega, rot.T @ rdot]))
    l_dp = dp.angular_momentum([q], np.concatenate([omega, rdot]))
    want = rot @ (np.diag([1.0, 2.0, 3.0]) @ omega) + 2.0 * np.cross(q.r, rdot)
    assert np.allclose(l_sd, want, atol=1e-12)
    assert np.allclose(l_dp, want, atol=1e-12)


def test_chain_hangs_at_equilibrium():
    p1 = BodyParams(mass=1.0, inertia=(0.1, 0.1, 0.02))
    p2 = BodyParams(mass=0.5, inertia=(0.05, 0.05, 0.01))
    model = two_body_chain(
        p1, p2, ((0, 0, 0.3), (0, 0, -0.3), (0, 0, 0.25)), group_model=SEMIDIRECT
    )
    qs = [
        quat_pos([1, 0, 0, 0], [0.0, 0.0, -0.3]),
        quat_pos([1, 0, 0, 0], [0.0, 0.0, -0.85]),
    ]
    state = make_state(qs, np.zeros(12))
    assert np.allclose(model.constraints(qs), 0.0, atol=1e-14)
    vdot = forward_dynamics(model, state.qs, state.V, state.t)
    assert np.allclose(vdot, 0.0, atol=1e-11)


def test_pinned_consistency_between_group_models():
    # Same physical configuration and velocity: constraint values agree and
    # velocity-level residuals transform consistently.
    params = BodyParams(mass=1.0, inertia=(0.2, 0.2, 0.1))
    pin = (0.0, 0.0, 0.4)
    sd = pinned_body(params, pin, group_model=SEMIDIRECT)
    dp = pinned_body(params, pin, group_model=DIRECT_PRODUCT)
    rng = np.random.default_rng(74)
    q = _random_q(rng, scale=0.3)
    rot = quat_to_rotmat(q.rot)
    omega = rng.normal(size=3)
    rdot = rng.normal(size=3)
    assert np.allclose(sd.constraints([q]), dp.constraints([q]))
    gv_sd = sd.jacobian([q]) @ np.concatenate([omega, rot.T @ rdot])
    gv_dp = dp.jacobian([q]) @ np.concatenate([omega, rdot])
    assert np.allclose(gv_sd, gv_dp, atol=1e-12)


@pytest.mark.parametrize(
    "scenario", ["free_tumble.json", "pendulum_pinned.json", "chain_swing.json"]
)
def test_forces_and_accelerations_of_a_loaded_scenario_are_python_floats(scenario):
    # The loader reads inertia through numpy; a numpy scalar kept in the
    # model would flow through forces into V and every kernel of a step.
    root = Path(__file__).resolve().parent.parent
    model, state, _ = load_scenario(root / "scenarios" / scenario).build()
    v = state.V.tolist()
    for out in (
        model.forces(state.qs, v, state.t),
        forward_dynamics(model, state.qs, v, state.t),
    ):
        assert [type(x) for x in out] == [float] * len(v)


@pytest.mark.parametrize("group", [SEMIDIRECT, DIRECT_PRODUCT])
def test_forces_match_mass_block_form(group):
    # The closed-form per-body forces against M_i V_i and numpy cross
    # products, with gravity and (for body-fixed twists) an off-centre frame.
    rng = np.random.default_rng(71)
    off = BodyParams(
        mass=1.3, inertia=(0.2, 0.3, 0.4), com_offset=(0.05, -0.1, 0.2),
        gravity=(0.3, -0.2, -9.81),
    )
    centred = BodyParams(mass=0.8, inertia=(0.1, 0.15, 0.2))
    first = off if group == SEMIDIRECT else centred
    model = two_body_chain(
        first, centred, ((0, 0, 0.3), (0, 0, -0.3), (0, 0, 0.25)), group_model=group
    )
    for _ in range(50):
        qs = [_random_q(rng) for _ in range(model.n_bodies)]
        v = 3.0 * rng.normal(size=6 * model.n_bodies)
        got = model.forces(qs, v, 0.0)
        want = oracles.matrix_forces(model, qs, v)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))


def _joint_kernel_models(group):
    """Shipped constructors and an N = 4 system with two ground joints, a
    chain and a branch; body frames sit off the center of mass wherever the
    group model allows it."""
    off = BodyParams(
        mass=1.3, inertia=(0.2, 0.3, 0.4), com_offset=(0.05, -0.1, 0.2)
    )
    centred = BodyParams(mass=0.8, inertia=(0.1, 0.15, 0.2))
    body = off if group == SEMIDIRECT else centred
    joints = [
        (0, (0.1, -0.2, 0.3), None, (0.5, 0.0, -0.1)),
        (0, (0.0, 0.2, -0.3), 1, (0.1, 0.0, 0.25)),
        (1, (-0.3, 0.1, 0.0), 2, (0.0, -0.2, 0.2)),
        (3, (0.0, 0.0, 0.4), 0, (0.2, 0.2, 0.0)),
        (3, (0.1, 0.0, 0.0), None, (0.0, 1.0, 0.0)),
    ]
    return [
        pinned_body(body, (0.1, 0.0, 0.3), (0.2, -0.1, 0.0), group_model=group),
        two_body_chain(
            body, centred, ((0, 0, 0.3), (0.1, 0, -0.3), (0, 0.2, 0.25)),
            group_model=group,
        ),
        SphericalJointSystem([body, centred, body, centred], joints, group),
    ]


_KERNEL_MODELS = {
    group: _joint_kernel_models(group) for group in (SEMIDIRECT, DIRECT_PRODUCT)
}
_UNIT_QUATS = st.tuples(*[st.floats(-1.0, 1.0)] * 4).filter(
    lambda q: q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3] > 1e-2
)
_POSITIONS = st.tuples(*[st.floats(-2.0, 2.0)] * 3)


@st.composite
def _coords(draw):
    """Four bodies' coordinates, each a random rotation stored either as a
    unit quaternion or as a rotation vector in the pi-ball."""
    out = []
    for _ in range(4):
        r = draw(_POSITIONS)
        if draw(st.booleans()):
            q = np.array(draw(_UNIT_QUATS))
            out.append(quat_pos(q / np.linalg.norm(q), r))
        else:
            out.append(axis_angle_pos(draw(oracles.vectors(math.pi)), r))
    return out


@pytest.mark.parametrize("model", [0, 1, 2], ids=["pinned", "chain", "four_bodies"])
@pytest.mark.parametrize("group", [SEMIDIRECT, DIRECT_PRODUCT])
@settings(max_examples=100, deadline=None)
@given(coords=_coords(), v=st.lists(st.floats(-3.0, 3.0), min_size=24, max_size=24))
def test_joint_kernels_match_matrix_forms(group, model, coords, v):
    # The float constraints, Jacobian and curvature term against the pose
    # matrices, numpy cross products and -R hat(p) blocks they replace.
    model = _KERNEL_MODELS[group][model]
    qs = coords[: model.n_bodies]
    v = np.array(v[: 6 * model.n_bodies])
    for got, want in (
        (model.constraints(qs), oracles.matrix_constraints(model, qs)),
        (model.jacobian(qs), oracles.matrix_jacobian(model, qs)),
        (model.adotv(qs, v), oracles.matrix_adotv(model, qs, v)),
    ):
        assert got.shape == want.shape
        oracles.assert_close_to_scale(got, want, 1e-14)
