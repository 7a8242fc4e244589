"""Tests for the concrete mechanical models."""

import math

import numpy as np
import pytest

from liembs.dynamics import forward_dynamics, make_state
from liembs.lgt import QUAT_POS, apply_lgt, identity_coords, quat_pos
from liembs.models import (
    BodyParams,
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


def test_body_params_validation():
    with pytest.raises(ValueError):
        BodyParams(mass=0.0, inertia=(1, 1, 1))
    with pytest.raises(ValueError):
        BodyParams(mass=1.0, inertia=(1, -1, 1))


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
        a_sd = forward_dynamics(sd, make_state([q], v_sd))
        a_dp = forward_dynamics(dp, make_state([q], v_dp))
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
    assert np.allclose(forward_dynamics(model, state), 0.0, atol=1e-11)


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
