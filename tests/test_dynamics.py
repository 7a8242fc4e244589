"""Tests for the descriptor-form dynamics and local right-hand side."""

import math

import numpy as np
import pytest

from liembs import SingularKkt, VariantMismatch
from liembs.dynamics import (
    constraint_residuals,
    forward_dynamics,
    local_rhs,
    make_state,
    solve_kkt,
)
from liembs.lgt import QUAT_POS, apply_lgt, identity_coords, quat_pos
from liembs.models import BodyParams, free_rigid_body, pinned_body, two_body_chain
from liembs.motiongroups import DIRECT_PRODUCT, SEMIDIRECT
from liembs.rotmaps import exp_sp1, quat_to_rotmat

import oracles


def _random_quat_state(rng, n_bodies=1, v_scale=1.0):
    qs = []
    for _ in range(n_bodies):
        qs.append(
            quat_pos(exp_sp1(oracles.random_vector(rng, 2.0)), rng.normal(size=3))
        )
    return make_state(qs, v_scale * rng.normal(size=6 * n_bodies), 0.0)


def test_free_fall_accelerations():
    params = BodyParams(mass=2.0, inertia=(1.0, 2.0, 3.0))
    g = np.array([0.0, 0.0, -9.81])
    rng = np.random.default_rng(60)
    q = quat_pos(exp_sp1(oracles.random_vector(rng, 2.0)), rng.normal(size=3))
    state = make_state([q], np.zeros(6))
    # Mixed twists: rddot = g directly.
    vdot = forward_dynamics(free_rigid_body(params, DIRECT_PRODUCT), state)
    assert np.allclose(vdot[:3], 0.0, atol=1e-14)
    assert np.allclose(vdot[3:], g, atol=1e-13)
    # Body-fixed twists: vdot = R^T g at zero velocity.
    vdot = forward_dynamics(free_rigid_body(params, SEMIDIRECT), state)
    rot = quat_to_rotmat(q.rot)
    assert np.allclose(vdot[:3], 0.0, atol=1e-14)
    assert np.allclose(vdot[3:], rot.T @ g, atol=1e-13)


def test_principal_axis_spin_is_equilibrium():
    params = BodyParams(mass=1.0, inertia=(1.0, 2.0, 3.0), gravity=(0, 0, 0))
    v = np.zeros(6)
    v[2] = 2.0 * math.pi
    state = make_state([identity_coords(QUAT_POS)], v)
    for model in (
        free_rigid_body(params, SEMIDIRECT),
        free_rigid_body(params, DIRECT_PRODUCT),
    ):
        assert np.allclose(forward_dynamics(model, state), 0.0, atol=1e-13)


def test_tumbling_matches_euler_equations():
    params = BodyParams(mass=1.5, inertia=(1.0, 2.0, 3.0), gravity=(0, 0, 0))
    theta = np.diag(params.inertia)
    rng = np.random.default_rng(61)
    for group in (SEMIDIRECT, DIRECT_PRODUCT):
        model = free_rigid_body(params, group)
        for _ in range(20):
            state = _random_quat_state(rng)
            omega = state.V[:3]
            vdot = forward_dynamics(model, state)
            want = np.linalg.solve(theta, np.cross(theta @ omega, omega))
            assert np.allclose(vdot[:3], want, atol=1e-12)


def test_pinned_static_multiplier_balances_gravity():
    # Body hanging at rest with its center of mass straight below the pin;
    # the multiplier must equal the weight so the pin carries the load.
    params = BodyParams(mass=2.0, inertia=(0.1, 0.1, 0.05), com_offset=(0, 0, -0.5))
    model = pinned_body(params, (0.0, 0.0, 0.0), group_model=SEMIDIRECT)
    state = make_state([identity_coords(QUAT_POS)], np.zeros(6))
    vdot, lam = solve_kkt(model, state)
    assert np.allclose(vdot, 0.0, atol=1e-12)
    assert np.allclose(lam, params.mass * np.array([0.0, 0.0, -9.81]), atol=1e-12)


def test_duplicated_constraint_rows_raise_singular_kkt():
    params = BodyParams(mass=1.0, inertia=(1.0, 1.0, 1.0))
    base = pinned_body(params, (0.0, 0.0, 0.2), group_model=SEMIDIRECT)

    class Duplicated:
        group_model = base.group_model
        n_bodies = base.n_bodies
        n_constraints = 6
        mass_matrix = base.mass_matrix
        mass_inverse = base.mass_inverse

        def forces(self, qs, v, t):
            return base.forces(qs, v, t)

        def constraints(self, qs):
            g = base.constraints(qs)
            return np.concatenate([g, g])

        def jacobian(self, qs):
            a = base.jacobian(qs)
            return np.vstack([a, a])

        def adotv(self, qs, v):
            av = base.adotv(qs, v)
            return np.concatenate([av, av])

    state = make_state([identity_coords(QUAT_POS)], np.zeros(6))
    with pytest.raises(SingularKkt):
        solve_kkt(Duplicated(), state)


@pytest.mark.parametrize("group", [SEMIDIRECT, DIRECT_PRODUCT])
def test_schur_solve_matches_dense_saddle_solve(group):
    # The direct-product model needs body frames at the centres of mass.
    off = (0.0, 0.1, -0.2) if group == SEMIDIRECT else (0.0, 0.0, 0.0)
    p1 = BodyParams(mass=1.2, inertia=(0.4, 0.5, 0.3), com_offset=off)
    p2 = BodyParams(mass=0.7, inertia=(0.1, 0.2, 0.15))
    models = [
        pinned_body(p1, (0.0, 0.0, 0.3), group_model=group),
        two_body_chain(
            p1, p2, ((0.0, 0.0, 0.3), (0.0, 0.0, -0.3), (0.1, 0.0, 0.25)),
            group_model=group,
        ),
    ]
    rng = np.random.default_rng(63)
    for model in models:
        for _ in range(20):
            state = _random_quat_state(rng, model.n_bodies)
            vdot, lam = solve_kkt(model, state)
            vdot_ref, lam_ref = oracles.dense_kkt_solve(model, state)
            for got, want in ((vdot, vdot_ref), (lam, lam_ref)):
                scale = float(np.max(np.abs(want)))
                assert float(np.max(np.abs(got - want))) <= 1e-12 * scale


def test_kkt_residual_and_hidden_constraint():
    params = BodyParams(mass=1.2, inertia=(0.4, 0.5, 0.3), com_offset=(0, 0.1, -0.2))
    model = pinned_body(params, (0.0, 0.0, 0.3), group_model=SEMIDIRECT)
    rng = np.random.default_rng(62)
    for _ in range(20):
        state = _random_quat_state(rng)
        vdot, lam = solve_kkt(model, state)
        q = model.forces(state.qs, state.V, state.t)
        a = model.jacobian(state.qs)
        res1 = model.mass_matrix @ vdot + a.T @ lam - q
        res2 = a @ vdot + model.adotv(state.qs, state.V)
        scale = max(1.0, np.linalg.norm(q))
        assert np.linalg.norm(res1) / scale < 1e-10
        assert np.linalg.norm(res2) / scale < 1e-10


def test_forward_dynamics_deterministic():
    params = BodyParams(mass=1.0, inertia=(1.0, 2.0, 3.0))
    model = free_rigid_body(params, SEMIDIRECT)
    rng = np.random.default_rng(63)
    state = _random_quat_state(rng)
    out1 = forward_dynamics(model, state)
    out2 = forward_dynamics(model, state)
    assert np.array_equal(out1, out2)


def test_gyroscopic_forces_do_no_work():
    params = BodyParams(
        mass=1.7, inertia=(0.3, 0.6, 0.9), com_offset=(0.1, -0.2, 0.05),
        gravity=(0, 0, 0),
    )
    model = pinned_body(params, (0.0, 0.0, 0.0), group_model=SEMIDIRECT)
    rng = np.random.default_rng(64)
    for _ in range(20):
        state = _random_quat_state(rng)
        power = float(state.V @ model.forces(state.qs, state.V, state.t))
        assert abs(power) < 1e-11 * max(1.0, float(state.V @ state.V)) ** 1.5


def test_local_rhs_at_origin_exp_and_cay():
    params = BodyParams(mass=1.0, inertia=(1.0, 2.0, 3.0))
    rng = np.random.default_rng(65)
    v = rng.normal(size=6)
    q = identity_coords(QUAT_POS)
    model_sd = free_rigid_body(params, SEMIDIRECT)
    model_dp = free_rigid_body(params, DIRECT_PRODUCT)
    # Exponential charts: Xdot(0) = V. Cayley charts: Xdot(0) = dcay_inv(0) V,
    # which halves the angular block; the SE(3) chart also halves the
    # translation block while the direct-product translation chart is the
    # identity.
    _, xdot = local_rhs(model_sd, "1a", [q], np.zeros(6), v, 0.0)
    assert np.allclose(xdot, v, atol=1e-14)
    _, xdot = local_rhs(model_dp, "1b", [q], np.zeros(6), v, 0.0)
    assert np.allclose(xdot, v, atol=1e-14)
    _, xdot = local_rhs(model_dp, "1c", [q], np.zeros(6), v, 0.0)
    assert np.allclose(xdot, np.concatenate([0.5 * v[:3], v[3:]]), atol=1e-14)
    _, xdot = local_rhs(model_sd, "1d", [q], np.zeros(6), v, 0.0)
    assert np.allclose(xdot, 0.5 * v, atol=1e-14)
    # Zero velocity gives zero chart rates.
    _, xdot = local_rhs(model_sd, "1a", [q], 0.1 * rng.normal(size=6), np.zeros(6), 0.0)
    assert np.allclose(xdot, 0.0)


def test_local_rhs_reconstructs_configuration():
    params = BodyParams(mass=1.0, inertia=(1.0, 2.0, 3.0))
    model = free_rigid_body(params, SEMIDIRECT)
    rng = np.random.default_rng(66)
    q0 = quat_pos(exp_sp1(oracles.random_vector(rng, 1.0)), rng.normal(size=3))
    x = 0.1 * rng.normal(size=6)
    v = rng.normal(size=6)
    vdot, _ = local_rhs(model, "1a", [q0], x, v, 0.0)
    q_now = apply_lgt("1a", q0, x)
    want = forward_dynamics(model, make_state([q_now], v))
    assert np.array_equal(vdot, want)


def test_local_rhs_variant_mismatch():
    params = BodyParams(mass=1.0, inertia=(1.0, 2.0, 3.0))
    model = free_rigid_body(params, SEMIDIRECT)
    q = identity_coords(QUAT_POS)
    with pytest.raises(VariantMismatch):
        local_rhs(model, "1b", [q], np.zeros(6), np.zeros(6), 0.0)


def test_constraint_residuals_values():
    params = BodyParams(mass=1.0, inertia=(1.0, 1.0, 1.0), com_offset=(0, 0, -0.5))
    model = pinned_body(params, (0.0, 0.0, 0.0), group_model=SEMIDIRECT)
    consistent = make_state([identity_coords(QUAT_POS)], np.zeros(6))
    assert constraint_residuals(model, consistent) == (0.0, 0.0)
    shifted = make_state(
        [quat_pos([1, 0, 0, 0], [1e-3, 0.0, -2e-3])], np.zeros(6)
    )
    gnorm, gvnorm = constraint_residuals(model, shifted)
    assert gnorm == pytest.approx(2e-3)
    assert gvnorm == 0.0
    unconstrained = free_rigid_body(
        BodyParams(mass=1.0, inertia=(1, 1, 1)), SEMIDIRECT
    )
    assert constraint_residuals(unconstrained, consistent) == (0.0, 0.0)
