"""Tests for the descriptor-form dynamics and local right-hand side."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from liembs import SingularKkt, StepFailed, VariantMismatch
import liembs.dynamics
from liembs.dynamics import (
    _link_pivot,
    constraint_residuals,
    forward_dynamics,
    least_norm,
    local_rhs,
    make_state,
    solve_kkt,
)
from liembs.integrate import MUNTHE_KAAS_RK4, IntegratorConfig, integrate, project
from liembs.lgt import COMBOS, QUAT_POS, alpha_map, apply_lgt, identity_coords, quat_pos
from liembs.models import (
    BodyParams,
    SphericalJointSystem,
    free_rigid_body,
    pinned_body,
    two_body_chain,
)
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
    model = free_rigid_body(params, DIRECT_PRODUCT)
    vdot = forward_dynamics(model, state.qs, state.V, state.t)
    assert np.allclose(vdot[:3], 0.0, atol=1e-14)
    assert np.allclose(vdot[3:], g, atol=1e-13)
    # Body-fixed twists: vdot = R^T g at zero velocity.
    model = free_rigid_body(params, SEMIDIRECT)
    vdot = forward_dynamics(model, state.qs, state.V, state.t)
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
        vdot = forward_dynamics(model, state.qs, state.V, state.t)
        assert np.allclose(vdot, 0.0, atol=1e-13)


def test_tumbling_matches_euler_equations():
    params = BodyParams(mass=1.5, inertia=(1.0, 2.0, 3.0), gravity=(0, 0, 0))
    theta = np.diag(params.inertia)
    rng = np.random.default_rng(61)
    for group in (SEMIDIRECT, DIRECT_PRODUCT):
        model = free_rigid_body(params, group)
        for _ in range(20):
            state = _random_quat_state(rng)
            omega = state.V[:3]
            vdot = forward_dynamics(model, state.qs, state.V, state.t)
            want = np.linalg.solve(theta, np.cross(theta @ omega, omega))
            assert np.allclose(vdot[:3], want, atol=1e-12)


def test_pinned_static_multiplier_balances_gravity():
    # Body hanging at rest with its center of mass straight below the pin;
    # the multiplier must equal the weight so the pin carries the load.
    params = BodyParams(mass=2.0, inertia=(0.1, 0.1, 0.05), com_offset=(0, 0, -0.5))
    model = pinned_body(params, (0.0, 0.0, 0.0), group_model=SEMIDIRECT)
    state = make_state([identity_coords(QUAT_POS)], np.zeros(6))
    vdot, lam = solve_kkt(model, state.qs, state.V, state.t)
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
        solve_kkt(Duplicated(), state.qs, state.V, state.t)


def _jacobian_with_singular_values(s):
    """A len(s) x 6 matrix with singular values s, so A A^T has
    eigenvalues s**2."""
    rng = np.random.default_rng(7)
    u, _ = np.linalg.qr(rng.standard_normal((len(s), len(s))))
    vt, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    return (u * np.asarray(s)) @ vt[: len(s)]


def _with_entry(a, value):
    a = a.copy()
    a[1, 2] = value
    return a


_A = _jacobian_with_singular_values([1.0, 0.5, 0.25])


@pytest.mark.parametrize(
    "a,w_at",
    [
        (np.zeros((3, 6)), np.zeros((6, 3))),  # w_min / w_max would be 0/0
        (_A, -_A.T),  # negative definite
        (_A, (_A * [1.0, 1.0, 1.0, -1.0, -1.0, -1.0]).T),  # indefinite
        (_with_entry(_A, np.nan), _with_entry(_A, np.nan).T),
        (_with_entry(_A, np.inf), _with_entry(_A, np.inf).T),
        (_jacobian_with_singular_values([1.0, 1e-3, 10**-6.5]), None),  # cond 1e13
    ],
    ids=["zero", "negative-definite", "indefinite", "nan", "inf", "cond-1e13"],
)
def test_least_norm_gate_rejects_a_singular_gram(a, w_at):
    w_at = a.T if w_at is None else w_at
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularKkt, match="test gram"):
            least_norm(a, w_at, np.ones(3), "test gram")


def test_least_norm_solves_a_well_conditioned_gram():
    # Rows of very different scale, as from constraints in different units:
    # cond(A A^T) ~ 1e8 passes the gate. A graded gram determines its
    # solution far better than cond * eps, so the eigen solve and LU agree
    # to 1e-12 (a generic gram of that condition only to about 1e-8).
    rng = np.random.default_rng(11)
    a = np.diag([1.0, 1e-2, 1e-4]) @ rng.standard_normal((3, 6))
    gram = a @ a.T
    assert 1e7 < np.linalg.cond(gram) < 1e9
    rhs = rng.standard_normal(3)
    correction, lam = least_norm(a, a.T, rhs, "test gram")
    expected = np.linalg.solve(gram, rhs)
    for got, want in ((lam, expected), (correction, a.T @ expected)):
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_least_norm_checks_each_multiplier_when_their_sum_overflows():
    # Finite multipliers whose float sum overflows pass; a NaN one raises.
    a = np.hstack([np.eye(3), np.zeros((3, 3))])
    correction, lam = least_norm(a, a.T, np.full(3, 1e308), "test gram")
    assert lam.tolist() == [1e308] * 3
    assert correction.tolist() == [1e308] * 3 + [0.0] * 3
    with pytest.raises(SingularKkt, match="test gram gave non-finite multipliers"):
        least_norm(a, a.T, np.array([1.0, math.nan, 1.0]), "test gram")


_CHAIN_POINTS = ((0.0, 0.0, 0.3), (0.0, 0.0, -0.3), (0.1, 0.0, 0.25))


def _chains(group):
    """Two-body chains of the group model: both body frames at the centres
    of mass and, for body-fixed twists, both off them (the direct-product
    model needs them at the centres of mass)."""
    pairs = [
        (
            BodyParams(mass=1.2, inertia=(0.4, 0.5, 0.3)),
            BodyParams(mass=0.7, inertia=(0.1, 0.2, 0.15), gravity=(0.3, 0.0, -9.81)),
        )
    ]
    if group == SEMIDIRECT:
        pairs.append(
            (
                BodyParams(
                    mass=1.2, inertia=(0.4, 0.5, 0.3), com_offset=(0.0, 0.1, -0.2)
                ),
                BodyParams(
                    mass=0.7, inertia=(0.1, 0.2, 0.15), com_offset=(-0.05, 0.1, 0.15)
                ),
            )
        )
    return [two_body_chain(*pair, _CHAIN_POINTS, group_model=group) for pair in pairs]


def _no_dense_solve(*args):
    raise AssertionError("the dense least_norm was called")


@pytest.mark.parametrize("group", [SEMIDIRECT, DIRECT_PRODUCT])
def test_schur_solve_matches_dense_saddle_solve(monkeypatch, group):
    # The pinned body solves with its ground-held factor and each chain
    # with its body-to-body pivot, neither through the dense least_norm;
    # a solve without multipliers gives the same accelerations.
    monkeypatch.setattr(liembs.dynamics, "least_norm", _no_dense_solve)
    off = (0.0, 0.1, -0.2) if group == SEMIDIRECT else (0.0, 0.0, 0.0)
    p1 = BodyParams(mass=1.2, inertia=(0.4, 0.5, 0.3), com_offset=off)
    models = [pinned_body(p1, (0.0, 0.0, 0.3), group_model=group), *_chains(group)]
    rng = np.random.default_rng(63)
    for model in models:
        assert model.ground_schur is not None
        for _ in range(20):
            state = _random_quat_state(rng, model.n_bodies, v_scale=3.0)
            vdot, lam = solve_kkt(model, state.qs, state.V.tolist(), state.t)
            assert solve_kkt(
                model, state.qs, state.V.tolist(), state.t, multipliers=False
            ) == (vdot, None)
            vdot_ref, lam_ref = oracles.dense_kkt_solve(model, state)
            for got, want in ((vdot, vdot_ref), (lam, lam_ref)):
                scale = float(np.max(np.abs(want)))
                assert float(np.max(np.abs(np.asarray(got) - want))) <= 1e-12 * scale



@pytest.mark.parametrize("group", [SEMIDIRECT, DIRECT_PRODUCT])
def test_a_link_ahead_of_two_ground_joints_matches_dense_saddle_solve(
    monkeypatch, group
):
    # The link is joint 0, so its residual and multiplier lead r_c and
    # lam_c; the ground joints hold bodies 0 and 2, so K_cc is block
    # diagonal, and body 1 hangs from the link alone.
    monkeypatch.setattr(liembs.dynamics, "least_norm", _no_dense_solve)
    off = (0.0, 0.1, -0.2) if group == SEMIDIRECT else (0.0, 0.0, 0.0)
    bodies = [
        BodyParams(mass=1.2, inertia=(0.4, 0.5, 0.3), com_offset=off),
        BodyParams(mass=0.7, inertia=(0.1, 0.2, 0.15), gravity=(0.3, 0.0, -9.81)),
        BodyParams(mass=0.9, inertia=(0.2, 0.3, 0.25)),
    ]
    joints = [
        (0, (0.0, 0.0, -0.3), 1, (0.1, 0.0, 0.25)),
        (0, _PIN_A, None, (0.0, 0.0, 0.0)),
        (2, _PIN_B, None, (0.5, 0.2, 0.1)),
    ]
    model = SphericalJointSystem(bodies, joints, group)
    assert model.ground_schur[3][0] == 0
    rng = np.random.default_rng(65)
    for _ in range(20):
        state = _random_quat_state(rng, model.n_bodies, v_scale=3.0)
        vdot, lam = solve_kkt(model, state.qs, state.V.tolist(), state.t)
        vdot_ref, lam_ref = oracles.dense_kkt_solve(model, state)
        for got, want in ((vdot, vdot_ref), (lam, lam_ref)):
            scale = float(np.max(np.abs(want)))
            assert float(np.max(np.abs(np.asarray(got) - want))) <= 1e-12 * scale

def test_the_pivot_bound_never_exceeds_the_schur_ratio():
    # Over random chains with masses and inertias from 1e-6 to 1e6, the
    # pivot's bound stays below eigh's w_min / w_max of the dense A M^-1 A^T
    # up to the factor's margin for rounding (its floor less 1e-10), which
    # for a mass block near singular in floats covers the error of the
    # float M^-1 that eigh's ratio carries; and a stage the bound accepts
    # is one eigh's gate accepts.
    rng = np.random.default_rng(71)
    checked = accepted = 0
    for k in range(300):
        group = (SEMIDIRECT, DIRECT_PRODUCT)[k % 2]
        off = 0.2 if group == SEMIDIRECT else 0.0
        bodies = [
            BodyParams(
                mass=10.0 ** rng.uniform(-6.0, 6.0),
                inertia=10.0 ** rng.uniform(-6.0, 6.0, 3),
                com_offset=rng.uniform(-off, off, 3),
            )
            for _ in range(2)
        ]
        points = rng.uniform(-0.5, 0.5, (3, 3))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = two_body_chain(*bodies, points, group_model=group)
        if model.ground_schur is None:  # the ground joint's block fails its gate
            continue
        state = _random_quat_state(rng, 2)
        a = model.jacobian(state.qs)
        w = np.linalg.eigvalsh(a @ model.mass_inverse @ a.T)
        ratio = float(w[0] / w[-1])
        rot_a, rot_b = (alpha_map(q)[0].tolist() for q in state.qs)
        link = model.ground_schur[3]
        bound, t_inv, _ = _link_pivot(link, rot_a, rot_b)
        margin = link[-1][-1] - 1e-10
        assert 0.0 < margin and bound <= ratio + margin, (k, bound, ratio, margin)
        if t_inv is not None:
            assert ratio >= 1e-12
            accepted += 1
        checked += 1
    assert checked >= 250 and 0 < accepted < checked


@pytest.mark.parametrize(
    "scale", sorted({cmb.chart_scale for cmb in COMBOS.values()})
)
def test_the_pivot_bound_never_exceeds_the_projection_gram_ratio(scale):
    # The same for each projection weight W = diag(1/c^2), c the chart
    # scale, against eigh of the dense A W A^T: over random chains whose
    # joint arms run from 1e-3 to 1e7 m, the bound stays below the ratio up
    # to the factor's margin, and a stage it accepts is one eigh accepts.
    rng = np.random.default_rng(72)
    body = BodyParams(mass=1.0, inertia=(0.1, 0.2, 0.3))
    checked = accepted = 0
    for k in range(200):
        group = (SEMIDIRECT, DIRECT_PRODUCT)[k % 2]
        off = 0.2 if group == SEMIDIRECT else 0.0
        bodies = [
            dataclasses.replace(body, com_offset=rng.uniform(-off, off, 3))
            for _ in range(2)
        ]
        points = rng.uniform(-1.0, 1.0, (3, 3)) * 10.0 ** rng.uniform(-3.0, 7.0, (3, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = two_body_chain(*bodies, points, group_model=group)
        factor = (model.ground_grams or {}).get(scale)
        if factor is None:  # the ground joint's block fails its gate
            continue
        state = _random_quat_state(rng, 2)
        a = model.jacobian(state.qs) / np.tile(scale, 2)
        w = np.linalg.eigvalsh(a @ a.T)
        ratio = float(w[0] / w[-1])
        rot_a, rot_b = (alpha_map(q)[0].tolist() for q in state.qs)
        link = factor[3]
        bound, t_inv, _ = _link_pivot(link, rot_a, rot_b)
        margin = link[-1][-1] - 1e-10
        assert 0.0 < margin and bound <= ratio + margin, (k, bound, ratio, margin)
        if t_inv is not None:
            assert ratio >= 1e-12
            accepted += 1
        checked += 1
    assert checked >= 150 and 0 < accepted < checked


_HEAVY_LINK = ((0.0, 0.0, 0.3), (0.0, 0.0, -0.3), (0.0, 0.0, 0.25))


@pytest.mark.parametrize(
    "link_body",
    [
        BodyParams(mass=1e300, inertia=(0.05, 0.05, 0.01)),
        BodyParams(mass=0.5, inertia=(1e-300, 1.0, 1.0)),
    ],
    ids=["heavy", "thin"],
)
@pytest.mark.parametrize("group", [SEMIDIRECT, DIRECT_PRODUCT])
def test_a_chain_singular_in_floats_falls_back_to_the_dense_gate(group, link_body):
    # The shipped chain's joints in line, its second body at 1e300 kg or
    # with an inertia entry of 1e-300: the model builds without a numpy
    # warning, the pivot's bound fails, and the dense eigh gate raises.
    upper = BodyParams(mass=1.0, inertia=(0.1, 0.1, 0.02))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = two_body_chain(upper, link_body, _HEAVY_LINK, group_model=group)
        state = make_state([identity_coords(QUAT_POS)] * 2, np.zeros(12))
        rot = alpha_map(state.qs[0])[0].tolist()
        assert _link_pivot(model.ground_schur[3], rot, rot)[1] is None
        with pytest.raises(SingularKkt, match=_SCHUR_GATE):
            solve_kkt(model, state.qs, state.V.tolist(), state.t)



@pytest.mark.parametrize("group", [SEMIDIRECT, DIRECT_PRODUCT])
def test_a_gram_that_overflows_builds_quietly_and_fails_the_gate(group):
    # An inertia entry of 1e-307 and a 30 m arm overflow the joint-frame
    # gram of that body's joint end. Both models build and solve without a
    # numpy warning, and the solve raises with the overflowed gram's
    # reciprocal condition read as 0, not NaN. The chain's stage falls back
    # to the dense least_norm, whose gram overflows at solve time.
    thin = BodyParams(mass=1.0, inertia=(1e-307, 1.0, 1.0))
    upper = BodyParams(mass=1.0, inertia=(0.1, 0.1, 0.02))
    arm = (0.0, 0.0, 30.0)
    models = [
        pinned_body(thin, arm, group_model=group),
        two_body_chain(upper, thin, (*_HEAVY_LINK[:2], arm), group_model=group),
    ]
    zero = _SCHUR_GATE.replace(".*", r"0\.000e\+00")
    for model in models:
        n = model.n_bodies
        state = make_state([identity_coords(QUAT_POS)] * n, np.zeros(6 * n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularKkt, match=zero):
                solve_kkt(model, state.qs, state.V.tolist(), state.t)

@pytest.mark.parametrize("group", [SEMIDIRECT, DIRECT_PRODUCT])
def test_a_chain_between_the_gates_takes_the_dense_solve(monkeypatch, group):
    # At 1e10 kg the second body leaves A M^-1 A^T a reciprocal condition
    # of 1.6e-11 while both bodies share an orientation: the pivot's bound
    # sends the stage to least_norm, whose eigh gate passes it. The solve
    # matches the oracle to the forward error of a backward-stable solve,
    # eps / ratio.
    upper = BodyParams(mass=1.0, inertia=(0.1, 0.1, 0.02))
    lower = BodyParams(mass=1e10, inertia=(0.05, 0.05, 0.01))
    model = two_body_chain(upper, lower, _HEAVY_LINK, group_model=group)
    calls = []
    dense = liembs.dynamics.least_norm
    monkeypatch.setattr(
        liembs.dynamics, "least_norm", lambda *args: calls.append(1) or dense(*args)
    )
    rng = np.random.default_rng(12)
    for k in range(20):
        rot = exp_sp1(oracles.random_vector(rng, 3.0))
        qs = [quat_pos(rot, rng.normal(size=3)) for _ in range(2)]
        state = make_state(qs, rng.normal(size=12))
        a = model.jacobian(state.qs)
        w = np.linalg.eigvalsh(a @ model.mass_inverse @ a.T)
        ratio = float(w[0] / w[-1])
        assert 1e-12 < ratio < 1e-10
        vdot, lam = solve_kkt(model, state.qs, state.V.tolist(), state.t)
        assert len(calls) == k + 1
        vdot_ref, lam_ref = oracles.dense_kkt_solve(model, state, rcond_limit=0.0)
        # V dot is u - M^-1 A^T lam, whose terms are far larger than it.
        terms = float(np.max(np.abs(model.mass_inverse @ a.T @ lam_ref)))
        tol = 10.0 * np.finfo(float).eps / ratio
        assert float(np.max(np.abs(np.asarray(vdot) - vdot_ref))) <= tol * terms
        lam_scale = float(np.max(np.abs(lam_ref)))
        assert float(np.max(np.abs(lam - lam_ref))) <= tol * lam_scale


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_least_norm_rejects_a_non_finite_right_hand_side(bad):
    # Checked before the products: an infinite entry would otherwise meet
    # numpy arithmetic and warn (invalid value in matmul) instead of raising.
    a = np.hstack([np.eye(3), np.zeros((3, 3))])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SingularKkt, match="test gram"):
            least_norm(a, a.T, np.array([1.0, bad, 1.0]), "test gram")


_PIN_A = (0.0, 0.0, 0.3)
_PIN_B = (0.2, -0.1, -0.25)


def _ground_held(group):
    """Ground-held models of the group model: a body pinned in its CoM
    frame, two bodies each pinned to the ground (K block diagonal) and, for
    body-fixed twists, a body pinned in a frame off its CoM."""
    at_com = BodyParams(mass=1.2, inertia=(0.4, 0.5, 0.3))
    other = BodyParams(mass=0.7, inertia=(0.1, 0.2, 0.15), gravity=(0.3, 0.0, -9.81))
    models = [
        pinned_body(at_com, _PIN_A, group_model=group),
        SphericalJointSystem(
            [at_com, other],
            [(0, _PIN_A, None, (0.0, 0.0, 0.0)), (1, _PIN_B, None, (0.5, 0.2, 0.1))],
            group,
        ),
    ]
    if group == SEMIDIRECT:
        off = BodyParams(mass=1.2, inertia=(0.4, 0.5, 0.3), com_offset=(0.0, 0.1, -0.2))
        models.append(pinned_body(off, _PIN_A, group_model=group))
    return models


@pytest.mark.parametrize("group", [SEMIDIRECT, DIRECT_PRODUCT])
def test_ground_held_solve_in_joint_frames_matches_dense_saddle_solve(group):
    rng = np.random.default_rng(64)
    for model in _ground_held(group):
        assert model.ground_schur is not None
        for _ in range(20):
            state = _random_quat_state(rng, model.n_bodies, v_scale=3.0)
            vdot, lam = solve_kkt(model, state.qs, state.V.tolist(), state.t)
            assert {type(x) for x in vdot} == {float}
            vdot_ref, lam_ref = oracles.dense_kkt_solve(model, state)
            for got, want in ((vdot, vdot_ref), (lam, lam_ref)):
                scale = float(np.max(np.abs(want)))
                assert float(np.max(np.abs(np.asarray(got) - want))) <= 1e-12 * scale


def test_only_a_ground_held_or_single_link_system_gets_the_constant_factors():
    # A system held to the ground alone gets the Schur complement's factor
    # and one per projection gram, and so does the chain, each with a
    # body-to-body part; a system whose body-to-body joint ends at a body
    # another joint holds, or with two such joints, gets none.
    params = BodyParams(mass=1.0, inertia=(0.1, 0.2, 0.3))
    assert free_rigid_body(params).ground_schur is None
    held = pinned_body(params, _PIN_A)
    chain = two_body_chain(params, params, (_PIN_A, (0.0, 0.0, -0.3), _PIN_B))
    scales = {cmb.chart_scale for cmb in COMBOS.values()}
    for model, has_link in ((held, False), (chain, True)):
        assert set(model.ground_grams) == scales
        for factor in (model.ground_schur, *model.ground_grams.values()):
            assert (factor[3] is not None) == has_link
    link = (0, (0.0, 0.0, -0.3), 1, _PIN_B)
    for joints in (
        [(0, _PIN_A, None, _PIN_A), link, (1, _PIN_A, None, _PIN_B)],
        [(0, _PIN_A, None, _PIN_A), link, (1, _PIN_A, 2, _PIN_B)],
    ):
        model = SphericalJointSystem([params] * 3, joints, SEMIDIRECT)
        assert model.ground_schur is None and model.ground_grams is None


_SCHUR_GATE = r"Schur complement A M\^-1 A\^T reciprocal condition .* below 1e-12"


@pytest.mark.parametrize("group", [SEMIDIRECT, DIRECT_PRODUCT])
@pytest.mark.parametrize(
    "second", [_PIN_A, _PIN_B], ids=["same_joint_twice", "two_points"]
)
def test_a_body_held_by_two_ground_joints_fails_the_gate_at_solve_time(group, second):
    # Two spherical joints fix only five of a body's six freedoms (it can
    # still turn about the line through the two points), so their six rows
    # are redundant wherever the points sit. The constructor factors K
    # without dividing by its vanishing eigenvalue; the solve raises.
    params = BodyParams(mass=1.0, inertia=(0.1, 0.2, 0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = SphericalJointSystem(
            [params],
            [(0, _PIN_A, None, _PIN_A), (0, second, None, second)],
            group,
        )
    _, rcond, k_inv, _ = model.ground_schur
    assert rcond < 1e-12 and k_inv is None
    state = make_state([identity_coords(QUAT_POS)], np.zeros(6))
    with pytest.raises(SingularKkt, match=_SCHUR_GATE):
        solve_kkt(model, state.qs, state.V.tolist(), state.t)
    cid = "1a" if group == SEMIDIRECT else "1b"
    cfg = IntegratorConfig(MUNTHE_KAAS_RK4, cid, h=1e-3, t_end=0.01)
    with pytest.raises(StepFailed) as info:
        integrate(model, cfg, state)
    assert info.value.step_index == 0
    assert isinstance(info.value.__cause__, SingularKkt)


@pytest.mark.parametrize("group", [SEMIDIRECT, DIRECT_PRODUCT])
@pytest.mark.parametrize(
    "second", [_PIN_A, _PIN_B], ids=["same_joint_twice", "two_points"]
)
def test_a_body_held_by_two_ground_joints_fails_the_projection_gates(group, second):
    # The projection grams share K's null space, whatever the chart scale:
    # the velocity stage of a state on the constraints raises, and so does
    # the Gauss-Newton step of one moved off them.
    params = BodyParams(mass=1.0, inertia=(0.1, 0.2, 0.3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = SphericalJointSystem(
            [params],
            [(0, _PIN_A, None, _PIN_A), (0, second, None, second)],
            group,
        )
    assert all(factor[2] is None for factor in model.ground_grams.values())
    state = make_state([identity_coords(QUAT_POS)], np.zeros(6))
    for cid in ("1a", "1d") if group == SEMIDIRECT else ("1b", "1c"):
        with pytest.raises(SingularKkt, match=r"velocity projection A A\^T"):
            project(model, cid, state, tol=1e-10, max_iter=3)
        off = make_state([quat_pos([1.0, 0.0, 0.0, 0.0], [1e-3, 0.0, 0.0])], state.V)
        with pytest.raises(SingularKkt, match=r"chart-scaled A A\^T"):
            project(model, cid, off, tol=1e-10, max_iter=3)


_OFF_COM = BodyParams(
    mass=1.3, inertia=(0.2, 0.3, 0.4), com_offset=(0.05, -0.1, 0.2),
    gravity=(0.3, -0.2, -9.81),
)
_AT_COM = BodyParams(mass=0.8, inertia=(0.1, 0.15, 0.2), gravity=(0.3, -0.2, -9.81))


@pytest.mark.parametrize(
    "bodies",
    [[_OFF_COM], [_AT_COM], [_AT_COM, _OFF_COM]],
    ids=["full_block", "diagonal_block", "both"],
)
def test_unconstrained_accelerations_apply_the_inverse_mass_per_body(bodies):
    # Without constraints Vdot = M^-1 Q body by body, in closed form; a
    # frame off the center of mass fills the whole inverse block.
    model = SphericalJointSystem(bodies, [], SEMIDIRECT)
    rng = np.random.default_rng(67)
    for _ in range(50):
        state = _random_quat_state(rng, model.n_bodies, v_scale=3.0)
        v = state.V.tolist()
        got = forward_dynamics(model, state.qs, v, state.t)
        want = model.mass_inverse @ np.asarray(model.forces(state.qs, v, state.t))
        scale = float(np.max(np.abs(want)))
        assert float(np.max(np.abs(np.asarray(got) - want))) <= 1e-15 * scale


def test_kkt_residual_and_hidden_constraint():
    params = BodyParams(mass=1.2, inertia=(0.4, 0.5, 0.3), com_offset=(0, 0.1, -0.2))
    model = pinned_body(params, (0.0, 0.0, 0.3), group_model=SEMIDIRECT)
    rng = np.random.default_rng(62)
    for _ in range(20):
        state = _random_quat_state(rng)
        vdot, lam = solve_kkt(model, state.qs, state.V, state.t)
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
    out1 = forward_dynamics(model, state.qs, state.V, state.t)
    out2 = forward_dynamics(model, state.qs, state.V, state.t)
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
    want = forward_dynamics(model, [q_now], v.tolist(), 0.0)
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
