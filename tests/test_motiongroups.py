"""Tests for the six-dimensional motion group maps and differentials."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liembs import ChartBoundary
from liembs.motiongroups import (
    DIRECT_PRODUCT,
    SEMIDIRECT,
    _b_quartic,
    cay_dp,
    cay_se3,
    compose,
    dcay_inv_dp_action,
    dcay_inv_se3,
    dcay_inv_se3_action,
    dexp_inv_dp_action,
    dexp_inv_se3,
    dexp_inv_se3_action,
    exp_dp,
    exp_se3,
)
from liembs.rotmaps import (
    cay_so3,
    dexp_inv_so3,
    exp_so3,
    hat,
)

import oracles


def _pose44(pose):
    r, p = pose
    out = np.eye(4)
    out[:3, :3] = r
    out[:3, 3] = p
    return out


def _exp_se3_44(xy):
    return _pose44(exp_se3(xy))


def _cay_se3_44(cd):
    return _pose44(cay_se3(cd))


def _random_xy(rng, rot_norm, trans_norm=2.0):
    return np.concatenate(
        [oracles.random_vector(rng, rot_norm), oracles.random_vector(rng, trans_norm)]
    )


def test_exp_se3_matches_series_oracle():
    rng = np.random.default_rng(20)
    for n in [1e-8, 1e-4, 1e-3, 0.3, 1.5, 3.0]:
        for _ in range(20):
            xy = _random_xy(rng, n)
            r, p = exp_se3(xy)
            m = oracles.series_exp_se3(xy)
            assert np.allclose(r, m[:3, :3], atol=1e-12)
            assert np.allclose(p, m[:3, 3], atol=1e-12)


def test_exp_se3_special_cases():
    y = np.array([1.0, -2.0, 0.5])
    r, p = exp_se3(np.concatenate([np.zeros(3), y]))
    assert np.allclose(r, np.eye(3))
    assert np.allclose(p, y)
    x = np.array([0.3, 0.1, -0.4])
    r, p = exp_se3(np.concatenate([x, np.zeros(3)]))
    assert np.allclose(r, exp_so3(x))
    assert np.allclose(p, 0.0)


def test_dexp_inv_se3_structure():
    rng = np.random.default_rng(21)
    xy = _random_xy(rng, 2.0)
    m = dexp_inv_se3(xy)
    d = dexp_inv_so3(xy[:3])
    assert np.allclose(m[:3, :3], d)
    assert np.allclose(m[3:, 3:], d)
    assert np.allclose(m[:3, 3:], 0.0)
    # Pure rotation: the lower-left block is linear in y, so it vanishes.
    m0 = dexp_inv_se3(np.concatenate([xy[:3], np.zeros(3)]))
    assert np.allclose(m0[3:, :3], 0.0)
    assert np.allclose(dexp_inv_se3(np.zeros(6)), np.eye(6))


def test_dexp_inv_se3_inverts_finite_difference_dexp():
    rng = np.random.default_rng(22)
    for n in [1e-4, 1e-2, 0.5, 2.0, 3.0]:
        for _ in range(10):
            xy = _random_xy(rng, n)
            fd = oracles.fd_right_differential_se3(_exp_se3_44, xy)
            assert np.allclose(dexp_inv_se3(xy) @ fd, np.eye(6), atol=1e-6)


def test_dexp_inv_se3_small_angle_limit():
    y = np.array([0.7, -0.2, 1.1])
    m = dexp_inv_se3(np.concatenate([np.zeros(3), y]))
    assert np.allclose(m[3:, :3], -0.5 * hat(y))
    assert np.allclose(m[:3, :3], np.eye(3))


def test_dexp_inv_se3_action_is_the_identity_at_xy_zero_only():
    # Every step restarts the chart at X = 0, where the action returns v
    # exactly; at x = 0 alone the lower-left block -hat(y)/2 remains.
    rng = np.random.default_rng(25)
    y = rng.standard_normal(3).tolist()
    for _ in range(20):
        v = rng.standard_normal(6).tolist()
        for zero in ([0.0] * 6, [-0.0, 0.0, -0.0, 0.0, -0.0, -0.0]):
            got = dexp_inv_se3_action(zero, v)
            assert list(got) == v and all(type(g) is float for g in got)
        w, u = v[:3], v[3:]
        want = w + (np.array(u) - 0.5 * np.cross(y, w)).tolist()
        got = dexp_inv_se3_action([0.0] * 3 + y, v)
        oracles.assert_close_to_scale(got, want, 1e-15)


def test_dexp_inv_se3_continuous_at_series_switch():
    # The B-block coefficients change branch at ||x|| = 1e-3; the assembled
    # matrix must not jump there.
    axis = np.array([0.6, -0.64, 0.48]) / np.linalg.norm([0.6, -0.64, 0.48])
    y = np.array([0.4, 1.3, -0.8])
    lo = dexp_inv_se3(np.concatenate([1e-3 * (1 - 1e-9) * axis, y]))
    hi = dexp_inv_se3(np.concatenate([1e-3 * (1 + 1e-9) * axis, y]))
    assert np.allclose(lo, hi, atol=1e-11)


def test_dexp_inv_se3_chart_boundary():
    xy = np.zeros(6)
    xy[0] = 2.0 * math.pi
    with pytest.raises(ChartBoundary):
        dexp_inv_se3(xy)


def test_cay_se3_matches_matrix_cayley_oracle():
    rng = np.random.default_rng(23)
    for _ in range(100):
        cd = _random_xy(rng, 4.0)
        r, p = cay_se3(cd)
        m = oracles.cayley_4x4(cd)
        assert np.allclose(r, m[:3, :3], atol=1e-12)
        assert np.allclose(p, m[:3, 3], atol=1e-12)
        assert np.allclose(r, cay_so3(cd[:3]), atol=1e-14)


def test_cay_se3_special_cases():
    d = np.array([0.5, 0.25, -1.0])
    r, p = cay_se3(np.concatenate([np.zeros(3), d]))
    assert np.allclose(r, np.eye(3))
    assert np.allclose(p, 2.0 * d)
    c = np.array([0.2, -0.3, 0.4])
    r, p = cay_se3(np.concatenate([c, np.zeros(3)]))
    assert np.allclose(p, 0.0)


def test_dcay_inv_se3_inverts_finite_difference_dcay():
    rng = np.random.default_rng(24)
    for n in [1e-4, 0.3, 1.0, 4.0]:
        for _ in range(10):
            cd = _random_xy(rng, n)
            fd = oracles.fd_right_differential_se3(_cay_se3_44, cd)
            assert np.allclose(dcay_inv_se3(cd) @ fd, np.eye(6), atol=1e-6)


def test_dcay_inv_se3_at_zero():
    m = dcay_inv_se3(np.zeros(6))
    assert np.allclose(m, 0.5 * np.eye(6))


def test_exp_dp_components_and_differential():
    rng = np.random.default_rng(25)
    xy = _random_xy(rng, 2.0)
    r, p = exp_dp(xy)
    assert np.allclose(r, exp_so3(xy[:3]))
    assert np.allclose(p, xy[3:])
    fd = oracles.fd_right_differential_dp(exp_dp, xy)
    assert np.allclose(oracles.dexp_inv_dp(xy) @ fd, np.eye(6), atol=1e-6)
    assert np.allclose(fd[:3, 3:], 0.0, atol=1e-9)
    assert np.allclose(fd[3:, 3:], np.eye(3), atol=1e-9)


def test_cay_dp_components_and_differential():
    rng = np.random.default_rng(26)
    cd = _random_xy(rng, 3.0)
    r, p = cay_dp(cd)
    assert np.allclose(r, cay_so3(cd[:3]))
    assert np.allclose(p, cd[3:])
    fd = oracles.fd_right_differential_dp(cay_dp, cd)
    assert np.allclose(oracles.dcay_inv_dp(cd) @ fd, np.eye(6), atol=1e-6)


def test_compose_identity_and_quarter_turn():
    ident = (np.eye(3), np.zeros(3))
    c = (exp_so3(np.array([0.0, 0.0, 0.5])), np.array([1.0, 2.0, 3.0]))
    r, p = compose(SEMIDIRECT, ident, c)
    assert np.allclose(r, c[0])
    assert np.allclose(p, c[1])
    quarter = exp_so3(np.array([0.0, 0.0, math.pi / 2]))
    c1 = (np.eye(3), np.array([1.0, 0.0, 0.0]))
    c2 = (quarter, np.array([1.0, 0.0, 0.0]))
    r, p = compose(SEMIDIRECT, c1, c2)
    assert np.allclose(r, quarter)
    assert np.allclose(p, [2.0, 0.0, 0.0])


def test_compose_models_differ_when_rotated():
    rng = np.random.default_rng(28)
    c1 = (oracles.random_rotation(rng), rng.normal(size=3))
    c2 = (oracles.random_rotation(rng), rng.normal(size=3))
    _, p_sd = compose(SEMIDIRECT, c1, c2)
    _, p_dp = compose(DIRECT_PRODUCT, c1, c2)
    assert not np.allclose(p_sd, p_dp)


def test_compose_inverse_gives_identity_both_models():
    rng = np.random.default_rng(29)
    for model in (SEMIDIRECT, DIRECT_PRODUCT):
        for _ in range(20):
            c = (oracles.random_rotation(rng), rng.normal(size=3))
            r, p = compose(model, c, oracles.pose_inverse(model, c))
            assert np.allclose(r, np.eye(3), atol=1e-13)
            assert np.allclose(p, 0.0, atol=1e-13)


def test_semidirect_composition_associative():
    rng = np.random.default_rng(30)
    for _ in range(20):
        cs = [(oracles.random_rotation(rng), rng.normal(size=3)) for _ in range(3)]
        left = compose(SEMIDIRECT, compose(SEMIDIRECT, cs[0], cs[1]), cs[2])
        right = compose(SEMIDIRECT, cs[0], compose(SEMIDIRECT, cs[1], cs[2]))
        assert np.allclose(left[0], right[0], atol=1e-13)
        assert np.allclose(left[1], right[1], atol=1e-13)


def test_exp_se3_one_parameter_subgroup_under_semidirect():
    rng = np.random.default_rng(31)
    for _ in range(20):
        xy = _random_xy(rng, 2.0)
        fwd = exp_se3(xy)
        bwd = exp_se3(-xy)
        inv = oracles.pose_inverse(SEMIDIRECT, fwd)
        assert np.allclose(bwd[0], inv[0], atol=1e-12)
        assert np.allclose(bwd[1], inv[1], atol=1e-12)


def test_kinematic_reconstruction_convention():
    # Xdot = dpsi_inv(-X) V must reproduce the left-trivialized velocity of
    # the path t -> psi(X + t Xdot) for both models and charts (left
    # trivialization is unchanged by a constant left factor, so testing the
    # chart path alone covers C(t) = C_k psi(X(t))).
    rng = np.random.default_rng(33)
    h = 1e-6
    for model, psi, dpsi_inv in (
        (SEMIDIRECT, exp_se3, dexp_inv_se3),
        (SEMIDIRECT, cay_se3, dcay_inv_se3),
        (DIRECT_PRODUCT, exp_dp, oracles.dexp_inv_dp),
        (DIRECT_PRODUCT, cay_dp, oracles.dcay_inv_dp),
    ):
        for _ in range(10):
            x = _random_xy(rng, 1.5)
            v = rng.normal(size=6)
            xdot = dpsi_inv(-x) @ v
            rp, pp = psi(x + h * xdot)
            rm, pm = psi(x - h * xdot)
            r0, p0 = psi(x)
            omega = oracles.unskew(r0.T @ ((rp - rm) / (2 * h)))
            if model == SEMIDIRECT:
                lin = r0.T @ ((pp - pm) / (2 * h))
            else:
                lin = (pp - pm) / (2 * h)
            assert np.allclose(np.concatenate([omega, lin]), v, atol=1e-6)


def test_b_quartic_matches_mpmath_across_series_switch():
    # (1/beta + gamma - 2)/phi^4 at 50 digits; the closed form used to cancel
    # to a relative error of 0.11 just above its old 1e-3 switch.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for phi in np.logspace(-4.0, math.log10(2e-2), 200):
        u = mpmath.mpf(float(phi)) / 2
        want = (u * u / mpmath.sin(u) ** 2 + u * mpmath.cot(u) - 2) / (2 * u) ** 4
        assert abs(_b_quartic(float(phi)) - want) <= 1e-12 * abs(want), phi


_SIX_BY_SIX_KERNELS = [
    (dexp_inv_se3, oracles.matrix_dexp_inv_se3),
    (dcay_inv_se3, oracles.matrix_dcay_inv_se3),
    (oracles.dexp_inv_dp, oracles.matrix_dexp_inv_dp),
    (oracles.dcay_inv_dp, oracles.matrix_dcay_inv_dp),
]


@pytest.mark.parametrize(
    "kernel, oracle", _SIX_BY_SIX_KERNELS,
    ids=["dexp_inv_se3", "dcay_inv_se3", "dexp_inv_dp", "dcay_inv_dp"],
)
@settings(max_examples=200, deadline=None)
@given(x=oracles.vectors(math.pi), y=oracles.vectors(3.0))
def test_six_by_six_kernel_matches_matrix_form(kernel, oracle, x, y):
    xy = np.concatenate([x, y])
    oracles.assert_close_to_scale(kernel(xy), oracle(xy), 1e-13)


# The 6x6 forms of liembs are the matrices of these actions, so each action
# is checked against the independent matrix form of tests/oracles.py.
_ACTIONS = [
    (dexp_inv_se3_action, oracles.matrix_dexp_inv_se3),
    (dcay_inv_se3_action, oracles.matrix_dcay_inv_se3),
    (dexp_inv_dp_action, oracles.matrix_dexp_inv_dp),
    (dcay_inv_dp_action, oracles.matrix_dcay_inv_dp),
]
# Rotation norms near the 1e-4 and 0.7 switches, and up to pi.
_ACTION_NORMS = st.one_of(
    st.floats(0.9e-4, 1.1e-4), st.floats(0.63, 0.77), st.floats(0.0, math.pi)
)
_DIRECTIONS = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
    lambda d: d[0] * d[0] + d[1] * d[1] + d[2] * d[2] > 1e-2
)


@pytest.mark.parametrize(
    "action, matrix", _ACTIONS,
    ids=["dexp_inv_se3", "dcay_inv_se3", "dexp_inv_dp", "dcay_inv_dp"],
)
@settings(max_examples=200, deadline=None)
@given(
    phi=_ACTION_NORMS,
    direction=_DIRECTIONS,
    y=oracles.vectors(3.0),
    v=st.tuples(*[st.floats(-3.0, 3.0)] * 6),
)
def test_action_is_the_six_by_six_form_times_v(action, matrix, phi, direction, y, v):
    x = phi / np.linalg.norm(direction) * np.array(direction)
    xy = np.concatenate([x, y])
    got = action(xy.tolist(), list(v))
    assert len(got) == 6 and all(type(g) is float for g in got)
    oracles.assert_close_to_scale(got, matrix(xy) @ np.array(v), 1e-13)
