"""Tests for the SO(3) coordinate maps and differentials."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liembs import ChartBoundary, CompoundAnglePi, NearPiAmbiguity
from liembs import rotmaps
from liembs.rotmaps import (
    _dexp_quad,
    bch_so3,
    cay_so3,
    compose_axisangle_rodrigues,
    cross3,
    dcay_inv_so3,
    dexp_inv_quad,
    dexp_inv_so3,
    dexp_so3,
    exp_so3,
    exp_sp1,
    hat,
    log_so3,
    quat_mul,
    quat_to_rotmat,
    rodrigues_to_quat,
    sinc,
    trig_coefficients,
    vee,
)

import oracles

vec3 = st.lists(
    st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False),
    min_size=3,
    max_size=3,
).map(np.array)


def test_hat_vee_roundtrip():
    v = np.array([0.3, -1.2, 2.5])
    m = hat(v)
    assert np.allclose(m, -m.T)
    assert np.allclose(vee(m), v)
    assert np.allclose(m @ np.array([1.0, 2.0, 3.0]), np.cross(v, [1.0, 2.0, 3.0]))


def test_sinc_matches_library_and_series():
    for x in [3.0, 1.0, 1e-2, 1e-4, 1e-5, 1e-8, 0.0, -2.0]:
        assert sinc(x) == pytest.approx(np.sinc(x / np.pi), rel=1e-15, abs=1e-15)


def test_trig_coefficients_continuous_at_series_switch():
    # The series and closed forms must agree to near machine precision at
    # the 1e-4 crossover.
    for phi in [1e-4 * (1 - 1e-9), 1e-4 * (1 + 1e-9)]:
        a_lo, b_lo, g_lo = trig_coefficients(phi * (1 - 1e-9))
        a_hi, b_hi, g_hi = trig_coefficients(phi * (1 + 1e-9))
        assert a_lo == pytest.approx(a_hi, rel=1e-13)
        assert b_lo == pytest.approx(b_hi, rel=1e-13)
        assert g_lo == pytest.approx(g_hi, rel=1e-13)


def test_dexp_inv_quad_matches_series_below_switch():
    # (1 - gamma)/phi^2 = 1/12 + phi^2/720 + phi^4/30240 + phi^6/1209600 + ...
    for phi in (1e-4, 2e-4, 5e-4):
        p2 = phi * phi
        series = 1 / 12 + p2 / 720 + p2**2 / 30240 + p2**3 / 1209600
        assert dexp_inv_quad(phi) == pytest.approx(series, rel=1e-12, abs=0.0)


def test_dexp_inv_quad_matches_mpmath_across_series_switch():
    # (1 - (phi/2) cot(phi/2))/phi^2 at 50 digits. The closed form cancels to
    # about 12 eps / phi^2 relative, so it must not run at small phi.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for phi in np.concatenate([np.logspace(-4.0, 0.5, 300), [1.17e-3, 0.7, 0.7001]]):
        u = mpmath.mpf(float(phi)) / 2
        want = (1 - u * mpmath.cot(u)) / (2 * u) ** 2
        assert abs(dexp_inv_quad(float(phi)) - want) <= 1e-12 * abs(want), phi


def test_series_tables_are_the_correctly_rounded_exact_terms():
    # Exact terms: (-1)**n / (2n + 3)! for (1 - sinc)/phi^2, f_n =
    # |B_2n+2| / (2n + 2)! for f = (1 - gamma)/phi^2 from mpmath's Bernoulli
    # fractions, and 2(n+1) f_(n+1) for the quartic f'(phi)/phi. float() of a
    # Fraction is correctly rounded, so each entry must equal it exactly.
    mpmath = pytest.importorskip("mpmath")
    f = [
        abs(Fraction(*map(int, mpmath.bernfrac(2 * n + 2))))
        / math.factorial(2 * n + 2)
        for n in range(9)
    ]
    sinc_terms = [Fraction((-1) ** n, math.factorial(2 * n + 3)) for n in range(8)]
    assert rotmaps._DEXP_QUAD_SERIES == tuple(map(float, sinc_terms))
    assert rotmaps._DEXP_INV_QUAD_SERIES == tuple(map(float, f))
    quartic = [2 * (n + 1) * f[n + 1] for n in range(8)]
    assert rotmaps._B_QUARTIC_SERIES == tuple(map(float, quartic))


def test_dexp_quad_matches_mpmath_across_series_switch():
    # (1 - sin(phi)/phi)/phi^2 at 50 digits. The closed form cancels to
    # about 6 eps / phi^2 relative, so it must not run at small phi.
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 50
    for phi in np.concatenate([np.logspace(-4.0, 0.5, 300), [1.14e-4, 0.7, 0.7001]]):
        u = mpmath.mpf(float(phi))
        want = (1 - mpmath.sin(u) / u) / u**2
        assert abs(_dexp_quad(float(phi)) - want) <= 1e-12 * abs(want), phi


def test_exp_so3_matches_power_series():
    rng = np.random.default_rng(1)
    norms = [1e-9, 1e-6, 1e-4, 1e-3, 0.5, 1.0, 2.0, math.pi, 5.0]
    for n in norms:
        for _ in range(20):
            x = oracles.random_vector(rng, n)
            r = exp_so3(x)
            assert np.allclose(r, oracles.series_exp_so3(x), atol=1e-13)
            assert np.allclose(r @ r.T, np.eye(3), atol=1e-13)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)


def test_exp_so3_zero_is_identity():
    assert np.array_equal(exp_so3(np.zeros(3)), np.eye(3))


def test_log_exp_roundtrip_inside_pi_ball():
    rng = np.random.default_rng(2)
    for _ in range(200):
        x = oracles.random_vector(rng, math.pi - 1e-3)
        assert np.allclose(log_so3(exp_so3(x)), x, atol=1e-11)


def test_exp_log_roundtrip_random_rotations():
    rng = np.random.default_rng(3)
    for _ in range(200):
        r = oracles.random_rotation(rng)
        x = log_so3(r)
        assert np.linalg.norm(x) <= math.pi + 1e-12
        assert np.allclose(exp_so3(x), r, atol=1e-10)


@pytest.mark.filterwarnings("ignore::liembs.NearPiAmbiguity")
def test_log_so3_near_pi_is_accurate():
    rng = np.random.default_rng(4)
    for eps in [1e-3, 1e-5, 1e-7, 1e-9, 1e-12]:
        for _ in range(10):
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            x = (math.pi - eps) * axis
            r = exp_so3(x)
            x_back = log_so3(r)
            assert np.allclose(exp_so3(x_back), r, atol=1e-10)
            assert np.linalg.norm(x_back) == pytest.approx(
                math.pi - eps, abs=1e-8
            )


def test_log_so3_at_exactly_pi_warns_and_reconstructs():
    axis = np.array([0.36, -0.48, 0.8])
    r = exp_so3(math.pi * axis)
    with pytest.warns(NearPiAmbiguity):
        x = log_so3(r)
    assert np.linalg.norm(x) == pytest.approx(math.pi, abs=1e-9)
    assert np.allclose(exp_so3(x), r, atol=1e-9)


def test_dexp_so3_matches_finite_differences():
    rng = np.random.default_rng(5)
    for n in [1e-3, 0.1, 1.0, 2.5, 3.1]:
        for _ in range(10):
            x = oracles.random_vector(rng, n)
            fd = oracles.fd_right_differential_so3(exp_so3, x)
            assert np.allclose(dexp_so3(x), fd, atol=5e-9)


def test_dexp_inv_so3_is_matrix_inverse():
    rng = np.random.default_rng(6)
    for n in [1e-8, 1e-4, 0.5, 2.0, 3.1, 5.0, 6.2]:
        for _ in range(10):
            x = oracles.random_vector(rng, n)
            p = dexp_inv_so3(x) @ dexp_so3(x)
            assert np.allclose(p, np.eye(3), atol=1e-10)


def test_dexp_identities_at_zero_and_transpose():
    assert np.allclose(dexp_so3(np.zeros(3)), np.eye(3))
    assert np.allclose(dexp_inv_so3(np.zeros(3)), np.eye(3))
    x = np.array([0.4, -1.1, 0.7])
    assert np.allclose(dexp_so3(-x), dexp_so3(x).T, atol=1e-14)


def test_dexp_inv_so3_raises_at_chart_boundary():
    x = np.array([2.0 * math.pi, 0.0, 0.0])
    with pytest.raises(ChartBoundary):
        dexp_inv_so3(x)
    # Just inside the boundary is fine.
    dexp_inv_so3(np.array([2.0 * math.pi - 1e-6, 0.0, 0.0]))


def test_cay_so3_is_rotation_with_expected_angle_axis():
    rng = np.random.default_rng(7)
    for _ in range(100):
        c = oracles.random_vector(rng, 5.0)
        r = cay_so3(c)
        assert np.allclose(r @ r.T, np.eye(3), atol=1e-13)
        angle = 2.0 * math.atan(np.linalg.norm(c))
        assert oracles.rotation_angle(r) == pytest.approx(angle, abs=1e-12)
        assert np.allclose(r, exp_so3(angle * c / np.linalg.norm(c)), atol=1e-12)


def test_cay_so3_zero_is_identity():
    assert np.allclose(cay_so3(np.zeros(3)), np.eye(3))


def test_dcay_so3_matches_finite_differences():
    rng = np.random.default_rng(8)
    for n in [1e-3, 0.3, 1.0, 4.0]:
        for _ in range(10):
            c = oracles.random_vector(rng, n)
            fd = oracles.fd_right_differential_so3(cay_so3, c)
            assert np.allclose(oracles.dcay_so3(c), fd, atol=5e-9)


def test_dcay_inv_so3_is_matrix_inverse():
    rng = np.random.default_rng(9)
    for _ in range(100):
        c = oracles.random_vector(rng, 8.0)
        assert np.allclose(dcay_inv_so3(c) @ oracles.dcay_so3(c), np.eye(3), atol=1e-11)


def test_dcay_values_at_zero():
    assert np.allclose(oracles.dcay_so3(np.zeros(3)), 2.0 * np.eye(3))
    assert np.allclose(dcay_inv_so3(np.zeros(3)), 0.5 * np.eye(3))
    c = np.array([0.3, 0.9, -0.2])
    assert np.allclose(oracles.dcay_so3(-c), oracles.dcay_so3(c).T, atol=1e-14)


def test_quat_mul_matches_matrix_product():
    rng = np.random.default_rng(10)
    for _ in range(100):
        p = rng.normal(size=4)
        p /= np.linalg.norm(p)
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        lhs = quat_to_rotmat(quat_mul(p, q))
        rhs = quat_to_rotmat(p) @ quat_to_rotmat(q)
        assert np.allclose(lhs, rhs, atol=1e-13)


def test_quat_conj_inverts():
    q = np.array([0.5, 0.5, -0.5, 0.5])
    assert np.allclose(quat_mul(q, q * np.array([1.0, -1.0, -1.0, -1.0])), [1.0, 0.0, 0.0, 0.0])


def test_quat_to_rotmat_matches_textbook_form():
    rng = np.random.default_rng(11)
    for _ in range(50):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        assert np.allclose(quat_to_rotmat(q), oracles.quat_to_matrix(q), atol=1e-14)


def test_exp_sp1_consistent_with_exp_so3():
    rng = np.random.default_rng(12)
    for n in [1e-8, 1e-4, 0.5, 2.0, math.pi, 5.0]:
        for _ in range(10):
            x = oracles.random_vector(rng, n)
            q = exp_sp1(x)
            assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-14)
            assert np.allclose(quat_to_rotmat(q), exp_so3(x), atol=1e-13)


def test_rodrigues_to_quat_consistent_with_cay():
    rng = np.random.default_rng(13)
    for _ in range(100):
        c = oracles.random_vector(rng, 6.0)
        q = rodrigues_to_quat(c)
        assert np.linalg.norm(q) == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(quat_to_rotmat(q), cay_so3(c), atol=1e-13)


def test_bch_so3_reproduces_matrix_product():
    rng = np.random.default_rng(14)
    for _ in range(300):
        x1 = oracles.random_vector(rng, 0.9 * math.pi)
        x2 = oracles.random_vector(rng, 0.9 * math.pi)
        x = bch_so3(x1, x2)
        assert np.linalg.norm(x) <= math.pi + 1e-12
        assert np.allclose(exp_so3(x), exp_so3(x1) @ exp_so3(x2), atol=1e-12)


def test_bch_so3_wraps_past_pi():
    # Two rotations about the same axis whose angles add past pi must come
    # back as the complementary negative rotation.
    e = np.array([0.0, 0.0, 1.0])
    x = bch_so3(0.8 * math.pi * e, 0.7 * math.pi * e)
    assert np.allclose(x, (1.5 * math.pi - 2.0 * math.pi) * e, atol=1e-12)


def test_bch_so3_raises_near_two_pi():
    e = np.array([1.0, 0.0, 0.0])
    with pytest.raises(CompoundAnglePi):
        bch_so3((math.pi - 1e-9) * e, (math.pi - 1e-9) * e)


def test_compose_axisangle_rodrigues_reproduces_matrix_product():
    rng = np.random.default_rng(15)
    for _ in range(300):
        rho = oracles.random_vector(rng, 0.9 * math.pi)
        c = oracles.random_vector(rng, 6.0)
        if 2.0 * math.atan(np.linalg.norm(c)) + np.linalg.norm(rho) > 1.9 * math.pi:
            continue
        x = compose_axisangle_rodrigues(rho, c)
        assert np.linalg.norm(x) <= math.pi + 1e-12
        assert np.allclose(exp_so3(x), exp_so3(rho) @ cay_so3(c), atol=1e-12)


def test_compose_axisangle_rodrigues_identity_cases():
    rho = np.array([0.2, -0.4, 0.1])
    assert np.allclose(compose_axisangle_rodrigues(rho, np.zeros(3)), rho)
    c = np.array([0.5, 0.3, -0.7])
    angle = 2.0 * math.atan(np.linalg.norm(c))
    expected = angle * c / np.linalg.norm(c)
    assert np.allclose(
        compose_axisangle_rodrigues(np.zeros(3), c), expected, atol=1e-13
    )


@settings(max_examples=200, deadline=None)
@given(vec3)
def test_exp_so3_orthogonality_property(x):
    r = exp_so3(x)
    assert np.allclose(r @ r.T, np.eye(3), atol=1e-12)


@settings(max_examples=200, deadline=None)
@given(vec3)
def test_dexp_pair_inverts_property(x):
    if np.linalg.norm(x) >= 2.0 * math.pi - 1e-3:
        return
    assert np.allclose(dexp_inv_so3(x) @ dexp_so3(x), np.eye(3), atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(vec3, vec3)
def test_quat_mul_norm_property(p, q):
    np_ = np.linalg.norm(np.concatenate([[1.0], p]))
    nq = np.linalg.norm(np.concatenate([[1.0], q]))
    prod = quat_mul(np.concatenate([[1.0], p]), np.concatenate([[1.0], q]))
    assert np.linalg.norm(prod) == pytest.approx(np_ * nq, rel=1e-12)


# The closed-form kernels against the matrix forms they replaced, at norms
# on either side of every series switch, to 1e-13 times the largest entry
# (entries are of order one except for dexp_inv_so3 near its chart edge).

_ONE_VECTOR_KERNELS = [
    (exp_so3, oracles.matrix_exp_so3, math.pi),
    (dexp_so3, oracles.matrix_dexp_so3, math.pi),
    (dexp_inv_so3, oracles.matrix_dexp_inv_so3, 2.0 * math.pi - 1e-6),
    (cay_so3, oracles.matrix_cay_so3, math.pi),
    (dcay_inv_so3, oracles.matrix_dcay_inv_so3, math.pi),
    (exp_sp1, oracles.vector_exp_sp1, math.pi),
    (rodrigues_to_quat, oracles.vector_rodrigues_to_quat, math.pi),
    (lambda x: quat_to_rotmat(oracles.vector_exp_sp1(x)),
     lambda x: oracles.matrix_quat_to_rotmat(oracles.vector_exp_sp1(x)), math.pi),
]


@pytest.mark.parametrize(
    "kernel, oracle, max_norm",
    _ONE_VECTOR_KERNELS,
    ids=["exp_so3", "dexp_so3", "dexp_inv_so3", "cay_so3", "dcay_inv_so3",
         "exp_sp1", "rodrigues_to_quat", "quat_to_rotmat"],
)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_kernel_matches_matrix_form(kernel, oracle, max_norm, data):
    x = data.draw(oracles.vectors(max_norm))
    tol = 1e-13
    if kernel is dexp_inv_so3:
        # Near 2*pi the map itself is ill-conditioned: the two forms round
        # ||x|| one ulp apart, which moves every entry by about
        # eps * phi / (2*pi - phi) relative (9e-10 at 2*pi - 1e-6).
        phi = float(np.linalg.norm(x))
        tol += 8.0 * np.finfo(float).eps * phi / (2.0 * math.pi - phi)
    oracles.assert_close_to_scale(kernel(x), oracle(x), tol)


@settings(max_examples=200, deadline=None)
@given(oracles.vectors(math.pi), oracles.vectors(math.pi))
def test_quat_mul_and_cross3_match_vector_forms(x1, x2):
    p, q = oracles.vector_exp_sp1(x1), 2.0 * oracles.vector_exp_sp1(x2)
    oracles.assert_close_to_scale(quat_mul(p, q), oracles.vector_quat_mul(p, q), 1e-13)
    oracles.assert_close_to_scale(cross3(x1, x2), np.cross(x1, x2), 1e-13)


def _check_composition(got, want, cos_half):
    # Compound angles within 0.5 of 2*pi divide by sinc(phi/2) < 0.09, which
    # amplifies rounding in both forms past 1e-13; CompoundAnglePi and the
    # matrix-product tests cover that end.
    assume(2.0 * math.acos(min(1.0, max(-1.0, cos_half))) < 2.0 * math.pi - 0.5)
    if abs(np.linalg.norm(want) - math.pi) < 1e-9:
        # At angle pi the wrap may pick either of the two equal vectors.
        if np.linalg.norm(got + want) < np.linalg.norm(got - want):
            got = -got
    oracles.assert_close_to_scale(got, want, 1e-13)


@settings(max_examples=200, deadline=None)
@given(oracles.vectors(math.pi), oracles.vectors(math.pi))
def test_bch_so3_matches_vector_form(x1, x2):
    cos_half = oracles.vector_quat_mul(
        oracles.vector_exp_sp1(x1), oracles.vector_exp_sp1(x2)
    )[0]
    assume(cos_half > -1.0 + 1e-12)
    _check_composition(bch_so3(x1, x2), oracles.vector_bch_so3(x1, x2), cos_half)


@settings(max_examples=200, deadline=None)
@given(oracles.vectors(math.pi), oracles.vectors(math.pi))
def test_compose_axisangle_rodrigues_matches_vector_form(rho, c):
    cos_half = oracles.vector_quat_mul(
        oracles.vector_exp_sp1(rho), oracles.vector_rodrigues_to_quat(c)
    )[0]
    assume(cos_half > -1.0 + 1e-12)
    _check_composition(
        compose_axisangle_rodrigues(rho, c),
        oracles.vector_compose_axisangle_rodrigues(rho, c),
        cos_half,
    )
