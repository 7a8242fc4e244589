"""Tests for the local-global transition maps."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liembs import InconsistentState, VariantMismatch
from liembs.lgt import (
    AXIS_ANGLE_POS,
    COMBO_IDS,
    COMBOS,
    QUAT_POS,
    alpha_map,
    apply_lgt,
    apply_lgt_stacked,
    axis_angle_pos,
    combo,
    combo_psi,
    identity_coords,
    quat_pos,
)
from liembs.motiongroups import (
    compose,
    dcay_inv_se3,
    dexp_inv_se3,
    exp_se3,
)
from liembs.rotmaps import (
    cay_so3,
    exp_so3,
    exp_sp1,
    log_sp1,
    quat_mul,
    quat_to_rotmat,
)

import oracles


def _random_q(rng, kind):
    r = rng.normal(size=3)
    if kind == QUAT_POS:
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        return quat_pos(q, r)
    return axis_angle_pos(oracles.random_vector(rng, 0.95 * math.pi), r)


def _random_x(rng, cmb):
    # Keep compound rotations away from the 2*pi boundary of the
    # rotation-vector chart: exp columns get increments inside the 0.9*pi
    # ball, cay columns Rodrigues vectors of angle < 2.22 rad.
    if cmb.chart == "exp":
        rot = oracles.random_vector(rng, 0.9 * math.pi)
    else:
        rot = oracles.random_vector(rng, 2.0)
    return np.concatenate([rot, oracles.random_vector(rng, 2.0)])


def test_combo_table_shape():
    assert COMBO_IDS == ("1a", "1b", "1c", "1d", "2a", "2b", "2c", "2d")
    assert combo("1A").id == "1a"
    assert combo(COMBOS["2c"]) is COMBOS["2c"]
    with pytest.raises(ValueError):
        combo("3a")


def test_alpha_map_variants():
    ident = identity_coords(QUAT_POS)
    r, p = alpha_map(ident)
    assert np.allclose(r, np.eye(3))
    assert np.allclose(p, 0.0)
    q = axis_angle_pos([math.pi / 2, 0.0, 0.0], [1.0, 2.0, 3.0])
    r, p = alpha_map(q)
    assert np.allclose(r, [[1, 0, 0], [0, 0, -1], [0, 1, 0]], atol=1e-15)
    assert np.allclose(p, [1.0, 2.0, 3.0])


def test_alpha_map_variants_agree_for_matching_rotation():
    rng = np.random.default_rng(40)
    for _ in range(50):
        rho = oracles.random_vector(rng, math.pi - 0.05)
        r = rng.normal(size=3)
        ra, _ = alpha_map(axis_angle_pos(rho, r))
        rq, _ = alpha_map(quat_pos(exp_sp1(rho), r))
        assert np.allclose(ra, rq, atol=1e-13)


def test_axis_angle_pos_wraps_into_pi_ball():
    e = np.array([0.0, 0.0, 1.0])
    q = axis_angle_pos(1.5 * math.pi * e, np.zeros(3))
    assert np.allclose(q.rot, -0.5 * math.pi * e, atol=1e-12)
    # The wrapped vector represents the same rotation.
    assert np.allclose(exp_so3(q.rot), exp_so3(1.5 * math.pi * e), atol=1e-13)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructors_reject_non_finite_coordinates(bad):
    for make, rot in ((quat_pos, [1.0, 0.0, 0.0, 0.0]), (axis_angle_pos, [0.0] * 3)):
        make(rot, np.zeros(3))
        with pytest.raises(InconsistentState):
            make([bad] + rot[1:], np.zeros(3))
        with pytest.raises(InconsistentState, match="position"):
            make(rot, [0.0, bad, 0.0])


def test_axis_angle_pos_rejects_a_rotation_vector_whose_norm_overflows():
    # Finite entries, but the squared norm is inf: the constructor must
    # refuse it without a numpy overflow warning (an error in this suite).
    with pytest.raises(InconsistentState, match="rotation vector"):
        axis_angle_pos((1e200, 0.0, 0.0), np.zeros(3))


@pytest.mark.parametrize("phi", [10.0, 1e3, 1e10, 1e17, 1e154])
def test_axis_angle_pos_wraps_to_the_rotation_exp_sp1_gives(phi):
    # Far beyond one turn the wrap must keep the rotation of the vector,
    # the one the quaternion combos start from, not drift with 2*pi's
    # rounding; the stored norm stays in the pi-ball.
    random_axis = np.random.default_rng(15).normal(size=3)
    for axis in (np.array([0.6, -0.8, 0.0]), random_axis / np.linalg.norm(random_axis)):
        rho = phi * axis
        q = axis_angle_pos(rho, np.zeros(3))
        assert math.sqrt(float(q.rot @ q.rot)) <= math.pi
        expected = quat_to_rotmat(exp_sp1(rho))
        assert np.max(np.abs(exp_so3(q.rot) - expected)) <= 1e-14


def _stored_norm(q):
    """The stored rotation-vector norm, summed as the chart guard sums it."""
    a, b, c = q.rot.tolist()
    return math.sqrt(a * a + b * b + c * c)


def _near_odd_multiple_of_pi(k, axis, rel):
    """A rotation vector along axis with norm (2k + 1) pi (1 + rel)."""
    axis = np.asarray(axis, dtype=float)
    return axis * ((2 * k + 1) * math.pi * (1.0 + rel) / np.linalg.norm(axis))


@settings(max_examples=300, deadline=None)
@given(
    k=st.integers(0, 49),
    axis=st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
        lambda a: math.sqrt(sum(x * x for x in a)) > 1e-3
    ),
    rel=st.floats(-1e-15, 1e-15),
)
def test_axis_angle_pos_stores_a_norm_at_most_pi(k, axis, rel):
    # Near an odd multiple of pi the wrapped norm rounds to either side of
    # pi; the stored one must not exceed it, and the rotation is still the
    # one exp_sp1 gives the vector.
    rho = _near_odd_multiple_of_pi(k, axis, rel)
    q = axis_angle_pos(rho, np.zeros(3))
    assert _stored_norm(q) <= math.pi
    expected = quat_to_rotmat(exp_sp1(rho))
    assert np.max(np.abs(exp_so3(q.rot) - expected)) <= 1e-14


def test_axis_angle_pos_norm_bound_on_seeded_vectors_near_odd_multiples_of_pi():
    # A seeded batch where a plain wrap stores a norm one ulp above pi for
    # about one vector in a thousand.
    rng = np.random.default_rng(36)
    for _ in range(20000):
        rho = _near_odd_multiple_of_pi(
            rng.integers(0, 50), rng.normal(size=3), rng.uniform(-1e-15, 1e-15)
        )
        q = axis_angle_pos(rho, np.zeros(3))
        assert _stored_norm(q) <= math.pi, rho.tolist()


_unit_quat = (
    st.tuples(
        st.one_of(st.floats(-1.0, 1.0), st.sampled_from([0.0, -0.0, 1e-12, -1e-12])),
        *[st.floats(-1.0, 1.0)] * 3,
    )
    .map(np.array)
    .filter(lambda q: np.linalg.norm(q) > 1e-3)
    .map(lambda q: q / np.linalg.norm(q))
)


@settings(max_examples=300, deadline=None)
@given(q=_unit_quat)
def test_axis_angle_pos_of_log_sp1_stores_a_norm_at_most_pi(q):
    # A quaternion scenario reaches axis-angle coordinates this way. At
    # w = 0 the logarithm's norm may round an ulp over pi; the stored one
    # must not, and the rotation stays q's.
    stored = axis_angle_pos(log_sp1(q), np.zeros(3))
    assert _stored_norm(stored) <= math.pi
    assert np.max(np.abs(exp_so3(stored.rot) - quat_to_rotmat(q))) <= 2e-15


def _rotated(cid, q, x_rot):
    """Rotation coordinates after a pure-rotation increment (tau_R)."""
    return apply_lgt(cid, q, np.concatenate([x_rot, np.zeros(3)])).rot


def _displaced(cid, x):
    """Position after the increment x from the identity pose: the chart's
    inertial-frame displacement (tau_T with R = I)."""
    return apply_lgt(cid, identity_coords(COMBOS[cid].abs_kind), x).r


def test_tau_R_quat_exp_and_cay():
    rng = np.random.default_rng(41)
    for _ in range(50):
        q = rng.normal(size=4)
        q /= np.linalg.norm(q)
        x = oracles.random_vector(rng, 2.5)
        qe = _rotated("1a", quat_pos(q, np.zeros(3)), x)
        assert np.allclose(
            quat_to_rotmat(qe), quat_to_rotmat(q) @ exp_so3(x), atol=1e-12
        )
        qc = _rotated("1c", quat_pos(q, np.zeros(3)), x)
        assert np.allclose(
            quat_to_rotmat(qc), quat_to_rotmat(q) @ cay_so3(x), atol=1e-12
        )
        assert np.linalg.norm(qe) == pytest.approx(1.0, abs=1e-13)
        assert np.linalg.norm(qc) == pytest.approx(1.0, abs=1e-13)
    ident = identity_coords(QUAT_POS)
    x = np.array([0.3, -0.2, 0.5])
    assert np.array_equal(_rotated("1a", ident, np.zeros(3)), ident.rot)
    assert np.allclose(_rotated("1a", ident, x), exp_sp1(x))


def test_tau_R_axisangle_exp_and_cay():
    rng = np.random.default_rng(42)
    for _ in range(50):
        rho = oracles.random_vector(rng, 0.9 * math.pi)
        q = axis_angle_pos(rho, np.zeros(3))
        x = oracles.random_vector(rng, 0.9 * math.pi)
        out = _rotated("2a", q, x)
        assert np.allclose(exp_so3(out), exp_so3(rho) @ exp_so3(x), atol=1e-10)
        c = oracles.random_vector(rng, 2.0)
        out = _rotated("2c", q, c)
        assert np.allclose(exp_so3(out), exp_so3(rho) @ cay_so3(c), atol=1e-10)
    rho = np.array([0.4, 0.1, -0.2])
    out = _rotated("2a", axis_angle_pos(rho, np.zeros(3)), np.zeros(3))
    assert np.allclose(out, rho, atol=1e-14)


def test_tau_R_axisangle_coaxial_adds_then_wraps():
    e = np.array([1.0, 0.0, 0.0])
    zero = np.zeros(3)
    out = _rotated("2a", axis_angle_pos(0.25 * math.pi * e, zero), 0.5 * math.pi * e)
    assert np.allclose(out, 0.75 * math.pi * e, atol=1e-13)
    out = _rotated("2a", axis_angle_pos(0.75 * math.pi * e, zero), 0.75 * math.pi * e)
    assert np.allclose(out, -0.5 * math.pi * e, atol=1e-12)


def test_delta_r_screw_matches_exp_se3_translation():
    rng = np.random.default_rng(43)
    y = np.array([1.0, -0.5, 2.0])
    assert np.allclose(_displaced("1a", np.concatenate([np.zeros(3), y])), y)
    assert np.allclose(_displaced("1a", np.array([0.3, 0.2, -1.0, 0.0, 0.0, 0.0])), 0.0)
    for _ in range(20):
        xy = np.concatenate(
            [oracles.random_vector(rng, 2.5), oracles.random_vector(rng, 2.0)]
        )
        _, p = exp_se3(xy)
        assert np.array_equal(_displaced("1a", xy), p)


def test_delta_r_cayley_matches_cay_se3_translation():
    d = np.array([0.4, 0.2, -0.9])
    assert np.allclose(_displaced("1d", np.concatenate([np.zeros(3), d])), 2.0 * d)
    assert np.allclose(_displaced("1d", np.array([1.0, 2.0, 0.5, 0.0, 0.0, 0.0])), 0.0)


def test_tau_T_and_quaternion_sandwich():
    rng = np.random.default_rng(44)
    for _ in range(50):
        q = _random_q(rng, QUAT_POS)
        dr = rng.normal(size=3)
        out = apply_lgt("1a", q, np.concatenate([np.zeros(3), dr])).r
        # Same transport via the quaternion sandwich Q (0, dr) Q*.
        sandwich = quat_mul(
            quat_mul(q.rot, np.concatenate([[0.0], dr])),
            np.array([q.rot[0], -q.rot[1], -q.rot[2], -q.rot[3]]),
        )
        assert np.allclose(out, q.r + sandwich[1:], atol=1e-13)
    out = _displaced("1a", np.array([0.0, 0.0, 0.0, 1.0, 2.0, 3.0]))
    assert np.allclose(out, [1.0, 2.0, 3.0])


def test_apply_lgt_zero_increment_is_identity():
    rng = np.random.default_rng(45)
    for cid in COMBO_IDS:
        cmb = COMBOS[cid]
        q = _random_q(rng, cmb.abs_kind)
        out = apply_lgt(cmb, q, np.zeros(6))
        assert np.allclose(out.rot, q.rot, atol=1e-14)
        assert np.array_equal(out.r, q.r)


def test_apply_lgt_pure_translation_combo_1a():
    q = identity_coords(QUAT_POS)
    y = np.array([0.5, -1.0, 2.0])
    out = apply_lgt("1a", q, np.concatenate([np.zeros(3), y]))
    assert np.array_equal(out.rot, q.rot)
    assert np.allclose(out.r, y)


def test_apply_lgt_variant_mismatch():
    q = identity_coords(AXIS_ANGLE_POS)
    with pytest.raises(VariantMismatch):
        apply_lgt("1a", q, np.zeros(6))
    q = identity_coords(QUAT_POS)
    with pytest.raises(VariantMismatch):
        apply_lgt("2c", q, np.zeros(6))


def test_apply_lgt_master_consistency_all_combos():
    # alpha(tau(q, X)) == compose(G, alpha(q), psi(X)) is the defining
    # contract of every cell of the table.
    rng = np.random.default_rng(46)
    for cid in COMBO_IDS:
        cmb = COMBOS[cid]
        for _ in range(300):
            q = _random_q(rng, cmb.abs_kind)
            x = _random_x(rng, cmb)
            out = apply_lgt(cmb, q, x)
            got_r, got_p = alpha_map(out)
            want_r, want_p = compose(
                cmb.group_model, alpha_map(q), combo_psi(cmb, x)
            )
            assert np.allclose(got_r, want_r, atol=1e-10), cid
            assert np.allclose(got_p, want_p, atol=1e-10), cid


def test_apply_lgt_quaternion_norm_preserved_without_renormalization():
    rng = np.random.default_rng(47)
    for cid in ("1a", "1b", "1c", "1d"):
        cmb = COMBOS[cid]
        q = _random_q(rng, QUAT_POS)
        for _ in range(200):
            q = apply_lgt(cmb, q, 0.01 * rng.normal(size=6))
        assert oracles.quat_norm_error(q) < 1e-13


def test_combos_sharing_tau_R_give_bit_identical_rotations():
    rng = np.random.default_rng(48)
    pairs = [("1a", "1b"), ("1c", "1d"), ("2a", "2b"), ("2c", "2d")]
    for cid1, cid2 in pairs:
        cmb1, cmb2 = COMBOS[cid1], COMBOS[cid2]
        q = _random_q(rng, cmb1.abs_kind)
        rot = oracles.random_vector(rng, 1.5)
        x1 = np.concatenate([rot, rng.normal(size=3)])
        x2 = np.concatenate([rot, rng.normal(size=3)])
        out1 = apply_lgt(cmb1, q, x1)
        out2 = apply_lgt(cmb2, q, x2)
        assert np.array_equal(out1.rot, out2.rot), (cid1, cid2)


def test_columns_agree_for_zero_rotation_increment():
    # With no rotation in the step, every column moves the body by the same
    # world displacement once the translation inputs are expressed
    # consistently (body increment y vs world increment R y).
    rng = np.random.default_rng(49)
    q = _random_q(rng, QUAT_POS)
    rot_q, _ = alpha_map(q)
    y = rng.normal(size=3)
    world = rot_q @ y
    zero = np.zeros(3)
    r_a = apply_lgt("1a", q, np.concatenate([zero, y])).r
    r_b = apply_lgt("1b", q, np.concatenate([zero, world])).r
    r_c = apply_lgt("1c", q, np.concatenate([zero, world])).r
    r_d = apply_lgt("1d", q, np.concatenate([zero, 0.5 * y])).r
    assert np.allclose(r_a, r_b, atol=1e-13)
    assert np.allclose(r_a, r_c, atol=1e-13)
    assert np.allclose(r_a, r_d, atol=1e-13)


def test_apply_lgt_is_left_action_increment():
    # Two successive full-step increments correspond to composing the chart
    # images: tau(tau(q, X1), X2) has pose alpha(q) psi(X1) psi(X2).
    rng = np.random.default_rng(50)
    for cid in COMBO_IDS:
        cmb = COMBOS[cid]
        for _ in range(20):
            q = _random_q(rng, cmb.abs_kind)
            x1 = 0.5 * _random_x(rng, cmb)
            x2 = 0.5 * _random_x(rng, cmb)
            out = apply_lgt(cmb, apply_lgt(cmb, q, x1), x2)
            got_r, got_p = alpha_map(out)
            inc = compose(cmb.group_model, combo_psi(cmb, x1), combo_psi(cmb, x2))
            want_r, want_p = compose(cmb.group_model, alpha_map(q), inc)
            assert np.allclose(got_r, want_r, atol=1e-10), cid
            assert np.allclose(got_p, want_p, atol=1e-10), cid


def test_apply_lgt_stacked_is_blockwise():
    rng = np.random.default_rng(51)
    cmb = COMBOS["1a"]
    qs = [_random_q(rng, QUAT_POS) for _ in range(3)]
    x = rng.normal(size=18)
    outs = apply_lgt_stacked(cmb, qs, x)
    for i, out in enumerate(outs):
        ref = apply_lgt(cmb, qs[i], x[6 * i : 6 * i + 6])
        assert np.array_equal(out.rot, ref.rot)
        assert np.array_equal(out.r, ref.r)


def test_quat_norm_error_axis_angle_is_nan():
    q = identity_coords(AXIS_ANGLE_POS)
    assert math.isnan(oracles.quat_norm_error(q))
    assert oracles.quat_norm_error(identity_coords(QUAT_POS)) == 0.0


@pytest.mark.parametrize("cid", COMBO_IDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_lgt_contract_property(cid, data):
    # alpha(tau(q, X)) == compose(G, alpha(q), psi(X)) to 1e-12, with norms
    # at the kernels' series switches. Compound rotations stay below
    # 0.95*pi + 0.9*pi (exp) or 0.95*pi + 2*atan(2) (cay), clear of 2*pi.
    cmb = COMBOS[cid]
    rot = data.draw(oracles.vectors(0.95 * math.pi))
    r = data.draw(oracles.vectors(3.0))
    if cmb.abs_kind == QUAT_POS:
        q = quat_pos(exp_sp1(rot), r)
    else:
        q = axis_angle_pos(rot, r)
    x_rot = data.draw(oracles.vectors(0.9 * math.pi if cmb.chart == "exp" else 2.0))
    x = np.concatenate([x_rot, data.draw(oracles.vectors(2.0))])
    got_r, got_p = alpha_map(apply_lgt(cmb, q, x))
    want_r, want_p = compose(cmb.group_model, alpha_map(q), combo_psi(cmb, x))
    np.testing.assert_allclose(got_r, want_r, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(got_p, want_p, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("cid", COMBO_IDS)
def test_chart_scale_is_the_diagonal_of_the_six_by_six_form_at_zero(cid):
    matrix = {
        "a": dexp_inv_se3,
        "b": oracles.dexp_inv_dp,
        "c": oracles.dcay_inv_dp,
        "d": dcay_inv_se3,
    }
    at_zero = matrix[cid[1]](np.zeros(6))
    assert np.array_equal(at_zero, np.diag(np.diag(at_zero)))
    assert combo(cid).chart_scale == tuple(np.diag(at_zero))
    half, one = (0.5,) * 3, (1.0,) * 3
    want = {"a": one + one, "b": one + one, "c": half + one, "d": half + half}
    assert combo(cid).chart_scale == want[cid[1]]
