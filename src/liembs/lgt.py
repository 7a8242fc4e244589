"""Local-global transition maps between absolute and local coordinates.

A body's absolute coordinates are either a unit quaternion plus position
(``QUAT_POS``, 7 parameters) or a scaled rotation vector plus position
(``AXIS_ANGLE_POS``, 6 parameters). Within a time step the motion is
described by local chart coordinates X (a 6-vector, rotation part first).
The transition map ``apply_lgt`` advances the stored rotation by a local
increment entirely in vector parameters: no rotation matrix is built for it
and no renormalization is ever applied.

Eight combinations are supported, named like table cells: the digit picks
the absolute coordinates (1 = quaternion, 2 = rotation vector), the letter
picks the local chart and with it the motion group model:

    a: screw coordinates, exponential chart on SE(3) (body-fixed twists)
    b: rotation increment + inertial-frame position increment,
       exponential chart on SO(3) x R^3 (mixed twists)
    c: Rodrigues increment + inertial-frame position increment,
       Cayley chart on SO(3) x R^3 (mixed twists)
    d: extended Rodrigues coordinates, Cayley chart on SE(3)
       (body-fixed twists)

``COMBOS`` is the one place that choice is made: each :class:`LgtCombo`
carries its coordinate map psi and the action of its inverse differential
from :mod:`liembs.motiongroups`, ``apply_lgt`` branches on its fields, and
``require_compatible`` checks a model and coordinates against it.

The defining contract: for every combo, ``alpha_map(apply_lgt(combo, q, X))
== compose(combo.group_model, alpha_map(q), combo.psi(X))``. The right-hand
side of that identity is what ``lgt_poses`` computes, in floats and with no
coordinates built, for an RK stage, whose model reads only poses.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InconsistentState, InvalidConfig, VariantMismatch
from .motiongroups import (
    DIRECT_PRODUCT,
    SEMIDIRECT,
    cay_dp,
    cay_se3,
    dcay_inv_dp_action,
    dcay_inv_se3_action,
    dexp_inv_dp_action,
    dexp_inv_se3_action,
    exp_dp,
    exp_se3,
    se3_translation,
    transform_point,
)
from .rotmaps import (
    _floats,
    _matrix,
    bch_so3,
    cay_so3,
    cay_so3_entries,
    compose_axisangle_rodrigues,
    dexp_so3,
    dexp_so3_entries,
    exp_so3,
    exp_so3_entries,
    exp_sp1,
    quat_mul,
    quat_to_rotmat,
    rodrigues_to_quat,
)

QUAT_POS = "quatpos"
AXIS_ANGLE_POS = "axisanglepos"


class _Pose:
    """The ``pose`` of :class:`AbsCoords`: (R, r), built on first access and
    stored in the instance, where later reads find it as a plain attribute.
    Unlike functools.cached_property before Python 3.12 it takes no lock; a
    race can at worst build the same read-only pose twice."""

    def __get__(self, q, owner=None):
        if q is None:
            return self
        if q.kind == QUAT_POS:
            rot = quat_to_rotmat(q.rot)
        elif q.kind == AXIS_ANGLE_POS:
            rot = exp_so3(q.rot)
        else:
            raise VariantMismatch(f"unknown absolute-coordinate kind {q.kind!r}")
        rot.flags.writeable = False
        pose = q.__dict__["pose"] = (rot, q.r)
        return pose


@dataclass(frozen=True)
class AbsCoords:
    """Absolute coordinates of one body: ``kind`` tags the rotation storage.

    rot is a scalar-first unit quaternion (4,) for QUAT_POS or a scaled
    rotation vector (3,) with norm <= pi for AXIS_ANGLE_POS; r is the body
    frame position in the inertial frame.

    Coordinates are immutable values: a transition map returns new ones and
    never writes into rot or r. The pose (R, r) is therefore built once, on
    first use of :attr:`pose`, and shared by every later reader; R is
    read-only.
    """

    kind: str
    rot: np.ndarray
    r: np.ndarray

    pose = _Pose()


def _require_finite(what, values):
    values = values.tolist()
    if not all(map(math.isfinite, values)):
        raise InconsistentState(f"{what} {values} is not finite")


def quat_pos(q, r):
    """AbsCoords from a unit quaternion and a position."""
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    if q.shape != (4,) or r.shape != (3,):
        raise InconsistentState("quat_pos expects a 4-vector and a 3-vector")
    norm = math.sqrt(float(q @ q))
    if not abs(norm - 1.0) <= 1e-9:  # the negated test catches NaN
        raise InconsistentState(f"quaternion norm {norm:.12f} != 1")
    _require_finite("position", r)
    return AbsCoords(QUAT_POS, q, r)


def axis_angle_pos(rho, r):
    """AbsCoords from a scaled rotation vector and a position.

    Vectors with norm phi beyond pi are wrapped, along the same axis, to
    the angle atan2(sin phi, cos phi) of the same rotation, so the rotation
    is exp_sp1's of rho for any representable phi. A wrapped vector whose
    norm, as sqrt(a*a + b*b + c*c), still rounds above pi is moved toward
    zero by an ulp per entry until it does not, so the stored norm is at
    most pi. A vector whose squared norm overflows raises InconsistentState.
    """
    rho = np.asarray(rho, dtype=float)
    r = np.asarray(r, dtype=float)
    if rho.shape != (3,) or r.shape != (3,):
        raise InconsistentState("axis_angle_pos expects two 3-vectors")
    _require_finite("rotation vector", rho)
    _require_finite("position", r)
    a, b, c = rho.tolist()
    phi2 = a * a + b * b + c * c  # a float sum overflows to inf, unwarned
    if phi2 == math.inf:
        raise InconsistentState(
            f"rotation vector {[a, b, c]} has a squared norm that overflows"
        )
    phi = math.sqrt(phi2)
    if phi > math.pi:
        # sin and cos reduce phi exactly, where subtracting whole turns of
        # a rounded 2 pi would drift from the rotation as phi grows.
        a, b, c = (rho * (math.atan2(math.sin(phi), math.cos(phi)) / phi)).tolist()
        # Near an odd multiple of pi the wrapped norm can round an ulp or two
        # over pi; each pass moves every entry one ulp toward zero.
        while math.sqrt(a * a + b * b + c * c) > math.pi:
            a, b, c = (math.nextafter(x, 0.0) for x in (a, b, c))
        rho = np.array([a, b, c])
    return AbsCoords(AXIS_ANGLE_POS, rho, r)


@dataclass(frozen=True)
class LgtCombo:
    """One cell of the combination table, with its column's coordinate map
    psi and the action of its inverse right-trivialized differential:
    ``dpsi_inv(x, v)`` is ``dpsi_inv(x) @ v`` as six floats, the matrix never
    formed. chart_scale is the constant diagonal of that inverse
    differential at x = 0, where it is diagonal: ones for exp charts, 1/2 for
    Cayley rotations, and 1/2 for the Cayley SE(3) translation."""

    id: str
    abs_kind: str
    group_model: str
    chart: str
    psi: object
    dpsi_inv: object
    chart_scale: tuple

    def __str__(self):
        return f"combo {self.id}"


def _make_combos():
    rows = {"1": QUAT_POS, "2": AXIS_ANGLE_POS}
    ones, half = (1.0,) * 3, (0.5,) * 3
    cols = {
        "a": (SEMIDIRECT, "exp", exp_se3, dexp_inv_se3_action, ones + ones),
        "b": (DIRECT_PRODUCT, "exp", exp_dp, dexp_inv_dp_action, ones + ones),
        "c": (DIRECT_PRODUCT, "cay", cay_dp, dcay_inv_dp_action, half + ones),
        "d": (SEMIDIRECT, "cay", cay_se3, dcay_inv_se3_action, half + half),
    }
    return {
        digit + letter: LgtCombo(digit + letter, abs_kind, *col)
        for digit, abs_kind in rows.items()
        for letter, col in cols.items()
    }


COMBOS = _make_combos()
COMBO_IDS = tuple(sorted(COMBOS))
QUAT_COMBO_IDS = ("1a", "1b", "1c", "1d")
AXIS_ANGLE_COMBO_IDS = ("2a", "2b", "2c", "2d")


def combo(combo_id):
    """Look up a combo by id ("1a" .. "2d"); case-insensitive. An unknown id
    raises InvalidConfig naming the combo field."""
    if isinstance(combo_id, LgtCombo):
        return combo_id
    try:
        return COMBOS[str(combo_id).lower()]
    except KeyError:
        raise InvalidConfig(
            "combo", f"unknown combo {combo_id!r}; valid ids: {', '.join(COMBO_IDS)}"
        ) from None


def require_compatible(label, abs_kind, group_model, model, qs):
    """Raise VariantMismatch unless the model's twists are group_model and
    every body's coordinates in qs are abs_kind, as the scheme label needs.
    label is formatted with str() only in the message of a raise, so an
    LgtCombo serves as its own label ("combo 1a")."""
    if model.group_model != group_model:
        raise VariantMismatch(
            f"{label} uses {group_model} twists but the model is built for "
            f"{model.group_model}"
        )
    for q in qs:
        if q.kind != abs_kind:
            raise VariantMismatch(
                f"{label} transports {abs_kind} coordinates, got {q.kind!r}"
            )


def alpha_map(q):
    """Pose (R, r) of absolute coordinates; R is shared and read-only."""
    return q.pose


def apply_lgt(cmb, q, x):
    """Advance absolute coordinates by local chart coordinates.

    cmb is an LgtCombo (or id string), q the body's AbsCoords (its kind
    must match the combo, else VariantMismatch), x the 6-vector of local
    coordinates (rotation part first). Returns new AbsCoords; q is not
    modified. x is read once into six Python floats, and the new position
    is computed in floats. Rotation-vector coordinates raise CompoundAnglePi
    when the composed angle comes near 2*pi.
    """
    if not isinstance(cmb, LgtCombo):
        cmb = combo(cmb)
    if q.kind != cmb.abs_kind:
        raise VariantMismatch(
            f"combo {cmb.id} needs {cmb.abs_kind} absolute coordinates, "
            f"got {q.kind}"
        )
    x0, x1, x2, y0, y1, y2 = _floats(x)
    rot_local = (x0, x1, x2)

    # tau_R. The quaternion product keeps the unit norm without
    # renormalization; the rotation-vector compositions wrap to the pi-ball.
    if cmb.abs_kind == QUAT_POS:
        if cmb.chart == "exp":
            rot_new = quat_mul(q.rot, exp_sp1(rot_local))
        else:
            rot_new = quat_mul(q.rot, rodrigues_to_quat(rot_local))
    elif cmb.chart == "exp":
        rot_new = bch_so3(q.rot, rot_local)
    else:
        rot_new = compose_axisangle_rodrigues(q.rot, rot_local)

    # tau_T. Mixed twists carry an inertial-frame position increment, the
    # SE(3) charts a body-frame displacement that R(q) turns into one; it is
    # the translation of exp_se3 / cay_se3, computed by the same helper.
    if cmb.group_model == DIRECT_PRODUCT:
        r0, r1, r2 = q.r.tolist()
        r_new = (r0 + y0, r1 + y1, r2 + y2)
    else:
        rot_map = dexp_so3(rot_local) if cmb.chart == "exp" else cay_so3(rot_local)
        dr_body = se3_translation(cmb.chart, rot_map.ravel().tolist(), (y0, y1, y2))
        rot, r = alpha_map(q)
        r_new = transform_point(rot.tolist(), r.tolist(), dr_body)
    return AbsCoords(cmb.abs_kind, rot_new, np.array(r_new))


def apply_lgt_stacked(cmb, qs, x_stacked):
    """Apply the transition map body by body over a stacked state.

    qs is a sequence of AbsCoords, x_stacked the 6N local coordinates (a
    list of floats, or an array read once into one); the map is
    block-diagonal over bodies by construction.
    """
    cmb = combo(cmb)
    x_stacked = _floats(x_stacked)
    return [
        apply_lgt(cmb, qi, x_stacked[6 * i : 6 * i + 6])
        for i, qi in enumerate(qs)
    ]


def lgt_poses(cmb, qs, x_stacked):
    """The poses alpha_map(apply_lgt(cmb, q_i, x_i)) of the bodies qs
    advanced by the stacked local coordinates, composed in floats as
    compose(group_model, alpha_map(q_i), psi(x_i)), with no coordinates
    built: the rotation is R exp_so3(x) or R cay_so3(c), the position
    r + y for mixed twists and r + R se3_translation(chart, ., y) for the
    SE(3) charts, where (R, r) is q_i's pose. Returns a list of (R, r)
    array pairs, R read-only. Since no transition map runs, none raises
    CompoundAnglePi; the coordinates of the same x may, when apply_lgt
    builds them.
    """
    cmb = combo(cmb)
    x_stacked = _floats(x_stacked)
    cay = cmb.chart == "cay"
    semidirect = cmb.group_model == SEMIDIRECT
    poses = []
    for i, q in enumerate(qs):
        x0, x1, x2, y0, y1, y2 = x_stacked[6 * i : 6 * i + 6]
        x = (x0, x1, x2)
        rot_map = cay_so3_entries(x) if cay else exp_so3_entries(x)
        b00, b01, b02, b10, b11, b12, b20, b21, b22 = rot_map
        rot, r = alpha_map(q)
        rows = rot.tolist()
        (a00, a01, a02), (a10, a11, a12), (a20, a21, a22) = rows
        rot_new = _matrix((
            a00 * b00 + a01 * b10 + a02 * b20,
            a00 * b01 + a01 * b11 + a02 * b21,
            a00 * b02 + a01 * b12 + a02 * b22,
            a10 * b00 + a11 * b10 + a12 * b20,
            a10 * b01 + a11 * b11 + a12 * b21,
            a10 * b02 + a11 * b12 + a12 * b22,
            a20 * b00 + a21 * b10 + a22 * b20,
            a20 * b01 + a21 * b11 + a22 * b21,
            a20 * b02 + a21 * b12 + a22 * b22,
        ))
        rot_new.flags.writeable = False
        if semidirect:
            if not cay:
                rot_map = dexp_so3_entries(x)
            dr_body = se3_translation(cmb.chart, rot_map, (y0, y1, y2))
            r_new = transform_point(rows, r.tolist(), dr_body)
        else:
            r0, r1, r2 = r.tolist()
            r_new = (r0 + y0, r1 + y1, r2 + y2)
        poses.append((rot_new, np.array(r_new)))
    return poses


def combo_psi(cmb, x):
    """The combo's coordinate map psi as a (rotation, position) pose."""
    return combo(cmb).psi(x)


def combo_dpsi_inv(cmb, x, v):
    """The combo's inverse right-trivialized differential at x acting on the
    twist v, as six floats; x and v are six floats each."""
    return combo(cmb).dpsi_inv(x, v)


def identity_coords(kind):
    """Identity absolute coordinates of the given kind."""
    if kind == QUAT_POS:
        return AbsCoords(QUAT_POS, np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))
    if kind == AXIS_ANGLE_POS:
        return AbsCoords(AXIS_ANGLE_POS, np.zeros(3), np.zeros(3))
    raise ValueError(f"unknown absolute-coordinate kind {kind!r}")

