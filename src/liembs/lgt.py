"""Local-global transition maps between absolute and local coordinates.

A body's absolute coordinates are either a unit quaternion plus position
(``QUAT_POS``, 7 parameters) or a scaled rotation vector plus position
(``AXIS_ANGLE_POS``, 6 parameters). Within a time step the motion is
described by local chart coordinates X (a 6-vector, rotation part first).
The transition map ``apply_lgt`` advances absolute coordinates by a local
increment entirely in vector parameters: no rotation matrix is built and no
renormalization is ever applied.

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

The defining contract: for every combo, ``alpha_map(apply_lgt(combo, q, X))
== compose(combo.group_model, alpha_map(q), psi(combo, X))`` where psi is
the combo's coordinate map.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InconsistentState, VariantMismatch
from .motiongroups import DIRECT_PRODUCT, SEMIDIRECT, coordinate_map
from .rotmaps import (
    bch_so3,
    cay_so3,
    compose_axisangle_rodrigues,
    dexp_so3,
    exp_so3,
    exp_sp1,
    quat_mul,
    quat_to_rotmat,
    rodrigues_to_quat,
)

QUAT_POS = "quatpos"
AXIS_ANGLE_POS = "axisanglepos"

SCREW = "screw"
AXIS_ANGLE_DELTA = "axisangledelta"
RODRIGUES_DELTA = "rodriguesdelta"
EXT_RODRIGUES = "extrodrigues"


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

    @cached_property
    def pose(self):
        """Pose (R, r); R is computed on first access, then cached."""
        if self.kind == QUAT_POS:
            rot = quat_to_rotmat(self.rot)
        elif self.kind == AXIS_ANGLE_POS:
            rot = exp_so3(self.rot)
        else:
            raise VariantMismatch(
                f"unknown absolute-coordinate kind {self.kind!r}"
            )
        rot.flags.writeable = False
        return rot, self.r


def quat_pos(q, r):
    """AbsCoords from a unit quaternion and a position."""
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    if q.shape != (4,) or r.shape != (3,):
        raise InconsistentState("quat_pos expects a 4-vector and a 3-vector")
    if abs(math.sqrt(float(q @ q)) - 1.0) > 1e-9:
        raise InconsistentState(f"quaternion norm {np.linalg.norm(q):.12f} != 1")
    return AbsCoords(QUAT_POS, q, r)


def axis_angle_pos(rho, r):
    """AbsCoords from a scaled rotation vector and a position.

    Vectors with norm beyond pi are wrapped to the complementary rotation
    so the stored invariant ||rho|| <= pi always holds.
    """
    rho = np.asarray(rho, dtype=float)
    r = np.asarray(r, dtype=float)
    if rho.shape != (3,) or r.shape != (3,):
        raise InconsistentState("axis_angle_pos expects two 3-vectors")
    phi = math.sqrt(float(rho @ rho))
    if phi > math.pi:
        turns = math.floor((phi + math.pi) / (2.0 * math.pi))
        rho = rho * ((phi - 2.0 * math.pi * turns) / phi)
    return AbsCoords(AXIS_ANGLE_POS, rho, r)


@dataclass(frozen=True)
class LgtCombo:
    """One cell of the combination table."""

    id: str
    abs_kind: str
    local_kind: str
    group_model: str
    chart: str


def _make_combos():
    rows = {"1": QUAT_POS, "2": AXIS_ANGLE_POS}
    cols = {
        "a": (SCREW, SEMIDIRECT, "exp"),
        "b": (AXIS_ANGLE_DELTA, DIRECT_PRODUCT, "exp"),
        "c": (RODRIGUES_DELTA, DIRECT_PRODUCT, "cay"),
        "d": (EXT_RODRIGUES, SEMIDIRECT, "cay"),
    }
    table = {}
    for digit, abs_kind in rows.items():
        for letter, (local_kind, group_model, chart) in cols.items():
            cid = digit + letter
            table[cid] = LgtCombo(cid, abs_kind, local_kind, group_model, chart)
    return table


COMBOS = _make_combos()
COMBO_IDS = tuple(sorted(COMBOS))
QUAT_COMBO_IDS = ("1a", "1b", "1c", "1d")
AXIS_ANGLE_COMBO_IDS = ("2a", "2b", "2c", "2d")


def combo(combo_id):
    """Look up a combo by id ("1a" .. "2d"); case-insensitive."""
    if isinstance(combo_id, LgtCombo):
        return combo_id
    try:
        return COMBOS[str(combo_id).lower()]
    except KeyError:
        raise ValueError(
            f"unknown combo {combo_id!r}; valid ids: {', '.join(COMBO_IDS)}"
        ) from None


def alpha_map(q):
    """Pose (R, r) of absolute coordinates; R is shared and read-only."""
    return q.pose


def tau_R_quat(q_rot, rot_local, chart):
    """Quaternion update by a local rotation increment.

    Right-multiplies by the increment quaternion: exp chart turns the
    rotation-vector increment into a quaternion through the Sp(1)
    exponential, cay chart through the Rodrigues-vector correspondence.
    Unit norm is preserved by the product itself.
    """
    if chart == "exp":
        return quat_mul(q_rot, exp_sp1(rot_local))
    if chart == "cay":
        return quat_mul(q_rot, rodrigues_to_quat(rot_local))
    raise ValueError(f"unknown chart {chart!r}")


def tau_R_axisangle(rho, rot_local, chart):
    """Rotation-vector update by a local rotation increment.

    Closed-form composition in vector parameters; the result is wrapped to
    the pi-ball. Raises CompoundAnglePi near the 2*pi parametrization
    boundary.
    """
    if chart == "exp":
        return bch_so3(rho, rot_local)
    if chart == "cay":
        return compose_axisangle_rodrigues(rho, rot_local)
    raise ValueError(f"unknown chart {chart!r}")


def delta_r_screw(x_rot, y):
    """Body-frame displacement of the screw chart: dexp_so3(x) @ y."""
    return dexp_so3(x_rot) @ y


def delta_r_cayley(c, d):
    """Body-frame displacement of the SE(3) Cayley chart: (I + cay(c)) d."""
    return d + cay_so3(c) @ d


def tau_T(q, dr_body):
    """Position update by a body-frame displacement: r + R(q) dr_body."""
    rot, _ = alpha_map(q)
    return q.r + rot @ dr_body


def apply_lgt(cmb, q, x):
    """Advance absolute coordinates by local chart coordinates.

    cmb is an LgtCombo (or id string), q the body's AbsCoords (its kind
    must match the combo, else VariantMismatch), x the 6-vector of local
    coordinates (rotation part first). Returns new AbsCoords; q is not
    modified.
    """
    cmb = combo(cmb)
    if q.kind != cmb.abs_kind:
        raise VariantMismatch(
            f"combo {cmb.id} needs {cmb.abs_kind} absolute coordinates, "
            f"got {q.kind}"
        )
    x = np.asarray(x, dtype=float)
    rot_local = x[:3]
    trans_local = x[3:]

    if cmb.abs_kind == QUAT_POS:
        rot_new = tau_R_quat(q.rot, rot_local, cmb.chart)
    else:
        rot_new = tau_R_axisangle(q.rot, rot_local, cmb.chart)

    if cmb.local_kind == SCREW:
        r_new = tau_T(q, delta_r_screw(rot_local, trans_local))
    elif cmb.local_kind == EXT_RODRIGUES:
        r_new = tau_T(q, delta_r_cayley(rot_local, trans_local))
    else:
        # Mixed-twist charts carry the position increment directly in the
        # inertial frame.
        r_new = q.r + trans_local
    return AbsCoords(cmb.abs_kind, rot_new, r_new)


def apply_lgt_stacked(cmb, qs, x_stacked):
    """Apply the transition map body by body over a stacked state.

    qs is a sequence of AbsCoords, x_stacked a 6N-vector; the map is
    block-diagonal over bodies by construction.
    """
    cmb = combo(cmb)
    x_stacked = np.asarray(x_stacked, dtype=float)
    return [
        apply_lgt(cmb, qi, x_stacked[6 * i : 6 * i + 6])
        for i, qi in enumerate(qs)
    ]


def combo_psi(cmb, x):
    """The combo's coordinate map psi as a (rotation, position) pose."""
    cmb = combo(cmb)
    psi, _ = coordinate_map(cmb.group_model, cmb.chart)
    return psi(x)


def combo_dpsi_inv(cmb, x):
    """The combo's inverse right-trivialized differential (6x6) at x."""
    cmb = combo(cmb)
    _, dpsi_inv = coordinate_map(cmb.group_model, cmb.chart)
    return dpsi_inv(x)


def identity_coords(kind):
    """Identity absolute coordinates of the given kind."""
    if kind == QUAT_POS:
        return AbsCoords(QUAT_POS, np.array([1.0, 0.0, 0.0, 0.0]), np.zeros(3))
    if kind == AXIS_ANGLE_POS:
        return AbsCoords(AXIS_ANGLE_POS, np.zeros(3), np.zeros(3))
    raise ValueError(f"unknown absolute-coordinate kind {kind!r}")


def quat_norm_error(q):
    """|‖Q‖ - 1| for quaternion coordinates, NaN for other kinds."""
    if q.kind != QUAT_POS:
        return math.nan
    return abs(math.sqrt(float(q.rot @ q.rot)) - 1.0)
