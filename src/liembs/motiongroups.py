"""Coordinate maps and differentials on the six-dimensional motion groups.

A rigid body pose (R, r) composes under two different group structures:

* ``SEMIDIRECT`` (SE(3)): ``(R1, r1)(R2, r2) = (R1 R2, r1 + R1 r2)``;
  left-trivialized velocities are body-fixed twists ``V = (omega, v)`` with
  ``v = R^T rdot``;
* ``DIRECT_PRODUCT`` (SO(3) x R^3): ``(R1, r1)(R2, r2) = (R1 R2, r1 + r2)``;
  velocities are mixed twists ``V = (omega, rdot)``, angular part body-fixed
  and linear part resolved in the inertial frame.

Each model carries an exponential and a Cayley coordinate map from R^6 with
closed-form inverse right-trivialized differentials (6x6); the combination
table in :mod:`liembs.lgt` pairs each (model, chart) column with its map
and differential. The kinematic reconstruction convention throughout the
package is

    Xdot = dpsi_inv(-X) @ V,        V = C^{-1} Cdot  (left-trivialized),

so only the inverse differentials are public; forward differentials appear
in tests through finite differences. 6-vectors are (angular, linear).
"""

import math

import numpy as np

from .rotmaps import (
    cay_so3,
    dcay_inv_so3,
    dexp_inv_quad,
    dexp_inv_so3,
    dexp_so3,
    exp_so3,
    hat,
    trig_coefficients,
)

SEMIDIRECT = "se3"
DIRECT_PRODUCT = "so3xr3"

GROUP_MODELS = (SEMIDIRECT, DIRECT_PRODUCT)

# Below this rotation angle the quartic coefficient of the B block switches
# to its Taylor series; the matrix-level effect of the switch is far below
# every tolerance in the package because the coefficient multiplies terms
# that are themselves O(phi**3) small.
_B_SERIES_ANGLE = 1.0e-3


def _b_quartic(phi):
    """(1/beta + gamma - 2) / phi**4 with a series branch below 1e-3."""
    if abs(phi) < _B_SERIES_ANGLE:
        phi2 = phi * phi
        return 1.0 / 360.0 + phi2 / 7560.0
    _, beta, gamma = trig_coefficients(phi)
    return (1.0 / beta + gamma - 2.0) / (phi * phi * phi * phi)


def exp_se3(xy):
    """Exponential map on SE(3) in screw coordinates, as a (R, r) pair.

    The translation column is dexp_so3(x) @ y, which reduces to y itself
    for x = 0.
    """
    xy = np.asarray(xy, dtype=float)
    x = xy[:3]
    y = xy[3:]
    return exp_so3(x), dexp_so3(x) @ y


def _b_block(x, y):
    """Lower-left block of :func:`dexp_inv_se3`; linear in y."""
    phi = math.sqrt(float(x @ x))
    xh = hat(x)
    yh = hat(y)
    return (
        -0.5 * yh
        + dexp_inv_quad(phi) * (xh @ yh + yh @ xh)
        + (float(x @ y) * _b_quartic(phi)) * (xh @ xh)
    )


def dexp_inv_se3(xy):
    """Inverse right-trivialized differential of :func:`exp_se3` (6x6).

    Block lower-triangular with dexp_inv_so3(x) on both diagonal blocks and
    the y-linear B block in the lower left. Raises :class:`ChartBoundary`
    (through dexp_inv_so3) at ``||x|| >= 2*pi``.
    """
    xy = np.asarray(xy, dtype=float)
    x = xy[:3]
    d_inv = dexp_inv_so3(x)
    out = np.zeros((6, 6))
    out[:3, :3] = d_inv
    out[3:, 3:] = d_inv
    out[3:, :3] = _b_block(x, xy[3:])
    return out


def cay_se3(cd):
    """Cayley map on SE(3) in extended Rodrigues coordinates, as (R, r)."""
    cd = np.asarray(cd, dtype=float)
    c = cd[:3]
    d = cd[3:]
    r = cay_so3(c)
    return r, d + r @ d


def dcay_inv_se3(cd):
    """Inverse right-trivialized differential of :func:`cay_se3` (6x6).

    Uses ``(I + cay_so3(c))^{-1} = (I - hat(c)) / 2``, exact for every c.
    """
    cd = np.asarray(cd, dtype=float)
    c = cd[:3]
    d = cd[3:]
    half_ic = 0.5 * (np.eye(3) - hat(c))
    out = np.zeros((6, 6))
    out[:3, :3] = dcay_inv_so3(c)
    out[3:, :3] = -half_ic @ hat(d)
    out[3:, 3:] = half_ic
    return out


def exp_dp(xy):
    """Exponential map on the direct product: rotate by x, translate by y."""
    xy = np.asarray(xy, dtype=float)
    return exp_so3(xy[:3]), np.array(xy[3:], dtype=float)


def dexp_inv_dp(xy):
    """Inverse right-trivialized differential of :func:`exp_dp` (6x6)."""
    xy = np.asarray(xy, dtype=float)
    out = np.zeros((6, 6))
    out[:3, :3] = dexp_inv_so3(xy[:3])
    out[3:, 3:] = np.eye(3)
    return out


def cay_dp(cd):
    """Cayley map on the direct product."""
    cd = np.asarray(cd, dtype=float)
    return cay_so3(cd[:3]), np.array(cd[3:], dtype=float)


def dcay_inv_dp(cd):
    """Inverse right-trivialized differential of :func:`cay_dp` (6x6)."""
    cd = np.asarray(cd, dtype=float)
    out = np.zeros((6, 6))
    out[:3, :3] = dcay_inv_so3(cd[:3])
    out[3:, 3:] = np.eye(3)
    return out


def compose(group_model, pose1, pose2):
    """Group composition of two (rotation, position) pairs."""
    r1, p1 = pose1
    r2, p2 = pose2
    if group_model == SEMIDIRECT:
        return r1 @ r2, p1 + r1 @ p2
    if group_model == DIRECT_PRODUCT:
        return r1 @ r2, np.asarray(p1, dtype=float) + p2
    raise ValueError(f"unknown group model {group_model!r}")
