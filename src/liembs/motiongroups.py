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

The 6x6 inverse differentials are closed-form float expressions built into
one array from a tuple; skew products enter through
``hat(x) hat(y) = y x^T - (x.y) I``. Both coefficients of the SE(3) B
block, ``(1 - gamma) / phi**2`` and the quartic one, come from the one series
table of :mod:`liembs.rotmaps` and its one switch at phi = 0.7. Accuracy of
the block (mpmath, 80 random x and y, phi within 10% of the angle, error per
unit |y|): 4.5e-16 near 0.7 and 4.9e-17 near 1e-4. The quartic coefficient
is good to 6e-13 relative just above 0.7 and to 4.6e-15 below it.
"""

import math

import numpy as np

from .rotmaps import (
    _b_quartic,
    cay_so3,
    dcay_inv_so3_entries,
    dexp_inv_so3_entries,
    dexp_so3,
    exp_so3,
    so3_poly_entries,
)

SEMIDIRECT = "se3"
DIRECT_PRODUCT = "so3xr3"

GROUP_MODELS = (SEMIDIRECT, DIRECT_PRODUCT)

_ZERO3 = (0.0, 0.0, 0.0)
_EYE3 = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)
_ZERO9 = _ZERO3 * 3


def _blocks(upper_left, lower_left, lower_right):
    """The 6x6 array [[upper_left, 0], [lower_left, lower_right]] from
    row-major 3x3 entry tuples."""
    ul, ll, lr = upper_left, lower_left, lower_right
    return np.array(
        ul[0:3] + _ZERO3 + ul[3:6] + _ZERO3 + ul[6:9] + _ZERO3
        + ll[0:3] + lr[0:3] + ll[3:6] + lr[3:6] + ll[6:9] + lr[6:9]
    ).reshape(6, 6)


def exp_se3(xy):
    """Exponential map on SE(3) in screw coordinates, as a (R, r) pair.

    The translation column is dexp_so3(x) @ y, which reduces to y itself
    for x = 0.
    """
    xy = np.asarray(xy, dtype=float)
    x = xy[:3]
    return exp_so3(x), dexp_so3(x) @ xy[3:]


def _b_entries(x, y, quad):
    """Row-major entries of the lower-left block of :func:`dexp_inv_se3`,

        -hat(y)/2 + quad*(hat(x) hat(y) + hat(y) hat(x)) + (x.y) b4 hat(x)**2,

    linear in y, with hat(x) hat(y) = y x^T - (x.y) I and b4 = _b_quartic."""
    x0, x1, x2 = x
    y0, y1, y2 = y
    phi2 = x0 * x0 + x1 * x1 + x2 * x2
    xy = x0 * y0 + x1 * y1 + x2 * y2
    s = xy * _b_quartic(math.sqrt(phi2))
    q2 = 2.0 * quad
    e = -(q2 * xy + s * phi2)
    m01 = quad * (x0 * y1 + y0 * x1) + s * x0 * x1
    m02 = quad * (x0 * y2 + y0 * x2) + s * x0 * x2
    m12 = quad * (x1 * y2 + y1 * x2) + s * x1 * x2
    hy0 = 0.5 * y0
    hy1 = 0.5 * y1
    hy2 = 0.5 * y2
    return (
        e + q2 * x0 * y0 + s * x0 * x0, m01 + hy2, m02 - hy1,
        m01 - hy2, e + q2 * x1 * y1 + s * x1 * x1, m12 + hy0,
        m02 + hy1, m12 - hy0, e + q2 * x2 * y2 + s * x2 * x2,
    )


def dexp_inv_se3(xy):
    """Inverse right-trivialized differential of :func:`exp_se3` (6x6).

    Block lower-triangular with dexp_inv_so3(x) on both diagonal blocks and
    the y-linear B block in the lower left. Raises :class:`ChartBoundary`
    (through dexp_inv_so3) at ``||x|| >= 2*pi``.
    """
    xy = np.asarray(xy, dtype=float).tolist()
    x = xy[:3]
    d_inv, quad = dexp_inv_so3_entries(x)
    return _blocks(d_inv, _b_entries(x, xy[3:], quad), d_inv)


def cay_se3(cd):
    """Cayley map on SE(3) in extended Rodrigues coordinates, as (R, r)."""
    cd = np.asarray(cd, dtype=float)
    d = cd[3:]
    r = cay_so3(cd[:3])
    return r, d + r @ d


def dcay_inv_se3(cd):
    """Inverse right-trivialized differential of :func:`cay_se3` (6x6).

    Uses ``(I + cay_so3(c))^{-1} = (I - hat(c)) / 2``, exact for every c,
    and ``hat(c) hat(d) = d c^T - (c.d) I`` in the lower-left block
    ``-(I - hat(c)) hat(d) / 2``.
    """
    c0, c1, c2, d0, d1, d2 = np.asarray(cd, dtype=float).tolist()
    h = -0.5 * (c0 * d0 + c1 * d1 + c2 * d2)
    lower_left = (
        0.5 * d0 * c0 + h, 0.5 * (d0 * c1 + d2), 0.5 * (d0 * c2 - d1),
        0.5 * (d1 * c0 - d2), 0.5 * d1 * c1 + h, 0.5 * (d1 * c2 + d0),
        0.5 * (d2 * c0 + d1), 0.5 * (d2 * c1 - d0), 0.5 * d2 * c2 + h,
    )
    return _blocks(
        dcay_inv_so3_entries((c0, c1, c2)),
        lower_left,
        so3_poly_entries((c0, c1, c2), 0.5, -0.5, 0.0),
    )


def exp_dp(xy):
    """Exponential map on the direct product: rotate by x, translate by y."""
    xy = np.asarray(xy, dtype=float)
    return exp_so3(xy[:3]), np.array(xy[3:], dtype=float)


def dexp_inv_dp(xy):
    """Inverse right-trivialized differential of :func:`exp_dp` (6x6)."""
    x = np.asarray(xy, dtype=float).tolist()[:3]
    return _blocks(dexp_inv_so3_entries(x)[0], _ZERO9, _EYE3)


def cay_dp(cd):
    """Cayley map on the direct product."""
    cd = np.asarray(cd, dtype=float)
    return cay_so3(cd[:3]), np.array(cd[3:], dtype=float)


def dcay_inv_dp(cd):
    """Inverse right-trivialized differential of :func:`cay_dp` (6x6)."""
    c = np.asarray(cd, dtype=float).tolist()[:3]
    return _blocks(dcay_inv_so3_entries(c), _ZERO9, _EYE3)


def compose(group_model, pose1, pose2):
    """Group composition of two (rotation, position) pairs."""
    r1, p1 = pose1
    r2, p2 = pose2
    if group_model == SEMIDIRECT:
        return r1 @ r2, p1 + r1 @ p2
    if group_model == DIRECT_PRODUCT:
        return r1 @ r2, np.asarray(p1, dtype=float) + p2
    raise ValueError(f"unknown group model {group_model!r}")
