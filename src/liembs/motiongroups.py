"""Coordinate maps and differentials on the six-dimensional motion groups.

A rigid body pose (R, r) composes under two different group structures:

* ``SEMIDIRECT`` (SE(3)): ``(R1, r1)(R2, r2) = (R1 R2, r1 + R1 r2)``;
  left-trivialized velocities are body-fixed twists ``V = (omega, v)`` with
  ``v = R^T rdot``;
* ``DIRECT_PRODUCT`` (SO(3) x R^3): ``(R1, r1)(R2, r2) = (R1 R2, r1 + r2)``;
  velocities are mixed twists ``V = (omega, rdot)``, angular part body-fixed
  and linear part resolved in the inertial frame.

Each model carries an exponential and a Cayley coordinate map from R^6.
Each map's inverse right-trivialized differential is defined once, as its
closed-form action on a twist (``*_action(x, v)``, six floats, the matrix
never formed); the combination table in :mod:`liembs.lgt` pairs each
(model, chart) column with its map and the action. The 6x6 forms of the
SE(3) maps (``dexp_inv_se3``, ``dcay_inv_se3``) are the matrices of those
actions, their columns the action on the unit twists; a step uses none of
them. The kinematic reconstruction convention throughout the package is

    Xdot = dpsi_inv(-X) @ V,        V = C^{-1} Cdot  (left-trivialized),

so only the inverse differentials are public; forward differentials appear
in tests through finite differences. 6-vectors are (angular, linear).

The actions are closed-form float expressions; skew products enter
through ``hat(x) hat(y) = y x^T - (x.y) I``. Both coefficients of the
SE(3) B block, ``(1 - gamma) / phi**2`` and the quartic one, come from the
one series table of :mod:`liembs.rotmaps` and its one switch at phi = 0.7.
Accuracy of the block (mpmath, 80 random x and y, phi within 10% of the
angle, error per unit |y|): 4.5e-16 near 0.7 and 4.9e-17 near 1e-4. The
quartic coefficient is good to 6e-13 relative just above 0.7 and to
4.6e-15 below it.
"""

import math

import numpy as np

from .rotmaps import (
    _b_quartic,
    _floats,
    cay_so3,
    dexp_inv_so3_coefficients,
    dexp_so3,
    exp_so3,
    so3_poly_action,
)

SEMIDIRECT = "se3"
DIRECT_PRODUCT = "so3xr3"

GROUP_MODELS = (SEMIDIRECT, DIRECT_PRODUCT)

_UNIT_TWISTS = np.eye(6).tolist()


def _matrix_of(action, x):
    """The 6x6 matrix of the linear map ``v -> action(x, v)``: its columns
    are the action on the unit twists e_0 .. e_5."""
    x = np.asarray(x, dtype=float).tolist()
    return np.array([action(x, e) for e in _UNIT_TWISTS]).T


def transform_point(rot, r, p):
    """r + R p as three floats, R given as three rows of floats."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot
    p0, p1, p2 = p
    return (
        r[0] + (r00 * p0 + r01 * p1 + r02 * p2),
        r[1] + (r10 * p0 + r11 * p1 + r12 * p2),
        r[2] + (r20 * p0 + r21 * p1 + r22 * p2),
    )


def se3_translation(chart, rot_map, y):
    """The translation of :func:`exp_se3` (chart "exp", rot_map =
    dexp_so3(x)) or of :func:`cay_se3` (chart "cay", rot_map = cay_so3(c))
    at the linear part y, as three floats: rot_map y, plus y for Cayley.
    The transition map moves a body by the same expression."""
    (m00, m01, m02), (m10, m11, m12), (m20, m21, m22) = rot_map.tolist()
    y0, y1, y2 = y
    t0 = m00 * y0 + m01 * y1 + m02 * y2
    t1 = m10 * y0 + m11 * y1 + m12 * y2
    t2 = m20 * y0 + m21 * y1 + m22 * y2
    if chart == "cay":
        return y0 + t0, y1 + t1, y2 + t2
    return t0, t1, t2


def exp_se3(xy):
    """Exponential map on SE(3) in screw coordinates, as a (R, r) pair.

    The translation column is dexp_so3(x) @ y, which reduces to y itself
    for x = 0.
    """
    xy = _floats(xy)
    x = xy[:3]
    return exp_so3(x), np.array(se3_translation("exp", dexp_so3(x), xy[3:]))


def dexp_inv_se3_action(xy, v):
    """Inverse right-trivialized differential of :func:`exp_se3` at xy acting
    on the twist v, as six floats; xy and v are six floats each.

    The matrix is block lower-triangular with dexp_inv_so3(x) on both
    diagonal blocks and, in the lower left, the y-linear block

        B = -hat(y)/2 + quad*(hat(x) hat(y) + hat(y) hat(x)) + s*hat(x)**2,

    s = (x.y) _b_quartic(phi), which acts on w as
    ``-(y x w)/2 + quad*(y (x.w) + x (y.w) - 2 (x.y) w) + s*(x (x.w) - phi**2 w)``.
    At xy = 0, the restart of every step, the map is the identity; at x = 0
    alone it is not (B = -hat(y)/2). Raises :class:`ChartBoundary` (through
    dexp_inv_so3_coefficients) at ``||x|| >= 2*pi``.
    """
    x0, x1, x2, y0, y1, y2 = xy
    w0, w1, w2, u0, u1, u2 = v
    if not (x0 or x1 or x2 or y0 or y1 or y2):
        return w0, w1, w2, u0, u1, u2
    x = (x0, x1, x2)
    w = (w0, w1, w2)
    d, quad = dexp_inv_so3_coefficients(x)
    phi2 = x0 * x0 + x1 * x1 + x2 * x2
    xw = x0 * w0 + x1 * w1 + x2 * w2
    yw = y0 * w0 + y1 * w1 + y2 * w2
    xdy = x0 * y0 + x1 * y1 + x2 * y2
    s = xdy * _b_quartic(math.sqrt(phi2))
    ky = quad * xw
    kx = quad * yw + s * xw
    e = -(2.0 * quad * xdy + s * phi2)
    a0, a1, a2 = so3_poly_action(x, (u0, u1, u2), d, -0.5, quad)
    return (
        *so3_poly_action(x, w, d, -0.5, quad),
        a0 + (e * w0 + ky * y0 + kx * x0 - 0.5 * (y1 * w2 - y2 * w1)),
        a1 + (e * w1 + ky * y1 + kx * x1 - 0.5 * (y2 * w0 - y0 * w2)),
        a2 + (e * w2 + ky * y2 + kx * x2 - 0.5 * (y0 * w1 - y1 * w0)),
    )


def dexp_inv_se3(xy):
    """The 6x6 matrix of :func:`dexp_inv_se3_action` at xy."""
    return _matrix_of(dexp_inv_se3_action, xy)


def cay_se3(cd):
    """Cayley map on SE(3) in extended Rodrigues coordinates, as (R, r)."""
    cd = _floats(cd)
    r = cay_so3(cd[:3])
    return r, np.array(se3_translation("cay", r, cd[3:]))


def dcay_inv_se3_action(cd, v):
    """Inverse right-trivialized differential of :func:`cay_se3` at cd acting
    on the twist v, as six floats; cd and v are six floats each.

    The angular row is dcay_inv_so3(c) w. With
    ``P = (I + cay_so3(c))^{-1} = (I - hat(c)) / 2``, exact for every c, the
    lower row is ``-P hat(d) w + P u = P (u - d x w)``.
    """
    c = cd[:3]
    d0, d1, d2 = cd[3:]
    w = v[:3]
    w0, w1, w2 = w
    u0, u1, u2 = v[3:]
    u_minus_dxw = (
        u0 - (d1 * w2 - d2 * w1),
        u1 - (d2 * w0 - d0 * w2),
        u2 - (d0 * w1 - d1 * w0),
    )
    return (
        *so3_poly_action(c, w, 0.5, -0.5, 0.5),
        *so3_poly_action(c, u_minus_dxw, 0.5, -0.5, 0.0),
    )


def dcay_inv_se3(cd):
    """The 6x6 matrix of :func:`dcay_inv_se3_action` at cd."""
    return _matrix_of(dcay_inv_se3_action, cd)


def exp_dp(xy):
    """Exponential map on the direct product: rotate by x, translate by y."""
    xy = np.asarray(xy, dtype=float)
    return exp_so3(xy[:3]), np.array(xy[3:], dtype=float)


def dexp_inv_dp_action(xy, v):
    """Inverse right-trivialized differential of :func:`exp_dp` at xy acting
    on the twist v, as six floats: dexp_inv_so3(x) on the angular half, the
    identity on the linear half."""
    x = xy[:3]
    d, quad = dexp_inv_so3_coefficients(x)
    return (*so3_poly_action(x, v[:3], d, -0.5, quad), *v[3:])


def cay_dp(cd):
    """Cayley map on the direct product."""
    cd = np.asarray(cd, dtype=float)
    return cay_so3(cd[:3]), np.array(cd[3:], dtype=float)


def dcay_inv_dp_action(cd, v):
    """Inverse right-trivialized differential of :func:`cay_dp` at cd acting
    on the twist v, as six floats: dcay_inv_so3(c) on the angular half, the
    identity on the linear half."""
    return (*so3_poly_action(cd[:3], v[:3], 0.5, -0.5, 0.5), *v[3:])


def compose(group_model, pose1, pose2):
    """Group composition of two (rotation, position) pairs."""
    r1, p1 = pose1
    r2, p2 = pose2
    if group_model == SEMIDIRECT:
        return r1 @ r2, p1 + r1 @ p2
    if group_model == DIRECT_PRODUCT:
        return r1 @ r2, np.asarray(p1, dtype=float) + p2
    raise ValueError(f"unknown group model {group_model!r}")
