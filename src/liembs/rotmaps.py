"""Coordinate maps on the rotation group and their trivialized differentials.

Provides the exponential and Cayley maps SO(3) <- R^3 together with their
right-trivialized differentials and inverse differentials, the matrix
logarithm, unit-quaternion utilities, and closed-form composition rules that
combine an axis-angle increment with an existing axis-angle or Rodrigues
parameter vector without leaving vector coordinates.

Conventions
-----------
* Rotation vectors x have angle ``phi = ||x||`` about axis ``x / phi``.
* Rodrigues (Gibbs) vectors c correspond to the rotation ``2*atan(||c||)``
  about ``c / ||c||``; the Cayley map is exact in these coordinates.
* Quaternions are scalar-first arrays ``[q0, q1, q2, q3]``.
* All differentials are right-trivialized: for a map ``psi`` and tangent
  ``w``, ``d/dt psi(x + t w) at t=0`` equals ``skew(dpsi(x) @ w) @ psi(x)``.

Scalar coefficients with removable singularities switch to Taylor series
below ``phi = 1e-4``, and ``(1 - gamma(phi)) / phi**2`` below ``1e-3``. Each
series is exact to double precision up to its switch. The closed forms
just above a switch lose digits to cancellation: about 1e-9 relative for
``(1 - gamma) / phi**2`` above 1e-3 and 5e-8 for ``(1 - sinc) / phi**2``
above 1e-4. In :func:`dexp_so3` and :func:`dexp_inv_so3` both multiply
``hat(x) @ hat(x)``, of size phi**2, so those matrices stay accurate to
about 1e-16 absolute.
"""

import math
import warnings

import numpy as np

from .errors import ChartBoundary, CompoundAnglePi, NearPiAmbiguity

_SMALL_ANGLE = 1.0e-4
_QUAD_SERIES_ANGLE = 1.0e-3
_CHART_EDGE = 2.0 * math.pi - 1.0e-9
_COMPOUND_EDGE = 2.0 * math.pi - 1.0e-6
_NEAR_PI_TRACE = 1.0e-8


def hat(v):
    """Skew-symmetric matrix of a 3-vector, so that hat(a) @ b = cross(a, b)."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def vee(m):
    """Inverse of :func:`hat` for a skew-symmetric matrix."""
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def cross3(a, b):
    """Cross product of two 3-vectors.

    Component-wise on purpose: ``np.cross`` spends more time normalizing
    axes than multiplying at this size, and the integrators call this in
    every right-hand-side evaluation.
    """
    return np.array(
        [
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        ]
    )


def sinc(x):
    """sin(x)/x with the removable singularity filled by series."""
    x = float(x)
    if abs(x) < _SMALL_ANGLE:
        x2 = x * x
        return 1.0 - x2 / 6.0 * (1.0 - x2 / 20.0)
    return math.sin(x) / x


def trig_coefficients(phi):
    """The coefficient triple (alpha, beta, gamma) for the angle phi.

    alpha = sinc(phi), beta = sinc(phi/2)**2, gamma = alpha / beta,
    each evaluated in a cancellation-free form.
    """
    phi = float(phi)
    half = 0.5 * phi
    alpha = sinc(phi)
    s = sinc(half)
    beta = s * s
    if abs(phi) < _SMALL_ANGLE:
        phi2 = phi * phi
        gamma = 1.0 - phi2 / 12.0 - phi2 * phi2 / 720.0
    else:
        gamma = half / math.tan(half)
    return alpha, beta, gamma


def _dexp_quad(phi):
    """(1 - sinc(phi)) / phi**2, series-guarded."""
    if abs(phi) < _SMALL_ANGLE:
        phi2 = phi * phi
        return 1.0 / 6.0 - phi2 / 120.0
    return (1.0 - sinc(phi)) / (phi * phi)


def dexp_inv_quad(phi):
    """(1 - gamma(phi)) / phi**2, the coefficient of hat(x)**2 in
    :func:`dexp_inv_so3`, with a three-term series below phi = 1e-3."""
    if abs(phi) < _QUAD_SERIES_ANGLE:
        phi2 = phi * phi
        return 1.0 / 12.0 + phi2 / 720.0 + phi2 * phi2 / 30240.0
    half = 0.5 * phi
    return (1.0 - half / math.tan(half)) / (phi * phi)


def exp_so3(x):
    """Exponential map: rotation matrix of the rotation vector x."""
    x = np.asarray(x, dtype=float)
    phi = math.sqrt(float(x @ x))
    alpha, beta, _ = trig_coefficients(phi)
    xh = hat(x)
    return np.eye(3) + alpha * xh + (0.5 * beta) * (xh @ xh)


def dexp_so3(x):
    """Right-trivialized differential of :func:`exp_so3` as a 3x3 matrix."""
    x = np.asarray(x, dtype=float)
    phi = math.sqrt(float(x @ x))
    _, beta, _ = trig_coefficients(phi)
    xh = hat(x)
    return np.eye(3) + (0.5 * beta) * xh + _dexp_quad(phi) * (xh @ xh)


def dexp_inv_so3(x):
    """Inverse of :func:`dexp_so3`; defined for ``||x|| < 2*pi``."""
    x = np.asarray(x, dtype=float)
    phi = math.sqrt(float(x @ x))
    if phi >= _CHART_EDGE:
        raise ChartBoundary(
            f"dexp_inv_so3 undefined at ||x|| = {phi:.6f} >= 2*pi"
        )
    xh = hat(x)
    return np.eye(3) - 0.5 * xh + dexp_inv_quad(phi) * (xh @ xh)


def log_so3(x_or_r):
    """Rotation vector of a rotation matrix, with ``||result|| <= pi``.

    Near angle pi the axis is recovered from the symmetric part of the
    matrix, which stays well conditioned where the antisymmetric part
    degenerates; the leftover sign ambiguity at exactly pi is resolved
    arbitrarily and reported with a :class:`NearPiAmbiguity` warning.
    """
    r = np.asarray(x_or_r, dtype=float)
    tr = float(np.trace(r))
    w = vee(r - r.T)
    sin_norm = 0.5 * math.sqrt(float(w @ w))
    if tr + 1.0 < _NEAR_PI_TRACE:
        # Angle within ~1e-4 of pi: extract the axis from R + R^T.
        theta = math.pi - math.asin(min(1.0, sin_norm))
        cos_t = math.cos(theta)
        outer = (0.5 * (r + r.T) - cos_t * np.eye(3)) / (1.0 - cos_t)
        j = int(np.argmax(np.diag(outer)))
        axis = outer[:, j] / math.sqrt(max(outer[j, j], 0.0))
        # Orient along the antisymmetric part when it still carries a sign.
        if sin_norm > 1.0e-12:
            if float(axis @ w) < 0.0:
                axis = -axis
        else:
            warnings.warn(
                "rotation angle is pi to machine precision; axis sign chosen "
                "arbitrarily",
                NearPiAmbiguity,
            )
            k = int(np.argmax(np.abs(axis)))
            if axis[k] < 0.0:
                axis = -axis
        return theta * axis
    cos_t = min(1.0, max(-1.0, 0.5 * (tr - 1.0)))
    theta = math.acos(cos_t)
    if theta < _SMALL_ANGLE:
        # theta / (2 sin theta) = 1/2 + theta^2/12 + 7 theta^4/720 + ...
        factor = 0.5 + theta * theta / 12.0
    else:
        factor = 0.5 * theta / math.sin(theta)
    return factor * w


def cay_so3(c):
    """Cayley map: rotation matrix of the Rodrigues vector c."""
    c = np.asarray(c, dtype=float)
    sigma = 2.0 / (1.0 + float(c @ c))
    ch = hat(c)
    return np.eye(3) + sigma * (ch + ch @ ch)


def dcay_inv_so3(c):
    """Inverse right differential of :func:`cay_so3`, polynomial in c."""
    c = np.asarray(c, dtype=float)
    ch = hat(c)
    return (0.5 * (1.0 + float(c @ c))) * np.eye(3) + 0.5 * (ch @ ch - ch)


def quat_mul(p, q):
    """Hamilton product of two scalar-first quaternions."""
    p0, p1, p2, p3 = p
    q0, q1, q2, q3 = q
    return np.array(
        [
            p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
            p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
        ]
    )


def exp_sp1(x):
    """Unit quaternion of the rotation vector x (exponential on Sp(1))."""
    x = np.asarray(x, dtype=float)
    phi = math.sqrt(float(x @ x))
    half = 0.5 * phi
    out = np.empty(4)
    out[0] = math.cos(half)
    out[1:] = (0.5 * sinc(half)) * x
    return out


def quat_to_rotmat(q):
    """Rotation matrix of a unit quaternion."""
    q0 = q[0]
    p = np.asarray(q[1:], dtype=float)
    ph = hat(p)
    return np.eye(3) + 2.0 * (q0 * ph + ph @ ph)


def rodrigues_to_quat(c):
    """Unit quaternion of a Rodrigues vector."""
    c = np.asarray(c, dtype=float)
    w = 1.0 / math.sqrt(1.0 + float(c @ c))
    out = np.empty(4)
    out[0] = w
    out[1:] = w * c
    return out


def _wrap_compound(phi, x):
    """Shared tail of the closed-form compositions.

    Keeps the result inside the ball of radius pi by stepping the angle down
    by 2*pi when it exceeds pi (same axis, complementary angle).
    """
    if phi > math.pi:
        x = x * ((phi - 2.0 * math.pi) / phi)
    return x


def bch_so3(x1, x2):
    """Rotation vector of exp(x1) * exp(x2), without forming matrices.

    Implements the closed-form Baker-Campbell-Hausdorff composition on
    SO(3) via the quaternion product written in axis-angle data. Raises
    :class:`CompoundAnglePi` when the compound angle comes within 1e-6 of
    2*pi, where the parametrization breaks down.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    phi1 = math.sqrt(float(x1 @ x1))
    phi2 = math.sqrt(float(x2 @ x2))
    s1 = sinc(0.5 * phi1)
    s2 = sinc(0.5 * phi2)
    c1 = math.cos(0.5 * phi1)
    c2 = math.cos(0.5 * phi2)
    cos_half = c1 * c2 - 0.25 * s1 * s2 * float(x1 @ x2)
    phi = 2.0 * math.acos(min(1.0, max(-1.0, cos_half)))
    if phi > _COMPOUND_EDGE:
        raise CompoundAnglePi(
            f"compound rotation angle {phi:.8f} too close to 2*pi"
        )
    s = sinc(0.5 * phi)
    x = (
        (s1 * c2 / s) * x1
        + (c1 * s2 / s) * x2
        + (0.5 * s1 * s2 / s) * cross3(x1, x2)
    )
    return _wrap_compound(phi, x)


def compose_axisangle_rodrigues(rho, c):
    """Rotation vector of exp(rho) * cay(c), without forming matrices.

    rho is an axis-angle increment, c a Rodrigues vector; the result is the
    axis-angle form of the composed rotation, wrapped into the pi-ball.
    Raises :class:`CompoundAnglePi` near the 2*pi boundary.
    """
    rho = np.asarray(rho, dtype=float)
    c = np.asarray(c, dtype=float)
    phi1 = math.sqrt(float(rho @ rho))
    s1 = sinc(0.5 * phi1)
    c1 = math.cos(0.5 * phi1)
    w = 1.0 / math.sqrt(1.0 + float(c @ c))
    cos_half = w * (c1 - 0.5 * s1 * float(rho @ c))
    phi = 2.0 * math.acos(min(1.0, max(-1.0, cos_half)))
    if phi > _COMPOUND_EDGE:
        raise CompoundAnglePi(
            f"compound rotation angle {phi:.8f} too close to 2*pi"
        )
    s = sinc(0.5 * phi)
    x = (
        (w * s1 / s) * rho
        + (2.0 * w * c1 / s) * c
        + (w * s1 / s) * cross3(rho, c)
    )
    return _wrap_compound(phi, x)
