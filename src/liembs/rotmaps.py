"""Coordinate maps on the rotation group and their trivialized differentials.

Provides the exponential and Cayley maps SO(3) <- R^3 together with their
right-trivialized differentials and inverse differentials, unit-quaternion
utilities with the quaternion logarithm :func:`log_sp1`, and closed-form
composition rules that combine an axis-angle increment with an existing
axis-angle or Rodrigues parameter vector without leaving vector coordinates.

Conventions
-----------
* Rotation vectors x have angle ``phi = ||x||`` about axis ``x / phi``.
* Rodrigues (Gibbs) vectors c correspond to the rotation ``2*atan(||c||)``
  about ``c / ||c||``; the Cayley map is exact in these coordinates.
* Quaternions are scalar-first arrays ``[q0, q1, q2, q3]``.
* All differentials are right-trivialized: for a map ``psi`` and tangent
  ``w``, ``d/dt psi(x + t w) at t=0`` equals ``skew(dpsi(x) @ w) @ psi(x)``.

Evaluation
----------
The kernels a time step calls are closed-form expressions in Python floats:
each reads its vector inputs once and builds one array from a tuple. Every
3x3 map is ``c0*I + c1*hat(x) + c2*hat(x)**2``, assembled by
:func:`so3_poly_entries` from ``hat(x)**2 = x x^T - phi**2 I``, with the
diagonal ``c0 - c2*phi**2`` passed in a form free of that cancellation
(``cos(phi)`` for :func:`exp_so3`, ``sinc(phi)`` for :func:`dexp_so3`,
``gamma(phi)`` for :func:`dexp_inv_so3`). The matrix forms they replace
are kept as test oracles.

Scalar coefficients with removable singularities switch to Taylor series
below ``phi = 1e-4``, and the two coefficients of ``hat(x)**2``,
``(1 - sinc(phi)) / phi**2`` and ``(1 - gamma(phi)) / phi**2``, below 0.7,
where their closed forms would lose digits to cancellation. They and the
SE(3) quartic :func:`_b_quartic` are one table of exact terms, rounded once,
summed by :func:`phi2_series` and switched at one angle ``_QUAD_SERIES_ANGLE``.
Against mpmath (relative error, 1000 log-spaced phi in [1e-5, 10**0.5]) the
two series are good to 1.4e-16 and the closed forms to 1.5e-15 and 1.8e-15
just above 0.7, falling as 1/phi**2. :func:`exp_so3`, :func:`dexp_so3` and
:func:`dexp_inv_so3` stay within 1.7e-16 absolute of the exact matrices for
phi within 10% of either switch (mpmath, 80 random x per switch).
"""

import math

import numpy as np

from .errors import ChartBoundary, CompoundAnglePi

_SMALL_ANGLE = 1.0e-4
# Below this angle _dexp_quad, dexp_inv_quad and _b_quartic are their Taylor
# series, above it the closed forms, whose cancellation costs up to
# 6 eps / phi**2 and 12 eps / phi**2 relative (the first two).
_QUAD_SERIES_ANGLE = 0.7
_CHART_EDGE = 2.0 * math.pi - 1.0e-9
_COMPOUND_EDGE = 2.0 * math.pi - 1.0e-6
_TWO_PI = 2.0 * math.pi


def _floats(v):
    """The entries of a vector as a list of Python numbers."""
    return v.tolist() if isinstance(v, np.ndarray) else list(v)


def _matrix(entries):
    return np.array(entries).reshape(3, 3)


def hat(v):
    """Skew-symmetric matrix of a 3-vector, so that hat(a) @ b = cross(a, b)."""
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def so3_poly_entries(x, d, c1, c2):
    """Row-major entries of ``d*I + c1*hat(x) + c2*x x^T``, x three floats.

    With ``d = c0 - c2*||x||**2`` this is ``c0*I + c1*hat(x) + c2*hat(x)**2``.
    """
    a, b, c = x
    ab = c2 * a * b
    ac = c2 * a * c
    bc = c2 * b * c
    ta = c1 * a
    tb = c1 * b
    tc = c1 * c
    return (
        d + c2 * a * a, ab - tc, ac + tb,
        ab + tc, d + c2 * b * b, bc - ta,
        ac - tb, bc + ta, d + c2 * c * c,
    )


def so3_poly_action(x, w, d, c1, c2):
    """``(d*I + c1*hat(x) + c2*x x^T) w`` as three floats, x and w three
    floats each: the matrix of :func:`so3_poly_entries` acting on w."""
    a, b, c = x
    p, q, r = w
    k = c2 * (a * p + b * q + c * r)
    return (
        d * p + c1 * (b * r - c * q) + k * a,
        d * q + c1 * (c * p - a * r) + k * b,
        d * r + c1 * (a * q - b * p) + k * c,
    )


def cross3(a, b):
    """Cross product of two 3-vectors."""
    a0, a1, a2 = _floats(a)
    b0, b1, b2 = _floats(b)
    return np.array((a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0))


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
        gamma = 1.0 - phi * phi * dexp_inv_quad(phi)
    else:
        gamma = half / math.tan(half)
    return alpha, beta, gamma


# (1 - sinc(phi)) / phi**2 = sum_n (-1)**n phi**2n / (2n + 3)!, to phi**14;
# (1 - gamma(phi)) / phi**2 = f(phi) = sum_n |B_2n+2| / (2n + 2)! phi**2n, to
# phi**16; (1/beta + gamma - 2) / phi**4 = f'(phi) / phi, to phi**14. The
# last two are the exact Bernoulli terms rounded once (tests/oracles.py
# recomputes them).
_DEXP_QUAD_SERIES = tuple((-1) ** n / math.factorial(2 * n + 3) for n in range(8))
_DEXP_INV_QUAD_SERIES = (
    0.08333333333333333,
    0.001388888888888889,
    3.306878306878307e-05,
    8.267195767195768e-07,
    2.08767569878681e-08,
    5.284190138687493e-10,
    1.3382536530684679e-11,
    3.3896802963225827e-13,
    8.586062056277845e-15,
)
_B_QUARTIC_SERIES = (
    0.002777777777777778,
    0.00013227513227513228,
    4.96031746031746e-06,
    1.670140559029448e-07,
    5.2841901386874934e-09,
    1.6059043836821613e-10,
    4.745552414851616e-12,
    1.3737699290044552e-13,
)


def phi2_series(coefficients, phi2):
    """c0 + phi2*(c1 + phi2*(c2 + ...)) by Horner's rule."""
    value = 0.0
    for coefficient in reversed(coefficients):
        value = coefficient + phi2 * value
    return value


def _dexp_quad(phi):
    """(1 - sinc(phi)) / phi**2, the coefficient of hat(x)**2 in
    :func:`dexp_so3`: its Taylor series below 0.7, where the closed form
    would cancel, and the closed form above."""
    if abs(phi) < _QUAD_SERIES_ANGLE:
        return phi2_series(_DEXP_QUAD_SERIES, phi * phi)
    return (1.0 - sinc(phi)) / (phi * phi)


def dexp_inv_quad(phi):
    """(1 - gamma(phi)) / phi**2, the coefficient of hat(x)**2 in
    :func:`dexp_inv_so3`: its Taylor series to phi**16 below 0.7, where the
    closed form would cancel, and the closed form above. The coefficients
    are (-1)**(n+1) B_2n / (2n)!; the series converges for phi < 2*pi."""
    if abs(phi) < _QUAD_SERIES_ANGLE:
        return phi2_series(_DEXP_INV_QUAD_SERIES, phi * phi)
    half = 0.5 * phi
    return (1.0 - half / math.tan(half)) / (phi * phi)


def _b_quartic(phi):
    """(1/beta + gamma - 2) / phi**4, in the B block of SE(3) dexp_inv: its
    Taylor series to phi**14 below 0.7, where the closed form would cancel,
    and the closed form above. The coefficients come from Bernoulli numbers;
    the series converges for phi < 2*pi."""
    phi2 = phi * phi
    if abs(phi) < _QUAD_SERIES_ANGLE:
        return phi2_series(_B_QUARTIC_SERIES, phi2)
    _, beta, gamma = trig_coefficients(phi)
    return (1.0 / beta + gamma - 2.0) / (phi2 * phi2)


def exp_so3_entries(x):
    """Row-major entries of :func:`exp_so3` at the floats x, nine floats."""
    a, b, c = x
    phi = math.sqrt(a * a + b * b + c * c)
    s = sinc(0.5 * phi)
    return so3_poly_entries(x, math.cos(phi), sinc(phi), 0.5 * s * s)


def exp_so3(x):
    """Exponential map: rotation matrix of the rotation vector x."""
    return _matrix(exp_so3_entries(_floats(x)))


def dexp_so3_entries(x):
    """Row-major entries of :func:`dexp_so3` at the floats x, nine floats."""
    a, b, c = x
    phi = math.sqrt(a * a + b * b + c * c)
    s = sinc(0.5 * phi)
    return so3_poly_entries(x, sinc(phi), 0.5 * s * s, _dexp_quad(phi))


def dexp_so3(x):
    """Right-trivialized differential of :func:`exp_so3` as a 3x3 matrix."""
    return _matrix(dexp_so3_entries(_floats(x)))


def dexp_inv_so3_coefficients(x):
    """(gamma(phi), (1 - gamma) / phi**2) at the floats x: the d and c2 of
    :func:`dexp_inv_so3` for :func:`so3_poly_entries` (c1 is -1/2).
    ChartBoundary at ``||x|| >= 2*pi``."""
    a, b, c = x
    phi2 = a * a + b * b + c * c
    phi = math.sqrt(phi2)
    if phi >= _CHART_EDGE:
        raise ChartBoundary(
            f"dexp_inv_so3 undefined at ||x|| = {phi:.6f} >= 2*pi"
        )
    quad = dexp_inv_quad(phi)
    return 1.0 - phi2 * quad, quad


def dexp_inv_so3(x):
    """Inverse of :func:`dexp_so3`; defined for ``||x|| < 2*pi``."""
    x = _floats(x)
    d, quad = dexp_inv_so3_coefficients(x)
    return _matrix(so3_poly_entries(x, d, -0.5, quad))


def cay_so3_entries(c):
    """Row-major entries of :func:`cay_so3` at the floats c, nine floats."""
    c0, c1, c2 = c
    phi2 = c0 * c0 + c1 * c1 + c2 * c2
    sigma = 2.0 / (1.0 + phi2)
    return so3_poly_entries(c, (1.0 - phi2) / (1.0 + phi2), sigma, sigma)


def cay_so3(c):
    """Cayley map: rotation matrix of the Rodrigues vector c."""
    return _matrix(cay_so3_entries(_floats(c)))


def dcay_inv_so3(c):
    """Inverse right differential of :func:`cay_so3`, polynomial in c:
    ``((1 + |c|**2) I + hat(c)**2 - hat(c)) / 2 = (I - hat(c) + c c^T) / 2``."""
    return _matrix(so3_poly_entries(_floats(c), 0.5, -0.5, 0.5))


def quat_mul(p, q):
    """Hamilton product of two scalar-first quaternions."""
    p0, p1, p2, p3 = _floats(p)
    q0, q1, q2, q3 = _floats(q)
    return np.array(
        (
            p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
            p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
            p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
            p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0,
        )
    )


def exp_sp1(x):
    """Unit quaternion of the rotation vector x (exponential on Sp(1))."""
    a, b, c = _floats(x)
    half = 0.5 * math.sqrt(a * a + b * b + c * c)
    k = 0.5 * sinc(half)
    return np.array((math.cos(half), k * a, k * b, k * c))


def log_sp1(q):
    """Rotation vector of the unit quaternion q in the pi-ball, inverting
    :func:`exp_sp1` there: ``2*atan2(|v|, |w|) * v/|v|`` with q's sign taken
    so that w >= 0. atan2 keeps every angle, pi included, to a few ulp; at
    w = 0 the norm may round an ulp over pi, which axis_angle_pos corrects."""
    w, a, b, c = _floats(q)
    n = math.sqrt(a * a + b * b + c * c)
    if n == 0.0:
        return np.zeros(3)
    k = math.copysign(2.0 * math.atan2(n, abs(w)) / n, w)
    return np.array((k * a, k * b, k * c))


def quat_to_rotmat(q):
    """Rotation matrix of a unit quaternion."""
    q0, *p = _floats(q)
    a, b, c = p
    return _matrix(
        so3_poly_entries(p, 1.0 - 2.0 * (a * a + b * b + c * c), 2.0 * q0, 2.0)
    )


def rodrigues_to_quat(c):
    """Unit quaternion of a Rodrigues vector."""
    a, b, c = _floats(c)
    w = 1.0 / math.sqrt(1.0 + a * a + b * b + c * c)
    return np.array((w, w * a, w * b, w * c))


def _compound_scale(cos_half):
    """1 / sinc(phi/2) for the angle phi of a composed rotation, given
    cos(phi/2), times the factor that wraps a rotation vector of that angle
    into the pi-ball (same axis, complementary angle) when phi > pi.

    Raises :class:`CompoundAnglePi` when phi comes within 1e-6 of 2*pi.
    """
    phi = 2.0 * math.acos(min(1.0, max(-1.0, cos_half)))
    if phi > _COMPOUND_EDGE:
        raise CompoundAnglePi(
            f"compound rotation angle {phi:.8f} too close to 2*pi"
        )
    wrap = (phi - _TWO_PI) / phi if phi > math.pi else 1.0
    return wrap / sinc(0.5 * phi)


def bch_so3(x1, x2):
    """Rotation vector of exp(x1) * exp(x2), without forming matrices.

    Implements the closed-form Baker-Campbell-Hausdorff composition on
    SO(3) via the quaternion product written in axis-angle data, wrapped
    into the pi-ball. Raises :class:`CompoundAnglePi` when the compound
    angle comes within 1e-6 of 2*pi, where the parametrization breaks down.
    """
    a0, a1, a2 = _floats(x1)
    b0, b1, b2 = _floats(x2)
    half1 = 0.5 * math.sqrt(a0 * a0 + a1 * a1 + a2 * a2)
    half2 = 0.5 * math.sqrt(b0 * b0 + b1 * b1 + b2 * b2)
    s1 = sinc(half1)
    s2 = sinc(half2)
    c1 = math.cos(half1)
    c2 = math.cos(half2)
    k = _compound_scale(c1 * c2 - 0.25 * s1 * s2 * (a0 * b0 + a1 * b1 + a2 * b2))
    k1 = k * s1 * c2
    k2 = k * c1 * s2
    k3 = 0.5 * k * s1 * s2
    return np.array(
        (
            k1 * a0 + k2 * b0 + k3 * (a1 * b2 - a2 * b1),
            k1 * a1 + k2 * b1 + k3 * (a2 * b0 - a0 * b2),
            k1 * a2 + k2 * b2 + k3 * (a0 * b1 - a1 * b0),
        )
    )


def compose_axisangle_rodrigues(rho, c):
    """Rotation vector of exp(rho) * cay(c), without forming matrices.

    rho is an axis-angle increment, c a Rodrigues vector; the result is the
    axis-angle form of the composed rotation, wrapped into the pi-ball.
    Raises :class:`CompoundAnglePi` near the 2*pi boundary.
    """
    a0, a1, a2 = _floats(rho)
    b0, b1, b2 = _floats(c)
    half1 = 0.5 * math.sqrt(a0 * a0 + a1 * a1 + a2 * a2)
    s1 = sinc(half1)
    c1 = math.cos(half1)
    w = 1.0 / math.sqrt(1.0 + b0 * b0 + b1 * b1 + b2 * b2)
    k = w * _compound_scale(
        w * (c1 - 0.5 * s1 * (a0 * b0 + a1 * b1 + a2 * b2))
    )
    k1 = k * s1
    k2 = 2.0 * k * c1
    return np.array(
        (
            k1 * a0 + k2 * b0 + k1 * (a1 * b2 - a2 * b1),
            k1 * a1 + k2 * b1 + k1 * (a2 * b0 - a0 * b2),
            k1 * a2 + k2 * b2 + k1 * (a0 * b1 - a1 * b0),
        )
    )
