"""Independent reference computations used by the test suite.

Everything here is deliberately dumb and slow: truncated power series for
group exponentials, central finite differences for differentials, rejection
sampling for random inputs. None of it shares code with the package under
test, so agreement is meaningful. The exceptions sit at the end: the matrix
forms of the per-body and per-joint kernels take the package's scalar
coefficients and poses and check how the closed forms assemble them, and
the 6x6 forms of the direct-product inverse differentials, which the
package uses only as actions, are the matrices of those actions.

Conventions match the package: quaternions are scalar-first (4,) arrays,
6-vectors are (angular, linear), se(3) elements are 4x4 homogeneous with the
skew block top-left.
"""

import math
from fractions import Fraction

import numpy as np
from hypothesis import strategies as st
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgecon

from liembs.lgt import QUAT_POS
from liembs.motiongroups import (
    _b_quartic,
    _matrix_of,
    dcay_inv_dp_action,
    dexp_inv_dp_action,
)
from liembs.rotmaps import _dexp_quad, dexp_inv_quad, sinc, trig_coefficients


def skew(v):
    v = np.asarray(v, dtype=float)
    return np.array(
        [
            [0.0, -v[2], v[1]],
            [v[2], 0.0, -v[0]],
            [-v[1], v[0], 0.0],
        ]
    )


def unskew(m):
    return np.array([m[2, 1], m[0, 2], m[1, 0]])


def se3_hat(xy):
    out = np.zeros((4, 4))
    out[:3, :3] = skew(xy[:3])
    out[:3, 3] = xy[3:]
    return out


def se3_vee(m):
    return np.concatenate([unskew(m[:3, :3]), m[:3, 3]])


def series_exp_so3(x, terms=30):
    """exp of a skew matrix by direct power series."""
    a = skew(x)
    acc = np.eye(3)
    term = np.eye(3)
    for k in range(1, terms + 1):
        term = term @ a / k
        acc = acc + term
    return acc


def series_exp_se3(xy, terms=30):
    """exp of a 4x4 homogeneous se(3) element by direct power series."""
    a = se3_hat(xy)
    acc = np.eye(4)
    term = np.eye(4)
    for k in range(1, terms + 1):
        term = term @ a / k
        acc = acc + term
    return acc


def fd_right_differential_so3(psi, x, h=1e-6):
    """Right-trivialized differential of psi: R^3 -> SO(3), as a 3x3 matrix.

    Column j is unskew(Dpsi(e_j) * psi(x)^T) with Dpsi by central differences.
    """
    x = np.asarray(x, dtype=float)
    base = psi(x)
    cols = []
    for j in range(3):
        e = np.zeros(3)
        e[j] = h
        d = (psi(x + e) - psi(x - e)) / (2.0 * h)
        cols.append(unskew(d @ base.T))
    return np.column_stack(cols)


def fd_right_differential_se3(psi44, xy, h=1e-6):
    """Right-trivialized differential of psi: R^6 -> SE(3), as a 6x6 matrix.

    psi44 returns 4x4 homogeneous matrices.
    """
    xy = np.asarray(xy, dtype=float)
    base = psi44(xy)
    base_inv = np.eye(4)
    base_inv[:3, :3] = base[:3, :3].T
    base_inv[:3, 3] = -base[:3, :3].T @ base[:3, 3]
    cols = []
    for j in range(6):
        e = np.zeros(6)
        e[j] = h
        d = (psi44(xy + e) - psi44(xy - e)) / (2.0 * h)
        cols.append(se3_vee(d @ base_inv))
    return np.column_stack(cols)


def cayley_4x4(xy):
    """Cayley transform (I - A)^-1 (I + A) of the homogeneous se(3) matrix."""
    a = se3_hat(xy)
    return np.linalg.solve(np.eye(4) - a, np.eye(4) + a)


def fd_right_differential_dp(psi_pair, xy, h=1e-6):
    """Right-trivialized differential of psi: R^6 -> SO(3) x R^3, 6x6.

    psi_pair returns a (rotation, position) tuple; on the direct product the
    angular rows come from dR R^T and the linear rows from dr directly.
    """
    xy = np.asarray(xy, dtype=float)
    r0, _ = psi_pair(xy)
    cols = []
    for j in range(6):
        e = np.zeros(6)
        e[j] = h
        rp, pp = psi_pair(xy + e)
        rm, pm = psi_pair(xy - e)
        dr = (rp - rm) / (2.0 * h)
        dp = (pp - pm) / (2.0 * h)
        cols.append(np.concatenate([unskew(dr @ r0.T), dp]))
    return np.column_stack(cols)


def dcay_so3(c):
    """Right-trivialized differential of the Cayley map on SO(3), 3x3."""
    c = np.asarray(c, dtype=float)
    return (2.0 / (1.0 + float(c @ c))) * (np.eye(3) + skew(c))


def pose_inverse(group_model, pose):
    """Group inverse of a (rotation, position) pair.

    group_model is "se3" (semidirect) or "so3xr3" (direct product).
    """
    r, p = pose
    if group_model == "se3":
        return r.T, -(r.T @ p)
    if group_model == "so3xr3":
        return r.T, -np.asarray(p, dtype=float)
    raise ValueError(f"unknown group model {group_model!r}")


def dense_kkt_solve(model, state, rcond_limit=1e-12):
    """Accelerations and multipliers from one dense LU of the saddle matrix

        [ M  A^T ] [Vdot  ]   [ Q     ]
        [ A   0  ] [lambda] = [ -adotv]

    built from the model's mass matrix, forces, Jacobian and curvature term.
    Raises LinAlgError when the LU's reciprocal condition estimate is below
    rcond_limit.
    """
    q = np.asarray(model.forces(state.qs, state.V, state.t))
    a = model.jacobian(state.qs)
    n, m = q.size, a.shape[0]
    kkt = np.zeros((n + m, n + m))
    kkt[:n, :n] = model.mass_matrix
    kkt[:n, n:] = a.T
    kkt[n:, :n] = a
    rhs = np.concatenate([q, -model.adotv(state.qs, state.V)])
    lu, piv = lu_factor(kkt)
    rcond, info = dgecon(lu, np.linalg.norm(kkt, 1), norm="1")
    if info != 0 or rcond < rcond_limit:
        raise np.linalg.LinAlgError(f"saddle matrix rcond {rcond:.3e}")
    sol = lu_solve((lu, piv), rhs)
    return sol[:n], sol[n:]


def lstsq_chart_increment(model, dpsi_inv_0, qs):
    """The minimum-norm Gauss-Newton increment dX of a projection through a
    chart whose inverse differential at 0 has the per-body diagonal
    dpsi_inv_0: the least-squares solution of A(qs) diag^-1 dX = -g(qs) by
    numpy's SVD, where the package uses one Cholesky solve of A A^T."""
    a_chart = model.jacobian(qs) / np.tile(dpsi_inv_0, model.n_bodies)
    return np.linalg.lstsq(a_chart, -model.constraints(qs), rcond=None)[0]


def quat_to_matrix(q):
    """Rotation matrix of a unit quaternion, textbook component form."""
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_vector(rng, max_norm, dim=3):
    """Uniform direction, uniform norm in (0, max_norm]."""
    v = rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return v * rng.uniform(0.0, max_norm)


# Norms where a kernel coefficient switches between series and closed form
# (1e-4, 1e-3, and 0.7 for the quartic SE(3) coefficient), drawn on either side.
SWITCH_NORMS = (0.0, 1e-9) + tuple(
    s * f for s in (1e-4, 1e-3, 0.7) for f in (1.0 - 1e-6, 1.0 + 1e-6)
)


def vectors(max_norm):
    """Hypothesis strategy for 3-vectors: norms at SWITCH_NORMS up to
    max_norm, at max_norm itself, and uniform in [0, max_norm]."""
    norms = st.one_of(
        st.sampled_from([n for n in SWITCH_NORMS if n < max_norm] + [max_norm]),
        st.floats(0.0, max_norm),
    )
    directions = st.tuples(*[st.floats(-1.0, 1.0)] * 3).filter(
        lambda d: d[0] * d[0] + d[1] * d[1] + d[2] * d[2] > 1e-2
    )
    return st.builds(
        lambda n, d: n * np.array(d) / math.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2]),
        norms,
        directions,
    )


def assert_close_to_scale(got, want, tol):
    """max |got - want| <= tol * max(1, max |want|)."""
    want = np.asarray(want, dtype=float)
    err = float(np.max(np.abs(np.asarray(got) - want)))
    assert err <= tol * max(1.0, float(np.max(np.abs(want)))), err


def random_rotation(rng):
    """Haar-ish random rotation via a random unit quaternion."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return quat_to_matrix(q)


def rotation_angle(r):
    c = 0.5 * (np.trace(r) - 1.0)
    return math.acos(min(1.0, max(-1.0, c)))


def rotation_distance(r1, r2):
    """Geodesic angle between two rotations."""
    return rotation_angle(r1.T @ r2)


# ----------------------------------------------------------------------
# Matrix forms of the per-body kernels, as the package computed them before
# they became closed-form float expressions: products of skew matrices,
# identity matrices and numpy vector arithmetic. They take their scalar
# coefficients from the package (whose accuracy the series, finite-difference
# and mpmath tests check), so comparing against them checks the assembly of
# each closed form.


def matrix_exp_so3(x):
    x = np.asarray(x, dtype=float)
    alpha, beta, _ = trig_coefficients(math.sqrt(float(x @ x)))
    xh = skew(x)
    return np.eye(3) + alpha * xh + (0.5 * beta) * (xh @ xh)


def matrix_dexp_so3(x):
    x = np.asarray(x, dtype=float)
    phi = math.sqrt(float(x @ x))
    _, beta, _ = trig_coefficients(phi)
    xh = skew(x)
    return np.eye(3) + (0.5 * beta) * xh + _dexp_quad(phi) * (xh @ xh)


def matrix_dexp_inv_so3(x):
    x = np.asarray(x, dtype=float)
    xh = skew(x)
    return np.eye(3) - 0.5 * xh + dexp_inv_quad(math.sqrt(float(x @ x))) * (xh @ xh)


def matrix_cay_so3(c):
    c = np.asarray(c, dtype=float)
    ch = skew(c)
    return np.eye(3) + (2.0 / (1.0 + float(c @ c))) * (ch + ch @ ch)


def matrix_dcay_inv_so3(c):
    c = np.asarray(c, dtype=float)
    ch = skew(c)
    return (0.5 * (1.0 + float(c @ c))) * np.eye(3) + 0.5 * (ch @ ch - ch)


def matrix_quat_to_rotmat(q):
    ph = skew(q[1:])
    return np.eye(3) + 2.0 * (q[0] * ph + ph @ ph)


def vector_quat_mul(p, q):
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    out = np.empty(4)
    out[0] = p[0] * q[0] - p[1:] @ q[1:]
    out[1:] = p[0] * q[1:] + q[0] * p[1:] + np.cross(p[1:], q[1:])
    return out


def vector_exp_sp1(x):
    x = np.asarray(x, dtype=float)
    half = 0.5 * math.sqrt(float(x @ x))
    out = np.empty(4)
    out[0] = math.cos(half)
    out[1:] = (0.5 * sinc(half)) * x
    return out


def vector_rodrigues_to_quat(c):
    c = np.asarray(c, dtype=float)
    w = 1.0 / math.sqrt(1.0 + float(c @ c))
    out = np.empty(4)
    out[0] = w
    out[1:] = w * c
    return out


def _wrap_compound(phi, x):
    if phi > math.pi:
        x = x * ((phi - 2.0 * math.pi) / phi)
    return x


def vector_bch_so3(x1, x2):
    """Rotation vector of exp(x1) exp(x2) from the quaternion product in
    axis-angle data, wrapped into the pi-ball (no 2*pi edge check)."""
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
    s = sinc(0.5 * phi)
    x = (
        (s1 * c2 / s) * x1
        + (c1 * s2 / s) * x2
        + (0.5 * s1 * s2 / s) * np.cross(x1, x2)
    )
    return _wrap_compound(phi, x)


def vector_compose_axisangle_rodrigues(rho, c):
    """Rotation vector of exp(rho) cay(c), wrapped into the pi-ball."""
    rho = np.asarray(rho, dtype=float)
    c = np.asarray(c, dtype=float)
    phi1 = math.sqrt(float(rho @ rho))
    s1 = sinc(0.5 * phi1)
    c1 = math.cos(0.5 * phi1)
    w = 1.0 / math.sqrt(1.0 + float(c @ c))
    cos_half = w * (c1 - 0.5 * s1 * float(rho @ c))
    phi = 2.0 * math.acos(min(1.0, max(-1.0, cos_half)))
    s = sinc(0.5 * phi)
    x = (w * s1 / s) * rho + (2.0 * w * c1 / s) * c + (w * s1 / s) * np.cross(rho, c)
    return _wrap_compound(phi, x)


def matrix_dexp_inv_se3(xy):
    xy = np.asarray(xy, dtype=float)
    x, y = xy[:3], xy[3:]
    phi = math.sqrt(float(x @ x))
    xh, yh = skew(x), skew(y)
    d_inv = matrix_dexp_inv_so3(x)
    out = np.zeros((6, 6))
    out[:3, :3] = d_inv
    out[3:, 3:] = d_inv
    out[3:, :3] = (
        -0.5 * yh
        + dexp_inv_quad(phi) * (xh @ yh + yh @ xh)
        + (float(x @ y) * _b_quartic(phi)) * (xh @ xh)
    )
    return out


def matrix_dcay_inv_se3(cd):
    cd = np.asarray(cd, dtype=float)
    c, d = cd[:3], cd[3:]
    half_ic = 0.5 * (np.eye(3) - skew(c))
    out = np.zeros((6, 6))
    out[:3, :3] = matrix_dcay_inv_so3(c)
    out[3:, :3] = -half_ic @ skew(d)
    out[3:, 3:] = half_ic
    return out


def matrix_dexp_inv_dp(xy):
    out = np.eye(6)
    out[:3, :3] = matrix_dexp_inv_so3(np.asarray(xy, dtype=float)[:3])
    return out


def matrix_dcay_inv_dp(cd):
    out = np.eye(6)
    out[:3, :3] = matrix_dcay_inv_so3(np.asarray(cd, dtype=float)[:3])
    return out


def dexp_inv_dp(xy):
    """The 6x6 matrix of ``dexp_inv_dp_action`` at xy, its columns the
    action on the unit twists."""
    return _matrix_of(dexp_inv_dp_action, xy)


def dcay_inv_dp(cd):
    """The 6x6 matrix of ``dcay_inv_dp_action`` at cd, its columns the
    action on the unit twists."""
    return _matrix_of(dcay_inv_dp_action, cd)


def matrix_forces(model, qs, v):
    """Gyroscopic bias plus gravity of a SphericalJointSystem, from each
    body's 6x6 mass block: (mu_w x w + mu_v x v + m s x g_b, mu_v x w + m g_b)
    with mu = M_i V_i and g_b = R^T g for body-fixed twists, and
    (mu_w x w, m g) for mixed twists."""
    out = np.empty(6 * model.n_bodies)
    for i, params in enumerate(model.bodies):
        block = model.mass_matrix[6 * i : 6 * i + 6, 6 * i : 6 * i + 6]
        vi = np.asarray(v[6 * i : 6 * i + 6], dtype=float)
        omega = vi[:3]
        mu = block @ vi
        g = np.asarray(params.gravity, dtype=float)
        m = params.mass
        if model.group_model == "se3":
            rot = qs[i].pose[0]
            g_body = rot.T @ g
            s = np.asarray(params.com_offset, dtype=float)
            out[6 * i : 6 * i + 3] = (
                np.cross(mu[:3], omega) + np.cross(mu[3:], vi[3:]) + m * np.cross(s, g_body)
            )
            out[6 * i + 3 : 6 * i + 6] = np.cross(mu[3:], omega) + m * g_body
        else:
            out[6 * i : 6 * i + 3] = np.cross(mu[:3], omega)
            out[6 * i + 3 : 6 * i + 6] = m * g
    return out


def matrix_constraints(model, qs):
    """Joint constraints of a SphericalJointSystem from pose matrices:
    (r_a + R_a p_a) - (r_b + R_b p_b) per joint, the world point for ground."""
    out = np.empty(model.n_constraints)
    for j, (a, p_a, b, p_b) in enumerate(model._joint_points):
        rot_a, r_a = qs[a].pose
        if b is not None:
            rot_b, r_b = qs[b].pose
            p_b = r_b + rot_b @ np.asarray(p_b, dtype=float)
        out[3 * j : 3 * j + 3] = (r_a + rot_a @ np.asarray(p_a, dtype=float)) - p_b
    return out


def _point_rows(model, rot, point):
    """Rows of d/dt (r + R point) in one body's twist: (-R hat(point), R) for
    body-fixed twists, (-R hat(point), I) for mixed ones."""
    rows = np.empty((3, 6))
    rows[:, :3] = -rot @ skew(point)
    rows[:, 3:] = rot if model.group_model == "se3" else np.eye(3)
    return rows


def matrix_jacobian(model, qs):
    """Constraint Jacobian of a SphericalJointSystem from 3x6 point blocks."""
    out = np.zeros((model.n_constraints, 6 * model.n_bodies))
    for j, (a, p_a, b, p_b) in enumerate(model._joint_points):
        out[3 * j : 3 * j + 3, 6 * a : 6 * a + 6] = _point_rows(
            model, qs[a].pose[0], p_a
        )
        if b is not None:
            out[3 * j : 3 * j + 3, 6 * b : 6 * b + 6] = -_point_rows(
                model, qs[b].pose[0], p_b
            )
    return out


def _point_curvature(model, rot, point, vi):
    """(d/dt of the point-velocity rows) acting on one body's twist."""
    omega = vi[:3]
    swing = np.cross(omega, point)
    if model.group_model == "se3":
        return rot @ np.cross(omega, vi[3:] + swing)
    return rot @ np.cross(omega, swing)


def matrix_adotv(model, qs, v):
    """(d/dt A) V of a SphericalJointSystem from numpy cross products."""
    v = np.asarray(v, dtype=float)
    out = np.empty(model.n_constraints)
    for j, (a, p_a, b, p_b) in enumerate(model._joint_points):
        out[3 * j : 3 * j + 3] = _point_curvature(
            model, qs[a].pose[0], p_a, v[6 * a : 6 * a + 6]
        )
        if b is not None:
            out[3 * j : 3 * j + 3] -= _point_curvature(
                model, qs[b].pose[0], p_b, v[6 * b : 6 * b + 6]
            )
    return out


def dense_energy(model, qs, v):
    """Energy of a SphericalJointSystem from its dense mass matrix:
    V^T M V / 2 less m g.(r + R s) per body, s the com_offset."""
    v = np.asarray(v, dtype=float)
    total = 0.5 * float(v @ (model.mass_matrix @ v))
    for q, params in zip(qs, model.bodies):
        rot, r = q.pose
        com = r + rot @ np.asarray(params.com_offset, dtype=float)
        total -= params.mass * float(np.asarray(params.gravity, dtype=float) @ com)
    return total


def quat_norm_error(q):
    """|‖Q‖ - 1| for quaternion coordinates, NaN for other kinds: the
    quaternion drift the integration record holds, from the same float sum
    of squares."""
    if q.kind != QUAT_POS:
        return math.nan
    a, b, c, d = q.rot.tolist()
    return abs(math.sqrt(a * a + b * b + c * c + d * d) - 1.0)


def bernoulli_terms(n_terms):
    """|B_2n| / (2n)! for n = 1..n_terms, exact, from the Bernoulli
    recurrence: the terms of (1 - gamma(phi)) / phi**2 whose rounding
    rotmaps stores as float literals."""
    b = [Fraction(1)]
    for m in range(1, 2 * n_terms + 1):
        b.append(-sum(math.comb(m + 1, k) * b[k] for k in range(m)) / (m + 1))
    return [abs(b[2 * n]) / math.factorial(2 * n) for n in range(1, n_terms + 1)]
