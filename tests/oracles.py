"""Independent reference computations used by the test suite.

Everything here is deliberately dumb and slow: truncated power series for
group exponentials, central finite differences for differentials, rejection
sampling for random inputs. None of it shares code with the package under
test, so agreement is meaningful.

Conventions match the package: quaternions are scalar-first (4,) arrays,
6-vectors are (angular, linear), se(3) elements are 4x4 homogeneous with the
skew block top-left.
"""

import math

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.linalg.lapack import dgecon


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
    q = model.forces(state.qs, state.V, state.t)
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
