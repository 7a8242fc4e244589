"""Rigid body models: bodies coupled by spherical joints.

One class, :class:`SphericalJointSystem`, holds N bodies and any number of
spherical joints between two bodies or between a body and the ground. The
constructors ``free_rigid_body``, ``pinned_body`` and ``two_body_chain``
build the shipped models with it.

Every model picks one group model for its twists:

* ``SEMIDIRECT``: body-fixed twists V = (omega, v), v = R^T rdot. The mass
  matrix couples rotation and translation when the body frame sits off the
  center of mass; gravity is resolved into the body frame each evaluation.
* ``DIRECT_PRODUCT``: mixed twists V = (omega, rdot). The Newton and Euler
  equations decouple, which requires the body frame at the center of mass;
  constructors reject off-center frames for this group model because the
  mass matrix would otherwise depend on the configuration.

Force vectors returned by ``forces`` already include the gyroscopic bias
(the adjoint-transpose term of the Euler-Poincare equations), so the
dynamics layer stays representation-agnostic.
"""

from dataclasses import dataclass

import numpy as np

from .lgt import alpha_map
from .motiongroups import DIRECT_PRODUCT, GROUP_MODELS, SEMIDIRECT
from .rotmaps import cross3, hat


_EYE3 = np.eye(3)


def _vec3(value, name):
    out = np.asarray(value, dtype=float)
    if out.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {out.shape}")
    return out


@dataclass(frozen=True)
class BodyParams:
    """Inertial parameters of one rigid body.

    inertia is the diagonal of the rotational inertia about the center of
    mass, in the body frame; com_offset is the body-frame vector from the
    body frame origin to the center of mass.
    """

    mass: float
    inertia: tuple
    com_offset: tuple = (0.0, 0.0, 0.0)
    gravity: tuple = (0.0, 0.0, -9.81)

    def __post_init__(self):
        if self.mass <= 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if len(self.inertia) != 3 or any(t <= 0.0 for t in self.inertia):
            raise ValueError(
                f"inertia must be three positive diagonal entries, "
                f"got {self.inertia}"
            )


def _mass_block(params, group_model):
    """Constant 6x6 mass matrix of one body in the chosen twist coordinates."""
    m = params.mass
    theta_c = np.diag(params.inertia)
    s = _vec3(params.com_offset, "com_offset")
    out = np.zeros((6, 6))
    if group_model == SEMIDIRECT:
        sh = hat(s)
        out[:3, :3] = theta_c - m * (sh @ sh)
        out[:3, 3:] = m * sh
        out[3:, :3] = -m * sh
        out[3:, 3:] = m * np.eye(3)
    else:
        out[:3, :3] = theta_c
        out[3:, 3:] = m * np.eye(3)
    return out


class SphericalJointSystem:
    """Rigid bodies under one group model, coupled by spherical joints.

    Each joint is ``(body_a, point_a, body_b, point_b)``: the body-frame
    point point_a of body body_a coincides with point_b of body body_b, or,
    when body_b is None, with the world point point_b. A joint contributes
    three constraint rows ``(r_a + R_a p_a) - (r_b + R_b p_b)``. Methods
    read each body's pose through ``alpha_map``, which the coordinates cache,
    so every method evaluated at the same coordinates shares one R per body.
    """

    def __init__(self, bodies, joints, group_model):
        if group_model not in GROUP_MODELS:
            raise ValueError(f"unknown group model {group_model!r}")
        self.group_model = group_model
        self.bodies = tuple(bodies)
        self.n_bodies = len(self.bodies)
        for i, params in enumerate(self.bodies):
            s = _vec3(params.com_offset, "com_offset")
            if group_model == DIRECT_PRODUCT and float(s @ s) > 0.0:
                raise ValueError(
                    f"body {i}: the direct-product (mixed-twist) model needs "
                    "the body frame at the center of mass; move the frame or "
                    "use the semidirect model"
                )
        self.joints = tuple(joints)
        self.n_constraints = 3 * len(self.joints)
        # Skew matrices of the body-frame joint points, for the Jacobian.
        self._joint_hats = [
            (hat(p_a), None if b is None else hat(p_b))
            for _, p_a, b, p_b in self.joints
        ]
        blocks = [_mass_block(p, group_model) for p in self.bodies]
        n = 6 * self.n_bodies
        # The mass matrix is constant and block diagonal: invert it once,
        # block by block, for every later solve.
        self.mass_matrix = np.zeros((n, n))
        self.mass_inverse = np.zeros((n, n))
        for i, block in enumerate(blocks):
            sl = slice(6 * i, 6 * i + 6)
            self.mass_matrix[sl, sl] = block
            self.mass_inverse[sl, sl] = np.linalg.inv(block)
        self._mass_blocks = blocks
        self._gravity = [np.asarray(p.gravity, dtype=float) for p in self.bodies]
        self._com = [np.asarray(p.com_offset, dtype=float) for p in self.bodies]

    def forces(self, qs, v, t):
        """Gyroscopic bias plus gravity, stacked over bodies."""
        out = np.empty(6 * self.n_bodies)
        for i, params in enumerate(self.bodies):
            sl = slice(6 * i, 6 * i + 6)
            vi = v[sl]
            omega = vi[:3]
            mu = self._mass_blocks[i] @ vi
            g = self._gravity[i]
            m = params.mass
            if self.group_model == SEMIDIRECT:
                rot, _ = alpha_map(qs[i])
                g_body = rot.T @ g
                s = self._com[i]
                out[6 * i : 6 * i + 3] = (
                    cross3(mu[:3], omega)
                    + cross3(mu[3:], vi[3:])
                    + m * cross3(s, g_body)
                )
                out[6 * i + 3 : 6 * i + 6] = cross3(mu[3:], omega) + m * g_body
            else:
                out[6 * i : 6 * i + 3] = cross3(mu[:3], omega)
                out[6 * i + 3 : 6 * i + 6] = m * g
        return out

    def constraints(self, qs):
        poses = [alpha_map(q) for q in qs]
        out = np.empty(self.n_constraints)
        for j, (a, p_a, b, p_b) in enumerate(self.joints):
            rot_a, r_a = poses[a]
            if b is not None:
                rot_b, r_b = poses[b]
                p_b = r_b + rot_b @ p_b
            out[3 * j : 3 * j + 3] = (r_a + rot_a @ p_a) - p_b
        return out

    def _point_rows(self, rot, point_hat):
        """Jacobian block of d/dt (r + R point) w.r.t. one body's twist."""
        rows = np.empty((3, 6))
        rows[:, :3] = -rot @ point_hat
        rows[:, 3:] = rot if self.group_model == SEMIDIRECT else _EYE3
        return rows

    def jacobian(self, qs):
        rots = [alpha_map(q)[0] for q in qs]
        out = np.zeros((self.n_constraints, 6 * self.n_bodies))
        for j, (a, _, b, _) in enumerate(self.joints):
            hat_a, hat_b = self._joint_hats[j]
            out[3 * j : 3 * j + 3, 6 * a : 6 * a + 6] = self._point_rows(rots[a], hat_a)
            if b is not None:
                out[3 * j : 3 * j + 3, 6 * b : 6 * b + 6] = -self._point_rows(
                    rots[b], hat_b
                )
        return out

    def _point_curvature(self, rot, point, vi):
        """(d/dt of the point-velocity rows) acting on the body's twist."""
        omega = vi[:3]
        swing = cross3(omega, point)
        if self.group_model == SEMIDIRECT:
            return rot @ cross3(omega, vi[3:] + swing)
        return rot @ cross3(omega, swing)

    def adotv(self, qs, v):
        rots = [alpha_map(q)[0] for q in qs]
        out = np.empty(self.n_constraints)
        for j, (a, p_a, b, p_b) in enumerate(self.joints):
            out[3 * j : 3 * j + 3] = self._point_curvature(
                rots[a], p_a, v[6 * a : 6 * a + 6]
            )
            if b is not None:
                out[3 * j : 3 * j + 3] -= self._point_curvature(
                    rots[b], p_b, v[6 * b : 6 * b + 6]
                )
        return out

    def energy(self, qs, v):
        """Kinetic plus gravitational potential energy."""
        v = np.asarray(v, dtype=float)
        total = 0.5 * float(v @ (self.mass_matrix @ v))
        for i, params in enumerate(self.bodies):
            rot, r = alpha_map(qs[i])
            com = r + rot @ self._com[i]
            total -= params.mass * float(self._gravity[i] @ com)
        return total

    def angular_momentum(self, qs, v):
        """Spatial angular momentum about the world origin."""
        total = np.zeros(3)
        for i, params in enumerate(self.bodies):
            rot, r = alpha_map(qs[i])
            vi = v[6 * i : 6 * i + 6]
            omega = vi[:3]
            rdot = rot @ vi[3:] if self.group_model == SEMIDIRECT else vi[3:]
            s = self._com[i]
            com = r + rot @ s
            com_dot = rdot + rot @ cross3(omega, s)
            total += rot @ (np.diag(params.inertia) @ omega) + params.mass * cross3(
                com, com_dot
            )
        return total


def free_rigid_body(params, group_model=SEMIDIRECT):
    """Unconstrained rigid body with the frame at the center of mass."""
    s = _vec3(params.com_offset, "com_offset")
    if float(s @ s) > 0.0:
        raise ValueError(
            "free_rigid_body expects the body frame at the center of mass"
        )
    return SphericalJointSystem([params], [], group_model)


def pinned_body(
    params, pin_point_body, anchor_world=(0.0, 0.0, 0.0), group_model=SEMIDIRECT
):
    """Rigid body with the body point pin_point_body welded to anchor_world
    through a spherical joint (three constraint equations)."""
    joint = (
        0,
        _vec3(pin_point_body, "pin_point_body"),
        None,
        _vec3(anchor_world, "anchor_world"),
    )
    return SphericalJointSystem([params], [joint], group_model)


def two_body_chain(
    params1,
    params2,
    joint_points,
    anchor_world=(0.0, 0.0, 0.0),
    group_model=SEMIDIRECT,
):
    """Two bodies in a chain: ground to body 1, body 1 to body 2.

    joint_points is a triple (ground pin on body 1, chain joint on body 1,
    chain joint on body 2), all in body frames.
    """
    p_ground, p_joint1, p_joint2 = (
        _vec3(p, f"joint_points[{i}]") for i, p in enumerate(joint_points)
    )
    joints = [
        (0, p_ground, None, _vec3(anchor_world, "anchor_world")),
        (0, p_joint1, 1, p_joint2),
    ]
    return SphericalJointSystem([params1, params2], joints, group_model)
