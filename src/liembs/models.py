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


def _vec3(value, name):
    out = np.asarray(value, dtype=float)
    if out.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {out.shape}")
    return out


def _point(rot, r, p):
    """r + R p as three floats, R given as three rows of floats."""
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot
    p0, p1, p2 = p
    return (
        r[0] + (r00 * p0 + r01 * p1 + r02 * p2),
        r[1] + (r10 * p0 + r11 * p1 + r12 * p2),
        r[2] + (r20 * p0 + r21 * p1 + r22 * p2),
    )


def _curvature(rot, p, vi, semidirect):
    """R (omega x d) as three floats, with d = v + omega x p for body-fixed
    twists and d = omega x p for mixed ones; vi = (omega, v)."""
    w0, w1, w2, u0, u1, u2 = vi
    p0, p1, p2 = p
    d0 = w1 * p2 - w2 * p1
    d1 = w2 * p0 - w0 * p2
    d2 = w0 * p1 - w1 * p0
    if semidirect:
        d0, d1, d2 = u0 + d0, u1 + d1, u2 + d2
    c0 = w1 * d2 - w2 * d1
    c1 = w2 * d0 - w0 * d2
    c2 = w0 * d1 - w1 * d0
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot
    return (
        r00 * c0 + r01 * c1 + r02 * c2,
        r10 * c0 + r11 * c1 + r12 * c2,
        r20 * c0 + r21 * c1 + r22 * c2,
    )


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
    Like ``forces``, the joint kernels ``constraints``, ``jacobian`` and
    ``adotv`` are closed-form float expressions per joint over R's nine
    entries, and build each output with one array conversion.
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
        n = 6 * self.n_bodies
        # The joint points as float triples, and per Jacobian block its flat
        # offset, the body, the signed point and the sign (-1 for body b).
        # The e_i entries of mixed twists are constant, set here once.
        self._joint_points = []
        self._jacobian_blocks = []
        start = [0.0] * (self.n_constraints * n)
        for j, (a, p_a, b, p_b) in enumerate(self.joints):
            p_a, p_b = (
                tuple(_vec3(p, f"joint {j} point").tolist()) for p in (p_a, p_b)
            )
            self._joint_points.append((a, p_a, b, p_b))
            for body, p, sign in ((a, p_a, 1.0), (b, p_b, -1.0)):
                if body is None:
                    continue
                k = 3 * j * n + 6 * body
                signed = tuple(sign * x for x in p)
                self._jacobian_blocks.append((k, body, signed, sign))
                if group_model == DIRECT_PRODUCT:
                    for i in range(3):
                        start[k + i * n + 3 + i] = sign
        self._jacobian_start = start
        blocks = [_mass_block(p, group_model) for p in self.bodies]
        # The mass matrix is constant and block diagonal: invert it once,
        # block by block, for every later solve.
        self.mass_matrix = np.zeros((n, n))
        self.mass_inverse = np.zeros((n, n))
        for i, block in enumerate(blocks):
            sl = slice(6 * i, 6 * i + 6)
            self.mass_matrix[sl, sl] = block
            self.mass_inverse[sl, sl] = np.linalg.inv(block)
        self._gravity = [np.asarray(p.gravity, dtype=float) for p in self.bodies]
        self._com = [np.asarray(p.com_offset, dtype=float) for p in self.bodies]
        self._com_offsets = [tuple(s.tolist()) for s in self._com]
        self._weights = [
            tuple((p.mass * g).tolist()) for p, g in zip(self.bodies, self._gravity)
        ]

    def forces(self, qs, v, t):
        """Gyroscopic bias plus gravity, stacked over bodies.

        Per body, in closed form: with the momenta p = m (v - s x omega) and
        h = Theta_c omega + s x p, the body-fixed twist model gives
        (h x omega + p x v + s x m g_body, p x omega + m g_body), where
        g_body = R^T g; the mixed-twist model gives
        ((Theta_c omega) x omega, m g).
        """
        v = np.asarray(v, dtype=float).tolist()
        semidirect = self.group_model == SEMIDIRECT
        out = []
        for i, params in enumerate(self.bodies):
            w0, w1, w2, u0, u1, u2 = v[6 * i : 6 * i + 6]
            m = params.mass
            j0, j1, j2 = params.inertia
            if not semidirect:
                out += (
                    (j1 - j2) * w1 * w2,
                    (j2 - j0) * w2 * w0,
                    (j0 - j1) * w0 * w1,
                    *self._weights[i],
                )
                continue
            s0, s1, s2 = self._com_offsets[i]
            p0 = m * (u0 - (s1 * w2 - s2 * w1))
            p1 = m * (u1 - (s2 * w0 - s0 * w2))
            p2 = m * (u2 - (s0 * w1 - s1 * w0))
            h0 = j0 * w0 + s1 * p2 - s2 * p1
            h1 = j1 * w1 + s2 * p0 - s0 * p2
            h2 = j2 * w2 + s0 * p1 - s1 * p0
            rot, _ = alpha_map(qs[i])
            g0, g1, g2 = (self._gravity[i] @ rot).tolist()
            g0, g1, g2 = m * g0, m * g1, m * g2
            out += (
                h1 * w2 - h2 * w1 + p1 * u2 - p2 * u1 + s1 * g2 - s2 * g1,
                h2 * w0 - h0 * w2 + p2 * u0 - p0 * u2 + s2 * g0 - s0 * g2,
                h0 * w1 - h1 * w0 + p0 * u1 - p1 * u0 + s0 * g1 - s1 * g0,
                p1 * w2 - p2 * w1 + g0,
                p2 * w0 - p0 * w2 + g1,
                p0 * w1 - p1 * w0 + g2,
            )
        return np.array(out)

    def constraints(self, qs):
        """Per joint (r_a + R_a p_a) - (r_b + R_b p_b), in floats."""
        poses = [[part.tolist() for part in alpha_map(q)] for q in qs]
        out = []
        for a, p_a, b, p_b in self._joint_points:
            x0, x1, x2 = _point(*poses[a], p_a)
            y0, y1, y2 = p_b if b is None else _point(*poses[b], p_b)
            out += (x0 - y0, x1 - y1, x2 - y2)
        return np.array(out)

    def jacobian(self, qs):
        """Per joint the rows of body a's point velocity in its twist, minus
        those of body b: row i is (p x R_i, R_i) for body-fixed twists and
        (p x R_i, e_i) for mixed ones, R_i the i-th row of R; p x R_i is
        row i of -R hat(p). Filled into one float list; the e_i entries are
        constant and sit in the list it starts from."""
        rots = [alpha_map(q)[0].tolist() for q in qs]
        n = 6 * self.n_bodies
        out = list(self._jacobian_start)
        semidirect = self.group_model == SEMIDIRECT
        for k, body, (p0, p1, p2), s in self._jacobian_blocks:
            for c0, c1, c2 in rots[body]:
                if semidirect:
                    out[k : k + 6] = (
                        p1 * c2 - p2 * c1, p2 * c0 - p0 * c2, p0 * c1 - p1 * c0,
                        s * c0, s * c1, s * c2,
                    )
                else:
                    out[k : k + 3] = (
                        p1 * c2 - p2 * c1, p2 * c0 - p0 * c2, p0 * c1 - p1 * c0
                    )
                k += n
        return np.fromiter(out, float, len(out)).reshape(self.n_constraints, n)

    def adotv(self, qs, v):
        """(d/dt A) V per joint: R (omega x (v + omega x p)) of body a minus
        that of body b for body-fixed twists, R (omega x (omega x p)) for
        mixed ones, in floats."""
        v = np.asarray(v, dtype=float).tolist()
        rots = [alpha_map(q)[0].tolist() for q in qs]
        semidirect = self.group_model == SEMIDIRECT
        out = []
        for a, p_a, b, p_b in self._joint_points:
            x0, x1, x2 = _curvature(rots[a], p_a, v[6 * a : 6 * a + 6], semidirect)
            if b is not None:
                y0, y1, y2 = _curvature(
                    rots[b], p_b, v[6 * b : 6 * b + 6], semidirect
                )
                x0, x1, x2 = x0 - y0, x1 - y1, x2 - y2
            out += (x0, x1, x2)
        return np.array(out)

    def energy(self, qs, v):
        """Kinetic plus gravitational potential energy."""
        v = np.asarray(v, dtype=float)
        total = 0.5 * float(v @ (self.mass_matrix @ v))
        for i, params in enumerate(self.bodies):
            if self._com_offsets[i] == (0.0, 0.0, 0.0):
                com = qs[i].r  # r + R 0 exactly: no pose needed
            else:
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
            "body 0: free_rigid_body expects the body frame at the center "
            "of mass"
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
