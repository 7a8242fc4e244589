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

:class:`BodyParams` checks a body once and stores its fields as Python
floats; the model reads them as they stand and keeps no second copy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _PIVOT_LIMIT, _RCOND_LIMIT, _eigh_rcond
from .lgt import COMBOS, alpha_map
from .motiongroups import DIRECT_PRODUCT, GROUP_MODELS, SEMIDIRECT, transform_point
from .rotmaps import _floats, cross3, hat


def _vec3(value, name):
    """value as a tuple of three finite Python floats."""
    out = np.asarray(value, dtype=float)
    if out.shape != (3,) or not np.isfinite(out).all():
        raise ValueError(f"{name} must be three finite numbers, got {value!r}")
    return tuple(out.tolist())


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


def _point_velocity(rot, p, vi, semidirect):
    """The world velocity of body point p as three floats: R d with
    d = v + omega x p for body-fixed twists, rdot + R d with d = omega x p
    for mixed ones; vi = (omega, v)."""
    w0, w1, w2, u0, u1, u2 = vi
    p0, p1, p2 = p
    d0 = w1 * p2 - w2 * p1
    d1 = w2 * p0 - w0 * p2
    d2 = w0 * p1 - w1 * p0
    if semidirect:
        d0, d1, d2 = u0 + d0, u1 + d1, u2 + d2
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = rot
    x0 = r00 * d0 + r01 * d1 + r02 * d2
    x1 = r10 * d0 + r11 * d1 + r12 * d2
    x2 = r20 * d0 + r21 * d1 + r22 * d2
    if semidirect:
        return x0, x1, x2
    return u0 + x0, u1 + x1, u2 + x2


def _joint_frame_factor(gram):
    """(rcond, k_inv) of a joint-frame gram K: one eigh V diag(w) V^T gives
    its reciprocal condition, and k_inv holds the rows of
    K^-1 = V diag(1/w) V^T as tuples of floats when rcond passes the gate
    of 1e-12 and is None otherwise, so a singular K divides by nothing and
    its solve raises."""
    w, v, rcond = _eigh_rcond(gram)
    k_inv = None
    if rcond >= _RCOND_LIMIT:
        k_inv = tuple(map(tuple, ((v / w) @ v.T).tolist()))
    return rcond, k_inv


@dataclass(frozen=True)
class BodyParams:
    """Inertial parameters of one rigid body.

    inertia is the diagonal of the rotational inertia about the center of
    mass, in the body frame; com_offset is the body-frame vector from the
    body frame origin to the center of mass. Construction is the one check
    of a body: mass must be finite and positive, inertia, com_offset and
    gravity three finite numbers each, inertia's entries positive, and the
    mass and inertia entries with finite reciprocals, which the mass
    inverse applies. Every field is stored as Python floats whatever the
    caller passes, so a numpy scalar cannot reach the float kernels of a
    step through them.
    """

    mass: float
    inertia: tuple
    com_offset: tuple = (0.0, 0.0, 0.0)
    gravity: tuple = (0.0, 0.0, -9.81)

    def __post_init__(self):
        mass = float(self.mass)
        if not (math.isfinite(mass) and mass > 0.0):
            raise ValueError(f"mass must be finite and positive, got {self.mass}")
        inertia = _vec3(self.inertia, "inertia")
        if any(t <= 0.0 for t in inertia):
            raise ValueError(
                f"inertia must be three positive diagonal entries, got {inertia}"
            )
        # A subnormal value passes the checks above, but 1 / it overflows.
        if not math.isfinite(1.0 / mass):
            raise ValueError(f"mass must have a finite reciprocal, got {mass}")
        if not all(math.isfinite(1.0 / t) for t in inertia):
            raise ValueError(
                f"inertia entries must have finite reciprocals, got {inertia}"
            )
        object.__setattr__(self, "mass", mass)
        object.__setattr__(self, "inertia", inertia)
        for name in ("com_offset", "gravity"):
            object.__setattr__(self, name, _vec3(getattr(self, name), name))


def _mass_block(params, group_model):
    """Constant 6x6 mass matrix of one body in the chosen twist coordinates."""
    m = params.mass
    theta_c = np.diag(params.inertia)
    out = np.zeros((6, 6))
    if group_model == SEMIDIRECT:
        sh = hat(params.com_offset)
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
    ``forces`` is a closed-form float expression per body and returns a list
    of floats, the form a step works in, and ``apply_mass_inverse`` solves
    with the mass matrix body by body in floats. The joint kernels
    ``constraints``, ``jacobian`` and ``adotv``, which feed the constrained
    solve in numpy, are closed-form float expressions per joint over R's
    nine entries, and build each output with one array conversion.
    ``point_velocities`` gives A V in the same floats, for the residuals.
    ``ground_schur`` and ``ground_grams`` are the constant joint-frame
    factors of the Schur complement and of the projection grams (one per
    chart scale), built once by ``_joint_frame_factors``. A system gets
    both when every joint holds a body to the ground, or when one joint,
    the link, joins two bodies, the second of which no other joint holds,
    and the others each hold a body to the ground (``two_body_chain``); a
    stage and a projection then solve with no Jacobian, curvature kernel or
    eigendecomposition. Any other system gets None for both and takes the
    dense paths.
    """

    def __init__(self, bodies, joints, group_model):
        if group_model not in GROUP_MODELS:
            raise ValueError(f"unknown group model {group_model!r}")
        self.group_model = group_model
        self.bodies = tuple(bodies)
        self.n_bodies = len(self.bodies)
        for i, params in enumerate(self.bodies):
            if group_model == DIRECT_PRODUCT and any(params.com_offset):
                raise ValueError(
                    f"body {i}: the direct-product (mixed-twist) model needs "
                    "the body frame at the center of mass; move the frame or "
                    "use the semidirect model"
                )
        joints = tuple(joints)
        self.n_constraints = 3 * len(joints)
        n = 6 * self.n_bodies
        # The joint points as float triples, and per Jacobian block its flat
        # offset, the body, the signed point and the sign (-1 for body b).
        # The e_i entries of mixed twists are constant, set here once.
        self._joint_points = []
        self._jacobian_blocks = []
        start = [0.0] * (self.n_constraints * n)
        for j, (a, p_a, b, p_b) in enumerate(joints):
            ends = (a,) if b is None else (a, b)
            if a == b or not all(
                type(k) is int and 0 <= k < self.n_bodies for k in ends
            ):
                raise ValueError(
                    f"joint {j}: bodies {a!r} and {b!r} must be distinct body "
                    f"indices 0..{self.n_bodies - 1} (None for the ground)"
                )
            p_a, p_b = (_vec3(p, f"joint {j} point") for p in (p_a, p_b))
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
        # The mass matrix is constant and block diagonal: the dense forms
        # serve the constrained solve, apply_mass_inverse the reciprocals.
        self.mass_matrix = np.zeros((n, n))
        self.mass_inverse = np.zeros((n, n))
        for i, params in enumerate(self.bodies):
            sl = slice(6 * i, 6 * i + 6)
            block = _mass_block(params, group_model)
            try:
                inverse = np.linalg.inv(block)
            except np.linalg.LinAlgError:
                inverse = None
            if inverse is None or not np.isfinite(inverse).all():
                raise ValueError(
                    f"body {i}: the mass matrix is singular in floating point "
                    "or its inverse is not finite; check its mass, inertia "
                    "and com_offset"
                )
            self.mass_matrix[sl, sl] = block
            self.mass_inverse[sl, sl] = inverse
        self._reciprocals = [
            (1.0 / p.mass, *(1.0 / t for t in p.inertia)) for p in self.bodies
        ]
        self._weights = [tuple(p.mass * g for g in p.gravity) for p in self.bodies]
        # The Schur complement's factor (W = M^-1) and, for a system that
        # has it, one per projection gram: W = diag(1/c^2) for each combo's
        # chart scale c, c = 1 being the velocity stage's A A^T.
        self.ground_schur = self._joint_frame_factors(self.mass_inverse, self.mass_matrix)
        self.ground_grams = None
        if self.ground_schur is not None:
            self.ground_grams = {}
            for scale in {cmb.chart_scale for cmb in COMBOS.values()}:
                d = np.tile(scale, self.n_bodies)
                self.ground_grams[scale] = self._joint_frame_factors(
                    np.diag(d**-2.0), np.diag(d**2.0)
                )

    def _joint_frame_factors(self, weight, inverse):
        """The constant factor, in joint frames, of the gram A W A^T for the
        weight W (weight, and inverse its inverse W^-1), or None for a
        system that has none.

        Joint j at body point p of body a has the Jacobian R_a [-hat(p), I]
        in body-fixed twists and [-R_a hat(p), I] in mixed ones at its a
        end, so for a weight W whose translational blocks are multiples of
        I (M^-1 in mixed twists, where they are I / m, and any
        W = diag(1/c^2) of a combo's chart scale c) the a ends give
        A W A^T = F K F^T with F = blockdiag(R_a per joint) and K
        constant: its (j, k) block is [-hat(p_j), I] W_a [-hat(p_k), I]^T
        when both joints hold body a (W_a its block of W), and zero
        otherwise. The factor is (ends, rcond, k_inv, link): ends holds per
        joint end (6 k, p), the offset of its body k's twist and its point
        p as floats, every joint's a end and then the link's b end, and
        rcond and k_inv are the :func:`_joint_frame_factor` of K over the a
        ends of every joint but the link. When every joint holds a body to
        the ground, link is None.

        When one joint i, the link, joins body a to a body b that no other
        joint holds, and one or more others each hold a body to the
        ground, the gram in joint frames is K + blockdiag(0, Q G Q^T) with
        K over every joint's a end, Q = R_a^T R_b of joint i and
        G = [-hat(p_b), I] W_b [-hat(p_b), I]^T the constant of its b end,
        p_b its point on b. With c the other joints, eliminating them
        leaves the one 3x3 pivot T = T0 + Q G Q^T, T0 = K_ii - L K_ci,
        L = K_ic K_cc^-1. The factor is None when K_cc fails its gate (then
        A W A^T, which holds that block, fails too, and the dense solve
        raises). link = (i, l_rows, l_cols, t0, g, gate) holds the rows
        of L and of L^T, T0's upper triangle (t00, t01, t02, t11,
        t12, t22) and G's rows as floats. gate = (k_min, tr, scale, floor)
        bounds the reciprocal condition of A W A^T from below, by
        Ostrowski's theorem on [[I, 0], [L, I]] blockdiag(K_cc, T)
        [[I, 0], [L, I]]^T, as min(k_min, 4 det T / tr^2) / scale: k_min
        is K_cc's least eigenvalue, tr = tr T0 + tr G the trace of every
        T, and scale = max(K_cc's largest eigenvalue, tr) kappa^2, kappa
        the condition number of [[I, 0], [L, I]]. 4 det T / tr^2 and tr
        bound T's least and largest eigenvalues. A solve runs in joint
        frames when its bound reaches floor: 1e-10, a hundred times the
        dense gate, plus a bound on how far the rounding of the float W
        (its first-order error W (I - W^-1 W)) and of forming A W A^T can
        move the ratio the dense eigh reads, so that a solve made there is
        one eigh passes. For M^-1 of bodies whose mass blocks are well
        conditioned that term is near 1e-15; for a block near singular in
        floats it lifts the floor above every bound, and the solves take
        the dense path.

        Any other system (no joint, two or more links, a link alone or one
        whose body b another joint holds) has no factor. The products run
        with numpy's overflow and invalid-value warnings off: a gram that
        overflows is not finite, and its gate rejects it."""
        points = self._joint_points
        links = [j for j, (_, _, b, _) in enumerate(points) if b is not None]
        if not points or len(links) > 1 or len(links) == len(points):
            return None
        if links and any(a == points[links[0]][2] for a, _, _, _ in points):
            return None
        # The rows [-hat(p)  I] at the twist of body a of each joint end
        # (a, p): every joint's a end, then the link's b end.
        ends = [(a, p) for a, p, _, _ in points] + [points[i][2:] for i in links]
        offsets = tuple((6 * a, p) for a, p in ends)
        rows = np.zeros((3 * len(ends), 6 * self.n_bodies))
        for j, (a, p) in enumerate(ends):
            rows[3 * j : 3 * j + 3, 6 * a : 6 * a + 6] = np.hstack([-hat(p), np.eye(3)])
        m = 3 * len(points)
        c = [j for j in range(m) if j // 3 not in links]
        with np.errstate(over="ignore", invalid="ignore"):
            gram = rows @ weight @ rows.T
            k_cc = gram[np.ix_(c, c)]
            rcond, k_inv = _joint_frame_factor(k_cc)
            if not links:
                return offsets, rcond, k_inv, None
            if k_inv is None:
                return None
            (i,) = links
            v = slice(3 * i, 3 * i + 3)
            k_cv = gram[c, v]
            l_rows = k_cv.T @ np.array(k_inv)
            t0 = gram[v, v] - l_rows @ k_cv
            g = gram[m:, m:]
            w = np.linalg.eigvalsh(k_cc)
            unit_lower = np.eye(len(c) + 3)
            unit_lower[len(c) :, : len(c)] = l_rows
            tr = float(np.trace(t0) + np.trace(g))
            scale = max(float(w[-1]), tr) * float(np.linalg.cond(unit_lower)) ** 2
            # How far the float W, off by about W (I - W^-1 W), and the
            # rounding of A W A^T can move the ratio the dense eigh reads,
            # relative to its w_max: |A| is at most |rows| under 3x3 blocks
            # of ones, and w_max at least the mean eigenvalue
            # tr(K + G) / (3c + 3).
            n = 6 * self.n_bodies
            err = np.abs(weight @ (np.eye(n) - inverse @ weight))
            err += n * np.finfo(float).eps * np.abs(weight)
            abs_rows = np.abs(rows)
            spread = 18.0 * np.linalg.norm(abs_rows @ err @ abs_rows.T, 2)
            spread *= len(c) + 3
            floor = _PIVOT_LIMIT + float(spread / np.trace(gram))
        link = (
            i,
            tuple(map(tuple, l_rows.tolist())),
            tuple(map(tuple, l_rows.T.tolist())),
            tuple(t0[np.triu_indices(3)].tolist()),
            tuple(map(tuple, g.tolist())),
            (float(w[0]), tr, scale, floor),
        )
        return offsets, rcond, k_inv, link

    def forces(self, qs, v, t):
        """Gyroscopic bias plus gravity, stacked over bodies.

        Per body, in closed form: with the momenta p = m (v - s x omega) and
        h = Theta_c omega + s x p, the body-fixed twist model gives
        (h x omega + p x v + s x m g_body, p x omega + m g_body), where
        g_body = R^T g; the mixed-twist model gives
        ((Theta_c omega) x omega, m g). Only a body-fixed twist body with a
        nonzero weight m g reads its pose, so the forces on a weightless
        body, or on any mixed-twist body, build none. v is a list of floats
        or an array; the result is a list of floats.
        """
        v = _floats(v)
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
            s0, s1, s2 = params.com_offset
            p0 = m * (u0 - (s1 * w2 - s2 * w1))
            p1 = m * (u1 - (s2 * w0 - s0 * w2))
            p2 = m * (u2 - (s0 * w1 - s1 * w0))
            h0 = j0 * w0 + s1 * p2 - s2 * p1
            h1 = j1 * w1 + s2 * p0 - s0 * p2
            h2 = j2 * w2 + s0 * p1 - s1 * p0
            if self._weights[i] == (0.0, 0.0, 0.0):
                g0 = g1 = g2 = 0.0  # m R^T 0: no pose needed
            else:
                (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = (
                    alpha_map(qs[i])[0].tolist()
                )
                e0, e1, e2 = params.gravity
                g0 = m * (e0 * r00 + e1 * r10 + e2 * r20)
                g1 = m * (e0 * r01 + e1 * r11 + e2 * r21)
                g2 = m * (e0 * r02 + e1 * r12 + e2 * r22)
            out += (
                h1 * w2 - h2 * w1 + p1 * u2 - p2 * u1 + s1 * g2 - s2 * g1,
                h2 * w0 - h0 * w2 + p2 * u0 - p0 * u2 + s2 * g0 - s0 * g2,
                h0 * w1 - h1 * w0 + p0 * u1 - p1 * u0 + s0 * g1 - s1 * g0,
                p1 * w2 - p2 * w1 + g0,
                p2 * w0 - p0 * w2 + g1,
                p0 * w1 - p1 * w0 + g2,
            )
        return out

    def apply_mass_inverse(self, q):
        """M^-1 q for a list of 6N floats, body by body in floats: for the
        torque and force (tau, f) of a body, omega_dot = Theta_c^-1 (tau -
        s x f) and v_dot = f / m + s x omega_dot, s its com_offset (zero for
        mixed twists)."""
        out = []
        for i, params in enumerate(self.bodies):
            t0, t1, t2, f0, f1, f2 = q[6 * i : 6 * i + 6]
            s0, s1, s2 = params.com_offset
            inv_m, inv_j0, inv_j1, inv_j2 = self._reciprocals[i]
            w0 = (t0 - (s1 * f2 - s2 * f1)) * inv_j0
            w1 = (t1 - (s2 * f0 - s0 * f2)) * inv_j1
            w2 = (t2 - (s0 * f1 - s1 * f0)) * inv_j2
            out += (
                w0, w1, w2,
                f0 * inv_m + (s1 * w2 - s2 * w1),
                f1 * inv_m + (s2 * w0 - s0 * w2),
                f2 * inv_m + (s0 * w1 - s1 * w0),
            )
        return out

    def constraints(self, qs):
        """Per joint (r_a + R_a p_a) - (r_b + R_b p_b), in floats."""
        poses = [[part.tolist() for part in alpha_map(q)] for q in qs]
        out = []
        for a, p_a, b, p_b in self._joint_points:
            x0, x1, x2 = transform_point(*poses[a], p_a)
            y0, y1, y2 = p_b if b is None else transform_point(*poses[b], p_b)
            out += (x0 - y0, x1 - y1, x2 - y2)
        return np.array(out)

    def point_velocities(self, qs, v):
        """A V per joint: the world velocity of body a's joint point minus
        that of body b, R (v + omega x p) for body-fixed twists and
        rdot + R (omega x p) for mixed ones, as a list of floats; v is a
        list of floats or an array."""
        v = _floats(v)
        rots = [alpha_map(q)[0].tolist() for q in qs]
        semidirect = self.group_model == SEMIDIRECT
        out = []
        for a, p_a, b, p_b in self._joint_points:
            x0, x1, x2 = _point_velocity(
                rots[a], p_a, v[6 * a : 6 * a + 6], semidirect
            )
            if b is not None:
                y0, y1, y2 = _point_velocity(
                    rots[b], p_b, v[6 * b : 6 * b + 6], semidirect
                )
                x0, x1, x2 = x0 - y0, x1 - y1, x2 - y2
            out += (x0, x1, x2)
        return out

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
        mixed ones, in floats; v is a list of floats or an array."""
        v = _floats(v)
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
        """Kinetic plus gravitational potential energy, in closed form per
        body: (omega^T Theta_c omega + m |v + omega x s|^2) / 2 for
        body-fixed twists, (omega^T Theta_c omega + m |rdot|^2) / 2 for mixed
        ones, less m g.(r + R s). Only a body with s != 0 reads its pose. v
        is a list of floats or an array."""
        v = _floats(v)
        semidirect = self.group_model == SEMIDIRECT
        kinetic = potential = 0.0
        for i, params in enumerate(self.bodies):
            w0, w1, w2, u0, u1, u2 = v[6 * i : 6 * i + 6]
            j0, j1, j2 = params.inertia
            s = params.com_offset
            if semidirect:
                s0, s1, s2 = s
                u0 += w1 * s2 - w2 * s1
                u1 += w2 * s0 - w0 * s2
                u2 += w0 * s1 - w1 * s0
            m = params.mass
            kinetic += (
                j0 * w0 * w0 + j1 * w1 * w1 + j2 * w2 * w2
                + m * (u0 * u0 + u1 * u1 + u2 * u2)
            )
            if any(s):
                rot, r = alpha_map(qs[i])
                c0, c1, c2 = transform_point(rot.tolist(), r.tolist(), s)
            else:
                c0, c1, c2 = qs[i].r.tolist()  # r + R 0 exactly: no pose needed
            g0, g1, g2 = params.gravity
            potential += m * (g0 * c0 + g1 * c1 + g2 * c2)
        return 0.5 * kinetic - potential

    def angular_momentum(self, qs, v):
        """Spatial angular momentum about the world origin."""
        total = np.zeros(3)
        for i, params in enumerate(self.bodies):
            rot, r = alpha_map(qs[i])
            vi = v[6 * i : 6 * i + 6]
            omega = vi[:3]
            rdot = rot @ vi[3:] if self.group_model == SEMIDIRECT else vi[3:]
            s = params.com_offset
            com = r + rot @ s
            com_dot = rdot + rot @ cross3(omega, s)
            total += rot @ (np.diag(params.inertia) @ omega) + params.mass * cross3(
                com, com_dot
            )
        return total


def free_rigid_body(params, group_model=SEMIDIRECT):
    """Unconstrained rigid body with the frame at the center of mass."""
    if any(params.com_offset):
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
