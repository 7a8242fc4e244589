"""Seeded scenario generators and the pose arithmetic the output checks need.

Everything here is the benchmark's own code: it writes scenario JSON in the
schema `liembs.cli.load_scenario` reads, so the library receives nothing but
generated files. The rotation formulas are written out again so that a check
never trusts the code it checks.
"""

import json
import math

import numpy as np

H_S = 1.0e-3
COMBO_IDS = ("1a", "1b", "1c", "1d", "2a", "2b", "2c", "2d")
BASELINE = "BaselineQuatRK4"

# |omega| of the shipped free_tumble scenario, (0.5, 4.0, 0.3) rad/s.
TUMBLE_SPIN_RADPS = math.sqrt(0.5**2 + 4.0**2 + 0.3**2)

# Bodies and joints of the shipped chain_swing scenario.
CHAIN_BODIES = (
    {"mass_kg": 1.0, "inertia_kgm2": [0.1, 0.1, 0.02]},
    {"mass_kg": 0.5, "inertia_kgm2": [0.05, 0.05, 0.01]},
)
CHAIN_JOINTS = ((0.0, 0.0, 0.3), (0.0, 0.0, -0.3), (0.0, 0.0, 0.25))

# The shipped pinned pendulum (2 kg, CoM 0.5 m below the pin), with the body
# frame moved to the centre of mass so that all eight combos accept it.
PENDULUM_BODY = {"mass_kg": 2.0, "inertia_kgm2": [0.12, 0.1, 0.06]}
PENDULUM_PIN = (0.0, 0.0, 0.5)

_PROJECTION = {
    "projection": "position+velocity",
    "projection_tol": 1e-12,
    "projection_max_iter": 10,
}


def rotmat_from_quat(q):
    w, x, y, z = q
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def rotmat_from_rotvec(rho):
    phi = math.sqrt(float(rho @ rho))
    k = np.array(
        [[0.0, -rho[2], rho[1]], [rho[2], 0.0, -rho[0]], [-rho[1], rho[0], 0.0]]
    )
    if phi < 1e-8:
        return np.eye(3) + k + 0.5 * (k @ k)
    return (
        np.eye(3)
        + (math.sin(phi) / phi) * k
        + ((1.0 - math.cos(phi)) / phi**2) * (k @ k)
    )


def pose(coords):
    """(R, r) of one body's absolute coordinates, whatever their storage."""
    rot = np.asarray(coords.rot, dtype=float)
    if rot.size == 4:
        return rotmat_from_quat(rot), np.asarray(coords.r, dtype=float)
    return rotmat_from_rotvec(rot), np.asarray(coords.r, dtype=float)


def pose_discrepancy(qs_a, qs_b):
    worst = 0.0
    for a, b in zip(qs_a, qs_b):
        (ra, pa), (rb, pb) = pose(a), pose(b)
        worst = max(worst, float(np.max(np.abs(ra - rb))), float(np.max(np.abs(pa - pb))))
    return worst


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _quat(axis, angle):
    return np.concatenate([[math.cos(0.5 * angle)], math.sin(0.5 * angle) * axis])


def _integrator(label, scheme, steps, projection):
    block = {"h_s": H_S, "t_end_s": steps * H_S}
    if label == BASELINE:
        block["scheme"] = BASELINE
    else:
        block.update(scheme=scheme, combo=label)
    if projection:
        block.update(_PROJECTION)
    return block


def _body_state(quat, r, omega, rdot):
    return {
        "orientation_quat": [float(x) for x in quat],
        "position_m": [float(x) for x in r],
        "angular_velocity_radps": [float(x) for x in omega],
        "linear_velocity_mps": [float(x) for x in rdot],
    }


def tumble(rng, label, steps):
    """Gravity-free free body; the seed draws orientation and spin axis."""
    quat = _quat(_unit(rng), rng.uniform(0.0, 0.9 * math.pi))
    omega = TUMBLE_SPIN_RADPS * _unit(rng)
    return {
        "model": {
            "kind": "free_rigid_body",
            "group_model": "se3",
            "bodies": [
                {
                    "mass_kg": 1.0,
                    "inertia_kgm2": [1.0, 2.0, 3.0],
                    "gravity_mps2": [0.0, 0.0, 0.0],
                }
            ],
        },
        "initial_state": {"bodies": [_body_state(quat, np.zeros(3), omega, np.zeros(3))]},
        "integrator": _integrator(label, "MuntheKaasRK4", steps, projection=False),
    }


def chain(rng, label, steps):
    """Two-link spherical chain; the seed draws the swing, the joints fix the rest.

    Positions and world-frame velocities are solved from the six joint
    constraints so the state is consistent to rounding.
    """
    p_ground, p_joint1, p_joint2 = (np.array(p) for p in CHAIN_JOINTS)
    quats = [_quat(_unit(rng), rng.uniform(0.0, 0.6)) for _ in range(2)]
    omegas = [rng.uniform(0.2, 1.0) * _unit(rng) for _ in range(2)]
    rot1, rot2 = (rotmat_from_quat(q) for q in quats)
    r1 = -rot1 @ p_ground
    r2 = r1 + rot1 @ p_joint1 - rot2 @ p_joint2
    rdot1 = -rot1 @ np.cross(omegas[0], p_ground)
    rdot2 = rdot1 + rot1 @ np.cross(omegas[0], p_joint1) - rot2 @ np.cross(omegas[1], p_joint2)
    return {
        "model": {
            "kind": "two_body_chain",
            "group_model": "se3",
            "bodies": [dict(b) for b in CHAIN_BODIES],
            "joint_points_m": [list(p) for p in CHAIN_JOINTS],
            "anchor_world_m": [0.0, 0.0, 0.0],
        },
        "initial_state": {
            "bodies": [
                _body_state(quats[0], r1, omegas[0], rdot1),
                _body_state(quats[1], r2, omegas[1], rdot2),
            ]
        },
        "integrator": _integrator(label, "MuntheKaasRK4", steps, projection=True),
    }


def pendulum(rng, label, steps):
    """Pinned pendulum with the frame at the CoM; the seed draws the swing."""
    pin = np.array(PENDULUM_PIN)
    quat = _quat(_unit(rng), rng.uniform(0.0, 0.5))
    omega = rng.uniform(0.0, 1.0) * _unit(rng)
    rot = rotmat_from_quat(quat)
    return {
        "model": {
            "kind": "pinned_body",
            "group_model": "se3",
            "bodies": [dict(PENDULUM_BODY)],
            "pin_point_body_m": list(PENDULUM_PIN),
            "anchor_world_m": [0.0, 0.0, 0.0],
        },
        "initial_state": {
            "bodies": [_body_state(quat, -rot @ pin, omega, -rot @ np.cross(omega, pin))]
        },
        "integrator": _integrator(label, "LocalVectorRK4", steps, projection=True),
    }


FAMILIES = {"tumble": tumble, "chain": chain, "pendulum": pendulum}


def write(path, scenario):
    path.write_text(json.dumps(scenario))
    return path
