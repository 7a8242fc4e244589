"""Scenario runner: parse a JSON scenario, integrate, write CSV tables.

Subcommands:

* ``run <file>`` — integrate one scenario, write the trajectory CSV, print
  a summary (final constraint residual, energy drift, quaternion drift);
* ``convergence <file> --h <list>`` — rerun the scenario over a list of
  step sizes against a reference at min(h)/10 and report the global error
  per h together with the fitted log-log slope and its R²;
* ``compare <file>`` — run the same physical problem under all eight
  coordinate combinations plus the renormalized quaternion baseline and
  report pairwise final-pose discrepancies and quaternion norm drift.

Flags: ``--out <path>`` redirects the CSV, ``--quiet`` suppresses the
stdout summary. Exit codes: 0 success, 2 malformed scenario (the message
names the offending field), 3 inconsistent initial state, 4 integration
failure (the message carries the step index).

Scenario files are JSON with units spelled in the field names::

    {
      "model": {
        "kind": "free_rigid_body",          # pinned_body, two_body_chain
        "group_model": "se3",               # or "so3xr3"
        "bodies": [
          {"mass_kg": 1.0, "inertia_kgm2": [1.0, 2.0, 3.0],
           "com_offset_m": [0.0, 0.0, 0.0],           # optional
           "gravity_mps2": [0.0, 0.0, -9.81]}          # optional
        ],
        "pin_point_body_m": [0.0, 0.0, 0.5],   # pinned_body only
        "joint_points_m": [[...], [...], [...]],  # two_body_chain only
        "anchor_world_m": [0.0, 0.0, 0.0]      # constrained models, optional
      },
      "initial_state": {
        "bodies": [
          {"orientation_quat": [1.0, 0.0, 0.0, 0.0],   # or
           "orientation_axisangle_rad": [0.0, 0.0, 0.0],
           "position_m": [0.0, 0.0, 0.0],
           "angular_velocity_radps": [0.0, 0.0, 0.0],  # body frame
           "linear_velocity_mps": [0.0, 0.0, 0.0]}     # world frame, rdot
        ]
      },
      "integrator": {
        "scheme": "MuntheKaasRK4",   # LocalVectorRK4, BaselineQuatRK4
        "combo": "1a",               # 1a..2d; unused by the baseline
        "h_s": 1e-3,
        "t_end_s": 1.0,
        "projection": "off",                 # or "position+velocity"
        "projection_tol": 1e-10,             # optional
        "projection_max_iter": 20            # optional
      },
      "output_csv": "trajectory.csv"   # optional; --out overrides
    }

Orientations are accepted in either representation and converted to what
the selected combination transports; velocities are given physically
(body-frame angular rate, world-frame origin velocity) and converted to
the group model's twist convention.
"""

import argparse
import csv
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .dynamics import make_state
from .errors import InconsistentState, StepFailed
from .integrate import (
    BASELINE_QUAT_RK4,
    MUNTHE_KAAS_RK4,
    PROJECTION_OFF,
    IntegratorConfig,
    integrate,
)
from .lgt import (
    AXIS_ANGLE_POS,
    COMBO_IDS,
    QUAT_POS,
    alpha_map,
    axis_angle_pos,
    combo,
    quat_pos,
)
from .models import BodyParams, free_rigid_body, pinned_body, two_body_chain
from .motiongroups import DIRECT_PRODUCT, GROUP_MODELS, SEMIDIRECT
from .rotmaps import exp_sp1, log_so3, quat_to_rotmat

_BASELINE_LABEL = "baseline"


class SchemaError(ValueError):
    """A scenario file violates the schema; the message names the field."""


# ----------------------------------------------------------------------
# schema helpers


def _require_mapping(obj, path):
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected an object")
    return obj


def _is_finite_number(value):
    # json.loads accepts NaN, Infinity and integers too large for a float;
    # the comparison is False for all three.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max


def _field(mapping, path, key, required=True, default=None):
    if key in mapping:
        return mapping[key]
    if required:
        raise SchemaError(f"{path}.{key}: missing required field")
    return default


def _number(mapping, path, key, required=True, default=None):
    value = _field(mapping, path, key, required, default)
    if value is default and not required:
        return default
    if not _is_finite_number(value):
        raise SchemaError(f"{path}.{key}: expected a finite number")
    return float(value)


def _integer(mapping, path, key, required=True, default=None):
    value = _field(mapping, path, key, required, default)
    if value is default and not required:
        return default
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError(f"{path}.{key}: expected an integer")
    return value


def _string(mapping, path, key, required=True, default=None, allowed=None):
    value = _field(mapping, path, key, required, default)
    if value is default and not required and value is None:
        return default
    if not isinstance(value, str):
        raise SchemaError(f"{path}.{key}: expected a string")
    if allowed is not None and value not in allowed:
        raise SchemaError(
            f"{path}.{key}: got {value!r}, expected one of {sorted(allowed)}"
        )
    return value


def _vector(mapping, path, key, size, required=True, default=None):
    value = _field(mapping, path, key, required, None)
    if value is None:
        return None if default is None else np.asarray(default, dtype=float)
    if not isinstance(value, list) or len(value) != size:
        raise SchemaError(f"{path}.{key}: expected a list of {size} numbers")
    if not all(_is_finite_number(item) for item in value):
        raise SchemaError(
            f"{path}.{key}: expected a list of {size} finite numbers"
        )
    return np.asarray(value, dtype=float)


def _body_list(mapping, path, key, count):
    value = _field(mapping, path, key)
    if not isinstance(value, list) or len(value) != count:
        raise SchemaError(f"{path}.{key}: expected a list of {count} objects")
    return [
        _require_mapping(item, f"{path}.{key}[{i}]")
        for i, item in enumerate(value)
    ]


# ----------------------------------------------------------------------
# scenario loading

_MODEL_BODY_COUNT = {"free_rigid_body": 1, "pinned_body": 1, "two_body_chain": 2}


def _body_params(spec, path):
    mass = _number(spec, path, "mass_kg")
    inertia = _vector(spec, path, "inertia_kgm2", 3)
    com = _vector(spec, path, "com_offset_m", 3, required=False, default=(0, 0, 0))
    gravity = _vector(
        spec, path, "gravity_mps2", 3, required=False, default=(0, 0, -9.81)
    )
    try:
        return BodyParams(
            mass=mass,
            inertia=tuple(inertia),
            com_offset=tuple(com),
            gravity=tuple(gravity),
        )
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


class Scenario:
    """A parsed scenario: builds models and states on demand.

    The physical content (bodies, initial pose and velocity) is stored
    representation-free so one scenario can be instantiated under any
    coordinate combination; ``build(combo_id)`` returns a (model, state,
    config) triple in that combination's conventions.
    """

    def __init__(self, raw, source_path=None):
        root = _require_mapping(raw, "scenario")
        self.source_path = source_path

        mspec = _require_mapping(_field(root, "scenario", "model"), "model")
        self.model_kind = _string(
            mspec, "model", "kind", allowed=set(_MODEL_BODY_COUNT)
        )
        self.group_model = _string(
            mspec, "model", "group_model", allowed=set(GROUP_MODELS)
        )
        n_bodies = _MODEL_BODY_COUNT[self.model_kind]
        self.body_params = [
            _body_params(spec, f"model.bodies[{i}]")
            for i, spec in enumerate(_body_list(mspec, "model", "bodies", n_bodies))
        ]
        if self.model_kind == "pinned_body":
            self.pin_point = _vector(mspec, "model", "pin_point_body_m", 3)
        else:
            self.pin_point = None
        if self.model_kind == "two_body_chain":
            joints = _field(mspec, "model", "joint_points_m")
            if not isinstance(joints, list) or len(joints) != 3:
                raise SchemaError(
                    "model.joint_points_m: expected a list of 3 points"
                )
            self.joint_points = tuple(
                _vector(
                    {"point": joints[i]},
                    f"model.joint_points_m[{i}]",
                    "point",
                    3,
                )
                for i in range(3)
            )
        else:
            self.joint_points = None
        if self.model_kind in ("pinned_body", "two_body_chain"):
            self.anchor = _vector(
                mspec, "model", "anchor_world_m", 3, required=False,
                default=(0, 0, 0),
            )
        else:
            self.anchor = None

        sspec = _require_mapping(
            _field(root, "scenario", "initial_state"), "initial_state"
        )
        self.initial_bodies = []
        for i, body in enumerate(
            _body_list(sspec, "initial_state", "bodies", n_bodies)
        ):
            path = f"initial_state.bodies[{i}]"
            quat = _vector(body, path, "orientation_quat", 4, required=False)
            axis = _vector(
                body, path, "orientation_axisangle_rad", 3, required=False
            )
            if (quat is None) == (axis is None):
                raise SchemaError(
                    f"{path}: give exactly one of orientation_quat or "
                    "orientation_axisangle_rad"
                )
            self.initial_bodies.append(
                {
                    "quat": quat,
                    "axis": axis,
                    "r": _vector(body, path, "position_m", 3),
                    "omega": _vector(
                        body, path, "angular_velocity_radps", 3,
                        required=False, default=(0, 0, 0),
                    ),
                    "rdot": _vector(
                        body, path, "linear_velocity_mps", 3,
                        required=False, default=(0, 0, 0),
                    ),
                }
            )

        ispec = _require_mapping(
            _field(root, "scenario", "integrator"), "integrator"
        )
        self.scheme = _string(
            ispec, "integrator", "scheme",
            required=False, default=MUNTHE_KAAS_RK4,
        )
        self.combo_id = _string(
            ispec, "integrator", "combo",
            required=self.scheme != BASELINE_QUAT_RK4, default=None,
        )
        self.h = _number(ispec, "integrator", "h_s")
        self.t_end = _number(ispec, "integrator", "t_end_s")
        if self.h > 0.0 and not math.isfinite(self.t_end / self.h):
            raise SchemaError(
                "integrator.t_end_s: t_end_s / h_s overflows the step count"
            )
        self.projection = _string(
            ispec, "integrator", "projection",
            required=False, default=PROJECTION_OFF,
        )
        self.projection_tol = _number(
            ispec, "integrator", "projection_tol", required=False, default=1e-10
        )
        self.projection_max_iter = _integer(
            ispec, "integrator", "projection_max_iter", required=False, default=20
        )
        try:
            self.config()
        except ValueError as exc:
            raise SchemaError(f"integrator: {exc}") from exc

        self.output_csv = _string(root, "scenario", "output_csv", required=False)

    # -- instantiation -------------------------------------------------

    def config(self, combo_id=None, h=None, t_end=None, scheme=None):
        scheme = scheme if scheme is not None else self.scheme
        return IntegratorConfig(
            scheme=scheme,
            combo=None
            if scheme == BASELINE_QUAT_RK4
            else (combo_id if combo_id is not None else self.combo_id),
            h=h if h is not None else self.h,
            t_end=t_end if t_end is not None else self.t_end,
            projection=self.projection,
            projection_tol=self.projection_tol,
            projection_max_iter=self.projection_max_iter,
        )

    def model(self, group_model=None):
        group_model = group_model or self.group_model
        if self.model_kind == "free_rigid_body":
            return free_rigid_body(self.body_params[0], group_model)
        if self.model_kind == "pinned_body":
            return pinned_body(
                self.body_params[0], self.pin_point, self.anchor, group_model
            )
        return two_body_chain(
            self.body_params[0],
            self.body_params[1],
            self.joint_points,
            self.anchor,
            group_model,
        )

    def state(self, abs_kind, group_model=None):
        group_model = group_model or self.group_model
        qs, twists = [], []
        for body in self.initial_bodies:
            if body["quat"] is not None:
                quat = body["quat"]
                if abs(float(np.linalg.norm(quat)) - 1.0) > 1e-9:
                    raise InconsistentState(
                        "initial orientation_quat is not unit length"
                    )
            else:
                quat = exp_sp1(body["axis"])
            rot = quat_to_rotmat(quat)
            if abs_kind == QUAT_POS:
                qs.append(quat_pos(quat, body["r"]))
            else:
                rho = body["axis"] if body["axis"] is not None else log_so3(rot)
                qs.append(axis_angle_pos(rho, body["r"]))
            lin = rot.T @ body["rdot"] if group_model == SEMIDIRECT else body["rdot"]
            twists.append(np.concatenate([body["omega"], lin]))
        return make_state(qs, np.concatenate(twists))

    def build(self, combo_id=None, h=None, t_end=None, scheme=None):
        """Model, initial state, and config for one run."""
        cfg = self.config(combo_id, h, t_end, scheme)
        if cfg.scheme == BASELINE_QUAT_RK4:
            abs_kind, group_model = QUAT_POS, DIRECT_PRODUCT
        else:
            cmb = combo(cfg.combo)
            abs_kind, group_model = cmb.abs_kind, cmb.group_model
        return self.model(group_model), self.state(abs_kind, group_model), cfg


def load_scenario(path):
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise SchemaError(f"cannot read scenario file: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"scenario is not valid JSON: {exc}") from exc
    return Scenario(raw, source_path=Path(path))


# ----------------------------------------------------------------------
# output

def _fmt(x):
    return f"{x:.17g}"


def _q_headers(abs_kind, n_bodies):
    names = []
    for i in range(1, n_bodies + 1):
        if abs_kind == QUAT_POS:
            names += [f"q{i}_{c}" for c in ("w", "x", "y", "z")]
        else:
            names += [f"rho{i}_{c}" for c in ("x", "y", "z")]
        names += [f"r{i}_{c}" for c in ("x", "y", "z")]
    return names


def _v_headers(n_bodies):
    names = []
    for i in range(1, n_bodies + 1):
        names += [f"V{i}_{c}" for c in ("wx", "wy", "wz", "vx", "vy", "vz")]
    return names


def _write_trajectory_csv(path, record, abs_kind, n_bodies):
    header = (
        ["t"]
        + _q_headers(abs_kind, n_bodies)
        + _v_headers(n_bodies)
        + ["energy", "gnorm", "gvnorm", "qnorm_err"]
    )
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for k in range(len(record)):
            drift = (
                float(np.max(record.qnorm_err[k]))
                if record.qnorm_err is not None
                else math.nan
            )
            row = (
                [record.t[k]]
                + list(record.q[k])
                + list(record.v[k])
                + [record.energy[k], record.gnorm[k], record.gvnorm[k], drift]
            )
            writer.writerow(_fmt(x) for x in row)


def _write_table_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                _fmt(x) if isinstance(x, float) else str(x) for x in row
            )


def _pose_discrepancy(state_a, state_b):
    worst = 0.0
    for qa, qb in zip(state_a.qs, state_b.qs):
        rot_a, r_a = alpha_map(qa)
        rot_b, r_b = alpha_map(qb)
        worst = max(
            worst,
            float(np.max(np.abs(rot_a - rot_b))),
            float(np.max(np.abs(r_a - r_b))),
        )
    return worst


def _default_out(scenario, suffix):
    if scenario.output_csv is not None:
        return Path(scenario.output_csv)
    return scenario.source_path.with_suffix(suffix)


# ----------------------------------------------------------------------
# subcommands

def _cmd_run(scenario, args):
    model, state0, cfg = scenario.build()
    record = integrate(model, cfg, state0)
    out = Path(args.out) if args.out else _default_out(scenario, ".csv")
    abs_kind = QUAT_POS if record.qnorm_err is not None else AXIS_ANGLE_POS
    _write_trajectory_csv(out, record, abs_kind, model.n_bodies)
    if not args.quiet:
        e0 = record.energy[0]
        scale = abs(e0) if abs(e0) > 1e-30 else 1.0
        drift = float(np.max(np.abs(record.energy - e0))) / scale
        print(f"steps: {len(record) - 1}")
        print(f"final gnorm: {_fmt(record.gnorm[-1])}")
        print(f"energy drift (relative): {_fmt(drift)}")
        if record.qnorm_err is not None:
            print(f"quaternion norm drift: {_fmt(float(np.max(record.qnorm_err)))}")
        else:
            print("quaternion norm drift: n/a (axis-angle coordinates)")
        print(f"wrote {out}")
    return 0


def _cmd_convergence(scenario, args):
    h_list = sorted(args.h, reverse=True)
    if len(h_list) < 2:
        print("convergence needs at least two step sizes", file=sys.stderr)
        return 2
    h_ref = min(h_list) / 10.0
    model, state0, cfg_ref = scenario.build(h=h_ref)
    ref = integrate(model, cfg_ref, state0)

    errors = []
    for h in h_list:
        model_h, state_h, cfg_h = scenario.build(h=h)
        rec = integrate(model_h, cfg_h, state_h)
        errors.append(_pose_discrepancy(rec.final_state, ref.final_state))

    logs_h = np.log10(np.asarray(h_list))
    logs_e = np.log10(np.maximum(np.asarray(errors), 1e-300))
    slope, intercept = np.polyfit(logs_h, logs_e, 1)
    fit = slope * logs_h + intercept
    ss_res = float(np.sum((logs_e - fit) ** 2))
    ss_tot = float(np.sum((logs_e - np.mean(logs_e)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    rows = [(float(h), float(err)) for h, err in zip(h_list, errors)]
    if args.out:
        _write_table_csv(Path(args.out), ["h", "error"], rows)
    if not args.quiet:
        print("h,error")
        for h, err in rows:
            print(f"{_fmt(h)},{_fmt(err)}")
        print(f"slope: {slope:.4f}")
        print(f"r_squared: {r_squared:.6f}")
        if args.out:
            print(f"wrote {args.out}")
    return 0


def _cmd_compare(scenario, args):
    labels = list(COMBO_IDS) + [_BASELINE_LABEL]
    finals, drifts = {}, {}
    for label in labels:
        if label == _BASELINE_LABEL:
            model, state0, cfg = scenario.build(scheme=BASELINE_QUAT_RK4)
        else:
            model, state0, cfg = scenario.build(combo_id=label)
        rec = integrate(model, cfg, state0)
        finals[label] = rec.final_state
        drifts[label] = (
            float(np.max(rec.qnorm_err)) if rec.qnorm_err is not None else math.nan
        )

    rows = [
        (a, b, _pose_discrepancy(finals[a], finals[b]))
        for a, b in itertools.combinations_with_replacement(labels, 2)
    ]
    worst_combo = max(
        (r[2] for r in rows if _BASELINE_LABEL not in r[:2]), default=0.0
    )
    if args.out:
        _write_table_csv(
            Path(args.out), ["label_a", "label_b", "pose_discrepancy"], rows
        )
    if not args.quiet:
        print("label,qnorm_drift")
        for label in labels:
            print(f"{label},{_fmt(drifts[label])}")
        print("label_a,label_b,pose_discrepancy")
        for a, b, d in rows:
            print(f"{a},{b},{_fmt(d)}")
        print(f"max pairwise pose discrepancy (combos): {_fmt(worst_combo)}")
        if args.out:
            print(f"wrote {args.out}")
    return 0


# ----------------------------------------------------------------------
# entry point

def _h_list(text):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad step-size list {text!r}") from exc
    if not values or any(v <= 0 for v in values):
        raise argparse.ArgumentTypeError("step sizes must be positive")
    return values


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="liembs",
        description="Rigid-body integration in local Lie-group coordinates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("run", "integrate one scenario and write the trajectory CSV"),
        ("convergence", "step-size study against a fine reference"),
        ("compare", "run all coordinate combinations plus the baseline"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("scenario", help="path to the scenario JSON file")
        p.add_argument("--out", help="output CSV path", default=None)
        p.add_argument(
            "--quiet", action="store_true", help="suppress the stdout summary"
        )
        if name == "convergence":
            p.add_argument(
                "--h",
                type=_h_list,
                required=True,
                help="comma-separated step sizes, e.g. 1e-2,5e-3,2.5e-3",
            )
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario)
        if args.command == "run":
            return _cmd_run(scenario, args)
        if args.command == "convergence":
            return _cmd_convergence(scenario, args)
        return _cmd_compare(scenario, args)
    except SchemaError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except InconsistentState as exc:
        print(f"inconsistent initial state: {exc}", file=sys.stderr)
        return 3
    except StepFailed as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
