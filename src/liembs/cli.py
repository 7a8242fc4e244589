"""Scenario runner: parse a JSON scenario, integrate, write CSV tables.

Subcommands:

* ``run <file>`` — integrate one scenario, write the trajectory CSV, print
  a summary (final constraint residual, energy drift, quaternion drift);
* ``convergence <file> --h <list>`` — rerun the scenario over a list of
  step sizes, each a whole number of steps to t_end_s, against a reference
  at min(h)/10 and report the global error per h together with the fitted
  log-log slope and its R²;
* ``compare <file>`` — run the same physical problem under all eight
  coordinate combinations plus the renormalized quaternion baseline and
  report pairwise final-pose discrepancies and quaternion norm drift; a
  label whose model or config the scenario cannot build is skipped with a
  ``skipped:`` line on stderr.

Flags: ``--out <path>`` redirects the CSV, ``--quiet`` suppresses the
stdout summary. Exit codes: 0 success, 2 malformed scenario (the message
names the offending field, ``integrator.<key>`` for a bad integrator
value), a ``--h`` list the runs cannot take, or an output path that cannot
be opened (naming ``--out`` or ``output_csv``), 3 inconsistent initial
state, 4 integration failure (the message carries the step index).

Scenario files are JSON with units spelled in the field names::

    {
      "model": {
        "kind": "free_rigid_body",          # pinned_body, two_body_chain
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
the group model's twist convention. The combo alone picks the group model:
letters a and d run on SE(3), b and c on SO(3)xR3 (the baseline's). A field
that is present must have its type (null included); only an absent optional
field takes its default, and unknown keys are ignored.
"""

import argparse
import csv
import itertools
import json
import math
import sys
from contextlib import nullcontext
from dataclasses import replace
from pathlib import Path

import numpy as np

from .dynamics import make_state
from .errors import InconsistentState, InvalidConfig, StepFailed
from .integrate import (
    BASELINE_QUAT_RK4,
    MUNTHE_KAAS_RK4,
    PROJECTION_MODES,
    SCHEMES,
    IntegratorConfig,
    integrate,
    scheme_kinds,
)
from .lgt import (
    COMBO_IDS,
    QUAT_POS,
    alpha_map,
    axis_angle_pos,
    quat_pos,
)
from .models import BodyParams, free_rigid_body, pinned_body, two_body_chain
from .motiongroups import SEMIDIRECT
from .rotmaps import exp_sp1, log_so3, quat_to_rotmat

_BASELINE_LABEL = "baseline"


class SchemaError(ValueError):
    """A scenario file violates the schema; the message names the field."""


class OutputError(ValueError):
    """The output CSV cannot be opened; the message names --out or output_csv."""


# ----------------------------------------------------------------------
# scenario loading

_REQUIRED = object()
_ORIGIN = (0.0, 0.0, 0.0)
_TYPE_NAMES = {int: "an integer", str: "a string", dict: "an object", list: "a list"}


def _is_finite_number(value):
    # json.loads accepts NaN, Infinity and integers too large for a float;
    # the comparison is False for all three.
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max


def _check(value, where, kind):
    """value as kind: float, int, str, dict, a tuple of allowed strings, or
    a length n for a list of n finite numbers (returned as an array)."""
    if kind is float:
        if not _is_finite_number(value):
            raise SchemaError(f"{where}: expected a finite number")
        return float(value)
    if isinstance(kind, tuple):
        if not isinstance(value, str) or value not in kind:
            raise SchemaError(f"{where}: got {value!r}, expected one of {sorted(kind)}")
        return value
    if isinstance(kind, int):
        if not isinstance(value, list) or len(value) != kind:
            raise SchemaError(f"{where}: expected a list of {kind} numbers")
        if not all(_is_finite_number(item) for item in value):
            raise SchemaError(f"{where}: expected a list of {kind} finite numbers")
        return np.asarray(value, dtype=float)
    if isinstance(value, bool) or not isinstance(value, kind):
        raise SchemaError(f"{where}: expected {_TYPE_NAMES[kind]}")
    return value


def _read(mapping, path, key, kind, default=_REQUIRED):
    """mapping[key] checked as kind (path "" for a top-level key); an absent
    key gives default. A present key must have its kind, so null is an
    error and never a default."""
    where = f"{path}.{key}" if path else key
    if key in mapping:
        return _check(mapping[key], where, kind)
    if default is _REQUIRED:
        raise SchemaError(f"{where}: missing required field")
    return default


def _items(mapping, path, key, count, kind):
    """mapping[key] as a list of count entries, each checked as kind."""
    value = _read(mapping, path, key, list)
    if len(value) != count:
        raise SchemaError(f"{path}.{key}: expected a list of {count} entries")
    return [_check(item, f"{path}.{key}[{i}]", kind) for i, item in enumerate(value)]


def _body_params(spec, path):
    fields = (
        _read(spec, path, "mass_kg", float),
        tuple(_read(spec, path, "inertia_kgm2", 3)),
        tuple(_read(spec, path, "com_offset_m", 3, _ORIGIN)),
        tuple(_read(spec, path, "gravity_mps2", 3, (0.0, 0.0, -9.81))),
    )
    try:
        return BodyParams(*fields)
    except ValueError as exc:
        raise SchemaError(f"{path}: {exc}") from exc


# kind -> (constructor, body count, the fields it takes after the bodies as
# (reader, key, *reader arguments)); the group model is its last argument.
_ANCHOR = (_read, "anchor_world_m", 3, _ORIGIN)
_MODEL_KINDS = {
    "free_rigid_body": (free_rigid_body, 1, ()),
    "pinned_body": (pinned_body, 1, ((_read, "pin_point_body_m", 3), _ANCHOR)),
    "two_body_chain": (two_body_chain, 2, ((_items, "joint_points_m", 3, 3), _ANCHOR)),
}


# integrator key -> (IntegratorConfig field, kind, default); an absent
# _OPTIONAL key leaves the field to IntegratorConfig's own default.
_OPTIONAL = object()
_INTEGRATOR_KEYS = {
    "scheme": ("scheme", SCHEMES, MUNTHE_KAAS_RK4),
    "combo": ("combo", str, _REQUIRED),  # the baseline carries none
    "h_s": ("h", float, _REQUIRED),
    "t_end_s": ("t_end", float, _REQUIRED),
    "projection": ("projection", PROJECTION_MODES, _OPTIONAL),
    "projection_tol": ("projection_tol", float, _OPTIONAL),
    "projection_max_iter": ("projection_max_iter", int, _OPTIONAL),
}


class Scenario:
    """A parsed scenario: builds models and states on demand.

    The physical content (bodies, initial pose and velocity) is stored
    representation-free so one scenario can be instantiated under any
    coordinate combination; ``build(combo_id)`` returns a (model, state,
    config) triple in that combination's conventions.
    """

    def __init__(self, raw, source_path=None):
        root = _check(raw, "scenario", dict)
        self.source_path = source_path

        mspec = _read(root, "", "model", dict)
        kind = _read(mspec, "model", "kind", tuple(_MODEL_KINDS))
        self._constructor, n_bodies, extras = _MODEL_KINDS[kind]
        self._model_args = [
            _body_params(spec, f"model.bodies[{i}]")
            for i, spec in enumerate(_items(mspec, "model", "bodies", n_bodies, dict))
        ] + [reader(mspec, "model", *field) for reader, *field in extras]

        sspec = _read(root, "", "initial_state", dict)
        bodies = _items(sspec, "initial_state", "bodies", n_bodies, dict)
        self.initial_bodies = []
        for i, body in enumerate(bodies):
            path = f"initial_state.bodies[{i}]"
            quat = _read(body, path, "orientation_quat", 4, None)
            axis = _read(body, path, "orientation_axisangle_rad", 3, None)
            if (quat is None) == (axis is None):
                raise SchemaError(
                    f"{path}: give exactly one of orientation_quat or "
                    "orientation_axisangle_rad"
                )
            self.initial_bodies.append(
                {
                    "quat": quat,
                    "axis": axis,
                    "r": _read(body, path, "position_m", 3),
                    "omega": _read(body, path, "angular_velocity_radps", 3, _ORIGIN),
                    "rdot": _read(body, path, "linear_velocity_mps", 3, _ORIGIN),
                }
            )

        ispec = _read(root, "", "integrator", dict)
        fields = {}
        for key, (field, kind, default) in _INTEGRATOR_KEYS.items():
            if key == "combo" and fields["scheme"] == BASELINE_QUAT_RK4:
                default = _OPTIONAL
            value = _read(ispec, "integrator", key, kind, default)
            if value is not _OPTIONAL:
                fields[field] = value
        self._config = IntegratorConfig(**fields)  # InvalidConfig names a field
        self._models = {}
        self.model(scheme_kinds(self._config)[2])  # a rejected body fails the load

        self.output_csv = _read(root, "", "output_csv", str, None)
        if self.output_csv == "":
            raise SchemaError("output_csv: expected a non-empty path")

    # -- instantiation -------------------------------------------------

    @property
    def h(self):
        return self._config.h

    def config(self, combo_id=None, h=None, t_end=None, scheme=None):
        """The scenario's integrator config with the given fields replaced;
        the baseline scheme carries no combo."""
        changes = {"combo": combo_id, "h": h, "t_end": t_end, "scheme": scheme}
        cfg = replace(
            self._config, **{k: v for k, v in changes.items() if v is not None}
        )
        return replace(cfg, combo=None) if cfg.scheme == BASELINE_QUAT_RK4 else cfg

    def model(self, group_model):
        """The model under group_model, built once; SchemaError naming the
        body when the model rejects the scenario's bodies."""
        if group_model not in self._models:
            try:
                self._models[group_model] = self._constructor(
                    *self._model_args, group_model
                )
            except ValueError as exc:
                raise SchemaError(f"model: {exc}") from exc
        return self._models[group_model]

    def state(self, abs_kind, group_model):
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
        """Model, initial state, and config for one run; the config's
        combo fixes the coordinates and the group model."""
        cfg = self.config(combo_id, h, t_end, scheme)
        _, abs_kind, group_model = scheme_kinds(cfg)
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


def _write_csv(out, header, rows, where="--out"):
    """header and rows as LF-terminated CSV, floats as _fmt, to the path out
    or, when out is None, to sys.stdout as it is at the call; OutputError
    naming where, the source of out, when the path cannot be opened."""
    try:
        target = open(out, "w", newline="") if out else nullcontext(sys.stdout)
    except OSError as exc:
        raise OutputError(f"{where}: cannot write {out}: {exc.strerror}") from exc
    with target as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(_fmt(x) if isinstance(x, float) else x for x in row)


def _trajectory_header(qs):
    """Column names of the trajectory CSV for the bodies' coordinates qs."""
    header = ["t"]
    for i, q in enumerate(qs, 1):
        rot, axes = ("q", "wxyz") if q.kind == QUAT_POS else ("rho", "xyz")
        header += [f"{rot}{i}_{c}" for c in axes] + [f"r{i}_{c}" for c in "xyz"]
    for i in range(1, len(qs) + 1):
        header += [f"V{i}_{c}" for c in ("wx", "wy", "wz", "vx", "vy", "vz")]
    return header + ["energy", "gnorm", "gvnorm", "qnorm_err"]


def _qnorm_drift(record):
    """Per record, the largest quaternion norm drift over the bodies; NaN
    for axis-angle coordinates, which carry no norm."""
    if record.qnorm_err is None:
        return np.full(len(record), math.nan)
    return record.qnorm_err.max(axis=1)


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


# ----------------------------------------------------------------------
# subcommands

def _cmd_run(scenario, args):
    model, state0, cfg = scenario.build()
    record = integrate(model, cfg, state0)
    out = args.out or scenario.output_csv
    out = Path(out) if out is not None else scenario.source_path.with_suffix(".csv")
    qdrift = _qnorm_drift(record)
    diagnostics = (record.energy, record.gnorm, record.gvnorm, qdrift)
    rows = np.column_stack((record.t, record.q, record.v) + diagnostics).tolist()
    where = "--out" if args.out else "output_csv"
    _write_csv(out, _trajectory_header(record.final_state.qs), rows, where)
    if not args.quiet:
        e0 = record.energy[0]
        scale = abs(e0) if abs(e0) > 1e-30 else 1.0
        drift = float(np.max(np.abs(record.energy - e0))) / scale
        worst = float(np.max(qdrift))
        qnorm = "n/a (axis-angle coordinates)" if math.isnan(worst) else _fmt(worst)
        print(f"steps: {len(record) - 1}")
        print(f"final gnorm: {_fmt(record.gnorm[-1])}")
        print(f"energy drift (relative): {_fmt(drift)}")
        print(f"quaternion norm drift: {qnorm}")
        print(f"wrote {out}")
    return 0


def _cmd_convergence(scenario, args):
    h_list = sorted(args.h, reverse=True)
    if len(h_list) < 2:
        print("convergence needs at least two step sizes", file=sys.stderr)
        return 2
    for h in h_list:
        try:
            scenario.config(h=h)
        except ValueError as exc:
            print(f"--h {h!r}: {exc}", file=sys.stderr)
            return 2
    h_ref = min(h_list) / 10.0
    errors = []
    # Only h differs from the loaded config, so a config error here is --h's.
    try:
        model, state0, cfg_ref = scenario.build(h=h_ref)
        ref = integrate(model, cfg_ref, state0)
        for h in h_list:
            model_h, state_h, cfg_h = scenario.build(h=h)
            rec = integrate(model_h, cfg_h, state_h)
            errors.append(_pose_discrepancy(rec.final_state, ref.final_state))
    except InvalidConfig as exc:
        print(f"--h (reference step min(h)/10 = {h_ref!r}): {exc}", file=sys.stderr)
        return 2

    logs_h = np.log10(np.asarray(h_list))
    logs_e = np.log10(np.maximum(np.asarray(errors), 1e-300))
    slope, intercept = np.polyfit(logs_h, logs_e, 1)
    fit = slope * logs_h + intercept
    ss_res = float(np.sum((logs_e - fit) ** 2))
    ss_tot = float(np.sum((logs_e - np.mean(logs_e)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0

    rows = [(float(h), float(err)) for h, err in zip(h_list, errors)]
    if args.out:
        _write_csv(args.out, ["h", "error"], rows)
    if not args.quiet:
        _write_csv(None, ["h", "error"], rows)
        print(f"slope: {slope:.4f}")
        print(f"r_squared: {r_squared:.6f}")
        if args.out:
            print(f"wrote {args.out}")
    return 0


def _cmd_compare(scenario, args):
    finals, drifts = {}, {}
    runs = {cid: dict(combo_id=cid, scheme=MUNTHE_KAAS_RK4) for cid in COMBO_IDS}
    runs[_BASELINE_LABEL] = dict(scheme=BASELINE_QUAT_RK4)
    for label, build_args in runs.items():
        try:
            model, state0, cfg = scenario.build(**build_args)
        except ValueError as exc:  # the model or the config rejects the label
            print(f"skipped: {label}: {exc}", file=sys.stderr)
            continue
        rec = integrate(model, cfg, state0)
        finals[label] = rec.final_state
        drifts[label] = float(np.max(_qnorm_drift(rec)))

    rows = [
        (a, b, _pose_discrepancy(finals[a], finals[b]))
        for a, b in itertools.combinations_with_replacement(finals, 2)
    ]
    worst_combo = max(
        (r[2] for r in rows if _BASELINE_LABEL not in r[:2]), default=0.0
    )
    header = ["label_a", "label_b", "pose_discrepancy"]
    if args.out:
        _write_csv(args.out, header, rows)
    if not args.quiet:
        _write_csv(None, ["label", "qnorm_drift"], drifts.items())
        _write_csv(None, header, rows)
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


_H_HELP = "comma-separated step sizes, e.g. 1e-2,5e-3,2.5e-3"
# subcommand -> (handler, help, its own options as flag -> add_argument
# keywords); every subcommand also takes the scenario, --out and --quiet.
_COMMANDS = {
    "run": (_cmd_run, "integrate one scenario and write the trajectory CSV", {}),
    "convergence": (
        _cmd_convergence,
        "step-size study against a fine reference",
        {"--h": dict(type=_h_list, required=True, help=_H_HELP)},
    ),
    "compare": (_cmd_compare, "run all coordinate combinations plus the baseline", {}),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="liembs",
        description="Rigid-body integration in local Lie-group coordinates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("scenario", help="path to the scenario JSON file")
        p.add_argument("--out", help="output CSV path", default=None)
        p.add_argument(
            "--quiet", action="store_true", help="suppress the stdout summary"
        )
        for flag, keywords in options.items():
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        # Overflow and NaN are caught by the finiteness checks and reported
        # with an exit code; numpy's warnings about them would only add noise.
        with np.errstate(over="ignore", invalid="ignore"):
            scenario = load_scenario(args.scenario)
            return _COMMANDS[args.command][0](scenario, args)
    except InvalidConfig as exc:
        key = next(k for k, (f, *_) in _INTEGRATOR_KEYS.items() if f == exc.field)
        print(f"scenario error: integrator.{key}: {exc}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return 2
    except InconsistentState as exc:
        print(f"inconsistent initial state: {exc}", file=sys.stderr)
        return 3
    except StepFailed as exc:
        print(f"integration failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
