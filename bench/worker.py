"""One measuring process of the step-cost benchmark (started by run.py).

Run from the root of a liembs checkout with ``src`` on PYTHONPATH:

    python3 bench/worker.py --workload tumble --seed 1 --seconds 30 --trace 0
    python3 bench/worker.py --workload tumble --seed 1 --setup-only

It times its own set-up (the clock starts before ``import liembs``), then
runs the workload's closed loop for ``--seconds`` and prints one JSON object
of samples and counts as its last stdout line. ``--setup-only`` stops after set-up.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

import hostprobe  # noqa: E402

SEGMENT_STEPS = 25
MIN_ROUNDS_BETWEEN_COMMANDS = 1
COMMAND_TIMEOUT_S = 60

# Bounds from the acceptance battery (criteria 6, 8, 9 and 10).
QNORM_TOL = 1e-12
ENERGY_TOL = 1e-8
RESIDUAL_TOL = 1e-8
AGREEMENT_TOL = 1e-8

WORKLOADS = {
    # Cheap steps without projection; the KKT solve takes the Cholesky path.
    "tumble": {"family": "tumble", "baseline": True, "commands": 16, "command_steps": 100},
    # Dense KKT LU, repeated pose rebuilds in the models, and projection.
    "chain": {"family": "chain", "baseline": False, "commands": 12, "command_steps": 100},
    # Back-to-back `liembs run` commands: interpreter start, imports, CSV.
    "cli": {"family": "pendulum", "baseline": False, "commands": None, "command_steps": 200},
}


def _exc_line(exc):
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def _last_line(text):
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


class Run:
    """One measuring run: the trajectories, samples and failure counts."""

    def __init__(self, args, root, cli_mod):
        import numpy as np
        import scenes

        self.np, self.scenes, self.cli_mod = np, scenes, cli_mod
        self.integrate_mod = importlib.import_module("liembs.integrate")
        self.args = args
        self.spec = WORKLOADS[args.workload]
        self.labels = list(scenes.COMBO_IDS) + ([scenes.BASELINE] if self.spec["baseline"] else [])
        self.rng = np.random.default_rng(args.seed)
        (root / ".bench_out").mkdir(exist_ok=True)
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=root / ".bench_out"))
        self.n_files = 0
        self.trajectories = []
        self.segments = []  # (seconds, steps, probe index, traced)
        self.traced_steps = {}
        self.commands = []  # (seconds, spawn probe index)
        self.probe_us = []
        self.spawn_s = []
        self.attempted = 0
        self.failed = 0
        self.check_failures = 0
        self.failures = []
        self.tracer = None

    def fail(self, what, why, check=False):
        self.failed += 1
        self.check_failures += check
        if len(self.failures) < 20:
            self.failures.append(f"{what}: {why}")

    def new_path(self, suffix):
        self.n_files += 1
        return self.tmp / f"f{self.n_files}{suffix}"

    def scenario(self, label, steps):
        doc = self.scenes.FAMILIES[self.spec["family"]](self.rng, label, steps)
        return self.scenes.write(self.new_path(".json"), doc)

    # -- set-up ----------------------------------------------------------

    def start_trajectories(self):
        """Seeded scenario, one model/state per scheme, one warm-up segment each.

        The warm-up segments start every scheme from the same state, so their
        final poses must agree across the eight combos (criterion 10).
        """
        scenes = self.scenes
        scenario = self.cli_mod.load_scenario(self.scenario(scenes.COMBO_IDS[0], SEGMENT_STEPS))
        for label in self.labels:
            if label == scenes.BASELINE:
                model, state, cfg = scenario.build(scheme=scenes.BASELINE)
            else:
                model, state, cfg = scenario.build(combo_id=label)
            self.trajectories.append([label, model, cfg, state, state])
        for traj in self.trajectories:
            rec = self.segment(traj[1], traj[2], traj[3], traj[0], traced=False)
            traj[3] = rec.final_state if rec is not None else traj[4]
        finals = [t[3].qs for t in self.trajectories if t[0] in scenes.COMBO_IDS]
        worst = max(scenes.pose_discrepancy(finals[0], qs) for qs in finals)
        self.attempted += 1
        if worst > AGREEMENT_TOL:
            self.fail("combo agreement", f"final poses differ by {worst:.3e}", check=True)
        self.segments.clear()

    # -- timed operations ------------------------------------------------

    def segment(self, model, cfg, state, label, traced):
        """One timed integrate() call; returns the checked record or None."""
        self.attempted += 1
        p = self.probe()
        if traced:
            self.tracer.set_tag(label)
            self.tracer.install()
        try:
            t = time.perf_counter()
            rec = self.integrate_mod.integrate(model, cfg, state)
            dt = time.perf_counter() - t
        except Exception as exc:  # a failing step is counted and the run goes on
            self.fail(f"segment {label}", _exc_line(exc))
            return None
        finally:
            if traced:
                self.tracer.uninstall()
        steps = len(rec) - 1
        if steps > 0:
            self.segments.append((dt, steps, p, traced))
        if traced:
            self.traced_steps[label] = self.traced_steps.get(label, 0) + steps
        why = self.check_record(rec, label)
        if why:
            self.fail(f"segment {label}", why, check=True)
            return None
        return rec

    def check_record(self, rec, label):
        np = self.np
        if len(rec) != SEGMENT_STEPS + 1:
            return f"{len(rec) - 1} steps, expected {SEGMENT_STEPS}"
        if not all(
            np.all(np.isfinite(x)) for x in (rec.t, rec.q, rec.v, rec.energy, rec.gnorm, rec.gvnorm)
        ):
            return "non-finite output"
        if rec.qnorm_err is not None and label != self.scenes.BASELINE:
            worst = float(np.max(rec.qnorm_err))
            if worst > QNORM_TOL:
                return f"quaternion norm error {worst:.3e}"
        e0 = float(rec.energy[0])
        drift = float(np.max(np.abs(rec.energy - e0))) / (abs(e0) if abs(e0) > 1e-30 else 1.0)
        if drift > ENERGY_TOL:
            return f"relative energy drift {drift:.3e}"
        if float(np.max(rec.gnorm)) > RESIDUAL_TOL:
            return f"constraint residual {float(np.max(rec.gnorm)):.3e}"
        return None

    def reference(self, path, round_index):
        """In-process integrate() of a scenario file, run as timed segments."""
        model, state, cfg = self.cli_mod.load_scenario(path).build()
        cfg = replace(cfg, t_end=SEGMENT_STEPS * self.scenes.H_S)
        label = cfg.combo if cfg.combo is not None else self.scenes.BASELINE
        # Untimed warm-up from the same state: the first segment after a CLI
        # process would otherwise run cold and set the tail of step_us.
        with contextlib.suppress(Exception):
            self.integrate_mod.integrate(model, cfg, state)
        rec = None
        for k in range(self.spec["command_steps"] // SEGMENT_STEPS):
            traced = bool(self.args.trace) and (round_index + k) % 2 == 1
            rec = self.segment(model, cfg, state, label, traced)
            if rec is None:
                return None
            state = rec.final_state
        return rec

    def command(self, label, round_index):
        """`liembs run` on a fresh scenario, checked against an in-process run.

        With tracing on, the CLI entry point runs in this process instead, so
        its spans can be recorded.
        """
        path = self.scenario(label, self.spec["command_steps"])
        out = self.new_path(".csv")
        what = f"liembs run ({label})"
        self.attempted += 1
        if self.args.trace:
            self.tracer.set_tag("cli")
            self.tracer.install()
            try:
                with contextlib.redirect_stdout(io.StringIO()) as summary:
                    code = self.cli_mod.main(["run", str(path), "--out", str(out)])
            except Exception as exc:  # a crash of the entry point is a failure
                self.fail(what, _exc_line(exc))
                return
            finally:
                self.tracer.uninstall()
            stdout, stderr = summary.getvalue(), ""
        else:
            argv = [sys.executable, "-m", "liembs.cli", "run", str(path), "--out", str(out)]
            try:
                self.spawn_s.append(hostprobe.spawn(COMMAND_TIMEOUT_S))
            except (subprocess.SubprocessError, OSError) as exc:
                self.fail(what, f"spawn probe failed: {exc}")
                return
            t = time.perf_counter()
            try:
                proc = subprocess.run(argv, capture_output=True, text=True, timeout=COMMAND_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.fail(what, f"timed out after {COMMAND_TIMEOUT_S} s")
                return
            self.commands.append((time.perf_counter() - t, len(self.spawn_s) - 1))
            code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
        if code != 0 or "Traceback" in stderr:
            self.fail(what, f"exit {code}: {_last_line(stderr)}")
            return
        if f"steps: {self.spec['command_steps']}" not in stdout:
            self.fail(what, "summary lacks the step count", check=True)
            return
        ref = self.reference(path, round_index)
        if ref is not None:
            why = self.check_csv(out, ref)
            if why:
                self.fail(what, why, check=True)

    def check_csv(self, path, rec):
        """The CSV has one row per record and its last row round-trips exactly."""
        try:
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            values = [float(x) for x in rows[-1]]
        except (OSError, ValueError, IndexError) as exc:
            return f"CSV unreadable: {exc}"
        steps = self.spec["command_steps"]
        if len(rows) != steps + 2:
            return f"CSV has {len(rows) - 1} records, expected {steps + 1}"
        k = len(rec) - 1
        qn = float(self.np.max(rec.qnorm_err[k])) if rec.qnorm_err is not None else math.nan
        expect = [float(rec.t[k]), *map(float, rec.q[k]), *map(float, rec.v[k]),
                  float(rec.energy[k]), float(rec.gnorm[k]), float(rec.gvnorm[k]), qn]
        same = len(values) == len(expect) and all(
            a == b or (math.isnan(a) and math.isnan(b)) for a, b in zip(values, expect)
        )
        return None if same else "CSV last row differs from the in-process run"

    def probe(self):
        self.probe_us.append(hostprobe.compute(self.np))
        return len(self.probe_us) - 1

    def samples(self):
        """Host-scaled and unscaled samples of the timed operations."""
        step_scale = hostprobe.scales(
            self.probe_us, hostprobe.COMPUTE_NOMINAL_US, hostprobe.COMPUTE_WINDOW
        )
        out = {"probe_us": self.probe_us, "spawn_probe_s": self.spawn_s}
        for kind, scaled in (("scaled", True), ("raw", False)):
            segs = [
                (dt * step_scale[p] if scaled else dt, n, traced)
                for dt, n, p, traced in self.segments
            ]
            out[kind] = {
                "step_us": [dt / n * 1e6 for dt, n, _ in segs],
                "steps": sum(n for _, n, _ in segs),
                "seconds": sum(dt for dt, _, _ in segs),
                "cmd_s": [
                    dt * hostprobe.SPAWN_NOMINAL_S / self.spawn_s[p] if scaled else dt
                    for dt, p in self.commands
                ],
                "us_per_step": {
                    tr: sum(dt for dt, _, t in segs if t == tr)
                    / max(1, sum(n for _, n, t in segs if t == tr))
                    for tr in (False, True)
                },
            }
        return out

    def command_label(self, n_cmd):
        """Scheme of the n-th command.

        Commands cycle through the workload's schemes, except on untraced
        `cli`, which runs combo 1a only: its per-combo step costs are
        bimodal (the direct-product combos are about twice as cheap), and a
        median over a mix that depends on how many commands fit in the run
        would jump between the modes. The traced `cli` run cycles, so that
        every per-combo layer has data.
        """
        if self.spec["commands"] is None and not self.args.trace:
            return self.scenes.COMBO_IDS[0]
        return self.labels[n_cmd % len(self.labels)]

    def measure(self, seconds):
        """The closed loop: one caller, each operation starts when the last ends.

        tumble/chain advance every scheme's trajectory by one segment per
        round and run their `commands` CLI calls evenly spread over the run,
        with at least MIN_ROUNDS_BETWEEN_COMMANDS rounds between two commands
        so that a slow host cannot leave the segments without samples; cli
        runs commands back to back. With tracing on, every other round (and
        every other reference segment) is traced.
        """
        commands = self.spec["commands"]
        start = time.perf_counter()
        deadline = start + seconds
        n_cmd = 0
        round_index = 0
        rounds_since_command = MIN_ROUNDS_BETWEEN_COMMANDS
        while True:
            now = time.perf_counter()
            if now >= deadline:
                break
            if commands is None or (
                n_cmd < commands
                and now >= start + n_cmd * seconds / commands
                and rounds_since_command >= MIN_ROUNDS_BETWEEN_COMMANDS
            ):
                self.command(self.command_label(n_cmd), n_cmd)
                n_cmd += 1
                rounds_since_command = 0
                continue
            traced = bool(self.args.trace) and round_index % 2 == 1
            for traj in self.trajectories:
                label, model, cfg, state, initial = traj
                rec = self.segment(model, cfg, state, label, traced)
                traj[3] = rec.final_state if rec is not None else initial
            round_index += 1
            rounds_since_command += 1


def versions(np):
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except Exception:  # older numpy has no dict mode; the name is optional
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {
            k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()
    root = Path.cwd()

    # Set-up, timed from process start: cli pays a bare `import liembs.cli`;
    # tumble and chain also generate, load, build and warm up.
    cli_mod = importlib.import_module("liembs.cli")
    if args.workload == "cli":
        setup_s = time.perf_counter() - _T0
        run = None if args.setup_only else Run(args, root, cli_mod)
    else:
        run = Run(args, root, cli_mod)
        try:
            run.start_trajectories()
        except BaseException:
            shutil.rmtree(run.tmp, ignore_errors=True)
            raise
        setup_s = time.perf_counter() - _T0
    if args.setup_only:
        if run is not None:
            shutil.rmtree(run.tmp, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        import spans

        run.tracer = spans.Tracer()
    try:
        run.measure(args.seconds)
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out = {
        "setup_s": setup_s,
        **run.samples(),
        # The CLI processes are the workload on cli; this process elsewhere.
        "peak_rss_mb": (children if args.workload == "cli" else own) / 1024.0,
        "attempted": run.attempted,
        "failed": run.failed,
        "check_failures": run.check_failures,
        "failures": run.failures,
        "versions": versions(run.np),
    }
    if args.trace:
        tracer = run.tracer
        per_step = out["scaled"]["us_per_step"]
        out["trace"], out["trace_detail"] = tracer.metrics(run.traced_steps, run.scenes.COMBO_IDS)
        out["trace"]["trace.overhead_ratio"] = per_step[True] / per_step[False]
        out["trace_missing"] = tracer.missing
        out["spans"] = len(tracer.end)
        tracer.save(root / ".bench_out" / f"spans-{args.workload}.npz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
