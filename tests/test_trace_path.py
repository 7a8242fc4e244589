"""The call path that the benchmark's span tracer wraps.

``bench/spans.py`` times each layer by replacing module globals of liembs
(its ``WRAPS``) and methods of the public model classes. A refactor that
drops one of those names, or takes its calls off the path, leaves the traced
benchmark without per-layer metrics; these tests catch that first. The
tracer module is loaded by path; one test installs its ``Tracer`` around a
few steps of every combo and uninstalls it before it checks the metrics.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import liembs.dynamics
import liembs.integrate
import liembs.lgt
from liembs.cli import load_scenario
from liembs.lgt import COMBO_IDS
from liembs.models import SphericalJointSystem
from liembs.rotmaps import quat_to_rotmat

_ROOT = Path(__file__).resolve().parent.parent
_STEPS = 3


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location(
        "_bench_spans", _ROOT / "bench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_resolves(spans):
    for module_name, attr, _ in spans.WRAPS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
    assert spans.Tracer().missing == []


def test_every_public_model_class_has_the_traced_methods(spans):
    models = importlib.import_module("liembs.models")
    classes = [
        cls
        for name, cls in vars(models).items()
        if inspect.isclass(cls)
        and not name.startswith("_")
        and cls.__module__ == models.__name__
        and hasattr(cls, "forces")
    ]
    assert models.SphericalJointSystem in classes
    for cls in classes:
        for method in spans.MODEL_METHODS:
            assert callable(getattr(cls, method, None)), f"{cls.__name__}.{method}"


def test_a_traced_run_of_every_combo_reaches_every_counted_layer(spans):
    # A kernel captured at import would still resolve, yet its traced calls
    # would read zero: every per-layer call count the benchmark declares
    # must be above zero after a few steps of each combo on both scenarios
    # and on the chain without its joint-frame factor, whose stages take
    # the dense solve (no shipped stage reads adotv).
    loaded = [
        load_scenario(_ROOT / "scenarios" / name)
        for name in ("free_tumble.json", "chain_swing.json", "chain_swing.json")
    ]
    runs = [
        (cid, scenario.build(combo_id=cid, t_end=_STEPS * scenario.h))
        for cid in COMBO_IDS
        for scenario in loaded
    ]
    for _, (model, _, _) in runs[2::3]:
        model.ground_schur = None
    tracer = spans.Tracer()
    tracer.install()
    try:
        for cid, (model, state, cfg) in runs:
            tracer.set_tag(cid)
            liembs.integrate.integrate(model, cfg, state)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    traced_steps = {cid: len(loaded) * _STEPS for cid in COMBO_IDS}
    metrics, _ = tracer.metrics(traced_steps, COMBO_IDS)
    declared = json.loads((_ROOT / "BENCHMARK.json").read_text())["per_layer"]
    counted = [
        m["name"] for m in declared
        if m["name"].endswith(".calls_per_step") and m["name"] in metrics
    ]
    assert counted
    assert {name: metrics[name] for name in counted if not metrics[name] > 0} == {}


def _count(monkeypatch, counts, module, name):
    """Count the calls made through the module global module.name."""
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("cid", COMBO_IDS)
@pytest.mark.parametrize(
    "scenario, n_bodies",
    [("free_tumble.json", 1), ("chain_swing.json", 2)],
    ids=["free_body", "two_body_chain"],
)
def test_each_step_calls_local_rhs_4_times_and_dpsi_inv_4n_times(
    monkeypatch, scenario, n_bodies, cid
):
    counts = {"local_rhs": 0, "combo_dpsi_inv": 0}
    _count(monkeypatch, counts, liembs.integrate, "local_rhs")
    _count(monkeypatch, counts, liembs.dynamics, "combo_dpsi_inv")
    loaded = load_scenario(_ROOT / "scenarios" / scenario)
    model, state, cfg = loaded.build(combo_id=cid, t_end=_STEPS * loaded.h)
    assert model.n_bodies == n_bodies
    liembs.integrate.integrate(model, cfg, state)
    assert counts == {
        "local_rhs": 4 * _STEPS,
        "combo_dpsi_inv": 4 * n_bodies * _STEPS,
    }


@pytest.mark.parametrize("cid", ["1a", "2a"])
@pytest.mark.parametrize(
    "scenario, n_bodies",
    [("free_tumble.json", 1), ("chain_swing.json", 2)],
    ids=["free_body", "two_body_chain"],
)
def test_the_first_stage_of_each_step_gives_dpsi_inv_a_zero_x(
    monkeypatch, scenario, n_bodies, cid
):
    # The SE(3) exponential action returns V unchanged at X = 0, which each
    # body's first call of a step meets because the chart restarts there.
    zero_x = []
    fn = liembs.dynamics.combo_dpsi_inv

    def recorded(cmb, x, v):
        zero_x.append(not any(x))
        return fn(cmb, x, v)

    monkeypatch.setattr(liembs.dynamics, "combo_dpsi_inv", recorded)
    loaded = load_scenario(_ROOT / "scenarios" / scenario)
    model, state, cfg = loaded.build(combo_id=cid, t_end=_STEPS * loaded.h)
    assert model.n_bodies == n_bodies
    liembs.integrate.integrate(model, cfg, state)
    assert zero_x == ([True] * n_bodies + [False] * 3 * n_bodies) * _STEPS


def test_a_baseline_step_calls_forward_dynamics_4_times_and_poses_its_result_once(
    monkeypatch,
):
    # The tracer starts a baseline step at its first forward_dynamics call
    # under integrate(); the stages build no coordinates for a model that
    # reads none, so quat_pos runs only for the renormalized result.
    counts = {"forward_dynamics": 0, "quat_pos": 0}
    _count(monkeypatch, counts, liembs.integrate, "forward_dynamics")
    _count(monkeypatch, counts, liembs.integrate, "quat_pos")
    loaded = load_scenario(_ROOT / "scenarios" / "free_tumble.json")
    model, state, cfg = loaded.build(
        scheme="BaselineQuatRK4", t_end=_STEPS * loaded.h
    )
    liembs.integrate.integrate(model, cfg, state)
    assert counts == {
        "forward_dynamics": 4 * _STEPS,
        "quat_pos": model.n_bodies * _STEPS,
    }


@pytest.mark.parametrize("cid", COMBO_IDS)
@pytest.mark.parametrize(
    "scenario, stage_poses",
    [("free_tumble.json", 0), ("chain_swing.json", 3)],
    ids=["weightless_free_body", "two_body_chain"],
)
def test_a_stage_builds_its_coordinates_only_when_the_model_reads_them(
    monkeypatch, scenario, stage_poses, cid
):
    # Stage 1 (X = 0) reads the coordinates the step starts from; stages
    # 2-4 compose their poses on the model's first read, and the dynamics
    # of a weightless free body read none. The shipped models read only
    # poses, so no stage builds coordinates; the step's update builds one
    # set.
    stage = {"apply_lgt_stacked": 0, "lgt_poses": 0}
    update = {"apply_lgt_stacked": 0}
    _count(monkeypatch, stage, liembs.dynamics, "apply_lgt_stacked")
    _count(monkeypatch, stage, liembs.dynamics, "lgt_poses")
    _count(monkeypatch, update, liembs.integrate, "apply_lgt_stacked")
    loaded = load_scenario(_ROOT / "scenarios" / scenario)
    model, state, cfg = loaded.build(combo_id=cid, t_end=_STEPS * loaded.h)
    liembs.integrate.integrate(model, cfg, state)
    assert stage == {"apply_lgt_stacked": 0, "lgt_poses": stage_poses * _STEPS}
    if cfg.projection == "off":
        assert update["apply_lgt_stacked"] == _STEPS


@pytest.mark.parametrize("cid", COMBO_IDS)
def test_a_projected_chain_step_runs_apply_lgt_only_in_its_update_and_gauss_newton(
    monkeypatch, cid
):
    # Each step's update moves every body once, and so does each
    # Gauss-Newton iteration of the projection; no stage runs the
    # transition map. A tolerance a few ulp above the residuals' rounding
    # makes Gauss-Newton iterate within 100 steps on every combo.
    counts = {"apply_lgt": 0, "ground_increment": 0}
    in_rhs = []
    _count(monkeypatch, counts, liembs.integrate, "ground_increment")
    apply_lgt = liembs.lgt.apply_lgt
    local_rhs = liembs.integrate.local_rhs

    def counted(*args):
        assert not in_rhs, "apply_lgt ran inside local_rhs"
        counts["apply_lgt"] += 1
        return apply_lgt(*args)

    def marked(*args):
        in_rhs.append(1)
        try:
            return local_rhs(*args)
        finally:
            in_rhs.pop()

    monkeypatch.setattr(liembs.lgt, "apply_lgt", counted)
    monkeypatch.setattr(liembs.integrate, "local_rhs", marked)
    loaded = load_scenario(_ROOT / "scenarios" / "chain_swing.json")
    model, state, cfg = loaded.build(combo_id=cid, t_end=0.1)
    assert cfg.projection == "position+velocity"
    cfg = dataclasses.replace(cfg, projection_tol=2e-15)
    rec = liembs.integrate.integrate(model, cfg, state)
    steps = len(rec) - 1
    assert counts["ground_increment"] > 0
    assert counts["apply_lgt"] == model.n_bodies * (steps + counts["ground_increment"])


@pytest.mark.parametrize("cid", COMBO_IDS)
@pytest.mark.parametrize(
    "scenario, projected",
    [("free_tumble.json", False), ("chain_swing.json", True)],
    ids=["free_body", "two_body_chain"],
)
def test_a_projected_run_checks_residuals_once(monkeypatch, scenario, projected, cid):
    # The record takes each step's residuals from the projection; only the
    # initial consistency check, or every step of an unprojected run,
    # calls constraint_residuals, the record's traced span.
    counts = {"constraint_residuals": 0}
    _count(monkeypatch, counts, liembs.integrate, "constraint_residuals")
    loaded = load_scenario(_ROOT / "scenarios" / scenario)
    model, state, cfg = loaded.build(combo_id=cid, t_end=_STEPS * loaded.h)
    assert (cfg.projection != "off") == projected
    liembs.integrate.integrate(model, cfg, state)
    assert counts["constraint_residuals"] == (1 if projected else 1 + _STEPS)


def _require_floats(monkeypatch, seen, module, name, float_args, results=True):
    """Check the calls made through the module global module.name (or,
    for a model class, its method): the arguments at the positions
    float_args and, if results, every list it returns must hold Python
    floats only, the form a step works in."""
    fn = getattr(module, name)

    def checked(*args):
        out = fn(*args)
        outs = list(out) if isinstance(out, tuple) else [out]
        if not results:
            outs = []
        for what, values in [(f"argument {i}", args[i]) for i in float_args] + [
            ("result", values) for values in outs if isinstance(values, list)
        ]:
            leaked = {type(x).__name__ for x in values if type(x) is not float}
            assert not leaked, f"{name} {what} holds {leaked}"
        seen[name] += 1
        return out

    monkeypatch.setattr(module, name, checked)


@pytest.mark.parametrize(
    "scenario, scheme",
    [("free_tumble.json", cid) for cid in COMBO_IDS]
    + [("chain_swing.json", cid) for cid in COMBO_IDS]
    + [("free_tumble.json", "BaselineQuatRK4")],
)
def test_a_step_passes_python_floats_between_its_stages(monkeypatch, scenario, scheme):
    # A numpy scalar that enters the state (such as an inertia read through
    # numpy) slows every float kernel it reaches; the step must carry X, V
    # and the rates it gets back as Python floats.
    seen = {"local_rhs": 0, "forward_dynamics": 0}
    _require_floats(monkeypatch, seen, liembs.integrate, "local_rhs", (3, 4))
    _require_floats(monkeypatch, seen, liembs.integrate, "forward_dynamics", (2,))
    loaded = load_scenario(_ROOT / "scenarios" / scenario)
    baseline = scheme == "BaselineQuatRK4"
    kwargs = {"scheme": scheme} if baseline else {"combo_id": scheme}
    model, state, cfg = loaded.build(t_end=_STEPS * loaded.h, **kwargs)
    liembs.integrate.integrate(model, cfg, state)
    if baseline:
        assert seen == {"local_rhs": 0, "forward_dynamics": 4 * _STEPS}
    else:
        assert seen == {"local_rhs": 4 * _STEPS, "forward_dynamics": 0}


@pytest.mark.parametrize(
    "scenario, scheme",
    [("free_tumble.json", cid) for cid in COMBO_IDS]
    + [("chain_swing.json", cid) for cid in COMBO_IDS]
    + [("free_tumble.json", "BaselineQuatRK4")],
)
def test_the_update_and_the_record_get_python_floats(monkeypatch, scenario, scheme):
    # The step's update of the configuration and the projection's pass X
    # to apply_lgt_stacked as floats, and the record passes V to the
    # energy as floats: an array there would be converted back per body.
    seen = {"apply_lgt_stacked": 0, "energy": 0}
    _require_floats(
        monkeypatch, seen, liembs.integrate, "apply_lgt_stacked", (2,), results=False
    )
    _require_floats(monkeypatch, seen, SphericalJointSystem, "energy", (2,))
    loaded = load_scenario(_ROOT / "scenarios" / scenario)
    baseline = scheme == "BaselineQuatRK4"
    kwargs = {"scheme": scheme} if baseline else {"combo_id": scheme}
    model, state, cfg = loaded.build(t_end=_STEPS * loaded.h, **kwargs)
    liembs.integrate.integrate(model, cfg, state)
    assert seen["energy"] == 1 + _STEPS
    if baseline:
        assert seen["apply_lgt_stacked"] == 0
    else:
        assert seen["apply_lgt_stacked"] >= _STEPS


def _com_frame_pendulum(tmp_path):
    """The shipped pendulum with its body frame moved to the centre of mass
    (the pin 0.5 m above it), swinging, so that every combo accepts it."""
    raw = json.loads((_ROOT / "scenarios" / "pendulum_pinned.json").read_text())
    pin = np.array([0.0, 0.0, 0.5])
    omega = np.array([0.3, -0.2, 0.5])
    body = raw["initial_state"]["bodies"][0]
    rot = quat_to_rotmat(body["orientation_quat"])
    raw["model"]["bodies"][0]["com_offset_m"] = [0.0, 0.0, 0.0]
    raw["model"]["pin_point_body_m"] = pin.tolist()
    body["position_m"] = (-rot @ pin).tolist()
    body["angular_velocity_radps"] = omega.tolist()
    body["linear_velocity_mps"] = (-rot @ np.cross(omega, pin)).tolist()
    path = tmp_path / "pendulum_com_frame.json"
    path.write_text(json.dumps(raw))
    return path


_GROUND_HELD = [("pendulum_pinned.json", cid) for cid in ("1a", "1d", "2a", "2d")] + [
    ("com_frame", cid) for cid in COMBO_IDS
]


def _build(tmp_path, scenario, cid):
    path = (
        _com_frame_pendulum(tmp_path)
        if scenario == "com_frame"
        else _ROOT / "scenarios" / scenario
    )
    loaded = load_scenario(path)
    return loaded.build(combo_id=cid, t_end=_STEPS * loaded.h)


@pytest.mark.parametrize(
    "scenario, cid, per_step",
    [(scenario, cid, 0) for scenario, cid in _GROUND_HELD]
    + [("chain_swing.json", cid, 0) for cid in COMBO_IDS],
)
def test_only_a_body_to_body_joint_takes_the_dense_schur_solve(
    monkeypatch, tmp_path, scenario, cid, per_step
):
    # A system held to the ground alone solves in joint frames with its
    # constant factor, and so does the chain, whose one body-to-body joint
    # leaves a 3x3 pivot per stage; neither reaches the dense least_norm.
    counts = {"least_norm": 0}
    _count(monkeypatch, counts, liembs.dynamics, "least_norm")
    model, state, cfg = _build(tmp_path, scenario, cid)
    liembs.integrate.integrate(model, cfg, state)
    assert counts["least_norm"] == per_step * _STEPS


@pytest.mark.parametrize("cid", COMBO_IDS)
def test_the_chain_stage_solve_reads_no_jacobian_or_curvature(
    monkeypatch, tmp_path, cid
):
    # Unprojected, a step runs only its four stage solves and the record:
    # each solve forms its curvature terms in joint frames, and reads none
    # of the Jacobian, adotv, least_norm and eigh of the dense path.
    model, state, cfg = _build(tmp_path, "chain_swing.json", cid)
    cfg = dataclasses.replace(cfg, projection="off")
    counts = {"jacobian": 0, "adotv": 0, "least_norm": 0, "eigh": 0}
    _count(monkeypatch, counts, SphericalJointSystem, "jacobian")
    _count(monkeypatch, counts, SphericalJointSystem, "adotv")
    _count(monkeypatch, counts, np.linalg, "eigh")
    _count(monkeypatch, counts, liembs.dynamics, "least_norm")
    liembs.integrate.integrate(model, cfg, state)
    assert counts == {"jacobian": 0, "adotv": 0, "least_norm": 0, "eigh": 0}


@pytest.mark.parametrize(
    "scenario, cid",
    _GROUND_HELD + [("chain_swing.json", cid) for cid in COMBO_IDS],
)
def test_a_projected_step_reads_no_jacobian_least_norm_or_eigh(
    monkeypatch, tmp_path, scenario, cid
):
    # A ground-held step and a chain step project in joint frames with
    # their constant factors and take their residuals from the float point
    # velocities: no Jacobian, least_norm or eigh per step. The model is
    # built (and its factors taken) before the counting starts.
    model, state, cfg = _build(tmp_path, scenario, cid)
    assert cfg.projection == "position+velocity"
    counts = {"jacobian": 0, "least_norm": 0, "eigh": 0}
    _count(monkeypatch, counts, SphericalJointSystem, "jacobian")
    _count(monkeypatch, counts, np.linalg, "eigh")
    for module in (liembs.dynamics, liembs.integrate):
        _count(monkeypatch, counts, module, "least_norm")
    liembs.integrate.integrate(model, cfg, state)
    assert counts == {"jacobian": 0, "least_norm": 0, "eigh": 0}


@pytest.mark.parametrize("scenario, cid", _GROUND_HELD)
def test_the_joint_frame_solve_returns_python_floats(
    monkeypatch, tmp_path, scenario, cid
):
    # K^-1 kept as numpy rows would leak np.float64 into every kernel.
    seen = {"local_rhs": 0}
    _require_floats(monkeypatch, seen, liembs.integrate, "local_rhs", (3, 4))
    model, state, cfg = _build(tmp_path, scenario, cid)
    assert model.ground_schur is not None
    liembs.integrate.integrate(model, cfg, state)
    assert seen == {"local_rhs": 4 * _STEPS}
