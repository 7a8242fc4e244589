"""The call path that the benchmark's span tracer wraps.

``bench/spans.py`` times each layer by replacing module globals of liembs
(its ``WRAPS``) and methods of the public model classes. A refactor that
drops one of those names, or takes its calls off the path, leaves the traced
benchmark without per-layer metrics; these tests catch that first. The
tracer module is loaded by path and nothing of it is installed.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import liembs.dynamics
import liembs.integrate
from liembs.cli import load_scenario
from liembs.lgt import COMBO_IDS

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
