"""Pinned trajectories: the numbers must not move across refactors.

``finals_20_steps.json`` holds the final coordinates row ``q`` and twist
``V`` of 20-step copies of the three shipped scenarios, under every scheme
that ``liembs compare`` can run on each of them. They were recorded before
the step paths and joint models were merged into one RK4 core and one
spherical-joint model, and are fixed from then on: a change that reorders
arithmetic must stay within the absolute tolerance below.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from liembs.cli import load_scenario
from liembs.integrate import BASELINE_QUAT_RK4, integrate

_TESTS = Path(__file__).resolve().parent
_FINALS = json.loads((_TESTS / "finals_20_steps.json").read_text())
_ATOL = 1.0e-12
_STEPS = 20

_CASES = [(name, label) for name, runs in _FINALS.items() for label in runs]


@pytest.mark.parametrize("name,label", _CASES)
def test_final_state_matches_recorded_values(name, label):
    scenario = load_scenario(_TESTS.parent / "scenarios" / f"{name}.json")
    if label == "baseline":
        kwargs = {"scheme": BASELINE_QUAT_RK4}
    else:
        kwargs = {"combo_id": label}
    model, state, cfg = scenario.build(t_end=_STEPS * scenario.h, **kwargs)
    rec = integrate(model, cfg, state)
    assert len(rec) == _STEPS + 1
    want = _FINALS[name][label]
    np.testing.assert_allclose(rec.q[-1], want["q"], rtol=0.0, atol=_ATOL)
    np.testing.assert_allclose(rec.v[-1], want["V"], rtol=0.0, atol=_ATOL)
