"""Tests for the scenario runner and its exit-code contracts."""

import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liembs.cli import Scenario, main
from liembs.lgt import COMBO_IDS, alpha_map

_SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _load(name):
    return json.loads((_SCENARIOS / name).read_text())


def _write(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture()
def tumble(tmp_path):
    doc = _load("free_tumble.json")
    doc["integrator"]["t_end_s"] = 0.1
    return _write(tmp_path, doc)


def test_run_row_count_and_header(tumble, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["run", str(tumble), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 101  # header + floor(t_end/h)+1 records
    header = lines[0].split(",")
    assert header[0] == "t"
    assert header[-4:] == ["energy", "gnorm", "gvnorm", "qnorm_err"]
    assert len(header) == 1 + 7 + 6 + 4
    summary = capsys.readouterr().out
    assert "energy drift" in summary
    assert "quaternion norm drift" in summary


def test_csv_is_lf_terminated_full_precision(tumble, tmp_path):
    out = tmp_path / "traj.csv"
    main(["run", str(tumble), "--out", str(out), "--quiet"])
    blob = out.read_bytes()
    assert b"\r" not in blob
    row0 = blob.decode().splitlines()[1].split(",")
    # Values round-trip: 17 significant digits suffice for binary64.
    assert float(row0[8]) == 0.5
    assert row0[10] == "0.29999999999999999"


def test_run_t_end_zero_single_row(tumble, tmp_path):
    doc = json.loads(tumble.read_text())
    doc["integrator"]["t_end_s"] = 0.0
    path = _write(tmp_path, doc, "zero.json")
    out = tmp_path / "zero.csv"
    assert main(["run", str(path), "--out", str(out), "--quiet"]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_run_is_deterministic(tumble, tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    main(["run", str(tumble), "--out", str(out_a), "--quiet"])
    main(["run", str(tumble), "--out", str(out_b), "--quiet"])
    assert out_a.read_bytes() == out_b.read_bytes()


def test_quiet_suppresses_summary(tumble, tmp_path, capsys):
    out = tmp_path / "traj.csv"
    assert main(["run", str(tumble), "--out", str(out), "--quiet"]) == 0
    assert capsys.readouterr().out == ""


def test_default_output_path_next_to_scenario(tumble, capsys):
    assert main(["run", str(tumble)]) == 0
    expected = tumble.with_suffix(".csv")
    assert expected.exists()
    assert str(expected) in capsys.readouterr().out


def test_missing_field_exits_2_with_path(tmp_path, capsys):
    doc = _load("free_tumble.json")
    del doc["model"]["bodies"][0]["mass_kg"]
    path = _write(tmp_path, doc)
    assert main(["run", str(path)]) == 2
    assert "model.bodies[0].mass_kg" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section,key,value,field",
    [
        ("integrator", "t_end_s", float("inf"), "integrator.t_end_s"),
        ("integrator", "t_end_s", float("nan"), "integrator.t_end_s"),
        ("integrator", "h_s", float("inf"), "integrator.h_s"),
        (
            "body",
            "angular_velocity_radps",
            [float("nan"), 0.0, 0.0],
            "initial_state.bodies[0].angular_velocity_radps",
        ),
    ],
)
def test_non_finite_number_exits_2_with_path(
    tmp_path, capsys, section, key, value, field
):
    doc = _load("free_tumble.json")
    if section == "body":
        doc["initial_state"]["bodies"][0][key] = value
    else:
        doc[section][key] = value
    path = _write(tmp_path, doc)  # json.dumps writes NaN and Infinity
    assert main(["run", str(path)]) == 2
    assert field in capsys.readouterr().err


def test_bad_combo_exits_2(tmp_path, capsys):
    doc = _load("free_tumble.json")
    doc["integrator"]["combo"] = "3z"
    path = _write(tmp_path, doc)
    assert main(["run", str(path)]) == 2
    assert "3z" in capsys.readouterr().err


def test_invalid_json_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["run", str(path)]) == 2
    assert "JSON" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path, capsys):
    assert main(["run", str(tmp_path / "absent.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_inconsistent_state_exits_3(tmp_path, capsys):
    doc = _load("pendulum_pinned.json")
    doc["initial_state"]["bodies"][0]["position_m"] = [0.01, 0.0, 0.0]
    path = _write(tmp_path, doc)
    assert main(["run", str(path)]) == 3
    assert "inconsistent initial state" in capsys.readouterr().err


def test_non_unit_quaternion_exits_3_naming_the_field(tmp_path, capsys):
    doc = _load("chain_swing.json")
    doc["initial_state"]["bodies"][1]["orientation_quat"] = [1.0, 0.0, 1e-4, 0.0]
    path = _write(tmp_path, doc)
    assert main(["run", str(path)]) == 3
    assert "initial_state.bodies[1].orientation_quat" in capsys.readouterr().err


@pytest.mark.parametrize(
    "body, key, value",
    [(1, "mass_kg", 0.0), (0, "inertia_kgm2", [0.1, -0.1, 0.02])],
)
def test_body_the_model_rejects_exits_2_naming_it(tmp_path, capsys, body, key, value):
    doc = _load("chain_swing.json")
    doc["model"]["bodies"][body][key] = value
    path = _write(tmp_path, doc)
    assert main(["run", str(path)]) == 2
    assert f"model.bodies[{body}]" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scenario, key, value, named",
    [
        (
            "pendulum_pinned.json", "com_offset_m", [0.0, 0.0, -1e160],
            "model: body 0: the mass matrix",
        ),
        ("pendulum_pinned.json", "mass_kg", 1e-310, "model.bodies[0]: mass"),
        (
            "pendulum_pinned.json", "inertia_kgm2", [1e-310, 0.1, 0.06],
            "model.bodies[0]: inertia",
        ),
        ("free_tumble.json", "mass_kg", 1e-310, "model.bodies[0]: mass"),
        (
            "free_tumble.json", "inertia_kgm2", [1e-310, 0.1, 0.06],
            "model.bodies[0]: inertia",
        ),
    ],
)
def test_a_mass_or_inertia_without_a_usable_inverse_exits_2_naming_it(
    tmp_path, capsys, scenario, key, value, named
):
    # A subnormal mass or inertia entry has a reciprocal that overflows, and
    # a centre of mass 1e160 m off the frame gives an inverse mass matrix
    # that overflows; each once reached the run as a chart or Schur failure
    # (exit 4) or as numpy's "Singular matrix", which names no body.
    doc = _load(scenario)
    doc["model"]["bodies"][0][key] = value
    path = _write(tmp_path, doc)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error: model")
    assert named in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_overflowing_initial_energy_exits_3(tmp_path, capsys):
    doc = _load("free_tumble.json")
    doc["initial_state"]["bodies"][0]["angular_velocity_radps"] = [1e160, 0.0, 0.0]
    doc["integrator"]["t_end_s"] = 0.0
    path = _write(tmp_path, doc)
    assert main(["run", str(path)]) == 3
    assert "initial energy" in capsys.readouterr().err


def test_integration_failure_exits_4_with_step_index(tmp_path, capsys):
    doc = _load("free_tumble.json")
    doc["integrator"]["h_s"] = 1.0
    doc["integrator"]["t_end_s"] = 3.0
    path = _write(tmp_path, doc)
    assert main(["run", str(path)]) == 4
    err = capsys.readouterr().err
    assert "step 0" in err


@pytest.mark.parametrize(
    "key, value", [("mass_kg", 1e300), ("inertia_kgm2", [1e-300, 1.0, 1.0])]
)
def test_a_chain_singular_in_floats_exits_4_naming_the_schur_gate(
    tmp_path, capsys, key, value
):
    # The joint-frame pivot's bound rejects the stage, and the dense
    # solve it falls back to raises from its eigh gate.
    doc = _load("chain_swing.json")
    doc["model"]["bodies"][1][key] = value
    path = _write(tmp_path, doc)
    assert main(["run", str(path), "--out", str(tmp_path / "out.csv")]) == 4
    err = capsys.readouterr().err
    assert "step 0 at t=0 failed: Schur complement A M^-1 A^T reciprocal" in err
    assert err.rstrip().endswith("below 1e-12")


def test_overflowing_step_count_exits_2_with_path(tmp_path, capsys):
    doc = _load("free_tumble.json")
    doc["integrator"]["t_end_s"] = 1e308  # t_end_s / h_s overflows to inf
    path = _write(tmp_path, doc)
    assert main(["run", str(path)]) == 2
    assert "integrator.t_end_s" in capsys.readouterr().err


def test_partial_last_step_exits_2_with_path(tmp_path, capsys):
    doc = _load("free_tumble.json")
    doc["integrator"]["h_s"] = 0.3
    doc["integrator"]["t_end_s"] = 1.0  # 3.33 steps: would stop at t = 0.9
    path = _write(tmp_path, doc)
    assert main(["run", str(path)]) == 2
    assert "integrator.t_end_s" in capsys.readouterr().err


@pytest.mark.parametrize(
    "changes,key",
    [
        ({"h_s": -1}, "h_s"),
        ({"projection_tol": 0}, "projection_tol"),
        ({"projection_max_iter": 0}, "projection_max_iter"),
        ({"scheme": "Foo"}, "scheme"),
        ({"projection": "on"}, "projection"),
        ({"combo": "3z"}, "combo"),
        ({"scheme": "BaselineQuatRK4", "projection": "position+velocity"}, "projection"),
        # 1e297 steps: numpy cannot shape the trajectory record.
        ({"h_s": 1e-300, "t_end_s": 1e-3}, "t_end_s"),
    ],
)
def test_bad_integrator_value_exits_2_naming_its_key(tmp_path, capsys, changes, key):
    doc = _load("free_tumble.json")
    doc["integrator"].update(changes)
    path = _write(tmp_path, doc)
    out = tmp_path / "t.csv"
    assert main(["run", str(path), "--out", str(out)]) == 2
    assert f"scenario error: integrator.{key}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "output_csv, use_out, where",
    [
        (None, True, "--out"),
        ("", False, "output_csv"),
        ("missing/t.csv", False, "output_csv"),
    ],
    ids=[
        "out-in-missing-directory",
        "empty-output-csv",
        "output-csv-in-missing-directory",
    ],
)
def test_unopenable_output_exits_2_naming_its_source(
    tmp_path, capsys, monkeypatch, output_csv, use_out, where
):
    def no_run(*args, **kwargs):
        pytest.fail("integrate ran before the output path was checked")

    monkeypatch.setattr("liembs.cli.integrate", no_run)
    monkeypatch.chdir(tmp_path)  # a relative output_csv resolves here
    doc = _load("free_tumble.json")
    doc["integrator"]["t_end_s"] = 0.1
    if output_csv is not None:
        doc["output_csv"] = output_csv
    path = _write(tmp_path, doc)
    out = ["--out", str(tmp_path / "missing" / "t.csv")] if use_out else []
    assert main(["run", str(path), *out]) == 2
    assert f"{where}: " in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, extra", [("compare", []), ("convergence", ["--h", "0.02,0.01"])]
)
def test_unwritable_out_exits_2_before_any_run(
    tumble, tmp_path, capsys, monkeypatch, command, extra
):
    def no_run(*args, **kwargs):
        pytest.fail("integrate ran before --out was checked")

    monkeypatch.setattr("liembs.cli.integrate", no_run)
    out = tmp_path / "missing" / "t.csv"
    assert main([command, str(tumble), *extra, "--out", str(out)]) == 2
    assert "--out: " in capsys.readouterr().err
    assert not out.parent.exists()


@pytest.mark.parametrize(
    "scenario,block,changes,code",
    [
        (
            "pendulum_pinned.json",
            ("initial_state", "bodies", 0),
            {"position_m": [0.01, 0.0, 0.0]},
            3,
        ),
        ("free_tumble.json", ("integrator",), {"h_s": 1.0, "t_end_s": 3.0}, 4),
    ],
)
def test_failed_run_leaves_no_new_csv(tmp_path, capsys, scenario, block, changes, code):
    doc = _load(scenario)
    target = doc
    for key in block:
        target = target[key]
    target.update(changes)
    path = _write(tmp_path, doc)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    old.write_text("kept\n")
    assert main(["run", str(path), "--out", str(new)]) == code
    assert main(["run", str(path), "--out", str(old)]) == code
    assert not new.exists()
    assert old.read_text() == "kept\n"
    capsys.readouterr()


def test_convergence_blames_h_for_a_reference_run_too_long_to_record(
    tumble, capsys
):
    # The reference run at min(h)/10 = 1e-300 would need 1e299 records.
    assert main(["convergence", str(tumble), "--h", "2e-299,1e-299"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("--h") and "integrator.t_end_s" not in err


def test_convergence_rejects_h_that_does_not_reach_t_end(tmp_path, capsys):
    doc = _load("free_tumble.json")
    doc["integrator"]["t_end_s"] = 0.05  # 16.67 steps of 0.003
    path = _write(tmp_path, doc)
    assert main(["convergence", str(path), "--h", "0.003,0.0015,0.00075"]) == 2
    assert "--h 0.003:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "name,group_model,combo",
    [("free_tumble.json", "se3", "1a"), ("pendulum_pinned.json", "so3xr3", "1b")],
)
def test_off_centre_frame_the_model_rejects_exits_2(
    tmp_path, capsys, name, group_model, combo
):
    doc = _load(name)
    doc["model"]["group_model"] = group_model
    doc["model"]["bodies"][0]["com_offset_m"] = [0.0, 0.0, -0.5]
    doc["integrator"]["combo"] = combo
    path = _write(tmp_path, doc)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error: model")
    assert "body 0" in err


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_state_exits_4_with_step_index(tmp_path, capsys):
    doc = _load("free_tumble.json")
    doc["initial_state"]["bodies"][0]["angular_velocity_radps"] = [1e150, 1e150, 0.0]
    doc["integrator"] = {"scheme": "BaselineQuatRK4", "h_s": 1e-3, "t_end_s": 0.01}
    path = _write(tmp_path, doc)
    out = tmp_path / "traj.csv"
    assert main(["run", str(path), "--out", str(out)]) == 4
    assert "step 0" in capsys.readouterr().err
    assert not out.exists()


_MK = {"scheme": "MuntheKaasRK4", "h_s": 1e-3, "t_end_s": 0.01}


@pytest.mark.parametrize(
    "field, integrator, code",
    [
        (
            ("angular_velocity_radps", [1e150, 1e150, 0.0]),
            {"scheme": "BaselineQuatRK4", "h_s": 1e-3, "t_end_s": 0.01},
            4,
        ),
        (("angular_velocity_radps", [1e300, 0.0, 0.0]), {**_MK, "combo": "1a"}, 3),
        (("orientation_axisangle_rad", [1e200, 0.0, 0.0]), {**_MK, "combo": "1a"}, 3),
        (("orientation_axisangle_rad", [1e200, 0.0, 0.0]), {**_MK, "combo": "2b"}, 3),
    ],
    ids=[
        "overflow-in-step",
        "overflowing-initial-energy",
        "overflowing-axisangle-norm-1a",
        "overflowing-axisangle-norm-2b",
    ],
)
def test_overflow_exits_with_one_message_and_no_numpy_warning(
    tmp_path, field, integrator, code
):
    name, value = field
    doc = _load("free_tumble.json")
    body = doc["initial_state"]["bodies"][0]
    if name == "orientation_axisangle_rad":
        del body["orientation_quat"]
    body[name] = value
    doc["integrator"] = integrator
    path = _write(tmp_path, doc)
    proc = subprocess.run(
        [sys.executable, "-m", "liembs.cli", "run", str(path), "--out", str(tmp_path / "t.csv")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == code, proc.stderr
    assert "Warning" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    if name == "orientation_axisangle_rad":
        assert name in proc.stderr, proc.stderr


def test_pinned_scenario_runs_with_projection(tmp_path, capsys):
    doc = _load("pendulum_pinned.json")
    doc["integrator"]["t_end_s"] = 0.5
    path = _write(tmp_path, doc)
    out = tmp_path / "pend.csv"
    assert main(["run", str(path), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()
    gnorm_col = rows[0].split(",").index("gnorm")
    worst = max(float(r.split(",")[gnorm_col]) for r in rows[1:])
    assert worst < 1e-10


def test_chain_scenario_runs(tmp_path):
    doc = _load("chain_swing.json")
    doc["integrator"]["t_end_s"] = 0.2
    path = _write(tmp_path, doc)
    out = tmp_path / "chain.csv"
    assert main(["run", str(path), "--out", str(out), "--quiet"]) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert len(header) == 1 + 14 + 12 + 4  # two bodies: 2*7 coords, 2*6 twists


def test_axis_angle_chain_header_names_rho_columns(tmp_path):
    doc = _load("chain_swing.json")
    doc["integrator"].update(combo="2d", t_end_s=0.01)
    path = _write(tmp_path, doc)
    out = tmp_path / "chain.csv"
    assert main(["run", str(path), "--out", str(out), "--quiet"]) == 0
    lines = out.read_text().splitlines()
    coords = [
        f"{part}{i}_{c}" for i in (1, 2) for part in ("rho", "r") for c in "xyz"
    ]
    twists = [
        f"V{i}_{c}" for i in (1, 2) for c in ("wx", "wy", "wz", "vx", "vy", "vz")
    ]
    assert lines[0].split(",") == (
        ["t"] + coords + twists + ["energy", "gnorm", "gvnorm", "qnorm_err"]
    )
    assert {line.split(",")[-1] for line in lines[1:]} == {"nan"}


def test_convergence_slope_and_table(tumble, tmp_path, capsys):
    doc = json.loads(tumble.read_text())
    doc["integrator"]["t_end_s"] = 0.5
    path = _write(tmp_path, doc, "conv.json")
    out = tmp_path / "conv.csv"
    code = main(
        ["convergence", str(path), "--h", "1e-2,5e-3,2.5e-3", "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    slope = float(next(l for l in stdout.splitlines() if l.startswith("slope:")).split(":")[1])
    r2 = float(next(l for l in stdout.splitlines() if l.startswith("r_squared:")).split(":")[1])
    assert 3.8 < slope < 4.2
    assert r2 > 0.999
    rows = out.read_text().splitlines()
    assert rows[0] == "h,error"
    errors = [float(r.split(",")[1]) for r in rows[1:]]
    assert errors == sorted(errors, reverse=True)


def test_convergence_is_deterministic(tumble, capsys):
    assert main(["convergence", str(tumble), "--h", "1e-2,5e-3"]) == 0
    first = capsys.readouterr().out
    assert main(["convergence", str(tumble), "--h", "1e-2,5e-3"]) == 0
    assert capsys.readouterr().out == first


def test_convergence_rejects_single_h(tumble, capsys):
    assert main(["convergence", str(tumble), "--h", "1e-2"]) == 2
    capsys.readouterr()


def test_convergence_rejects_repeated_h(tumble, capsys):
    assert main(["convergence", str(tumble), "--h", "1e-2,1e-2"]) == 2
    assert capsys.readouterr().err.startswith("--h")


def test_convergence_runs_each_distinct_h_once(tumble, capsys):
    assert main(["convergence", str(tumble), "--h", "1e-2,5e-3,1e-2"]) == 0
    rows = [l for l in capsys.readouterr().out.splitlines() if l[:1].isdigit()]
    assert [float(r.split(",")[0]) for r in rows] == [1e-2, 5e-3]


def _parse_drifts(stdout):
    drifts = {}
    for line in stdout.splitlines():
        parts = line.split(",")
        if len(parts) == 2 and parts[0] != "label":
            try:
                drifts[parts[0]] = float(parts[1])
            except ValueError:
                pass
    return drifts


def test_compare_combos_agree_on_smooth_problem(tmp_path, capsys):
    doc = _load("free_tumble.json")
    doc["integrator"]["t_end_s"] = 0.5
    path = _write(tmp_path, doc)
    out = tmp_path / "compare.csv"
    assert main(["compare", str(path), "--out", str(out)]) == 0
    capsys.readouterr()
    rows = [r.split(",") for r in out.read_text().splitlines()[1:]]
    assert len(rows) == 45  # 9 labels, unordered pairs incl. self-pairs
    for a, b, d in rows:
        if a == b:
            assert float(d) == 0.0
        elif "baseline" not in (a, b):
            assert float(d) < 1e-8


def test_compare_baseline_drifts_where_lgt_does_not(tmp_path, capsys):
    doc = _load("free_tumble.json")
    doc["integrator"]["h_s"] = 2e-2  # coarse enough for visible baseline drift
    doc["integrator"]["t_end_s"] = 0.5
    path = _write(tmp_path, doc)
    assert main(["compare", str(path)]) == 0
    drifts = _parse_drifts(capsys.readouterr().out)
    assert drifts["baseline"] > 1e-12
    for cid in ("1a", "1b", "1c", "1d"):
        assert drifts[cid] < 1e-12


def test_compare_runs_the_combos_of_a_baseline_scenario(tmp_path, capsys):
    doc = _load("free_tumble.json")
    doc["integrator"] = {"scheme": "BaselineQuatRK4", "h_s": 2e-2, "t_end_s": 0.5}
    path = _write(tmp_path, doc)
    assert main(["compare", str(path)]) == 0
    drifts = _parse_drifts(capsys.readouterr().out)
    assert drifts["baseline"] > 1e-12
    for cid in ("1a", "1b", "1c", "1d"):
        assert drifts[cid] < 1e-12


def test_every_combo_starts_a_near_pi_quaternion_from_one_pose():
    # 1.31e-4 short of a half turn, where the rotation-matrix logarithm
    # that once fed the rotation-vector combos lost 4.2e-8.
    doc = _load("free_tumble.json")
    doc["initial_state"]["bodies"][0]["orientation_quat"] = [
        -6.570947065926631e-05,
        -0.18672581698794632,
        -0.8119045296668113,
        0.5531224996860673,
    ]
    scenario = Scenario(doc)
    poses = [
        alpha_map(scenario.build(combo_id=cid)[1].qs[0]) for cid in COMBO_IDS
    ]
    for rot, r in poses[1:]:
        assert np.max(np.abs(rot - poses[0][0])) <= 1e-14
        assert np.array_equal(r, poses[0][1])


@pytest.mark.parametrize(
    "name", ["free_tumble.json", "pendulum_pinned.json", "chain_swing.json"]
)
def test_compare_runs_what_the_model_admits(tmp_path, capsys, name):
    doc = _load(name)
    doc["integrator"]["t_end_s"] = 20 * doc["integrator"]["h_s"]
    path = _write(tmp_path, doc)
    assert main(["compare", str(path)]) == 0
    captured = capsys.readouterr()
    assert "max pairwise pose discrepancy" in captured.out
    skipped = {
        line.split(":")[1].strip()
        for line in captured.err.splitlines()
        if line.startswith("skipped: ")
    }
    drifts = _parse_drifts(captured.out)
    assert skipped.isdisjoint(drifts)
    assert skipped | set(drifts) == set(COMBO_IDS) | {"baseline"}
    if name == "pendulum_pinned.json":  # frame off the CoM, with projection
        assert skipped == {"1b", "1c", "2b", "2c", "baseline"}


def test_console_entry_point_runs(tumble, tmp_path):
    out = tmp_path / "traj.csv"
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "liembs.cli",
            "run",
            str(tumble),
            "--out",
            str(out),
            "--quiet",
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()


def test_cli_import_loads_numpy_only():
    code = (
        "import sys, liembs.cli; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "keys,field",
    [
        (("model", "bodies", 0, "inertia_kgm2"), "model.bodies[0].inertia_kgm2"),
        (("initial_state", "bodies", 0, "position_m"), "initial_state.bodies[0].position_m"),
        (("model", "pin_point_body_m"), "model.pin_point_body_m"),
        (("model", "anchor_world_m"), "model.anchor_world_m"),
        (("output_csv",), "output_csv"),
    ],
)
def test_null_field_exits_2_with_path(tmp_path, capsys, keys, field):
    doc = _load("pendulum_pinned.json")
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = None  # present, so it must have its type
    path = _write(tmp_path, doc)
    assert main(["run", str(path), "--out", str(tmp_path / "t.csv")]) == 2
    assert field in capsys.readouterr().err


def _paths(node, prefix=()):
    """Every field path below node: object keys and list indices."""
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list)
        else ()
    )
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _short(name):
    doc = _load(name)
    doc["integrator"]["t_end_s"] = 20 * doc["integrator"]["h_s"]
    return doc


_FUZZ_SCENARIOS = {
    name: _short(name)
    for name in ("free_tumble.json", "pendulum_pinned.json", "chain_swing.json")
}
_FUZZ_FIELDS = [
    (name, keys) for name, doc in _FUZZ_SCENARIOS.items() for keys in _paths(doc)
]
_DELETE, _WRONG_LENGTH = object(), object()
_MUTATIONS = [
    _DELETE, None, True, "bad", {}, _WRONG_LENGTH,
    0, -1, float("nan"), float("inf"), float("-inf"),
]


@settings(max_examples=400, deadline=None)
@given(field=st.sampled_from(_FUZZ_FIELDS), mutation=st.sampled_from(_MUTATIONS))
def test_mutated_scenario_exits_with_a_documented_code(field, mutation):
    name, keys = field
    doc = copy.deepcopy(_FUZZ_SCENARIOS[name])
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    old = parent[keys[-1]]
    if mutation is _DELETE:
        del parent[keys[-1]]
    elif mutation is _WRONG_LENGTH:
        parent[keys[-1]] = old + old[-1:] if isinstance(old, list) and old else [0.0, 0.0]
    else:
        parent[keys[-1]] = copy.deepcopy(mutation)
    with tempfile.TemporaryDirectory() as tmp:
        path = _write(Path(tmp), doc)
        out = Path(tmp) / "t.csv"
        code = main(["run", str(path), "--out", str(out), "--quiet"])
        assert code in (0, 2, 3, 4), (name, keys, mutation)
        if out.exists():
            assert "nan" not in out.read_text().lower(), (name, keys, mutation)
