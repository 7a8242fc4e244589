"""Tests for the scenario runner and its exit-code contracts."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from liembs.cli import main

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


def test_overflowing_step_count_exits_2_with_path(tmp_path, capsys):
    doc = _load("free_tumble.json")
    doc["integrator"]["t_end_s"] = 1e308  # t_end_s / h_s overflows to inf
    path = _write(tmp_path, doc)
    assert main(["run", str(path)]) == 2
    assert "integrator.t_end_s" in capsys.readouterr().err


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
