import json

import numpy as np
import pytest

from tandemlearn import SignalModel, designed_profile, error_trajectory
from tandemlearn.cli import (
    EXIT_MODEL_ERROR,
    EXIT_USAGE_ERROR,
    main,
    parse_model,
    parse_profile,
)


def _read_csv(path):
    header = None
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            continue
        if header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return header, rows


def test_parse_model_forms(tmp_path):
    assert parse_model("0.3,0.7") == SignalModel(0.3, 0.7)
    assert parse_model("p0=0.3,p1=0.7") == SignalModel(0.3, 0.7)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"p0": 0.4, "p1": 0.6}))
    assert parse_model(str(path)) == SignalModel(0.4, 0.6)


def test_parse_profile_names(m37):
    assert parse_profile("designed", m37, 2, 20).descriptor == "designed"
    assert parse_profile("constant0", m37, 2, 20).descriptor == "constant0"
    assert parse_profile("myopic", m37, 1, 20).descriptor.startswith("myopic")


def test_schedule_command(tmp_path):
    out = tmp_path / "sched.csv"
    assert main(["schedule", "--model", "0.3,0.7", "--m", "8", "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["m", "k_m", "r_m", "segment_start", "segment_len"]
    assert rows[6][:3] == ["7", "1", "1"]
    assert rows[7][:3] == ["8", "2", "2"]
    assert out.read_text().startswith("# tandemlearn")


def test_exact_command_matches_library(tmp_path, m37):
    out = tmp_path / "exact.csv"
    rc = main([
        "exact", "--model", "0.3,0.7", "--profile", "designed",
        "--n", "50", "--checkpoints", "10,50", "--out", str(out),
    ])
    assert rc == 0
    _, rows = _read_csv(out)
    exact = error_trajectory(designed_profile(m37), m37, 50, checkpoints=[10, 50])
    for row, p in zip(rows, exact.p_correct):
        assert float(row[3]) == pytest.approx(p, abs=1e-15)


def test_simulate_command_reproducible(tmp_path):
    args = [
        "simulate", "--model", "0.3,0.7", "--profile", "designed",
        "--n", "300", "--reps", "50", "--seed", "9", "--checkpoints", "100,300",
    ]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert _read_csv(out_a) == _read_csv(out_b)


def test_simulate_json_summary(tmp_path):
    out = tmp_path / "sim.json"
    rc = main([
        "simulate", "--model", "0.3,0.7", "--profile", "designed",
        "--n", "200", "--reps", "20", "--seed", "1", "--out-json", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["reps"] == 20
    assert "census_median" in payload and "switches_quantiles" in payload
    assert payload["config"]["seed"] == 1


def test_series_command(tmp_path):
    out = tmp_path / "series.csv"
    rc = main([
        "series", "--model", "0.3,0.7", "--m", "1000",
        "--checkpoints", "100,1000", "--out", str(out),
    ])
    assert rc == 0
    _, rows = _read_csv(out)
    assert len(rows) == 2
    assert float(rows[1][1]) > float(rows[0][1])  # divergent sums grow


def test_equilibrium_command(tmp_path):
    out = tmp_path / "eq.json"
    rc = main([
        "equilibrium", "--model", "0.4,0.6", "--profile", "myopic", "--k", "1",
        "--delta", "0", "--eps", "1e-9", "--range", "1..50",
        "--horizon", "100", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["passed"] is True
    assert payload["violations"] == []


def test_k1diag_command(tmp_path):
    out = tmp_path / "diag.csv"
    rc = main([
        "k1diag", "--model", "0.4,0.6", "--profile", "myopic",
        "--n", "30", "--out", str(out),
    ])
    assert rc == 0
    header, rows = _read_csv(out)
    assert header[0] == "n"
    assert len(rows) == 30


def test_config_file_supplies_defaults(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 40, "model": "0.3,0.7", "profile": "copy"}))
    out = tmp_path / "exact.csv"
    rc = main([
        "--config", str(cfg), "exact", "--checkpoints", "40", "--out", str(out),
    ])
    assert rc == 0
    _, rows = _read_csv(out)
    assert rows[0][0] == "40"


def test_explicit_flags_beat_config(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 40, "model": "0.3,0.7", "profile": "copy"}))
    out = tmp_path / "exact.csv"
    rc = main([
        "--config", str(cfg), "exact", "--n", "7", "--checkpoints", "7",
        "--out", str(out),
    ])
    assert rc == 0
    _, rows = _read_csv(out)
    assert rows[0][0] == "7"


def test_invalid_model_exit_code():
    assert main(["exact", "--model", "0.5,0.5", "--profile", "copy", "--n", "3"]) == EXIT_MODEL_ERROR


@pytest.mark.parametrize(
    "flags",
    [
        ["--n", "0"],
        ["--n", "-5"],
        ["--n", "10", "--checkpoints", "0,10"],
        ["--n", "10", "--checkpoints", "5,11"],
        ["--n", "10", "--checkpoints", "abc"],
        ["--n", "10", "--checkpoints", "1e400"],
        ["--n", "10", "--checkpoints", ","],
    ],
)
def test_exact_rejects_bad_range_with_usage_error(flags, capsys):
    rc = main(["exact", "--model", "0.3,0.7", "--profile", "designed", *flags])
    assert rc == EXIT_USAGE_ERROR
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "usage"
    assert payload["reason"]


@pytest.mark.parametrize(
    "flags",
    [
        ["--range", "5..1"],
        ["--range", "abc"],
        ["--range", "1..50", "--delta", "0.9", "--eps", "0.01", "--horizon", "5"],
    ],
)
def test_equilibrium_rejects_bad_arguments_with_usage_error(flags, capsys):
    rc = main(["equilibrium", "--model", "0.3,0.7", "--profile", "designed", *flags])
    assert rc == EXIT_USAGE_ERROR
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "usage"
    assert payload["reason"]
