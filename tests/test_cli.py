import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tandemlearn import (
    ModelError,
    SignalModel,
    __version__,
    check_equilibrium,
    designed_profile,
    error_trajectory,
    game,
)
from tandemlearn.cli import (
    _COMMANDS,
    _COMMON_FLAGS,
    EXIT_MODEL_ERROR,
    EXIT_USAGE_ERROR,
    _checkpoints,
    _jsonable,
    _write_csv,
    _write_json,
    main,
    parse_model,
    parse_profile,
)
from tandemlearn.signals import quantize


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


def test_model_file_of_no_model_keys_exits_with_the_library_model_error(tmp_path, capsys):
    """``parse_model`` passes the library's ``ModelError`` through unwrapped."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"x": 1}))
    with pytest.raises(ModelError) as info:
        parse_model(str(path))
    argv = ["exact", "--model", str(path), "--profile", "copy", "--n", "3"]
    assert main(argv) == EXIT_MODEL_ERROR
    payload = json.loads(capsys.readouterr().out)
    assert (payload["error"], payload["reason"]) == ("model", str(info.value))
    assert str(info.value) == "model spec needs either p0/p1 or support/f0/f1"


@pytest.mark.parametrize("argv", [
    ["series", "--m", str(2**62)],
    ["series", "--m", str(2**63 - 1)],
    ["schedule", "--m", str(2**62)],
    ["schedule", "--m", str(2**64)],
])
def test_segment_counts_past_any_memory_exit_with_usage_error(argv, capsys):
    """Sizes numpy will not describe are refused as memory, not as a traceback."""
    assert main([*argv, "--model", "0.3,0.7"]) == EXIT_USAGE_ERROR
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "usage" and "do not fit in memory" in payload["reason"]


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


def test_exact_designed_rows_equal_the_golden_file(tmp_path):
    """The rows of the benchmark's exact call, byte for byte as written
    before the block-start maps were joined per segment."""
    out = tmp_path / "exact.csv"
    assert main([
        "exact", "--model", "0.3,0.7", "--profile", "designed",
        "--n", "50000", "--checkpoints", "10000,50000", "--out", str(out),
    ]) == 0
    rows = [line for line in out.read_text().splitlines(True) if not line.startswith("#")]
    golden = os.path.join(os.path.dirname(__file__), "data", "exact_designed_n50000.csv")
    with open(golden) as f:
        assert "".join(rows) == f.read()


def test_simulate_command_reproducible(tmp_path):
    """Two identical calls in one process, which share the parser built by
    the first, write the same artifacts byte for byte."""
    args = [
        "simulate", "--model", "0.3,0.7", "--profile", "designed",
        "--n", "300", "--reps", "50", "--seed", "9", "--checkpoints", "100,300",
    ]
    written = []
    for name in ("a", "b"):
        out, out_json = tmp_path / f"{name}.csv", tmp_path / f"{name}.json"
        assert main(args + ["--out", str(out), "--out-json", str(out_json)]) == 0
        written.append((out.read_bytes(), out_json.read_bytes()))
    assert written[0] == written[1]


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


@pytest.mark.parametrize(
    "argv, k",
    [
        (["exact", "--n", "10"], 1),
        (["simulate", "--n", "10", "--reps", "3", "--seed", "0"], 1),
        (["equilibrium", "--range", "1..5"], 1),
        (["exact", "--profile", "designed", "--k", "3", "--n", "10"], 2),
    ],
)
def test_config_records_the_window_that_ran(argv, k, tmp_path, capsys):
    """``k`` in an artifact's config is the profile's own window length,
    not the --k flag it did not use."""
    path = tmp_path / "k1.json"
    path.write_text(json.dumps({"K": 1, "default": {"0": {"1": 1.0}, "1": {"0": 1.0, "1": 1.0}}}))
    if "--profile" not in argv:
        argv = [*argv, "--profile", str(path)]
    assert main([*argv, "--model", "0.3,0.7"]) == 0
    text = capsys.readouterr().out
    if argv[0] == "equilibrium":
        config = json.loads(text)["config"]
    else:
        config = json.loads(text.splitlines()[1].removeprefix("# config: "))
    assert config["k"] == k


@pytest.mark.parametrize("argv", [
    ["schedule", "--m", "3"],
    ["exact", "--profile", "copy", "--n", "5"],
    ["series", "--m", "10"],
    ["simulate", "--profile", "copy", "--n", "5", "--reps", "2", "--out-json", "{tmp}/sim.json"],
    ["equilibrium", "--profile", "myopic", "--k", "1", "--range", "1..3"],
    ["k1diag", "--n", "5"],
], ids=lambda argv: argv[0])
def test_every_artifact_records_every_flag_it_ran_with(argv, tmp_path):
    """An artifact's config holds each flag of its subcommand but --out and
    --out-json, given or not; ``series`` adds its exponents alpha and beta."""
    out = tmp_path / "out"
    assert main([a.format(tmp=tmp_path) for a in argv] + ["--out", str(out)]) == 0
    flags = {**_COMMON_FLAGS, **_COMMANDS[argv[0]][1]}.keys() - {"--out", "--out-json"}
    expected = {flag[2:].replace("-", "_") for flag in flags}
    expected |= {"alpha", "beta"} if argv[0] == "series" else set()
    text = out.read_text()
    if argv[0] == "equilibrium":
        configs = [json.loads(text)["config"]]
    else:
        configs = [json.loads(text.splitlines()[1].removeprefix("# config: "))]
    if argv[0] == "simulate":
        configs.append(json.loads((tmp_path / "sim.json").read_text())["config"])
    for config in configs:
        assert config.keys() == expected


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


def _stdlib_json(payload: dict, config: dict) -> str:
    """The reference writer: the whole report through json.dumps."""
    payload = {"tandemlearn": __version__, "config": config, **payload}
    return json.dumps(payload, indent=2, sort_keys=True, default=_jsonable) + "\n"


def _is_stdlib_json(text: str) -> bool:
    """Whether ``text`` is what json.dumps writes for the values it holds."""
    return text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize(
    "flags, count",
    [
        (["--profile", "myopic", "--k", "1", "--delta", "0", "--range", "1..50"], 0),
        (["--profile", "designed", "--delta", "0.5", "--horizon", "20", "--range", "1..1"], 1),
        (["--profile", "designed", "--delta", "0.5", "--horizon", "20", "--range", "1..150"], 108),
    ],
)
def test_equilibrium_report_matches_stdlib_writer(flags, count, capsys):
    """The report's violations, written by column, are the bytes json.dumps
    writes for the list of per-violation records."""
    assert main(["equilibrium", "--model", "0.3,0.7", "--eps", "0.01", *flags]) == 0
    text = capsys.readouterr().out
    report, expected = _report_by_records(json.loads(text)["config"])
    assert len(report.violations) == count
    assert text == expected


def _report_by_records(config: dict):
    """The check an equilibrium call's config asks for, and the bytes
    json.dumps writes for its report as a list of per-violation records."""
    model = quantize(SignalModel(0.3, 0.7))
    n1, n2 = (int(x) for x in config["range"].split(".."))
    profile = parse_profile(config["profile"], model, K=config["k"],
                            horizon=n2 + config["horizon"] + 1)
    report = check_equilibrium(profile, model, config["delta"], (n1, n2), config["eps"],
                               config["horizon"])
    records = [{**vars(v), "window": "".join(str(b) for b in v.window)} for v in report.violations]
    expected = {"passed": report.passed, "checked": report.checked,
                "tail_bound": report.tail_bound, "violations": records}
    return report, _stdlib_json(expected, config)


def test_equilibrium_command_builds_no_violation_record(monkeypatch, capsys):
    """The command writes the report from the check's columns: with every
    ``Violation`` refused, the benchmark's call writes the bytes of the
    records its report derives."""

    class Refused(game.Violation):
        def __init__(self, *fields):
            raise AssertionError("a Violation record was built")

    argv = ["equilibrium", "--model", "0.3,0.7", "--profile", "designed", "--delta", "0.5",
            "--eps", "0.01", "--horizon", "20", "--range", "1..150"]
    with monkeypatch.context() as patch:
        patch.setattr(game, "Violation", Refused)
        assert main(argv) == 0
    text = capsys.readouterr().out
    report, expected = _report_by_records(json.loads(text)["config"])
    assert len(report.violations) == 108
    assert text == expected


def test_write_json_by_column_matches_stdlib(capsys):
    columns = {
        "z": [0.1, 1.0 / 3.0, -0.0, 5e-324, 1e16, 1e-7, 123456789.0],
        "a": [0, -1, 2**70, 7, 1, 3, 10**18],
        "window": ["01", "", "caf\u00e9", 'say "hi"', "tab\there", "\\", "%s %d"],
    }
    records = [dict(zip(columns, row)) for row in zip(*columns.values())]
    for rows in (0, 1, 7):
        cut = {k: v[:rows] for k, v in columns.items()}
        payload = {"passed": rows == 0, "checked": 5, "violations": cut}
        _write_json(None, payload, {"range": "1..2", "violations": 3}, by_column="violations")
        expected = _stdlib_json({**payload, "violations": records[:rows]},
                                {"range": "1..2", "violations": 3})
        assert capsys.readouterr().out == expected


def test_simulate_summary_and_errors_match_stdlib_writer(tmp_path, capsys):
    out = tmp_path / "sim.json"
    assert main([
        "simulate", "--model", "0.3,0.7", "--n", "200", "--reps", "20", "--seed", "1",
        "--out-json", str(out),
    ]) == 0
    assert _is_stdlib_json(out.read_text())
    capsys.readouterr()
    for argv, rc in ((["exact", "--n", "0"], EXIT_USAGE_ERROR),
                     (["exact", "--model", "0.5,0.5", "--profile", "copy"], EXIT_MODEL_ERROR),
                     (["k1diag", "--profile", "copy", "--n", "1000000000000"], EXIT_USAGE_ERROR)):
        assert main(argv) == rc
        text = capsys.readouterr().out
        assert _is_stdlib_json(text) and json.loads(text)["error"]


def _fmt(x) -> str:
    """The per-cell formatting the CSV writer once used."""
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def test_write_csv_matches_per_cell_formatting(capsys):
    floats = np.array([-0.0, 5e-324, 1e16, math.inf, -math.inf, math.nan, 0.1, 1 / 3, 2.5e-310])
    columns = (
        range(1, 10), np.arange(9) * 10**17, floats, list(floats[::-1]),
        [3, -7, 2**70, 0, 1, 10**20, -1, 5, 9], ["a", "b c", "%d", "", "x", "y", "z", "w", "v"],
    )
    config = {"m": 9, "x": 0.1}
    _write_csv(None, ["a", "b", "c", "d", "e", "f"], columns, config)
    lines = [
        f"# tandemlearn {__version__}",
        f"# config: {json.dumps(config, sort_keys=True, default=_jsonable)}",
        "a,b,c,d,e,f",
    ]
    lines += [",".join(_fmt(x) for x in row) for row in zip(*columns)]
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_checkpoints_parse_integers_exactly():
    assert _checkpoints("1e3,5,1.5e1", 10**4) == [1000, 5, 15]
    assert _checkpoints(f"{2**53 + 1},{2**63 - 1}", 2**63 - 1) == [2**53 + 1, 2**63 - 1]
    for text in ("1.5", "99.9", "100.0", "2.5e0", "1e-3", "1.0000000000000001e17", "1e400"):
        with pytest.raises(ValueError):
            _checkpoints(text, 10**4)


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


@pytest.mark.parametrize("flag", [["--reps", "3"], ["--rep", "3"], ["--reps=3"], ["--rep=3"]])
def test_explicit_flags_beat_config_in_every_spelling(flag, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"reps": 7}))
    out = tmp_path / "sim.json"
    rc = main([
        "--config", str(cfg), "simulate", "--model", "0.3,0.7", "--n", "20", *flag,
        "--out", str(tmp_path / "sim.csv"), "--out-json", str(out),
    ])
    assert rc == 0
    assert json.loads(out.read_text())["reps"] == 3


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
        ["--n", "100", "--checkpoints", "1.5,99.9"],
        ["--n", "100", "--checkpoints", "50.0"],
        ["--n", "100", "--checkpoints", "2.55e1"],
        ["--n", "10", "--checkpoints", ","],
        ["--k", "0"],
        ["--profile", "bogus"],
        ["--profile", "copy", "--k", "17"],
        ["--profile", "myopic", "--k", str(10**30)],
        # An agent key beyond int64.
        ["--n", "10", "--profile", {"K": 1, "agents": {"99999999999999999999": {}}}],
        # Profile files that are not well-formed profiles.
        ["--n", "10", "--profile", {}],
        ["--n", "10", "--profile", [1, 2]],
        ["--n", "10", "--profile", {"K": 40}],
        ["--n", "10", "--profile", {"K": 2, "default": [1]}],
        ["--n", "10", "--profile", {"K": 2.5}],
        ["--n", "10", "--profile", {"K": 2, "default": {"00": 1}}],
        ["--n", "10", "--profile", {"K": 2, "agents": {"3": [0]}}],
        ["--n", "10", "--profile", {"K": 1, "default": {"0": {"1": None}}}],
        # Per-agent overrides must name agents 1, 2, ...
        ["--n", "10", "--profile", {"K": 1, "agents": {"0": {}, "-4": {}}}],
        # Agent indices beyond int64 (the simulate case is in the test below).
        ["--n", str(2**63), "--checkpoints", "5"],
        ["--n", str(10**30), "--checkpoints", "5"],
        # Keys that alias another agent or window would silently override it.
        ["--n", "10", "--profile", {"K": 1, "agents": {
            "1": {"0": {"0": 1, "1": 1}, "1": {"0": 1, "1": 1}}, "01": {"0": {"0": 0}}}}],
        ["--n", "10", "--profile", {"K": 2, "default": {"01": {"0": 1}, "+1": {"0": 0}}}],
        ["--n", "10", "--profile", {"K": 3, "default": {"001": {"0": 1}, "0_1": {"0": 0}}}],
    ],
)
def test_exact_rejects_bad_range_with_usage_error(flags, tmp_path, capsys):
    if not isinstance(flags[-1], str):  # a JSON value: written to a file, passed by path
        path = tmp_path / "profile.json"
        path.write_text(json.dumps(flags[-1]))
        flags = [*flags[:-1], str(path)]
    rc = main(["exact", "--model", "0.3,0.7", "--profile", "designed", *flags])
    assert rc == EXIT_USAGE_ERROR
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "usage"
    assert payload["reason"]


def test_exact_myopic_at_a_huge_n_stores_tables_to_the_fixed_point_only(tmp_path):
    """Myopic tables stop at the laws' fixed point, so a horizon of 10^12
    agents runs and agent 5 reads as at ``--n 5``."""
    rows = []
    for n in ("1000000000000", "5"):
        out = tmp_path / f"{n}.csv"
        argv = ["--profile", "myopic", "--n", n, "--checkpoints", "5", "--out", str(out)]
        assert main(["exact", "--model", "0.3,0.7", *argv]) == 0
        rows.append(out.read_text().splitlines()[2:])
    assert rows[0] == rows[1]


@pytest.mark.parametrize(
    "argv, error",
    [
        (["--config", "{path}", "exact", "--profile", "copy"], "usage"),
        (["exact", "--profile", "{path}"], "usage"),
        (["exact", "--model", "{path}", "--profile", "copy"], "model"),
    ],
)
def test_deeply_nested_json_exits_with_a_structured_error(argv, error, tmp_path, capsys):
    """JSON nested past the parser's recursion limit is malformed input:
    the JSON error, not a traceback."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    rc = main([*(a.format(path=path) for a in argv), "--n", "5"])
    assert rc == {"usage": EXIT_USAGE_ERROR, "model": EXIT_MODEL_ERROR}[error]
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == error and payload["reason"]


@pytest.mark.parametrize(
    "flags",
    [
        ["--range", "5..1"],
        ["--range", "abc"],
        ["--range", "1..50", "--delta", "0.9", "--eps", "0.01", "--horizon", "5"],
        ["--range", f"1..{10**30}"],
        ["--range", f"1..{2**63 - 20}", "--delta", "0.5", "--eps", "0.01", "--horizon", "20"],
        # The rule tables of agents 1..1 + 10^15 are refused at once.
        ["--profile", "copy", "--range", "1..5", "--delta", "0.5", "--eps", "0.01",
         "--horizon", str(10**15)],
    ],
)
def test_equilibrium_rejects_bad_arguments_with_usage_error(flags, capsys):
    rc = main(["equilibrium", "--model", "0.3,0.7", "--profile", "designed", *flags])
    assert rc == EXIT_USAGE_ERROR
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "usage"
    assert payload["reason"]


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--reps", "0"],
        ["simulate", "--n", "10", "--checkpoints", "50"],
        ["simulate", "--n", "10", "--checkpoints", "abc"],
        ["series", "--m", "1"],
        ["k1diag", "--profile", "designed"],
        ["k1diag", "--n", "0"],
        ["k1diag", "--profile", "copy", "--n", "-1"],
        ["simulate", "--n", "10", "--seed", "-1"],
        ["simulate", "--n", "10", "--seed", str(2**64)],
        ["schedule", "--m", "0"],
        ["schedule", "--m", "-3"],
        ["simulate", "--profile", "copy", "--n", str(10**30), "--reps", "1", "--checkpoints", "5"],
        ["simulate", "--profile", "copy", "--n", str(2**63), "--reps", "1", "--checkpoints", "5"],
        # More replications than int64 holds, and more than memory holds.
        ["simulate", "--n", "10", "--reps", "100000000000000000000"],
        ["simulate", "--n", "10", "--reps", "1000000000000"],
        # 10^12 segments or agents: the system refuses their arrays.
        ["series", "--m", "1000000000000"],
        ["schedule", "--m", "1000000000000"],
        ["k1diag", "--profile", "copy", "--n", "1000000000000"],
        # Arrays of 2^59 entries and more are refused before numpy, which
        # would raise ValueError for them.
        ["k1diag", "--profile", "copy", "--n", str(2**62)],
        ["equilibrium", "--profile", "copy", "--range", "1..5", "--delta", "0.5", "--eps", "0.01",
         "--horizon", str(2**61)],
        ["equilibrium", "--profile", "designed", "--range", "1..5", "--delta", "0.5",
         "--eps", "0.01", "--horizon", str(2**62)],
        ["simulate", "--profile", "copy", "--n", "10", "--reps", str(2**62)],
    ],
)
def test_bad_arguments_exit_with_usage_error(argv, capsys):
    assert main([*argv, "--model", "0.3,0.7"]) == EXIT_USAGE_ERROR
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "usage"
    assert payload["reason"]


@pytest.mark.parametrize("eps", ["nan", "-1", "0", "inf"])
def test_equilibrium_rejects_eps_that_is_not_finite_and_positive(eps, capsys):
    rc = main([
        "equilibrium", "--model", "0.3,0.7", "--profile", "designed", "--range", "1..150",
        "--delta", "0.5", "--horizon", "20", "--eps", eps,
    ])
    assert rc == EXIT_USAGE_ERROR
    reason = json.loads(capsys.readouterr().out)["reason"]
    assert "eps" in reason and "horizon" not in reason


@pytest.mark.parametrize("content", [None, "{not json", "[0.3, 0.7]", '{"p0": "x", "p1": 0.7}', "5"])
def test_unusable_model_specs_exit_with_model_error(content, tmp_path, capsys):
    specs = ["abc", "0.3", "0.3,0.7,0.9", "p0=0.3,p1=", "nan,0.7", str(tmp_path)]
    if content is not None:
        path = tmp_path / "model.json"
        path.write_text(content)
        specs = [str(path)]
    else:
        specs.append(str(tmp_path / "nope.json"))
    for spec in specs:
        assert main(["exact", "--model", spec, "--profile", "copy", "--n", "3"]) == EXIT_MODEL_ERROR
        payload = json.loads(capsys.readouterr().out)
        assert payload["error"] == "model" and payload["reason"]


@pytest.mark.parametrize(
    "content, argv",
    [
        ({"n": "abc"}, ["exact", "--profile", "copy"]),
        ({"reps": 2.5}, ["simulate", "--profile", "copy", "--n", "5"]),
        ({"theta": 2}, ["simulate", "--profile", "copy", "--n", "5"]),
        ({"k": True}, ["exact", "--profile", "copy", "--n", "5"]),
        ([1, 2], ["exact", "--profile", "copy", "--n", "5"]),
        ("{not json", ["exact", "--profile", "copy", "--n", "5"]),
        (None, ["exact", "--profile", "copy", "--n", "5"]),
    ],
)
def test_config_values_go_through_flag_types(content, argv, tmp_path, capsys):
    """A --config value is read as its flag's command-line text: one that
    the flag's type or choices reject, a file that is not a JSON object
    and a missing file all exit 4 with the JSON error."""
    path = tmp_path / "run.json"
    if content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    assert main(["--config", str(path), *argv]) == EXIT_USAGE_ERROR
    payload = json.loads(capsys.readouterr().out)
    assert payload["error"] == "usage" and payload["reason"].startswith("--config")


def test_config_keys_that_name_no_flag_and_nulls_are_ignored(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(
        {"func": "x", "command": "y", "o": 1, "bogus": [], "n": 30, "out": None, "seed": None}
    ))
    assert main(["--config", str(path), "simulate", "--profile", "copy", "--reps", "2",
                 "--checkpoints", "30"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("30,")  # null --out: stdout


# Values each flag takes in the fuzz test: valid ones, edge cases and junk.
# Sizes stay small so every call is cheap.
_FLAG_VALUES = {
    "--model": ["0.3,0.7", "p0=0.4,p1=0.6", "0.7,0.3", "0.5,0.5", "abc", "nope.json", "1,0",
                "nan,0.7", "0.3", ""],
    "--profile": ["designed", "myopic", "copy", "constant0", "constant1", "bogus", "nope.json"],
    "--n": ["-1", "0", "1", "2", "17", "60", "abc", "1e3"],
    "--k": ["-1", "0", "1", "2", "3", "17", str(10**30)],
    "--reps": ["-1", "0", "1", "5"],
    "--seed": ["-1", "0", "7", str(2**64 - 1), str(2**64), "x"],
    "--theta": ["0", "1", "2"],
    "--checkpoints": ["1", "5,17", "0", "abc", ",", "1e400", "-3", "60,1", "1e3", "1.5,99.9",
                      "2.5e0"],
    "--m": ["-1", "0", "1", "2", "12", "abc"],
    "--delta": ["0", "0.5", "0.9", "1", "-0.1", "nan", "inf"],
    "--eps": ["0.01", "1e-9", "0", "-1", "nan", "inf", "-inf", "abc"],
    "--range": ["1..20", "5..1", "abc", "0..3", "3..3", "1..2..3"],
    "--horizon": ["-1", "0", "5", "20"],
}
_COMMAND_FLAGS = {
    "schedule": ["--model"],
    "exact": ["--model", "--profile", "--n", "--k", "--checkpoints"],
    "series": ["--model", "--checkpoints"],
    "simulate": ["--model", "--profile", "--n", "--k", "--reps", "--seed", "--theta",
                 "--checkpoints"],
    "equilibrium": ["--model", "--profile", "--delta", "--eps", "--range", "--horizon", "--k"],
    "k1diag": ["--model", "--profile", "--n"],
}
_REQUIRED = {"schedule": "--m", "series": "--m"}  # their defaults are costly


# JSON values a --config entry takes in the fuzz test, beside the flag texts.
_JSON_JUNK = [2.5, True, None, [1], {"a": 1}, -1, "", "nan"]


@settings(max_examples=200, derandomize=True, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_fuzz_exits_cleanly(data):
    """No traceback escapes any combination of flag values, on the command
    line or in a --config file, every exit code is documented, and no
    equilibrium passes with a non-finite eps."""
    command = data.draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    flags = data.draw(st.lists(st.sampled_from(_COMMAND_FLAGS[command]), unique=True))
    flags += [_REQUIRED[command]] if command in _REQUIRED else []
    argv = [command]
    for flag in flags:
        argv += [flag, data.draw(st.sampled_from(_FLAG_VALUES[flag]))]
    config = None
    if data.draw(st.booleans()):
        keys = data.draw(st.lists(st.sampled_from(_COMMAND_FLAGS[command] + ["--bogus"]), unique=True))
        config = {
            key.lstrip("-"): data.draw(st.sampled_from(_FLAG_VALUES.get(key, []) + _JSON_JUNK))
            for key in keys
        }
        config = data.draw(st.sampled_from([config, config, [config], "{not json"]))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = os.path.join(tmp, "run.json")
            with open(path, "w") as fh:
                fh.write(config if isinstance(config, str) else json.dumps(config))
            argv = ["--config", path] + argv
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse rejects the flag itself
                rc = exc.code
    assert rc in (0, 2, 4), (argv, config, rc)
    if command == "equilibrium" and rc == 0:
        text = argv[argv.index("--eps") + 1] if "--eps" in argv else None
        if text is None and isinstance(config, dict) and config.get("eps") is not None:
            text = str(config["eps"])
        eps = float(text) if text is not None else 1e-9
        report = json.loads(out.getvalue())
        assert not report["passed"] or (math.isfinite(eps) and eps > 0), (argv, config)
