"""Experiment runner: subcommand dispatch and deterministic artifacts.

Configuration comes from an optional JSON file overridden by flags; a
file value is read as its flag's command-line text.
Every output file embeds the fully resolved configuration and a version
stamp, so reruns can be compared byte for byte: CSV floats are printed
with 17 significant digits, and JSON floats as Python's shortest repr
that reads back to the same value.

Exit codes: 0 success, 2 invalid model, 4 invalid arguments: any
``tandemlearn.ArgumentError``, the library's one exit-4 error (a flag or
profile outside what its subcommand accepts, an unreadable or malformed
profile or ``--config`` file, a value a flag's type rejects), or flags
whose arrays the system refuses to allocate.  ``main`` alone maps errors
to codes 2 and 4, with a JSON object of ``error`` and ``reason``.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .chain import (
    ArgumentError,
    designed_trajectory,
    error_trajectory,
    k1_diagnostics,
    series_diagnostics,
)
from .game import certified_tail, check_equilibrium
from .montecarlo import SimConfig, estimate_error
from .profiles import (
    MAX_K,
    DesignedProfile,
    baseline_profile,
    designed_profile,
    myopic_profile,
    profile_from_json,
)
from .schedule import segment_table
from .signals import ModelError, SignalModel, model_from_dict, quantize

EXIT_MODEL_ERROR = 2
EXIT_USAGE_ERROR = 4
MAX_N = (1 << 63) - 1  # the largest agent index an int64 agent array holds


def _jsonable(x):
    return x.item()  # a numpy scalar, the one non-JSON type a config or payload holds


def _emit(path, text: str):
    if path is None:
        sys.stdout.write(text)
    else:  # the text is ASCII; a binary file skips the text layer's set-up
        with open(path, "wb") as fh:
            fh.write(text.encode())


def _columns(columns, float_conversion: str):
    """Each column (an array, list or range) as a list or range, and the
    ``%`` conversion its values take: ``float_conversion`` for floats,
    ``%d`` for integers and ``%s`` for anything else."""
    values = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    conversions = [
        float_conversion if isinstance(first, float) else "%d" if isinstance(first, int) else "%s"
        for first in (c[0] if len(c) else None for c in values)
    ]
    return values, conversions


def _write_csv(path, header_cols, columns, config: dict):
    """A table given by ``columns``, one row per line: floats with 17
    significant digits, integers and strings as they print."""
    values, conversions = _columns(columns, "%.17g")
    row = ",".join(conversions) + "\n"
    config = json.dumps(config, sort_keys=True, default=_jsonable)
    head = f"# tandemlearn {__version__}\n# config: {config}\n{','.join(header_cols)}\n"
    _emit(path, head + "".join(map(row.__mod__, zip(*values))))


def _write_json(path, payload: dict, config: dict, by_column=None):
    """``payload`` with the version and ``config``, as json.dumps writes it
    indented by two with sorted keys.  The top-level key ``by_column``,
    if given, holds a dict of equal-length columns (field -> ints, finite
    floats or strings) and is written as the list of its records: each
    column is encoded at once and each record laid out by one template."""
    payload = {"tandemlearn": __version__, "config": config, **payload}
    if by_column is not None:
        fields = sorted(payload[by_column])
        values, conversions = _columns([payload[by_column][f] for f in fields], "%r")
        values = [
            list(map(encode_basestring_ascii, v)) if conv == "%s" else v
            for v, conv in zip(values, conversions)
        ]
        payload[by_column] = []
    text = json.dumps(payload, indent=2, sort_keys=True, default=_jsonable)
    if by_column is not None:
        record = ",".join(
            f"\n      {encode_basestring_ascii(f)}: {conv}" for f, conv in zip(fields, conversions)
        )
        record = "\n    {" + record + "\n    }"
        records = ",".join(map(record.__mod__, zip(*values)))
        key = f"\n  {encode_basestring_ascii(by_column)}: "
        text = text.replace(key + "[]", key + (f"[{records}\n  ]" if records else "[]"), 1)
    _emit(path, text + "\n")


def parse_model(spec: str):
    """Model from 'p0,p1', 'p0=..,p1=..', or a JSON file path; any spec
    that does not give a valid model raises ``ModelError``."""
    try:
        if spec.endswith(".json") or os.path.sep in spec:
            with open(spec) as fh:
                return model_from_dict(json.load(fh))
        parts = [p.strip() for p in spec.split(",")]
        vals = {}
        for i, part in enumerate(parts):
            if "=" in part:
                key, val = part.split("=", 1)
                vals[key.strip()] = float(val)
            else:
                vals[f"p{i}"] = float(part)
    except ModelError:
        raise
    except (OSError, ValueError, TypeError, AttributeError, RecursionError) as exc:
        # unreadable file, malformed or deep JSON, bad numbers, or JSON of the wrong shape
        raise ModelError(f"cannot parse model spec {spec!r}: {exc}") from None
    if set(vals) != {"p0", "p1"}:
        raise ModelError(f"cannot parse model spec {spec!r}")
    return SignalModel(p0=vals["p0"], p1=vals["p1"])


def parse_profile(spec: str, model, K: int, horizon: int):
    """Profile from a name (designed, myopic, constant0, constant1, copy)
    or a JSON table path, for a binary signal model."""
    if not 1 <= K <= MAX_K:
        raise ArgumentError(f"--k must lie in [1, {MAX_K}], got {K}")
    try:
        if spec.endswith(".json") or os.path.sep in spec:
            return profile_from_json(spec)
        if spec == "designed":
            return designed_profile(model)
        if spec == "myopic":
            return myopic_profile(model, K=K, horizon=horizon)
        return baseline_profile(spec, K=K)
    except (OSError, ValueError, RecursionError) as exc:  # bad name or file, deep JSON
        raise ArgumentError(f"--profile {spec}: {exc}") from None


def _integer(token: str):
    """The integer ``token`` names exactly, in decimal or exponent form
    (``1e3``), or None."""
    try:
        return int(token)
    except ValueError:
        pass
    try:
        value = float(token)
    except ValueError:
        return None
    if "e" not in token.lower() or not value.is_integer():
        return None
    import decimal  # imported here: it adds about 2 ms to every start-up

    return int(value) if decimal.Decimal(token) == value else None


def _checkpoints(text, N: int) -> list:
    """The agents listed in ``--checkpoints``, or the powers of ten up to N, and N."""
    if not text:
        cps, n = [], 1
        while n <= N:
            cps.append(n)
            n *= 10
        return cps if cps and cps[-1] == N else cps + [N]
    cps = [_integer(tok) for tok in text.split(",") if tok.strip()]
    if None in cps:
        raise ArgumentError(f"--checkpoints must be integers, got {text!r}")
    if not cps:
        raise ArgumentError(f"--checkpoints lists no agent, got {text!r}")
    return cps


def _check_count(flag: str, value: int) -> None:
    if not 1 <= value <= MAX_N:
        raise ArgumentError(f"{flag} must lie in [1, 2^63 - 1], got {value}")


def cmd_schedule(args, config: dict) -> int:
    if args.m < 1:
        raise ArgumentError(f"--m must be >= 1, got {args.m}")
    k, r, start = segment_table(quantize(parse_model(args.model))).layout(args.m)
    columns = (range(1, args.m + 1), k, r, start, 2 * k + 2 * r)
    header = ["m", "k_m", "r_m", "segment_start", "segment_len"]
    _write_csv(args.out, header, columns, config)
    return 0


def cmd_exact(args, config: dict) -> int:
    _check_count("--n", args.n)
    cps = _checkpoints(args.checkpoints, args.n)
    model = quantize(parse_model(args.model))
    profile = parse_profile(args.profile, model, K=args.k, horizon=args.n)
    if isinstance(profile, DesignedProfile):  # its block starts hold a consensus
        traj = designed_trajectory(model, args.n, cps)
    else:
        traj = error_trajectory(profile, model, args.n, cps)
    columns = (traj.ns, traj.p0_correct, traj.p1_correct, traj.p_correct)
    # "k" records the window that ran, which a JSON profile sets itself.
    config = {**config, "k": profile.K}
    _write_csv(args.out, ["n", "p0_correct", "p1_correct", "p_correct"], columns, config)
    return 0


def cmd_series(args, config: dict) -> int:
    model = quantize(parse_model(args.model))
    cps = _checkpoints(args.checkpoints, args.m)
    diag = series_diagnostics(model, args.m, cps)
    columns = (diag.checkpoints, diag.sum_p1k, diag.sum_q1r, diag.sum_p0k, diag.sum_q0r)
    header = ["M", "sum_p1^k/m", "sum_q1^r/m", "sum_p0^k/m", "sum_q0^r/m"]
    _write_csv(args.out, header, columns, {**config, "alpha": diag.alpha, "beta": diag.beta})
    return 0


def cmd_simulate(args, config: dict) -> int:
    _check_count("--n", args.n)
    _check_count("--reps", args.reps)
    model = quantize(parse_model(args.model))
    cps = _checkpoints(args.checkpoints, args.n)
    profile = parse_profile(args.profile, model, K=args.k, horizon=args.n)
    stats = estimate_error(SimConfig(
        profile=profile,
        model=model,
        N=args.n,
        reps=args.reps,
        seed=args.seed,
        theta=args.theta,
        checkpoints=tuple(cps),
    ))
    config = {**config, "k": profile.K, "checkpoints": list(stats.ns)}
    _write_csv(args.out, ["n", "mean", "se"], (stats.ns, stats.mean, stats.se), config)
    if args.out_json:
        _write_json(
            args.out_json,
            {
                "switches_quantiles": {str(k): v for k, v in stats.switches_quantiles.items()},
                "census_median": list(stats.census_median),
                "census_mean": list(stats.census_mean),
                "last_switch_median": stats.last_switch_median,
                "reps": stats.reps,
            },
            config,
        )
    return 0


def cmd_equilibrium(args, config: dict) -> int:
    try:
        n1, n2 = (int(x) for x in args.range.split(".."))
    except ValueError:
        raise ArgumentError(f"--range must read n1..n2 with integers, got {args.range!r}") from None
    certified_tail((n1, n2), args.delta, args.eps, args.horizon)  # before any profile is built
    if n2 + args.horizon + 1 > MAX_N:
        reason = f"--range {args.range} and --horizon {args.horizon} pass agent 2^63 - 1"
        raise ArgumentError(reason)
    model = quantize(parse_model(args.model))
    profile = parse_profile(args.profile, model, K=args.k, horizon=n2 + args.horizon + 1)
    report = check_equilibrium(
        profile, model, delta=args.delta, n_range=(n1, n2), eps=args.eps, horizon=args.horizon
    )
    violations = dict(report.columns)
    text = {u: format(u, f"0{report.K}b") for u in set(violations["window"])}
    violations["window"] = list(map(text.__getitem__, violations["window"]))
    _write_json(
        args.out,
        {
            "passed": report.passed,
            "checked": report.checked,
            "tail_bound": report.tail_bound,
            "violations": violations,
        },
        {**config, "k": profile.K},
        by_column="violations",
    )
    return 0


def cmd_k1diag(args, config: dict) -> int:
    _check_count("--n", args.n)
    model = quantize(parse_model(args.model))
    profile = parse_profile(args.profile, model, K=1, horizon=args.n)
    diag = k1_diagnostics(profile, model, args.n)
    columns = (
        range(1, args.n + 1), diag.a[:, 0, 1], diag.a[:, 1, 0], diag.abar[:, 0, 1],
        diag.abar[:, 1, 0], diag.sum_a01, diag.sum_a10,
    )
    header = ["n", "a01", "a10", "abar01", "abar10", "sum_a01", "sum_a10"]
    _write_csv(args.out, header, columns, config)
    return 0


_COMMON_FLAGS = {"--model": dict(default="p0=0.3,p1=0.7"), "--out": dict(default=None)}

# Subcommand -> (handler, flags beside _COMMON_FLAGS).  A handler takes the
# resolved flags and the config its artifacts record, to which it adds
# only the values it resolves itself.
_COMMANDS = {
    "schedule": (cmd_schedule, {"--m": dict(type=int, default=10)}),
    "exact": (
        cmd_exact,
        {
            "--profile": dict(default="designed"),
            "--n": dict(type=int, default=1000),
            "--k": dict(type=int, default=2),
            "--checkpoints": dict(default=None),
        },
    ),
    "series": (
        cmd_series,
        {"--m": dict(type=int, default=10**6), "--checkpoints": dict(default=None)},
    ),
    "simulate": (
        cmd_simulate,
        {
            "--profile": dict(default="designed"),
            "--n": dict(type=int, default=10**4),
            "--k": dict(type=int, default=2),
            "--reps": dict(type=int, default=100),
            "--seed": dict(type=int, default=0),
            "--theta": dict(type=int, default=None, choices=(0, 1)),
            "--checkpoints": dict(default=None),
            "--out-json": dict(default=None),
        },
    ),
    "equilibrium": (
        cmd_equilibrium,
        {
            "--profile": dict(default="myopic"),
            "--delta": dict(type=float, default=0.0),
            "--eps": dict(type=float, default=1e-9),
            "--range": dict(default="1..100"),
            "--horizon": dict(type=int, default=0),
            "--k": dict(type=int, default=2),
        },
    ),
    "k1diag": (
        cmd_k1diag,
        {"--profile": dict(default="myopic"), "--n": dict(type=int, default=100)},
    ),
}


def _add_flags(parser, command: str) -> None:
    """Add the flags of ``command`` to ``parser``, without their defaults."""
    for flag, kwargs in {**_COMMON_FLAGS, **_COMMANDS[command][1]}.items():
        parser.add_argument(flag, **{k: v for k, v in kwargs.items() if k != "default"})


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared after.
    A subcommand's namespace holds only the flags given on the command line."""
    parser = argparse.ArgumentParser(
        prog="tandemlearn", description="Tandem social-learning laboratory"
    )
    parser.add_argument("--config", help="JSON file with default flag values")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        _add_flags(sub.add_parser(name, argument_default=argparse.SUPPRESS), name)
    return parser


def _config_values(path, command: str, given: set) -> dict:
    """Flag values from a ``--config`` JSON object, for the flags of
    ``command`` not in ``given``.  Each value is read as the flag's
    command-line text, through the flag's type and choices; null leaves
    the flag at its default, and keys that name no flag of the command
    are ignored."""
    try:
        with open(path) as fh:
            config = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # unreadable, malformed or deep JSON
        raise ArgumentError(f"--config {path}: {exc}") from None
    if not isinstance(config, dict):
        raise ArgumentError(f"--config {path}: expected a JSON object of flag values")
    parser = argparse.ArgumentParser(
        add_help=False, allow_abbrev=False, exit_on_error=False,
        argument_default=argparse.SUPPRESS,
    )
    _add_flags(parser, command)
    tokens = [
        f"--{key.replace('_', '-')}={value}"
        for key, value in config.items()
        if value is not None and key.replace("-", "_") not in given
    ]
    try:
        values, _ = parser.parse_known_args(tokens)
    except argparse.ArgumentError as exc:
        raise ArgumentError(f"--config {path}: {exc}") from None
    return vars(values)


def main(argv=None) -> int:
    given = build_parser().parse_args(sys.argv[1:] if argv is None else argv)
    try:
        # Explicit flags beat the --config file, which beats the defaults.
        flags = {**_COMMON_FLAGS, **_COMMANDS[given.command][1]}
        values = {flag[2:].replace("-", "_"): kw.get("default") for flag, kw in flags.items()}
        if given.config:
            values.update(_config_values(given.config, given.command, set(vars(given))))
        args = argparse.Namespace(**{**values, **vars(given)})
        # An artifact records every flag of its subcommand but where it is written.
        config = {key: getattr(args, key) for key in values.keys() - {"out", "out_json"}}
        rc = _COMMANDS[args.command][0](args, config)
    except ModelError as exc:
        _write_json(None, {"error": "model", "reason": str(exc)}, {})
        return EXIT_MODEL_ERROR
    except ArgumentError as exc:
        _write_json(None, {"error": "usage", "reason": str(exc)}, {})
        return EXIT_USAGE_ERROR
    except MemoryError as exc:  # the arrays the flags ask for are refused
        reason = f"{given.command}: the arrays these flags need do not fit in memory ({exc})"
        _write_json(None, {"error": "usage", "reason": reason}, {})
        return EXIT_USAGE_ERROR
    if args.out:
        print(f"{args.command}: ok -> {args.out}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
