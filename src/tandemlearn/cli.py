"""Experiment runner: subcommand dispatch and deterministic artifacts.

Configuration comes from an optional JSON file overridden by flags.
Every output file embeds the fully resolved configuration and a version
stamp; floats are printed with 17 significant digits so reruns can be
compared byte for byte.

Exit codes: 0 success, 2 invalid model, 3 zero-probability conditioning,
4 invalid arguments (``exact`` checks its horizon and checkpoints,
``equilibrium`` its range, discount, horizon and eps).
Codes 2-4 print a JSON object with ``error`` and ``reason``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import __version__
from .chain import (
    CheckpointRangeError,
    ZeroProbabilityError,
    error_trajectory,
    k1_diagnostics,
    series_diagnostics,
)
from .game import CheckArgumentError, certified_tail, check_equilibrium
from .montecarlo import SimConfig, estimate_error
from .profiles import baseline_profile, designed_profile, myopic_profile, profile_from_json
from .schedule import segment_table
from .signals import ModelError, SignalModel, model_from_dict, quantize

EXIT_MODEL_ERROR = 2
EXIT_ZERO_PROBABILITY = 3
EXIT_USAGE_ERROR = 4


class UsageError(ValueError):
    """A flag value outside the range the subcommand accepts."""


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return format(float(x), ".17g")
    return str(x)


def _jsonable(x):
    if isinstance(x, np.generic):
        return x.item()
    if isinstance(x, np.ndarray):
        return x.tolist()
    return str(x)


def _write_csv(path, header_cols, rows, config: dict):
    lines = [
        f"# tandemlearn {__version__}",
        f"# config: {json.dumps(config, sort_keys=True, default=_jsonable)}",
        ",".join(header_cols),
    ]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_json(path, payload: dict, config: dict):
    payload = {"tandemlearn": __version__, "config": config, **payload}
    text = json.dumps(payload, indent=2, sort_keys=True, default=_jsonable) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def parse_model(spec: str):
    """Model from 'p0,p1', 'p0=..,p1=..', or a JSON file path."""
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
    if set(vals) != {"p0", "p1"}:
        raise ModelError(f"cannot parse model spec {spec!r}")
    return SignalModel(p0=vals["p0"], p1=vals["p1"])


def parse_profile(spec: str, model, K: int, horizon: int):
    """Profile from a name (designed, myopic, constant0, constant1, copy)
    or a JSON table path."""
    if spec.endswith(".json") or os.path.sep in spec:
        return profile_from_json(spec)
    if spec == "designed":
        return designed_profile(quantize(model) if not isinstance(model, SignalModel) else model)
    if spec == "myopic":
        return myopic_profile(model, K=K, horizon=horizon)
    return baseline_profile(spec, K=K)


def _default_checkpoints(N: int) -> list:
    cps = []
    n = 1
    while n <= N:
        cps.append(n)
        n *= 10
    if cps[-1] != N:
        cps.append(N)
    return cps


def _parse_int_list(text: str) -> list:
    return [int(float(tok)) for tok in text.split(",") if tok.strip()]


def _resolved(args, keys) -> dict:
    return {k: getattr(args, k) for k in keys}


def cmd_schedule(args) -> int:
    model = parse_model(args.model)
    if not isinstance(model, SignalModel):
        model = quantize(model)
    tab = segment_table(model)
    rows = []
    for m in range(1, args.m + 1):
        sizes = tab.sizes(m)
        start = tab.segment_start(m)
        rows.append((m, sizes.k, sizes.r, start, 2 * sizes.k + 2 * sizes.r))
    _write_csv(
        args.out,
        ["m", "k_m", "r_m", "segment_start", "segment_len"],
        rows,
        _resolved(args, ["model", "m"]),
    )
    return 0


def cmd_exact(args) -> int:
    if args.n < 1:
        raise UsageError(f"--n must be >= 1, got {args.n}")
    if args.checkpoints:
        try:
            cps = _parse_int_list(args.checkpoints)
        except (ValueError, OverflowError):
            raise UsageError(f"--checkpoints must be integers, got {args.checkpoints!r}") from None
        if not cps:
            raise UsageError(f"--checkpoints lists no agent, got {args.checkpoints!r}")
    else:
        cps = _default_checkpoints(args.n)
    model = parse_model(args.model)
    binary = quantize(model) if not isinstance(model, SignalModel) else model
    profile = parse_profile(args.profile, binary, K=args.k, horizon=args.n)
    try:
        traj = error_trajectory(profile, binary, args.n, cps)
    except CheckpointRangeError as exc:
        raise UsageError(str(exc)) from None
    rows = zip(traj.ns, traj.p0_correct, traj.p1_correct, traj.p_correct)
    _write_csv(
        args.out,
        ["n", "p0_correct", "p1_correct", "p_correct"],
        rows,
        _resolved(args, ["model", "profile", "n", "k", "checkpoints"]),
    )
    return 0


def cmd_series(args) -> int:
    model = parse_model(args.model)
    if not isinstance(model, SignalModel):
        model = quantize(model)
    cps = _parse_int_list(args.checkpoints) if args.checkpoints else _default_checkpoints(args.m)
    diag = series_diagnostics(model, args.m, cps)
    rows = zip(diag.checkpoints, diag.sum_p1k, diag.sum_q1r, diag.sum_p0k, diag.sum_q0r)
    _write_csv(
        args.out,
        ["M", "sum_p1^k/m", "sum_q1^r/m", "sum_p0^k/m", "sum_q0^r/m"],
        rows,
        {
            **_resolved(args, ["model", "m"]),
            "alpha": {t: diag.alpha[t] for t in (0, 1)},
            "beta": {t: diag.beta[t] for t in (0, 1)},
        },
    )
    return 0


def cmd_simulate(args) -> int:
    model = parse_model(args.model)
    binary = quantize(model) if not isinstance(model, SignalModel) else model
    profile = parse_profile(args.profile, binary, K=args.k, horizon=args.n)
    cps = _parse_int_list(args.checkpoints) if args.checkpoints else _default_checkpoints(args.n)
    config = SimConfig(
        profile=profile,
        model=binary,
        N=args.n,
        reps=args.reps,
        seed=args.seed,
        theta=args.theta,
        checkpoints=tuple(cps),
    )
    stats = estimate_error(config)
    resolved = _resolved(args, ["model", "profile", "n", "k", "reps", "seed", "theta"])
    resolved["checkpoints"] = list(stats.ns)
    _write_csv(args.out, ["n", "mean", "se"], zip(stats.ns, stats.mean, stats.se), resolved)
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
            resolved,
        )
    return 0


def cmd_equilibrium(args) -> int:
    try:
        n1, n2 = (int(x) for x in args.range.split(".."))
    except ValueError:
        raise UsageError(f"--range must read n1..n2 with integers, got {args.range!r}") from None
    try:
        certified_tail((n1, n2), args.delta, args.eps, args.horizon)
    except CheckArgumentError as exc:
        raise UsageError(str(exc)) from None
    model = parse_model(args.model)
    binary = quantize(model) if not isinstance(model, SignalModel) else model
    profile = parse_profile(args.profile, binary, K=args.k, horizon=n2 + args.horizon + 1)
    report = check_equilibrium(
        profile, binary, delta=args.delta, n_range=(n1, n2), eps=args.eps, horizon=args.horizon
    )
    _write_json(
        args.out,
        {
            "passed": report.passed,
            "checked": report.checked,
            "tail_bound": report.tail_bound,
            "violations": [
                {
                    "n": v.n,
                    "window": "".join(str(b) for b in v.window),
                    "s": v.s,
                    "gain": v.gain,
                    "sigma_value": v.sigma_value,
                    "best_value": v.best_value,
                    "best_action": v.best_action,
                }
                for v in report.violations
            ],
        },
        _resolved(args, ["model", "profile", "delta", "eps", "range", "horizon", "k"]),
    )
    return 0


def cmd_k1diag(args) -> int:
    model = parse_model(args.model)
    binary = quantize(model) if not isinstance(model, SignalModel) else model
    profile = parse_profile(args.profile, binary, K=1, horizon=args.n)
    if profile.K != 1:
        raise ModelError("k1diag requires a K=1 profile")
    diag = k1_diagnostics(profile, binary, args.n)
    rows = []
    for n in range(1, args.n + 1):
        rows.append(
            (
                n,
                diag.a[n - 1, 0, 1],
                diag.a[n - 1, 1, 0],
                diag.abar[n - 1, 0, 1],
                diag.abar[n - 1, 1, 0],
                diag.sum_a01[n - 1],
                diag.sum_a10[n - 1],
            )
        )
    _write_csv(
        args.out,
        ["n", "a01", "a10", "abar01", "abar10", "sum_a01", "sum_a10"],
        rows,
        _resolved(args, ["model", "profile", "n"]),
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tandemlearn", description="Tandem social-learning laboratory"
    )
    parser.add_argument("--config", help="JSON file with default flag values")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **flags):
        p = sub.add_parser(name)
        p.set_defaults(func=fn)
        p.add_argument("--model", default="p0=0.3,p1=0.7")
        p.add_argument("--out", default=None)
        for flag, kwargs in flags.items():
            p.add_argument(flag, **kwargs)
        return p

    add("schedule", cmd_schedule, **{"--m": dict(type=int, default=10)})
    add(
        "exact",
        cmd_exact,
        **{
            "--profile": dict(default="designed"),
            "--n": dict(type=int, default=1000),
            "--k": dict(type=int, default=2),
            "--checkpoints": dict(default=None),
        },
    )
    add(
        "series",
        cmd_series,
        **{"--m": dict(type=int, default=10**6), "--checkpoints": dict(default=None)},
    )
    add(
        "simulate",
        cmd_simulate,
        **{
            "--profile": dict(default="designed"),
            "--n": dict(type=int, default=10**4),
            "--k": dict(type=int, default=2),
            "--reps": dict(type=int, default=100),
            "--seed": dict(type=int, default=None),
            "--theta": dict(type=int, default=None, choices=(0, 1)),
            "--checkpoints": dict(default=None),
            "--out-json": dict(default=None),
        },
    )
    add(
        "equilibrium",
        cmd_equilibrium,
        **{
            "--profile": dict(default="myopic"),
            "--delta": dict(type=float, default=0.0),
            "--eps": dict(type=float, default=1e-9),
            "--range": dict(default="1..100"),
            "--horizon": dict(type=int, default=0),
            "--k": dict(type=int, default=2),
        },
    )
    add(
        "k1diag",
        cmd_k1diag,
        **{"--profile": dict(default="myopic"), "--n": dict(type=int, default=100)},
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    tokens = list(sys.argv[1:] if argv is None else argv)
    args = parser.parse_args(tokens)
    if args.config:
        # JSON config supplies values for flags not given on the command
        # line; explicit flags always win.
        given = {
            tok.split("=", 1)[0].lstrip("-").replace("-", "_")
            for tok in tokens
            if tok.startswith("--")
        }
        with open(args.config) as fh:
            defaults = json.load(fh)
        for key, value in defaults.items():
            attr = key.replace("-", "_")
            if hasattr(args, attr) and attr not in given:
                setattr(args, attr, value)
    if hasattr(args, "seed") and args.seed is None:
        args.seed = int(os.environ.get("TANDEMLEARN_SEED", "0"))
    try:
        rc = args.func(args)
    except ModelError as exc:
        _write_json(None, {"error": "model", "reason": str(exc)}, {})
        return EXIT_MODEL_ERROR
    except ZeroProbabilityError as exc:
        _write_json(None, {"error": "zero_probability", "reason": str(exc)}, {})
        return EXIT_ZERO_PROBABILITY
    except UsageError as exc:
        _write_json(None, {"error": "usage", "reason": str(exc)}, {})
        return EXIT_USAGE_ERROR
    if args.out:
        print(f"{args.command}: ok -> {args.out}")
    return rc


if __name__ == "__main__":
    sys.exit(main())
