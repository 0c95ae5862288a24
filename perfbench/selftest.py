"""Self-test of the benchmark at tiny sizes; runs in well under a minute.

    python3 perfbench/selftest.py

Checks, each through ``run.py`` in a fresh process:

* every workload prints every end-to-end metric of ``BENCHMARK.json``
  with its unit, and passes its reference gate (``mc-designed`` at the
  default seed, gated by the stored artifacts, and at another seed,
  gated by z-scores);
* the traced run prints every per-layer metric, and the bypasses hold:
  no ``rng`` or ``game`` work on ``exact-designed``, no ``chain.sweep``
  in the timed part of ``mc-designed``, no ``rng`` on
  ``equilibrium-designed``;
* a deliberately wrong reference fails every repetition of that
  workload (``pass_ratio`` 0);
* in a directory holding only ``BENCHMARK.json`` and ``perfbench/``
  the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from run import HERE, ROOT, WORK


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), "--size", "tiny", "--seconds", "0.5", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc, result


def expect(cond: bool, what: str, detail: str = ""):
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        expect.failures += 1
        print(detail, end="")


expect.failures = 0


def check_metrics(result, specs, what):
    units = {s["name"]: s["unit"] for s in specs}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    expect(got == units, f"{what}: every metric printed once, with its unit")


def layer(result, name):
    return result["metrics"][name]["value"]


def main() -> int:
    bench_spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench_spec["workloads"]]
    for name in workloads:
        seeds = (0, 7) if name == "mc-designed" else (0,)
        for seed in seeds:
            proc, result = bench("--workload", name, "--seed", str(seed), "--trace", "0")
            what = f"{name} seed {seed}"
            expect(result is not None, f"{what}: exit 0 and a result line", proc.stderr)
            if result is None:
                continue
            expect(result["correct"] and result["failed"] == 0, f"{what}: reference gate passes")
            check_metrics(result, bench_spec["end_to_end"], what)
            expect(all(v["value"] > 0 for v in result["metrics"].values()),
                   f"{what}: end-to-end metrics are positive")

    traced = {}
    for name in workloads:
        proc, result = bench("--workload", name, "--seed", "0", "--trace", "1")
        expect(result is not None and result["correct"],
               f"{name} traced: exit 0, gate passes", proc.stderr)
        if result is not None:
            check_metrics(result, bench_spec["per_layer"], f"{name} traced")
            traced[name] = result
    if len(traced) == len(workloads):
        ex, mc, eq = (traced[n] for n in ("exact-designed", "mc-designed", "equilibrium-designed"))
        zero = lambda r, prefix: all(  # noqa: E731
            v["value"] == 0 for k, v in r["metrics"].items() if k.startswith(prefix)
        )
        expect(zero(ex, "rng.") and zero(ex, "game."), "exact-designed: no rng or game work")
        expect(layer(ex, "chain.sweep.agents") > 0, "exact-designed: the sweep is traced")
        expect(zero(mc, "chain.sweep."), "mc-designed: no chain.sweep in the timed part")
        expect(layer(mc, "rng.draws_per_agent_rep") > 0, "mc-designed: draws are traced")
        expect(zero(eq, "rng."), "equilibrium-designed: no rng work")
        expect(layer(eq, "game.propagate_per_check") > 0,
               "equilibrium-designed: propagation inside the check is traced")

    refs = json.loads((HERE / "refs.json").read_text())
    tiny = {name: refs[name]["tiny"]["artifact"] for name in workloads}
    tiny["exact-designed"]["10000"] += 1e-6
    tiny["mc-designed"]["csv"] += "\n"
    tiny["equilibrium-designed"]["checked"] += 1
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        tampered = Path(tmp) / "refs.json"
        tampered.write_text(json.dumps(refs))
        for name in workloads:
            proc, result = bench("--workload", name, "--seed", "0", "--refs", str(tampered))
            ok = (
                result is not None
                and not result["correct"]
                and result["failed"] == result["attempted"]
                and result["metrics"]["pass_ratio"]["value"] == 0
            )
            expect(ok, f"{name}: a wrong reference fails every repetition")

        bare = Path(tmp) / "bare"
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc, result = bench("--workload", workloads[0], "--seed", "0", "--trace", "0",
                             cwd=bare, script=bare / "perfbench" / "run.py")
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               "without the sources: non-zero exit and no result")

    print(f"{expect.failures} failure(s)")
    return 1 if expect.failures else 0


if __name__ == "__main__":
    sys.exit(main())
