"""tandemlearn benchmark: workloads through the CLI, end to end or traced.

Run from the repository root:

    python3 perfbench/run.py --workload exact-designed --seed 1 --seconds 30 --trace 0

Each repetition is one in-process ``tandemlearn.cli.main`` call with
``--out`` in a scratch directory under ``.perfbench/``; repetitions run
back to back in one process (a closed loop, one client, no threads)
until ``--seconds`` have passed, and every repetition's artifacts are
checked against ``refs.json``.  Every reported time is normalised to a
reference host speed by a calibration kernel run between repetitions
(see ``calibration``; ``README.md`` says why).  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer metrics,
taken from traced repetitions that alternate with untraced ones.

The seed reaches the program only as ``--seed`` of ``mc-designed``; the
other two workloads are deterministic and ignore it.

Every result, with an environment stamp, is also written to
``.perfbench/results/``, and a traced run writes its spans to
``.perfbench/spans/``.  ``perfbench/compare.py`` compares two sets of
results; ``perfbench/selftest.py`` checks the benchmark itself.
"""

from __future__ import annotations

import argparse
import importlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
MIN_REPS = 3
SETUP_PROBES = 7
#: Iterations of the calibration kernel, and its time on an idle core of
#: the 2-vCPU Xeon host the benchmark was defined on.  Every reported
#: time is scaled by CAL_REF_S / (the kernel's time next to it).
CAL_ITERATIONS = 10_000
CAL_REF_S = 0.011
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "NUMBA_NUM_THREADS",
)


def load_package():
    """Import tandemlearn from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "tandemlearn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tandemlearn sources under {src}")
    sys.path.insert(0, str(src))
    import tandemlearn

    if Path(tandemlearn.__file__).resolve().parent != src / "tandemlearn":
        sys.exit(f"perfbench: tandemlearn imported from {tandemlearn.__file__}, not {src}")


def setup(wl):
    """What a user pays before the first call: imports, model and profile
    construction, and growing the segment table to the workload's horizon."""
    from tandemlearn import designed_profile, segment_table
    from tandemlearn.cli import parse_model

    from workloads import MODEL

    model = parse_model(MODEL)
    designed_profile(model)
    segment_table(model).segment_of(wl.horizon)


def calibration() -> float:
    """Seconds taken by a fixed kernel of interpreter work, scalar numpy
    indexing and small-array numpy arithmetic: the mix the workloads
    run.  It uses no tandemlearn code, so a change to the package
    cannot move it; only the speed of the host can."""
    import numpy as np

    u = np.arange(1000, dtype=np.uint64)
    a = np.zeros(4)
    s = 0.0
    start = perf_counter()
    for i in range(CAL_ITERATIONS):
        s += float(a[i & 3]) * 0.5 + i
        a[i & 3] = s
        if i % 8 == 0:
            v = (u ^ (u >> np.uint64(30))) * np.uint64(0x9E3779B97F4A7C15)
            (v >> np.uint64(11)).astype(np.float64) < 0.5
    return perf_counter() - start


def probe_setup(wl, size: str) -> float:
    """Seconds from spawning a fresh interpreter to the end of its setup,
    normalised by the calibration kernel run in that interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name,
           "--size", size, "--setup-probe"]
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = perf_counter() - start
        line += proc.stdout.read()
        rc = proc.wait(timeout=60)
    words = line.split()
    if rc != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"setup probe failed with exit code {rc}")
    return elapsed * CAL_REF_S / float(words[1])


def _git_commit() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    """Where and how the numbers were made; ``backend`` names the sweep
    kernel that ran, since the pure-Python fallback is ~1000x slower."""
    import numpy
    from tandemlearn import chain

    try:
        importlib.import_module("numba")
        numba_imports = True
    except ImportError:
        numba_imports = False
    return {
        "commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        "backend": "numba" if chain.HAVE_NUMBA else "python-loop",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
    }


def repetition(wl, out: Path, seed: int, ref: dict) -> tuple[float, bool]:
    """One timed CLI call and the check of its artifacts."""
    from tandemlearn import cli

    argv = wl.argv(out, seed)
    start = perf_counter()
    try:
        with redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        rc = None
    wall = perf_counter() - start
    try:
        ok = rc == 0 and wl.check(out, ref, seed)
    except (OSError, ValueError, KeyError, IndexError):
        traceback.print_exc(file=sys.stderr)
        ok = False
    for path in out.iterdir():
        path.unlink()
    return wall, ok


class Rep(NamedTuple):
    wall: float  # seconds
    factor: float  # CAL_REF_S over the mean calibration on either side
    passed: bool
    traced: bool

    @property
    def norm(self) -> float:
        """The repetition's time at the reference speed."""
        return self.wall * self.factor


def run_reps(wl, seed: int, seconds: float, ref: dict, out: Path, tracer=None) -> list:
    """Repetitions back to back for ``seconds`` (at least MIN_REPS of each
    kind), with the calibration kernel between consecutive ones.  With a
    tracer, untraced and traced repetitions alternate."""
    kinds = (False, True) if tracer else (False,)
    reps = []
    cal = calibration()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or any(
        sum(1 for r in reps if r.traced == kind) < MIN_REPS for kind in kinds
    ):
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_rep(len(reps))
        try:
            wall, ok = repetition(wl, out, seed, ref)
        finally:
            if traced:
                tracer.end_rep()
                tracer.uninstall()
        after = calibration()
        reps.append(Rep(wall, 2.0 * CAL_REF_S / (cal + after), ok, traced))
        cal = after
    return reps


def end_to_end(wl, reps: list, setup_s: float) -> dict:
    wall_s = statistics.median(r.norm for r in reps)
    return {
        "wall_s": wall_s,
        "work_per_s": wl.work / wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": sum(1 for r in reps if r.passed) / len(reps),
    }


def per_layer(tracer, reps: list) -> dict:
    """Medians over the traced repetitions; ``trace.overhead`` is the
    ratio of traced to untraced median normalised wall time."""
    from tracer import rep_metrics

    factors = [r.factor for r in reps if r.traced]
    per_rep = [rep_metrics(totals, f) for totals, f in zip(tracer.reps, factors)]
    metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    traced, untraced = (
        statistics.median(r.norm for r in reps if r.traced == kind) for kind in (True, False)
    )
    metrics["trace.overhead"] = traced / untraced
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny sizes exist for the self-test")
    parser.add_argument("--refs", type=Path, default=HERE / "refs.json",
                        help="reference artifacts (the self-test passes a tampered copy)")
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: set up, print 'ready' and exit")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    load_package()
    import workloads

    wl = workloads.make(args.size).get(args.workload)
    if wl is None:
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_probe:
        setup(wl)
        print("ready", statistics.median(calibration() for _ in range(3)), flush=True)
        return 0

    stored = json.loads(args.refs.read_text())[wl.name][args.size]
    if stored["argv"] != wl.argv(Path("OUT"), workloads.DEFAULT_SEED):
        sys.exit(f"perfbench: {args.refs} holds no reference for this {wl.name} call")
    ref = stored["artifact"]
    setup(wl)
    prepared = wl.prepare(ref)

    (WORK / "results").mkdir(parents=True, exist_ok=True)
    (WORK / "spans").mkdir(exist_ok=True)
    label = f"{wl.name}-{args.size}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            reps = run_reps(wl, args.seed, args.seconds, ref, Path(tmp), tracer)
            tracer.write(WORK / "spans" / f"{label}.jsonl")
            metrics = per_layer(tracer, reps)
            specs = bench["per_layer"]
        else:
            reps = run_reps(wl, args.seed, args.seconds, ref, Path(tmp))
            setup_s = statistics.median(probe_setup(wl, args.size) for _ in range(SETUP_PROBES))
            metrics = end_to_end(wl, reps, setup_s)
            specs = bench["end_to_end"]

    failed = sum(1 for r in reps if not r.passed)
    result = {
        "correct": prepared and failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]} for s in specs},
    }
    env = environment()
    record = {
        "workload": wl.name, "size": args.size, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "work_unit": wl.unit, "work_per_rep": wl.work,
        "env": env, "cal_ref_s": CAL_REF_S,
        "reps": [r._asdict() for r in reps],
        **result,
    }
    (WORK / "results" / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n")
    print("# env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
