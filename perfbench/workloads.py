"""The benchmark's workloads: CLI calls, their size and their references.

Each workload is one ``tandemlearn`` CLI call on the designed K=2
profile of the 0.3/0.7 channel.  ``argv`` builds the call, ``extract``
reads its artifacts into the form stored in ``refs.json``, ``prepare``
runs the once-per-run checks and reference computations outside
timing, and ``check`` gates one repetition's artifacts.

Sizes: ``full`` is what the benchmark measures; ``tiny`` runs in well
under a second per call and exists for the self-test.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

MODEL = "0.3,0.7"
DEFAULT_SEED = 0
#: P(x_n = theta) at n = 10^4, pinned by the tier-1 acceptance tests.
LEARNING_AT_1E4 = 0.8825181300823625
VALUE_TOL = 1e-9
BLOCK_START_SEGMENTS = 60
BLOCK_START_TOL = 1e-10
Z_LIMIT = 4.0


def _csv_rows(path: Path) -> list[list[str]]:
    lines = [ln for ln in path.read_text().splitlines() if ln and not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:]]


class ExactDesigned:
    """One long forward sweep of the K=2 window chain (the learning curve)."""

    name = "exact-designed"
    unit = "agents"

    def __init__(self, n: int):
        self.n = n
        self.horizon = n
        self.work = n

    def argv(self, out: Path, seed: int) -> list[str]:
        return [
            "exact", "--model", MODEL, "--profile", "designed", "--n", str(self.n),
            "--checkpoints", f"10000,{self.n}", "--out", str(out / "exact.csv"),
        ]

    def extract(self, out: Path) -> dict:
        return {row[0]: float(row[3]) for row in _csv_rows(out / "exact.csv")}

    def prepare(self, ref: dict) -> bool:
        """Criterion 2: the closed-form block-start chain agrees with the
        masses read off the full window chain."""
        from tandemlearn import block_start_masses, block_start_trajectory, designed_profile
        from tandemlearn.cli import parse_model

        model = parse_model(MODEL)
        segments = BLOCK_START_SEGMENTS
        pis, impurities = block_start_masses(designed_profile(model), model, segments)
        worst = max(
            max(
                float(abs(pis[t] - block_start_trajectory(model, t, segments).pi).max()),
                float(impurities[t].max()),
            )
            for t in (0, 1)
        )
        return worst < BLOCK_START_TOL

    def check(self, out: Path, ref: dict, seed: int) -> bool:
        got = self.extract(out)
        if set(got) != set(ref) or abs(got["10000"] - LEARNING_AT_1E4) > VALUE_TOL:
            return False
        return all(abs(got[n] - ref[n]) <= VALUE_TOL for n in ref)


class MonteCarloDesigned:
    """Counter-based RNG and the per-agent step loop over many paths."""

    name = "mc-designed"
    unit = "agent-reps"

    def __init__(self, n: int, reps: int, checkpoints: tuple):
        self.n = n
        self.reps = reps
        self.checkpoints = checkpoints
        self.horizon = n
        self.work = n * reps
        self.exact = None

    def argv(self, out: Path, seed: int) -> list[str]:
        return [
            "simulate", "--model", MODEL, "--profile", "designed", "--n", str(self.n),
            "--reps", str(self.reps), "--seed", str(seed),
            "--checkpoints", ",".join(str(c) for c in self.checkpoints),
            "--out", str(out / "sim.csv"), "--out-json", str(out / "sim.json"),
        ]

    def extract(self, out: Path) -> dict:
        return {"csv": (out / "sim.csv").read_text(), "json": (out / "sim.json").read_text()}

    def prepare(self, ref: dict) -> bool:
        """Exact P(x_n = theta) at the checkpoints, for the z-score gate."""
        from tandemlearn import designed_profile, error_trajectory
        from tandemlearn.cli import parse_model

        model = parse_model(MODEL)
        tr = error_trajectory(designed_profile(model), model, self.n, self.checkpoints)
        self.exact = dict(zip((int(n) for n in tr.ns), (float(p) for p in tr.p_correct)))
        return True

    def check(self, out: Path, ref: dict, seed: int) -> bool:
        """Byte-identical artifacts at the default seed; at every seed,
        |z| <= Z_LIMIT against the exact chain at each checkpoint."""
        if seed == DEFAULT_SEED and self.extract(out) != {"csv": ref["csv"], "json": ref["json"]}:
            return False
        rows = _csv_rows(out / "sim.csv")
        if [int(row[0]) for row in rows] != sorted(self.exact):
            return False
        for row in rows:
            p = self.exact[int(row[0])]
            se = math.sqrt(p * (1.0 - p) / self.reps)
            if abs(float(row[1]) - p) > Z_LIMIT * se:
                return False
        return True


class EquilibriumDesigned:
    """epsilon-equilibrium check: one short sweep, then many one-step walks."""

    name = "equilibrium-designed"
    unit = "checks"
    horizon_t = 20

    def __init__(self, n1: int, n2: int):
        self.range = (n1, n2)
        self.horizon = n2 + self.horizon_t + 1
        self.work = None  # (agent, window, signal) triples, from the reference

    def argv(self, out: Path, seed: int) -> list[str]:
        return [
            "equilibrium", "--model", MODEL, "--profile", "designed", "--delta", "0.5",
            "--eps", "0.01", "--horizon", str(self.horizon_t),
            "--range", f"{self.range[0]}..{self.range[1]}", "--out", str(out / "eq.json"),
        ]

    def extract(self, out: Path) -> dict:
        report = json.loads((out / "eq.json").read_text())
        return {
            "checked": report["checked"],
            "violations": [
                [v["n"], v["window"], v["s"], v["best_action"], v["gain"]]
                for v in report["violations"]
            ],
        }

    def prepare(self, ref: dict) -> bool:
        self.work = ref["checked"]
        return True

    def check(self, out: Path, ref: dict, seed: int) -> bool:
        got = self.extract(out)
        if got["checked"] != ref["checked"]:
            return False
        key = lambda v: tuple(v[:4])  # noqa: E731
        if {key(v) for v in got["violations"]} != {key(v) for v in ref["violations"]}:
            return False
        gains = {key(v): v[4] for v in ref["violations"]}
        return all(abs(v[4] - gains[key(v)]) <= VALUE_TOL for v in got["violations"])


def make(size: str) -> dict:
    """Workloads by name at a size: ``full`` (measured) or ``tiny``."""
    if size == "full":
        workloads = [
            ExactDesigned(50_000),
            MonteCarloDesigned(2500, 1000, (1000, 2500)),
            EquilibriumDesigned(1, 150),
        ]
    elif size == "tiny":
        workloads = [
            ExactDesigned(10_000),
            MonteCarloDesigned(1000, 100, (100, 1000)),
            EquilibriumDesigned(1, 60),
        ]
    else:
        raise ValueError(f"unknown size {size!r}")
    return {w.name: w for w in workloads}
