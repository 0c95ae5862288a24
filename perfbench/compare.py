"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR CHANGE_DIR

Each directory holds result files written by ``run.py`` (copies of
``.perfbench/results/`` made on the two commits).  For every workload
and end-to-end metric it prints each side's median and quartiles, the
change of the median as a share of the base median (positive is worse)
and the metric's bound from ``BENCHMARK.json``.  A metric is
``unresolved`` when the base's own quartile spread exceeds the bound.

Runs made on different backends or at different sizes are not
comparable, and the script refuses them.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: Path) -> dict:
    runs = defaultdict(list)
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text())
        if record["trace"] == 0:
            runs[record["workload"]].append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    base, change = (load(Path(a)) for a in argv)
    records = [r for side in (base, change) for rs in side.values() for r in rs]
    for key in ("backend", "size"):
        seen = {r["env"][key] if key == "backend" else r[key] for r in records}
        if len(seen) > 1:
            print(f"refusing to compare runs with different {key}: {sorted(seen)}")
            return 2
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    print(f"{'workload':22} {'metric':12} {'base median [q1, q3]':>34} "
          f"{'change median [q1, q3]':>34} {'worse by':>9} {'bound':>6}  verdict")
    for workload in sorted(set(base) & set(change)):
        for spec in specs:
            name, sign = spec["name"], (1 if spec["better"] == "lower" else -1)
            b = quartiles([r["metrics"][name]["value"] for r in base[workload]])
            c = quartiles([r["metrics"][name]["value"] for r in change[workload]])
            worse = sign * (c[1] - b[1]) / b[1]
            spread = (b[2] - b[0]) / b[1]
            if spread > spec["bound"]:
                verdict = "unresolved"
            else:
                verdict = "REGRESSION" if worse > spec["bound"] else "ok"
            print(f"{workload:22} {name:12} {b[1]:12.6g} [{b[0]:.6g}, {b[2]:.6g}] "
                  f"{c[1]:12.6g} [{c[0]:.6g}, {c[2]:.6g}] {worse:+9.3%} {spec['bound']:6.2f}  "
                  f"{verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
