"""Write ``refs.json``: each workload's artifacts at the default seed.

The stored references were made once, from the commit that introduced
the benchmark, by running from the repository root:

    python3 perfbench/make_refs.py

A change that claims a speed-up must leave ``refs.json`` alone: the
references are what "the same answers" means.
"""

from __future__ import annotations

import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

from run import HERE, WORK, load_package


def main() -> int:
    load_package()
    from tandemlearn import cli

    import workloads

    refs = {}
    WORK.mkdir(exist_ok=True)
    for size in ("full", "tiny"):
        for name, wl in workloads.make(size).items():
            with tempfile.TemporaryDirectory(dir=WORK) as tmp:
                with redirect_stdout(io.StringIO()):
                    rc = cli.main(wl.argv(Path(tmp), workloads.DEFAULT_SEED))
                if rc != 0:
                    sys.exit(f"{name} ({size}) exited with {rc}")
                artifact = wl.extract(Path(tmp))
            refs.setdefault(name, {})[size] = {
                "argv": wl.argv(Path("OUT"), workloads.DEFAULT_SEED),
                "artifact": artifact,
            }
    (HERE / "refs.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
