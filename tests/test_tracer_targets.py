"""The names the benchmark binds must stay in the library.

``perfbench/tracer.py`` patches each traced entry point through
``owner.__dict__[attr]``, ``perfbench/run.py`` stamps its runs with
``chain.HAVE_NUMBA``, and each workload's ``prepare`` in
``perfbench/workloads.py`` calls library functions of its own; deleting
one of these names breaks the benchmark without failing any other test.
Each workload's own checks gate its tiny call here too.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

from tandemlearn import chain

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """Import perfbench modules read-only: no bytecode is written beside them."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module


def test_names_the_tracer_binds_exist(perfbench):
    tracer = perfbench("tracer")
    targets = tracer.layer_targets()
    assert targets
    for name, owner, attr, _, _ in targets:
        assert attr in owner.__dict__, (name, owner, attr)
    assert hasattr(chain, "HAVE_NUMBA")


def test_tiny_workloads_pass_their_own_checks(perfbench, tmp_path):
    """Each tiny workload's call, as its reference stores it, runs once
    through ``cli.main``, and its artifacts pass the workload's own
    ``prepare`` and ``check`` against ``refs.json``.  The Monte Carlo check
    compares bytes at the default seed, so a draw that moves fails here."""
    from tandemlearn import cli

    workloads = perfbench("workloads")
    seed = workloads.DEFAULT_SEED
    refs = json.loads((PERFBENCH / "refs.json").read_text())
    for name, workload in workloads.make("tiny").items():
        ref = refs[name]["tiny"]
        assert ref["argv"] == workload.argv(Path("OUT"), seed), name
        out = tmp_path / name
        out.mkdir()
        assert cli.main(workload.argv(out, seed)) == 0, name
        assert workload.prepare(ref["artifact"]) is True, name
        assert workload.check(out, ref["artifact"], seed) is True, name
