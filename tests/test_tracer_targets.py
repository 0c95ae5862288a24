"""The names the benchmark binds must stay in the library.

``perfbench/tracer.py`` patches each traced entry point through
``owner.__dict__[attr]``, ``perfbench/run.py`` stamps its runs with
``chain.HAVE_NUMBA``, and each workload's ``prepare`` in
``perfbench/workloads.py`` calls library functions of its own; deleting
one of these names breaks the benchmark without failing any other test.
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


def test_tiny_workloads_prepare_against_their_refs(perfbench):
    refs = json.loads((PERFBENCH / "refs.json").read_text())
    for name, workload in perfbench("workloads").make("tiny").items():
        assert workload.prepare(refs[name]["tiny"]["artifact"]) is True, name
