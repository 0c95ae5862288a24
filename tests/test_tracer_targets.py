"""The names the benchmark's tracer binds must stay in the library.

``perfbench/tracer.py`` patches each traced entry point through
``owner.__dict__[attr]``, and ``perfbench/run.py`` stamps its runs with
``chain.HAVE_NUMBA``; deleting one of these names breaks ``run.py --trace 1``
without failing any other test.
"""

import importlib
import sys
from pathlib import Path

from tandemlearn import chain


def test_names_the_tracer_binds_exist(monkeypatch):
    # Import the tracer read-only: no bytecode is written beside it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    targets = tracer.layer_targets()
    assert targets
    for name, owner, attr, _, _ in targets:
        assert attr in owner.__dict__, (name, owner, attr)
    assert hasattr(chain, "HAVE_NUMBA")
