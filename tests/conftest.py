import numpy as np
import pytest

from tandemlearn import SignalModel


class TableProfile:
    """Minimal duck-typed profile: a fixed per-agent list of rule tables.

    Agents beyond the list reuse the last table.
    """

    class _Rule:
        def __init__(self, table):
            self.table = table

    def __init__(self, tables, descriptor="table"):
        self.tables = [np.asarray(t, dtype=float) for t in tables]
        self.descriptor = descriptor

    @property
    def K(self):
        return int(np.log2(len(self.tables[0])))

    def rule(self, n):
        return self._Rule(self.tables[min(n, len(self.tables)) - 1])

    def searching_mask(self, n, windows, decisions):
        return np.zeros(len(windows), dtype=bool)


def reference_step(dist, table, sig):
    """One agent's step of the window law under one state of the world,
    window by window: the reference for the library's vectorised step.

    ``sig`` is the signal law (P(s=0), P(s=1)); signal-independent rule
    entries move mass as themselves, without the signal average.
    """
    n_states = len(dist)
    mask = n_states - 1
    new = np.zeros(n_states)
    for u in range(n_states):
        mass = dist[u]
        if mass == 0.0:
            continue
        t0, t1 = table[u, 0], table[u, 1]
        p_one = t0 if t0 == t1 else sig[0] * t0 + sig[1] * t1
        new[((u << 1) | 1) & mask] += mass * p_one
        new[(u << 1) & mask] += mass * (1.0 - p_one)
    return new


@pytest.fixture
def m37():
    return SignalModel(0.3, 0.7)


@pytest.fixture
def m46():
    return SignalModel(0.4, 0.6)
