import numpy as np
import pytest

from tandemlearn import RoleKind, SignalModel, rng
from tandemlearn.profiles import DESIGNED_BASE, DESIGNED_DELTA, TableProfile


def table_profile(tables):
    """Agents 1..L play the L tables in order, and later agents play the last."""
    tables = np.asarray(tables, dtype=np.float64)
    return TableProfile(tables[-1], np.arange(1, len(tables) + 1), tables)


def reference_designed_table(segments, n):
    """Agent n's designed rule table from its role alone: the base table of
    its kind plus 1/m times the kind's searching delta at block-first
    agents.  The reference for ``DesignedProfile.rule_table_chunk``."""
    role = segments.role_of(n)
    inv_m = 1.0 / role.m if role.kind in (RoleKind.S_FIRST, RoleKind.R_FIRST) else 0.0
    return DESIGNED_BASE[role.kind] + inv_m * DESIGNED_DELTA[role.kind]


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


def reference_run(config, streams):
    """The Monte Carlo loop agent by agent: two draws per agent and stream,
    ``profile.rule(n)`` tables, and searches found from ``role_of``.  The
    reference for the library's stop-to-stop ``montecarlo._run``."""
    profile, model = config.profile, config.model
    mask = (1 << profile.K) - 1
    R = len(streams)
    if config.theta is None:
        theta = (rng.uniform(config.seed, streams, 0, rng.KIND_WORLD) < 0.5).astype(np.int64)
    else:
        theta = np.full(R, int(config.theta), dtype=np.int64)
    p_sig = np.where(theta == 1, model.p1, model.p0)
    win = np.zeros(R, dtype=np.int64)  # zero-padded initial window
    prev_x = np.zeros(R, dtype=np.int64)
    switches = np.zeros(R, dtype=np.int64)
    searching = np.zeros(R, dtype=np.int64)
    last_switch = np.zeros(R, dtype=np.int64)
    segments = getattr(profile, "segments", None)  # only the designed profile searches
    cps = set(config.checkpoints)
    decisions = {}
    census = {}
    for n in range(1, config.N + 1):
        table = profile.rule(n).table
        s = (rng.uniform(config.seed, streams, n, rng.KIND_SIGNAL) < p_sig).astype(np.int64)
        prob_one = table[win, s]
        x = (rng.uniform(config.seed, streams, n, rng.KIND_RULE) < prob_one).astype(np.int64)
        if segments is not None:
            kind = segments.role_of(n).kind
            if kind == RoleKind.S_FIRST:
                searching += (win == 0) & (x == 1)
            elif kind == RoleKind.R_FIRST:
                searching += (win == 3) & (x == 0)
        if n > 1:
            moved = x != prev_x
            switches += moved
            last_switch[moved] = n
        if n in cps:
            decisions[n] = x.copy()
            census[n] = searching.copy()
        win = ((win << 1) | x) & mask
        prev_x = x
    return theta, decisions, census, switches, searching, last_switch


@pytest.fixture
def m37():
    return SignalModel(0.3, 0.7)


@pytest.fixture
def m46():
    return SignalModel(0.4, 0.6)
