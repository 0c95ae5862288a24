"""Sampled-path simulation with reproducible, counter-based randomness.

Replications are independent streams; every draw is a pure function of
(master seed, stream id, agent index, draw kind), so results are
bitwise identical regardless of batching or execution order.  Paths are
not stored wholesale: only checkpoint decisions and per-path counters
(decision switches, searching-phase initiations, last switch index).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng


@dataclass(frozen=True)
class SimConfig:
    profile: object
    model: object
    N: int
    reps: int = 1
    seed: int = 0
    theta: int | None = None  # None: draw theta from the 1/2 prior per path
    checkpoints: tuple = ()
    stream_offset: int = 0

    def __post_init__(self):
        if self.reps < 1:
            raise ValueError("need at least one replication")
        if self.N < 1:
            raise ValueError("need at least one agent")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must lie in [0, 2^64), got {self.seed}")
        cps = tuple(sorted(set(int(c) for c in self.checkpoints))) or (self.N,)
        if cps[0] < 1 or cps[-1] > self.N:
            raise ValueError("checkpoints must lie in [1, N]")
        object.__setattr__(self, "checkpoints", cps)


@dataclass
class PathRecord:
    """Checkpoint decisions and counters for a single replication."""

    stream: int
    theta: int
    decisions: dict  # n -> x_n at each checkpoint
    correct: dict  # n -> 1{x_n = theta}
    switches: int
    searching: int
    last_switch: int  # 0 when the path never switched


@dataclass
class PathStats:
    """Aggregated checkpoint estimates and path-counter statistics."""

    ns: np.ndarray
    mean: np.ndarray  # empirical P(x_n = theta)
    se: np.ndarray  # sqrt(p(1-p)/R)
    census_median: np.ndarray  # searching-phase census per checkpoint
    census_mean: np.ndarray
    switches_quantiles: dict  # percentile -> total switches at horizon
    last_switch_median: float
    reps: int
    config: SimConfig = field(repr=False, default=None)


_BLOCK_BYTES = 1 << 18  # bound on one chunk's (agent x stream) uint64 draw block


def _chunk_agents(R: int, K: int) -> int:
    """Agents per chunk: as many as keep the (agent x stream) draw block
    and the (agent x window x signal) rule tables within _BLOCK_BYTES."""
    return max(1, _BLOCK_BYTES // (8 * max(R, 2 << K)))


def _run(config: SimConfig, streams: np.ndarray):
    """Vectorized simulation of one path per stream id.

    Agents are walked in chunks.  Each chunk draws its signals in one
    block, for the agents whose rule reads the signal somewhere, and its
    rule draws in one block, for the agents with an entry strictly
    inside (0, 1).  Every other draw could not change a decision (a
    signal-blind row decides alike for both signals, a 0/1 entry alike
    for every u in [0, 1)), and since each draw is a pure function of its
    key, skipping it leaves every output bit as it was.  The agent loop
    keeps 2 * window + decision per (agent, stream); switches,
    checkpoints and the searching census are read off those rows
    afterwards.  More streams than one block holds are run in groups.
    """
    width = _BLOCK_BYTES // 8
    if len(streams) > width:
        parts = [_run(config, streams[i : i + width]) for i in range(0, len(streams), width)]
        theta, decisions, census, *counters = zip(*parts)

        def join(dicts):
            return {n: np.concatenate([d[n] for d in dicts]) for n in dicts[0]}

        return (
            np.concatenate(theta), join(decisions), join(census),
            *(np.concatenate(c) for c in counters),
        )
    profile, model, seed = config.profile, config.model, config.seed
    n_states = 1 << profile.K
    R = len(streams)
    if config.theta is None:
        theta = (rng.uniform(seed, streams, 0, rng.KIND_WORLD) < 0.5).astype(np.int64)
    else:
        theta = np.full(R, int(config.theta), dtype=np.int64)
    p_sig = np.where(theta == 1, model.p1, model.p0)
    lead = np.arange(2 * n_states) & ~1  # 2 * window, at index 2 * window + s
    follow = (np.arange(2 * n_states) & (n_states - 1)) << 1  # 2 * window + x -> next lead
    c = np.zeros(R, dtype=np.int64)  # 2 * window; the window before agent 1 is zero
    prev_x = None
    switches = np.zeros(R, dtype=np.int64)
    searching = np.zeros(R, dtype=np.int64)
    last_switch = np.zeros(R, dtype=np.int64)
    decisions = {}
    census = {}
    cps = np.asarray(config.checkpoints)
    size = _chunk_agents(R, profile.K)
    for n0 in range(1, config.N + 1, size):
        n1 = min(n0 + size - 1, config.N)
        count = n1 - n0 + 1
        agents = np.arange(n0, n1 + 1)[:, None]
        tables = profile.rule_table_chunk(n0, n1).reshape(count, 2 * n_states)
        reads_signal = (tables[:, 0::2] != tables[:, 1::2]).any(axis=1)
        randomised = ((tables > 0.0) & (tables < 1.0)).any(axis=1)
        signals = rule_u = None
        if reads_signal.any():
            signals = rng.uniform(seed, streams, agents[reads_signal], rng.KIND_SIGNAL) < p_sig
        if randomised.any():
            rule_u = rng.uniform(seed, streams, agents[randomised], rng.KIND_RULE)
        fixed = lead + (tables == 1.0)  # 2 * window + x where the rule draws nothing
        rows = np.empty((count, R), dtype=np.int64)  # 2 * window + decision
        for row, table, fix, j, k in zip(
            rows, tables, fixed, _block_rows(reads_signal), _block_rows(randomised)
        ):
            idx = c if j < 0 else c + signals[j]
            if k < 0:
                fix.take(idx, out=row)
            else:
                np.add(c, rule_u[k] < table.take(idx), out=row)
            follow.take(row, out=c)
        x = np.empty((count + 1, R), dtype=np.int8)  # decisions, after the one before the chunk
        np.bitwise_and(rows, 1, out=x[1:])
        x[0] = x[1] if n0 == 1 else prev_x  # agent 1 has no decision to switch from
        moved = x[1:] != x[:-1]
        small = np.min_scalar_type(count)  # holds any per-chunk count; narrow sums are faster
        switches += moved.sum(axis=0, dtype=small)
        last = (moved * np.arange(1, count + 1, dtype=small)[:, None]).max(axis=0)
        np.add(last, n0 - 1, out=last_switch, where=last > 0, dtype=np.int64)
        prev_x = x[-1]
        search = profile.search_table_chunk(n0, n1).reshape(count, 2 * n_states)
        where = np.flatnonzero(search.any(axis=1))
        offsets = 2 * n_states * np.arange(len(where))[:, None]  # rows of search[where], flat
        started = search[where].take(rows[where] + offsets)
        for n in cps[(cps >= n0) & (cps <= n1)].tolist():
            decisions[n] = x[n - n0 + 1].astype(np.int64)
            census[n] = searching + started[where <= n - n0].sum(axis=0)
        searching += started.sum(axis=0, dtype=small)
    return theta, decisions, census, switches, searching, last_switch


def _block_rows(needed: np.ndarray) -> list:
    """Each agent's row in a chunk's draw block, -1 where it draws nothing."""
    return np.where(needed, np.cumsum(needed) - 1, -1).tolist()


def simulate_path(config: SimConfig, replication: int) -> PathRecord:
    """Single replication; deterministic given (seed, stream id)."""
    stream = config.stream_offset + replication
    theta, decisions, census, switches, searching, last_switch = _run(
        config, np.array([stream])
    )
    return PathRecord(
        stream=stream,
        theta=int(theta[0]),
        decisions={n: int(x[0]) for n, x in decisions.items()},
        correct={n: int(x[0] == theta[0]) for n, x in decisions.items()},
        switches=int(switches[0]),
        searching=int(searching[0]),
        last_switch=int(last_switch[0]),
    )


def estimate_error(config: SimConfig) -> PathStats:
    """Empirical P(x_n = theta) with standard errors over all streams."""
    streams = config.stream_offset + np.arange(config.reps)
    theta, decisions, census, switches, searching, last_switch = _run(config, streams)
    ns = np.asarray(config.checkpoints)
    mean = np.empty(len(ns))
    se = np.empty(len(ns))
    census_median = np.empty(len(ns))
    census_mean = np.empty(len(ns))
    for i, n in enumerate(ns):
        hit = (decisions[n] == theta).mean()
        mean[i] = hit
        se[i] = np.sqrt(hit * (1.0 - hit) / config.reps)
        census_median[i] = np.median(census[n])
        census_mean[i] = census[n].mean()
    quantiles = {q: float(np.percentile(switches, q)) for q in (10, 50, 90)}
    return PathStats(
        ns=ns,
        mean=mean,
        se=se,
        census_median=census_median,
        census_mean=census_mean,
        switches_quantiles=quantiles,
        last_switch_median=float(np.median(last_switch)),
        reps=config.reps,
        config=config,
    )
