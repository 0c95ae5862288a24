"""Sampled-path simulation with reproducible, counter-based randomness.

Replications are independent streams; every draw is a pure function of
(master seed, stream id, agent index, draw kind), so results are
bitwise identical regardless of batching or execution order, and a draw
that cannot change a decision need not be made.  Each stream therefore
moves from one random row to the next in a single jump, found by pointer
jumping over a chunk's rule tables, and draws only at those rows.  Paths
are not stored wholesale: only checkpoint decisions and per-path
counters (decision switches, searching-phase initiations, last switch
index).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import rng
from .chain import ArgumentError, _checkpoint_agents, agent_chunks
from .schedule import refuse_past_memory


@dataclass(frozen=True)
class SimConfig:
    profile: object
    model: object
    N: int
    reps: int = 1
    seed: int = 0
    theta: int | None = None  # None: draw theta from the 1/2 prior per path
    checkpoints: tuple = ()

    def __post_init__(self):
        if self.reps < 1:
            raise ArgumentError("need at least one replication")
        if self.N < 1:
            raise ArgumentError("need at least one agent")
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ArgumentError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= self.seed < 1 << 64:
            raise ArgumentError(f"seed must lie in [0, 2^64), got {self.seed}")
        if self.theta not in (None, 0, 1):
            raise ArgumentError(f"theta must be None, 0 or 1, got {self.theta!r}")
        cps = _checkpoint_agents(tuple(self.checkpoints) or None, self.N)  # () is (N,)
        object.__setattr__(self, "checkpoints", tuple(cps))


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


_GROUP = 1 << 15  # streams walked together; bounds every draw block
_TABLE_BYTES = 1 << 21  # bound on one chunk's per-(agent, window) tables
_WINDOW_BYTES = 128  # bytes of those tables per (agent, window)
_DRAWS = (rng.KIND_SIGNAL, rng.KIND_RULE)  # drawn together at every stop


def _chunk_agents(K: int) -> int:
    """Agents per table chunk: as many as keep the chunk's per-(agent,
    window) tables within _TABLE_BYTES."""
    return max(1, _TABLE_BYTES // (_WINDOW_BYTES << K))


@dataclass
class _Jumps:
    """A chunk's tables over states ``(i << K) | u`` (agent n0 + i, window u;
    i = count is the chunk end) and edges ``(state << 1) | x`` (that agent
    decides x, or sees signal x).  A stop is a state whose row reads the
    signal, has an entry strictly inside (0, 1) or can start a search;
    every other state has one edge, which it takes without a draw.  Both
    edges of a chunk-end state lead back to it with no counts, so a stream
    that has left the chunk can keep stepping without effect (``entry``
    stops at the chunk end and is read clipped).  Counts run from the chunk
    start and pack the decision switches in the low 32 bits and the
    searches started above them; a last switch at agent n0 + i reads i + 1."""

    n0: int
    end: int  # the first chunk-end state
    entry: np.ndarray  # per edge: the rule entry under that signal
    start: tuple  # per window u: (next stop, counts, last switch) from state u
    edge: tuple  # per edge: (next stop, counts, last switch) from that decision on;
    # Nones in a chunk without stops, where every stream leaves in its first jump


def _jump_tables(tables: np.ndarray, search: np.ndarray, n0: int) -> _Jumps:
    """Pointer jumping (Wyllie 1979) over a chunk: from every state, the
    first stop at or after it, the window on arrival, and the decision
    switches and last switch on the way.  Each round doubles the distance a
    pointer covers; stops and chunk-end states point at themselves, and the
    rounds end once every pointer rests on one."""
    count, n_states = tables.shape[:2]
    K = n_states.bit_length() - 1
    end = count << K
    entry = np.ascontiguousarray(tables).reshape(2 * end)
    t0, t1 = entry[0::2], entry[1::2]
    random = (t0 != t1) | ((t0 > 0.0) & (t0 < 1.0))
    search = np.ascontiguousarray(search).reshape(2 * end)  # a broadcast view reads slowly
    stop = random | search[0::2] | search[1::2]
    low = np.arange(2 * n_states)  # the low K + 1 bits of an edge: (u << 1) | x
    succ = (np.arange(1, count + 1)[:, None] << K) | (low & (n_states - 1))
    moved = ((low ^ (low >> 1)) & 1).astype(bool)  # x differs from the previous decision
    last = np.where(moved, np.arange(1, count + 1, dtype=np.int32)[:, None], 0)
    if n0 == 1:
        last[0] = 0  # agent 1 has no decision to switch from
    # An edge switches where its last switch is positive.
    succ, last = succ.reshape(2 * end), last.reshape(2 * end)
    fixed = (np.arange(end) << 1) | (t0 == 1.0)
    go = ~stop
    nxt = np.arange(end + n_states)  # one step ahead; stops and chunk ends stay put
    lst = np.zeros(end + n_states, dtype=np.int32)
    np.copyto(nxt[:end], succ.take(fixed), where=go)
    np.copyto(lst[:end], last.take(fixed), where=go)
    sw = (lst > 0).astype(np.int32)
    # Pointers never move back, so no pointer moves in a round whose sum stays.
    reach = nxt.sum()
    for _ in range((count - 1).bit_length()):  # until pointers cover the chunk
        ahead = nxt.take(nxt)
        reach, before = ahead.sum(), reach
        if reach == before:  # every pointer rests on a stop or a chunk end
            break
        sw += sw.take(nxt)
        np.maximum(lst, lst.take(nxt), out=lst)
        nxt = ahead
    start = (nxt[:n_states], sw[:n_states].astype(np.int64), lst[:n_states])
    if not stop.any():  # no stream stops, so none takes an edge
        return _Jumps(n0=n0, end=end, entry=entry, start=start, edge=(None, None, None))
    # The edge tables run on over the chunk-end states, whose edges lead
    # back to them and count nothing.
    edge = tuple(np.empty(2 * (end + n_states), dtype) for dtype in (nxt.dtype, np.int64, np.int32))
    stop_at, counts, later = (a[: 2 * end] for a in edge)
    nxt.take(succ, out=stop_at, mode="clip")  # without "clip", take buffers its output
    np.add(sw.take(succ), last > 0, out=counts)
    np.add(counts, 1 << 32, out=counts, where=search)
    np.maximum(last, lst.take(succ), out=later)
    edge[0][2 * end :] = end + (low >> 1)
    edge[1][2 * end :] = edge[2][2 * end :] = 0
    return _Jumps(n0=n0, end=end, entry=entry, start=start, edge=edge)


def _walk(jumps: _Jumps, keys, p_sig, win, switches, last_switch, searching):
    """Move every stream through one chunk, stop to stop, adding the
    chunk's counts to the per-stream arrays.  Each pass draws for every
    stream still carried, at its own next stop, from its key (see
    ``rng.stream_key``) and its state's step key, and moves it on to the
    stop after.  A stop whose row draws nothing (it can start a search)
    has entries of 0 or 1, which every draw in [0, 1) reads alike.  A
    stream that has reached the chunk end stays there at no count; the
    streams are written out and dropped once at least half of those
    carried have arrived."""
    n_states = len(jumps.start[0])
    steps = None  # per-state step keys, built at the first draw
    stop, counts, last = jumps.start
    live = np.arange(len(keys))
    at, counts, last = stop.take(win), counts.take(win), last.take(win)
    stop, more, later = jumps.edge
    while True:
        done = at >= jumps.end
        arrived = np.count_nonzero(done)
        if 2 * arrived >= len(live):
            out, got, since = live[done], counts[done], last[done]
            win[out] = at[done] - jumps.end
            switches[out] += got & 0xFFFFFFFF
            searching[out] += got >> 32
            last_switch[out] = np.where(since > 0, since + np.int64(jumps.n0 - 1), last_switch[out])
            if arrived == len(live):
                return
            keep = ~done
            live, at, counts, last = live[keep], at[keep], counts[keep], last[keep]
            keys, p_sig = keys[keep], p_sig[keep]
        if steps is None:
            agents = np.arange(jumps.n0, jumps.n0 + jumps.end // n_states + 1, dtype=np.uint64)
            steps = np.repeat(rng.step_key(agents), n_states)  # per state, chunk ends included
        u = rng.finish(keys, steps.take(at), _DRAWS)
        edge = at << 1
        edge |= u[1] < jumps.entry.take(edge | (u[0] < p_sig), mode="clip")
        counts += more.take(edge)
        np.maximum(last, later.take(edge), out=last)
        at = stop.take(edge)


def _run(config: SimConfig, streams: np.ndarray):
    """Vectorized simulation of one path per stream id, stop to stop.

    Agents are taken in table chunks (``chain.agent_chunks``), cut at
    every checkpoint.  Within a chunk each stream jumps from one stop (a
    row that draws or can start a search, see ``_Jumps``) to the next by
    one table lookup, and the signal and the rule are drawn only at stops,
    both in one call.  A row passed without a draw decides alike for every
    draw, and since each draw is a pure function of its key, skipping it
    leaves every output bit as it was.  Streams are walked in groups of
    ``_GROUP``, each on views of the per-stream arrays, so that a chunk's
    tables serve every group.
    """
    profile, model = config.profile, config.model
    R = len(streams)
    groups = [slice(i, i + _GROUP) for i in range(0, R, _GROUP)]
    if config.theta is None:
        world = [rng.uniform(config.seed, streams[g], 0, rng.KIND_WORLD) < 0.5 for g in groups]
        theta = np.concatenate(world).astype(np.int64)
    else:
        theta = np.full(R, int(config.theta), dtype=np.int64)
    p_sig = np.where(theta == 1, model.p1, model.p0)
    keys = rng.stream_key(config.seed, streams)
    win = np.zeros(R, dtype=np.int64)  # the window before agent 1 is zero
    switches = np.zeros(R, dtype=np.int64)
    searching = np.zeros(R, dtype=np.int64)
    last_switch = np.zeros(R, dtype=np.int64)
    decisions = {}
    census = {}
    for n0, n1 in agent_chunks(1, config.N, _chunk_agents(profile.K), config.checkpoints):
        tables = profile.rule_table_chunk(n0, n1)
        jumps = _jump_tables(tables, profile.search_table_chunk(n0, n1), n0)
        for g in groups:
            _walk(jumps, keys[g], p_sig[g], win[g], switches[g], last_switch[g], searching[g])
        if n1 in config.checkpoints:
            decisions[n1] = win & 1  # the low bit of the window is the last decision
            census[n1] = searching.copy()
    return theta, decisions, census, switches, searching, last_switch


def simulate_path(config: SimConfig, replication: int) -> PathRecord:
    """Single replication; deterministic given (seed, replication)."""
    theta, decisions, census, switches, searching, last_switch = _run(
        config, np.array([replication])
    )
    return PathRecord(
        stream=replication,
        theta=int(theta[0]),
        decisions={n: int(x[0]) for n, x in decisions.items()},
        correct={n: int(x[0] == theta[0]) for n, x in decisions.items()},
        switches=int(switches[0]),
        searching=int(searching[0]),
        last_switch=int(last_switch[0]),
    )


def estimate_error(config: SimConfig) -> PathStats:
    """Empirical P(x_n = theta) with standard errors over all streams."""
    refuse_past_memory(config.reps, "replications")
    theta, decisions, census, switches, searching, last_switch = _run(
        config, np.arange(config.reps)
    )
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
