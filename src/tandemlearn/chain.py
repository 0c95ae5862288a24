"""Exact probabilistic evaluation of tandem decision processes.

The observed window of the K immediate predecessors is a non-homogeneous
Markov chain over {0,1}^K under each state of the world.  This module
propagates its distribution exactly (forward Chapman-Kolmogorov), plus:

* the two-state block-start chain of the designed profile, as affine
  maps of P^theta(w = 1) with closed-form coefficients,
* convergence diagnostics for the block-size series,
* per-step transition diagnostics for the K=1 chain,
* a brute-force enumeration oracle over signal sequences.

Probabilities are propagated in linear space; the state count is tiny
and magnitudes stay near 1.  Window laws are renormalized under a drift
check; block-start laws are (1 - pi, pi) and need none.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .profiles import designed_profile
from .schedule import block_sizes_arrays, segment_table
from .signals import blr_bounds

# The sweep has no numba path; perfbench's environment stamp reads this name.
HAVE_NUMBA = False

DRIFT_TOLERANCE = 1e-9
_CHUNK = 1 << 12  # agents per chunk of rule tables
_SCAN_MAX_K = 5  # widest window whose chunks are composed as matrices
_CHUNK_BYTES = 1 << 20  # bound on one chunk's per-agent arrays
# Agents walked in about the time of a stretch of its own (95-120 us at 0.25-0.33 us
# per agent: 64 checkpoints 320 apart from 10^5 and 10^6 ran faster joined, 384 apart
# as fast, 512 apart slower, on a 2-vCPU Xeon); closer ones share a ``designed_trajectory`` sweep.
_JOIN_GAP = 384


class ChainDriftError(RuntimeError):
    """Probability mass drifted beyond the renormalization guard."""


class ZeroProbabilityError(ValueError):
    """Conditioning on an event of probability zero."""


class ArgumentError(ValueError):
    """An argument outside the range its function accepts (CLI exit code 4)."""


def _integer(name: str, value) -> int:
    """``value`` as an int if it is an integer (numpy's too), not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ArgumentError(f"{name} must be an integer, got {value!r}")
    return int(value)


# ---------------------------------------------------------------------------
# Window distributions and forward propagation.
# ---------------------------------------------------------------------------


def propagate_dist(dist: np.ndarray, table: np.ndarray, sig: tuple) -> np.ndarray:
    """One forward step of the window chain under one state of the world.

    ``table`` is the acting agent's rule table, ``sig`` the signal law
    (P(s=0), P(s=1)) under that state of the world.
    """
    sig = np.asarray(sig, dtype=np.float64)[None]
    return _step(dist, _step_probs(np.asarray(table)[None], sig)[0, 0])


def _signal_laws(model) -> np.ndarray:
    """sig[theta, s]: the signal law under each state of the world."""
    return np.array([model.signal_probs(0), model.signal_probs(1)], dtype=np.float64)


def _mass(d: np.ndarray) -> np.ndarray:
    """Total mass of each law in d (..., S); drift beyond DRIFT_TOLERANCE raises."""
    total = d.sum(axis=-1, keepdims=True)
    if not all(abs(t - 1.0) <= DRIFT_TOLERANCE for t in total.ravel().tolist()):  # NaN too
        raise ChainDriftError(f"probability mass drifted to {total.ravel()!r}")
    return total


def _step_probs(tables: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """P(decision = 1 | window u) per theta and agent, shape (2, n, S).

    ``tables`` holds n rule tables of shape (S, 2) and ``sig[theta]`` the
    signal law under theta.  Signal-independent entries are the
    probability itself, with no signal average, so deterministic rules
    move mass without rounding.
    """
    t0 = tables[:, :, 0]
    t1 = tables[:, :, 1]
    averaged = sig[:, 0, None, None] * t0 + sig[:, 1, None, None] * t1
    return np.where(t0 == t1, t0, averaged)


def _palette_step_probs(palette: np.ndarray, index: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """``_step_probs`` of the agents of a ``rule_palette``, shape (2, n, S):
    worked out once per distinct table and gathered per agent, with the
    same bits, since ``_step_probs`` works table by table."""
    return _step_probs(palette, sig).take(index, axis=1)


def _transition_operators(p_one: np.ndarray) -> np.ndarray:
    """Per-theta, per-agent window transition matrices, shape (2, n, S, S).

    Row u of a matrix is the law of the next window given window u, so a
    distribution advances as ``d @ T``.
    """
    _, n, n_states = p_one.shape
    u = np.arange(n_states)
    ops = np.zeros((2, n, n_states, n_states))
    ops[:, :, u, ((u << 1) | 1) & (n_states - 1)] = p_one
    ops[:, :, u, (u << 1) & (n_states - 1)] = 1.0 - p_one
    return ops


def _pair_products(p_one: np.ndarray) -> np.ndarray:
    """``T_a @ T_(a+1)`` for the agents a = 0, 2, 4, ... of p_one (2, n, S):
    shape (2, n // 2, S, S), the bottom level of ``_tree``.

    For K >= 2 window u reaches v = (4u + 2x_a + x_b) mod S through one
    window w only, so an entry is the one product P(x_a | u) P(x_b | w),
    the bits of ``np.matmul`` of the two operators, whose other terms are
    exact zeros.  For K = 1 two paths reach each window: a matmul.
    """
    even = p_one.shape[1] & ~1
    n_states = p_one.shape[2]
    if n_states == 2:
        return np.matmul(*(_transition_operators(p_one[:, b:even:2]) for b in (0, 1)))
    # [theta, u, agent], contiguous so that each product below loops over the pairs
    by_agent = np.ascontiguousarray(p_one.transpose(0, 2, 1))
    # u = (t, r) by its top two bits and the rest, w = (t mod 2, r, x_a) and
    # v = (r, x_a, x_b): the entries u -> v lie on the strided diagonal r = r'.
    quarter = n_states >> 2
    steps = (1.0 - by_agent, by_agent)  # P(x = 0 | u) and P(x = 1 | u)
    steps_a = [step[..., 0:even:2].reshape(2, 4, quarter, -1) for step in steps]  # agents a
    steps_b = [step[..., 1:even:2].reshape(2, 2, quarter, 2, -1) for step in steps]  # agents a + 1
    n = steps_a[0].shape[-1]
    out = np.zeros((2, n, n_states, n_states))
    paths = out.reshape(2, n, 4, quarter * quarter, 4)[:, :, :, :: quarter + 1]
    paths = paths.transpose(0, 2, 3, 4, 1)  # [theta, t, r, 2 x_a + x_b, pair]
    for t in range(4):
        for x_a in (0, 1):
            for x_b in (0, 1):
                step_b = steps_b[x_b][:, t & 1, :, x_a]
                np.multiply(steps_a[x_a][:, t], step_b, out=paths[:, t, :, 2 * x_a + x_b])
    return out


def _tree(pairs: np.ndarray):
    """The levels of the product tree over ``pairs`` (2, n, S, S) up to one
    node, each a batched matmul of adjacent nodes with an odd last one carried
    over: node i of level l is pairs i 2^l .. (i + 1) 2^l - 1 if one follows."""
    yield pairs
    while pairs.shape[1] > 1:
        even = pairs.shape[1] & ~1
        paired = np.matmul(pairs[:, 0:even:2], pairs[:, 1:even:2])
        if even < pairs.shape[1]:
            paired = np.concatenate([paired, pairs[:, even:]], axis=1)
        pairs = paired
        yield pairs


def _apply(d: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """Laws d (..., S) through ops (..., S, S): the walk's one form, bits free of the batch."""
    return np.matmul(d[..., None, :], ops)[..., 0, :]


def _step(d: np.ndarray, p_one: np.ndarray) -> np.ndarray:
    """Laws d (..., S) of the window before one agent, to the laws after it.

    ``p_one``, shaped like d, is the agent's P(decision = 1 | window).
    Windows u and u + S/2 differ only in the bit that drops out, so both
    move to windows 2r and 2r + 1 for r = u mod S/2.
    """
    half, zero, one = d.shape[-1] // 2, d * (1.0 - p_one), d * p_one
    out = np.empty(d.shape)
    out[..., 0::2] = zero[..., :half] + zero[..., half:]
    out[..., 1::2] = one[..., :half] + one[..., half:]
    return out


def _advance(d: np.ndarray, p_one: np.ndarray):
    """Push the per-theta laws d (2, S) through the agents of p_one (2, n, S).

    Returns the laws before each agent, shape (2, n, S), and the laws
    after the last.  Mass drift beyond DRIFT_TOLERANCE raises; nothing is
    rescaled, so no value depends on how callers cut their agents.
    """
    before = np.empty(p_one.shape)
    for i in range(p_one.shape[1]):
        before[:, i] = d
        d = _step(d, p_one[:, i])
    _mass(d)
    return before, d


def _walk(d: np.ndarray, p_one: np.ndarray, at=None, held=None):
    """Laws (2, len(at), S) before the agents ``at`` (ascending; all if None)
    of p_one (2, n, S) and the law after the last, from d (2, S): ``_advance``
    in log depth for K <= _SCAN_MAX_K, equal to rounding and with its zero
    pattern.  d passes the nodes of each piece's ``_tree`` named by the
    binary digits of its pair count, highest first.  Wanted laws pass down
    the levels (a left child starts where its node does, a right child after
    its sibling), so they never depend on the piece's end; odd agents take
    one ``_step`` more.  A list ``held`` keeps the last piece's pair products."""
    if d.shape[-1] > 1 << _SCAN_MAX_K:
        before, d = _advance(d, p_one)
        return (before if at is None else before[:, at]), d
    at = np.arange(p_one.shape[1]) if at is None else np.asarray(at, dtype=np.intp)
    laws, held = np.empty((2, at.size, d.shape[-1])), [] if held is None else held
    size = _chunk_agents(d.shape[-1].bit_length() - 1)
    ends = at.searchsorted(np.arange(0, p_one.shape[1] + size, size)).tolist()  # per piece
    for lo, a, b in zip(range(0, p_one.shape[1], size), ends, ends[1:]):
        piece, levels, digits = p_one[:, lo : lo + size], [], []
        pairs = piece.shape[1] >> 1
        held[:] = [_pair_products(piece)]  # the previous piece's go once these exist
        for level, nodes in enumerate(_tree(held[0])):
            if b > a:
                levels.append(nodes)
            if pairs >> level & 1:
                digits.append(nodes[:, (pairs >> level) - 1].copy())
        starts = d[:, None]  # the law before each node of the level above
        for node in reversed(digits):
            d = _apply(d, node)
        for nodes in reversed(levels):  # a level has twice the nodes of the one above, or one fewer
            below = np.empty((2, nodes.shape[1], d.shape[-1]))
            below[:, 0::2] = starts
            below[:, 1::2] = _apply(starts[:, : nodes.shape[1] // 2], nodes[:, 0:-1:2])
            starts = below
        if b > a:  # d is the law after the pairs, before a lone last agent
            wanted = at[a:b] - lo
            laws[:, a:b] = np.concatenate([starts, d[:, None]], axis=1)[:, wanted >> 1]
            odd = a + np.flatnonzero(wanted & 1)
            laws[:, odd] = _step(laws[:, odd], p_one[:, at[odd] - 1])
        if piece.shape[1] & 1:
            d = _step(d, piece[:, -1])
    _mass(d)
    return laws, d


def _chunk_agents(K: int) -> int:
    # Agents per chunk: _CHUNK, or fewer where 16 S^2 bytes per agent up
    # to _SCAN_MAX_K (16 S above it) would pass 1 MB; its pair products
    # take half.  The grid fixes the bits: a chunk is one renormalised walk.
    n_states = 1 << K
    per_agent = 16 * n_states * (n_states if K <= _SCAN_MAX_K else 1)
    return max(1, min(_CHUNK, _CHUNK_BYTES // per_agent))


def agent_chunks(n0: int, n1: int, size: int, cuts=()):
    """The agents n0..n1 as ranges (lo, hi), in order.

    A range ends at every cut in [n0, n1), at n1, and otherwise on the
    grid n0 + k * size - 1, so no range holds more than ``size`` agents
    and a cut moves no other range end.
    """
    lo = n0
    for cut in sorted({c for c in cuts if n0 <= c < n1} | {n1}):
        while lo <= cut:
            hi = min(cut, lo + size - 1 - (lo - n0) % size)
            yield lo, hi
            lo = hi + 1


def sweep(profile, model, N: int, record_after=()) -> dict:
    """Run the exact window chain through agents 1..N.

    Returns {step: laws}, where laws (2, S) holds the window distribution
    under each state of the world after the decision of agent ``step``
    (step 0 is the initial zero-padded point mass, i.e. the law of v_1).
    The agents up to the last record point are taken in chunks on one
    fixed grid, with step probabilities made once per table of a chunk's
    ``rule_palette``; each chunk is one ``_walk``, renormalised at its end.
    """
    points = set(int(s) for s in record_after)
    if points and (min(points) < 0 or max(points) > N):
        raise ArgumentError("record points must lie in [0, N]")
    d = np.zeros((2, 1 << profile.K))
    d[:, 0] = 1.0
    return _sweep_from(profile, model, 1, d, points)


def _sweep_from(profile, model, n0: int, d: np.ndarray, points: set) -> dict:
    """``sweep`` begun at agent n0 from the laws d (2, S) of the window
    before it, on the chunk grid of n0: {step: laws} for the steps of
    ``points``, all at least n0 - 1."""
    sig = _signal_laws(model)
    laws = {n0 - 1: d.copy()} if n0 - 1 in points else {}
    ends, held = sorted(points), []  # held keeps the last chunk's pair products: freed
    # with the rest of it, glibc gave back the heap top per chunk (55,000 minor faults, not 400)
    for lo, hi in agent_chunks(n0, max(points, default=0), _chunk_agents(profile.K)):
        p_one = _palette_step_probs(*profile.rule_palette(lo, hi), sig)
        inner = ends[bisect.bisect_left(ends, lo) : bisect.bisect_left(ends, hi)]
        before, d = _walk(d, p_one, [n + 1 - lo for n in inner], held)
        laws.update(zip(inner, before.swapaxes(0, 1)))  # one (2, S) view of before per point
        d /= d.sum(axis=-1, keepdims=True)  # _walk has checked the drift
        if hi in points:
            laws[hi] = d.copy()
    return laws


def law_walk(profile, model, n0: int, n1: int, horizon: int = 0):
    """Walk the window laws through agents n0..n1, chunk by chunk.

    Yields (lo, tables, p_one, before) for each chunk lo..hi: the rule
    tables (n, S, 2) and step probabilities (2, n, S) of agents lo..hi +
    horizon, and the per-theta laws (2, hi - lo + 1, S) of the window
    before each agent lo..hi, from ``sweep`` and then ``_walk`` with nothing
    rescaled, so never dependent on n1.  A chunk and its horizon hold at most
    _CHUNK_BYTES / (32 S) agents: a caller's [n, u, s, y] arrays stay in it.
    """
    if not (1 <= n0 <= n1):
        raise ArgumentError(f"need 1 <= n0 <= n1, got {n0}..{n1}")
    sig = _signal_laws(model)
    d = sweep(profile, model, n0 - 1, [n0 - 1])[n0 - 1]
    size = max(1, _CHUNK_BYTES // (32 << profile.K) - horizon)
    for lo, hi in agent_chunks(n0, n1, size):
        palette, index = profile.rule_palette(lo, hi + horizon)
        p_one = _palette_step_probs(palette, index, sig)
        before, d = _walk(d, p_one[:, : hi - lo + 1])
        yield lo, palette.take(index, axis=0), p_one, before


def window_distributions(profile, model, ns) -> dict:
    """{n: laws}: the per-theta laws (2, S) of v_n for each agent index n."""
    snaps = sweep(profile, model, max(ns) - 1 if ns else 0, [n - 1 for n in ns])
    return {n: snaps[n - 1] for n in ns}


# ---------------------------------------------------------------------------
# Error trajectories.
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    """Exact correctness probabilities at checkpoint agents."""

    ns: np.ndarray
    p0_correct: np.ndarray  # P^0(x_n = 0)
    p1_correct: np.ndarray  # P^1(x_n = 1)

    @property
    def p_correct(self) -> np.ndarray:
        # Equal priors: P(x_n = theta) averages the two conditionals.
        return 0.5 * (self.p0_correct + self.p1_correct)


def _checkpoint_agents(checkpoints, N: int) -> list:
    """The checkpoints (default [N], or none if N < 1) sorted and deduplicated, in [1, N]."""
    N = _integer("N", N)
    if checkpoints is None:
        checkpoints = [N] if N >= 1 else []
    ns = sorted(set(int(n) for n in checkpoints))
    if ns and (ns[0] < 1 or ns[-1] > N):
        raise ArgumentError(f"checkpoints must lie in [1, {N}], got {ns[0]}..{ns[-1]}")
    return ns


def _trajectory(ns: list, snaps: dict) -> Trajectory:
    laws = np.array([snaps[n] for n in ns] or np.zeros((0, 2, 2)))  # [checkpoint, theta, window]
    # After agent n acts, the low bit of the window code is x_n.
    p0, p1 = laws[:, 0, 0::2].sum(axis=-1), laws[:, 1, 1::2].sum(axis=-1)
    return Trajectory(ns=np.asarray(ns), p0_correct=p0, p1_correct=p1)


def error_trajectory(profile, model, N: int, checkpoints=None) -> Trajectory:
    """Exact P(x_n = theta) at the checkpoint agents via forward sweep."""
    ns = _checkpoint_agents(checkpoints, N)
    return _trajectory(ns, sweep(profile, model, N, ns))


# ---------------------------------------------------------------------------
# Block-start chain of the designed profile.
# ---------------------------------------------------------------------------


@dataclass
class BlockStartChain:
    """Two-state chain of consensus values at block boundaries.

    ``pi[i-1]`` is P^theta(w_i = 1) where w_i is the decision observed by
    the first agent of the i-th block (odd i: S-block (i+1)/2; even i:
    R-block i/2); ``up``/``down`` are the per-step switch probabilities
    out of states 0 and 1.
    """

    theta: int
    pi: np.ndarray
    up: np.ndarray
    down: np.ndarray


def block_start_trajectory(model, theta: int, segments: int) -> BlockStartChain:
    """Exact P^theta(w_i = 1) for i = 1..2*segments by chain iteration.

    Upward switches happen only across S-blocks (odd i), with probability
    p^{k_m}/m; downward only across R-blocks (even i), with probability
    q^{r_m}/m, where m = m(i) indexes the block's segment.
    """
    if _integer("segments", segments) < 1:
        raise ArgumentError("need at least one segment")
    k, r = block_sizes_arrays(segments, model)
    p, q = model.p(theta), model.q(theta)
    # Python's float ** rather than np.power, whose last bit can differ.
    up = [0.0] * (2 * segments)
    down = [0.0] * (2 * segments)
    up[0::2] = [p**km / m for m, km in enumerate(k.tolist(), 1)]
    down[1::2] = [q**rm / m for m, rm in enumerate(r.tolist(), 1)]
    pi = [0.0]  # w_1 is the decision x_2 = 0
    for u, d in zip(up[:-1], down[:-1]):
        w = pi[-1]
        pi.append(w * (1.0 - d) + (1.0 - w) * u)
    return BlockStartChain(theta=theta, pi=np.array(pi), up=np.array(up), down=np.array(down))


def _join(first: np.ndarray, then: np.ndarray, out=None) -> np.ndarray:
    """Affine maps of pi = P^theta(w = 1), pairs (u, leak) on axis 0 with pi
    -> pi + u - leak pi: ``first`` then ``then`` as one map, into ``out`` if given."""
    joined = np.add(first, then, out=out)
    joined -= then[1] * first  # in place: one temporary fewer
    return joined


def _join_all(ud: np.ndarray, spans: list, widths: list, maps: np.ndarray) -> list:
    """The ordered join (2, 2) of the segment maps (u - d u, u + d - d u) in each span
    [s, e) of ud (2, 2, n), their (u, d): one tree of adjacent joins each, padded by the
    identity (0, 0) to its power of two in ``widths`` and laid widest first in the first
    half of the flat ``maps``, so that each level of all trees is one ``_join``, written after."""
    order = sorted(range(len(spans)), key=widths.__getitem__, reverse=True)
    level, width, joined, at = maps[: len(maps) // 2].reshape(2, 2, -1), 1, [None] * len(spans), 0
    for j in order:
        (s, e), piece = spans[j], level[..., at : at + widths[j]]
        (u, d), du, leak = ud[..., s:e], piece[0, :, : e - s], piece[1, :, : e - s]
        np.subtract(np.add(u, d, out=leak), np.multiply(d, u, out=du), out=leak)
        np.subtract(u, du, out=du)
        piece[..., e - s :], at = 0.0, at + widths[j]
    top = len(maps) // 2
    for j in order[::-1]:
        level = level[..., : at // width]  # the narrower pieces after this one are joined
        while width < widths[j]:
            half, top = level.shape[-1] // 2, top + 2 * level.shape[-1]
            out = maps[top - 4 * half : top].reshape(2, 2, half)
            level, width = _join(level[..., 0::2], level[..., 1::2], out), 2 * width
        joined[j], at = level[..., at // width - 1], at - widths[j]
    return joined


def _block_start_laws(model, blocks) -> dict:
    """{i: laws (2, 2)}: (P^theta(w_i = 0), P^theta(w_i = 1)) per theta for
    the block indices i >= 1 of ``blocks``.

    ``block_start_trajectory`` with block i as the map (u_i, u_i) of an S-block or
    (0, d_i) of an R-block (``_join``), built per run of equal sizes in chunks as one
    map per segment, the bits of its blocks' join, and joined in log depth between
    the blocks needed.  A chunk's arrays are one, freed whole, so glibc's trim threshold
    (twice the largest block freed) stays above its heap: no page is faulted in anew per
    chunk.  Keeping 1 - leak instead of the leak would round away the low bits near 1/m.
    """
    points = set(blocks)
    done = np.zeros((2, 2))  # the join of the maps before the current block: w_1 = x_2 = 0
    laws = {1: done[0]} if 1 in points else {}
    size = _CHUNK_BYTES // 64  # blocks per chunk, even: each chunk starts on an S-block
    cuts = [i - 1 for i in points]  # the maps after which a law is kept
    for lo, hi in agent_chunks(1, max(points, default=1) - 1, size):
        m0, m1 = (lo + 1) // 2, (hi + 1) // 2
        k, r, count = segment_table(model).runs(m0, m1)
        pieces = list(agent_chunks(lo, hi, size, cuts))  # block a is in segment (a + 1) // 2
        spans = [(a // 2 + 1 - m0, b // 2 + 1 - m0) for a, b in pieces]  # its whole segments
        widths = [1 << max(e - s - 1, 0).bit_length() for s, e in spans]
        nud = 4 * (m1 - m0 + 1)  # (u, d), then the pieces and their trees
        work = np.empty(nud + 8 * sum(widths))
        # Python's float ** as in block_start_trajectory, once per run: u, then d.
        powers = [[f(t) ** j for j in n] for f, n in ((model.p, k), (model.q, r)) for t in (0, 1)]
        powers = np.repeat(powers, count, axis=1).reshape(2, 2, -1)
        up, down = ud = np.divide(powers, np.arange(m0, m1 + 1.0), out=work[:nud].reshape(2, 2, -1))
        for (a, b), piece in zip(pieces, _join_all(ud, spans, widths, work[nud:])):
            if a % 2 == 0:  # the R-block of segment a / 2
                done = _join(done, [[0.0], [1.0]] * down[:, a // 2 - m0])
            done = _join(done, piece)
            if b % 2:  # the S-block of segment (b + 1) / 2
                done = _join(done, [[1.0], [1.0]] * up[:, b // 2 + 1 - m0])
            if b + 1 in points:
                laws[b + 1] = done[0]
    return {i: np.array([1.0 - pi, pi]).T for i, pi in laws.items()}


def designed_trajectory(model, N: int, checkpoints=None) -> Trajectory:
    """``error_trajectory`` of ``designed_profile(model)`` from its
    block-start chain, in O(blocks) instead of O(agents) window steps.

    A block start i holds window (0,0) or (1,1), with the law of w_i
    (``_block_start_laws``).  Each checkpoint n is swept from its last
    block start <= n, at most 2 k_m + 2 r_m agents; agents 1 and 2 from
    agent 1, whose window is (0,0) like w_1.  A checkpoint whose stretch
    begins at most _JOIN_GAP agents after the previous checkpoint is swept
    in that one's stretch, so dense checkpoints cost one sweep.
    """
    ns = _checkpoint_agents(checkpoints, N)
    profile = designed_profile(model)
    stretches = []  # [block i, its first agent, the checkpoints swept from it]
    for n in ns:
        last = stretches[-1][2][-1] if stretches else -_JOIN_GAP
        if n > last + _JOIN_GAP:  # else its block start, at most n, is near too
            i, a = profile.segments.last_block_start_before(n) if n >= 3 else (1, 1)
            if a > last + _JOIN_GAP:
                stretches.append((i, a, []))
        stretches[-1][2].append(n)
    starts = _block_start_laws(model, [i for i, _, _ in stretches])
    snaps = {}
    for i, a, points in stretches:
        d = np.zeros((2, 4))
        d[:, 0::3] = starts[i]  # on windows (0,0) and (1,1)
        snaps.update(_sweep_from(profile, model, a, d, set(points)))
    return _trajectory(ns, snaps)


def block_start_masses(profile, model, segments: int):
    """Block-start consensus probabilities read off the full window chain.

    Returns per-theta arrays (pi0, pi1) of the window mass on (1,1) at
    the first agent of each block, plus per-theta impurity arrays (mass
    on the mixed windows (0,1) and (1,0), which the designed profile
    forces to zero at block starts).  The windows are K=2 windows.
    """
    if profile.K != 2:
        raise ArgumentError(f"block-start masses need a K=2 profile, got K={profile.K}")
    if _integer("segments", segments) < 1:
        raise ArgumentError("need at least one segment")
    k, _, start = segment_table(model).layout(segments)
    # The agent before each block start: S-block m at start_m, R-block m 2k_m later.
    before = (np.stack([start, start + 2 * k], axis=1).ravel() - 1).tolist()
    laws = sweep(profile, model, before[-1], before)
    d = np.array([laws[n] for n in before])  # [block, theta, window]
    return (d[:, 0, 3], d[:, 1, 3]), (d[:, 0, 1] + d[:, 0, 2], d[:, 1, 1] + d[:, 1, 2])


# ---------------------------------------------------------------------------
# Series diagnostics for the block-size choices.
# ---------------------------------------------------------------------------


@dataclass
class SeriesDiagnostics:
    """Partial sums of the four block-size series and their tail exponents.

    ``sum_p1k`` is sum over m of p1^{k_m}/m (divergent by design),
    ``sum_q1r`` of q1^{r_m}/m (convergent), and symmetrically for the
    theta=0 parameters.  ``alpha``/``beta`` map the signal probability to
    the exponent of the equivalent 1/(m log^a m) tail.
    """

    checkpoints: np.ndarray
    sum_p1k: np.ndarray
    sum_q1r: np.ndarray
    sum_p0k: np.ndarray
    sum_q0r: np.ndarray
    alpha: dict = field(default_factory=dict)  # theta -> log_pbar(p_theta)
    beta: dict = field(default_factory=dict)  # theta -> log_qbar(q_theta)


def series_diagnostics(model, M: int, checkpoints=None) -> SeriesDiagnostics:
    """Partial sums up to each checkpoint M' <= M plus tail exponents."""
    if _integer("M", M) < 2:
        raise ArgumentError("need M >= 2")
    cps = _checkpoint_agents(checkpoints, M)
    if not cps:
        raise ArgumentError("need at least one checkpoint")
    k, r = block_sizes_arrays(M, model)
    m = np.arange(1, M + 1, dtype=np.float64)
    idx = np.asarray(cps) - 1

    def partial(base, expo):
        return np.cumsum(base**expo / m)[idx]

    alpha = {t: math.log(model.p(t)) / math.log(model.pbar) for t in (0, 1)}
    beta = {t: math.log(model.q(t)) / math.log(model.qbar) for t in (0, 1)}
    return SeriesDiagnostics(
        checkpoints=np.asarray(cps),
        sum_p1k=partial(model.p1, k),
        sum_q1r=partial(model.q1, r),
        sum_p0k=partial(model.p0, k),
        sum_q0r=partial(model.q0, r),
        alpha=alpha,
        beta=beta,
    )


# ---------------------------------------------------------------------------
# K=1 transition diagnostics.
# ---------------------------------------------------------------------------


@dataclass
class K1Diagnostics:
    """Per-agent transition probabilities of the K=1 decision chain.

    ``a[n-1, i, j]`` is P^0(x_n = j | x_{n-1} = i) and ``abar`` the same
    under theta=1; entries are NaN where the conditioning state has zero
    probability.  ``coupling_violations`` lists agents where the bounded
    likelihood ratio coupling m*abar <= a <= M*abar failed (it must stay
    empty).
    """

    a: np.ndarray
    abar: np.ndarray
    sum_a01: np.ndarray
    sum_a10: np.ndarray
    sum_abar01: np.ndarray
    sum_abar10: np.ndarray
    coupling_violations: list


def k1_diagnostics(profile, model, N: int) -> K1Diagnostics:
    if profile.K != 1:
        raise ArgumentError(f"k1_diagnostics requires a K=1 profile, got K={profile.K}")
    if _integer("N", N) < 0:
        raise ArgumentError(f"need N >= 0, got {N}")
    m_blr, M_blr = blr_bounds(model)
    sig = _signal_laws(model)
    palette, index = profile.rule_palette(1, N)
    start = np.array([[1.0, 0.0], [1.0, 0.0]])  # x_0 is the zero padding
    seen = _walk(start, _palette_step_probs(palette, index, sig))[0] > 0.0  # [theta, n, i]
    # The entries are the signal average even where a rule ignores the signal.
    one = sig[:, 0, None, None] * palette[:, :, 0] + sig[:, 1, None, None] * palette[:, :, 1]
    one = one.take(index, axis=1)
    a, abar = np.where(seen[..., None], np.stack([1.0 - one, one], axis=-1), np.nan)
    inside = (m_blr * abar - 1e-12 <= a) & (a <= M_blr * abar + 1e-12)
    violations = np.argwhere(seen.all(axis=0)[..., None] & ~inside)
    sums = [np.nancumsum(x[:, i, 1 - i]) for x in (a, abar) for i in (0, 1)]  # a01, a10, then abar
    return K1Diagnostics(a, abar, *sums, [(int(n) + 1, int(i), int(j)) for n, i, j in violations])


def k1_error_floor(model) -> float:
    """Reference constant from the K=1 impossibility argument.

    Equals (1/2) * min{(1/6)(1 - e^(-1/(2M))), (1/4)(1 - e^(-m/2))}.
    Derived under the learning hypothesis; reported as a reference value,
    not asserted as a bound for arbitrary profiles.
    """
    m, M = blr_bounds(model)
    return 0.5 * min(
        (1.0 / 6.0) * (1.0 - math.exp(-1.0 / (2.0 * M))),
        (1.0 / 4.0) * (1.0 - math.exp(-m / 2.0)),
    )


# ---------------------------------------------------------------------------
# Brute-force enumeration oracle.
# ---------------------------------------------------------------------------

BRUTE_FORCE_MAX_N = 20


def brute_force_oracle(profile, model, N: int, checkpoints=None) -> Trajectory:
    """Exact trajectory by enumerating all 2^N signal sequences.

    Independent of the forward chain: the outer sum runs over complete
    signal sequences weighted by their probabilities, with the rule
    randomization integrated analytically at each step.  Refuses N
    beyond :data:`BRUTE_FORCE_MAX_N`.
    """
    if _integer("N", N) > BRUTE_FORCE_MAX_N:
        raise ArgumentError(f"brute force enumeration is limited to N <= {BRUTE_FORCE_MAX_N}")
    ns = _checkpoint_agents(range(1, N + 1) if checkpoints is None else checkpoints, N)
    n_states = 1 << profile.K
    mask = n_states - 1
    correct = {0: {}, 1: {}}
    for theta in (0, 1):
        sig = model.signal_probs(theta)
        # Row i of W is the window distribution given the signal prefix
        # with bits of i (earliest signal in the most significant bit),
        # scaled by the prefix probability.
        W = np.zeros((1, n_states))
        W[0, 0] = 1.0
        for n in range(1, N + 1):
            table = profile.rule(n).table
            trans = np.zeros((2, n_states, n_states))
            for s in (0, 1):
                for u in range(n_states):
                    hi = ((u << 1) | 1) & mask
                    lo = (u << 1) & mask
                    trans[s, u, hi] += table[u, s]
                    trans[s, u, lo] += 1.0 - table[u, s]
            new = np.empty((2 * len(W), n_states))
            new[0::2] = (W @ trans[0]) * sig[0]
            new[1::2] = (W @ trans[1]) * sig[1]
            W = new
            if n in ns:
                p_one = W[:, 1::2].sum()
                correct[theta][n] = p_one if theta == 1 else 1.0 - p_one
    return Trajectory(
        ns=np.asarray(ns),
        p0_correct=np.array([correct[0][n] for n in ns]),
        p1_correct=np.array([correct[1][n] for n in ns]),
    )
