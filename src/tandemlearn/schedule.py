"""Segment layout for the designed K>=2 decision profile.

Agents 1 and 2 form a preamble.  From agent 3 on, agents are tiled into
segments m = 1, 2, ...  Segment m consists of an S-block of 2*k_m - 1
agents, one SR transient agent, an R-block of 2*r_m - 1 agents, and one
RS transient agent, for a total of 2*k_m + 2*r_m agents.  Block sizes
grow like log(log(m)) so that consensus-switch probabilities decay at
the rate the learning argument needs.  ``block_sizes`` gives them at any
segment indices; ``SegmentTable`` keeps the few runs of equal sizes and
answers every query by arithmetic on them, for any agent up to 2^63 - 1.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np


class RoleKind(IntEnum):
    PREAMBLE = 0
    S_FIRST = 1
    S_BODY = 2
    SR_TRANSIENT = 3
    R_FIRST = 4
    R_BODY = 5
    RS_TRANSIENT = 6


# Slots of a segment's six role runs in ``SegmentTable.role_palette``; the
# block-first slots 0 and 3 are set per segment.
_SEGMENT_SLOTS = (0, RoleKind.S_BODY, RoleKind.SR_TRANSIENT, 0, RoleKind.R_BODY,
                  RoleKind.RS_TRANSIENT)


@dataclass(frozen=True)
class AgentRole:
    kind: RoleKind
    m: int | None = None  # segment index; None for the preamble


def block_sizes(m, model) -> tuple[np.ndarray, np.ndarray]:
    """Block sizes (k_m, r_m) of the segment indices in the integer array m,
    as int64 arrays."""
    lnm = np.log(np.asarray(m, dtype=np.float64))
    # Both block formulas are well defined once ln(m) exceeds 1/pbar and
    # 1/qbar; for smaller m both sizes are pinned to 1.
    cutoff = max(1.0 / model.pbar, 1.0 / model.qbar)
    loglog = np.log(lnm, where=lnm > cutoff, out=np.zeros_like(lnm))  # 0: sizes 1
    k = np.maximum(np.ceil(loglog / math.log(1.0 / model.pbar)), 1).astype(np.int64)
    r = np.maximum(np.ceil(loglog / math.log(1.0 / model.qbar)), 1).astype(np.int64)
    return k, r


def refuse_past_memory(count: int, what: str) -> None:
    """Raise MemoryError for an array of ``count`` entries from 2^59 on:
    4 EiB of int64 fits no system, and numpy raises ValueError near 8 EiB."""
    if count >= 1 << 59:
        raise MemoryError(f"{count} {what}")


def block_sizes_arrays(m_max: int, model) -> tuple[np.ndarray, np.ndarray]:
    """Block sizes (k_m, r_m) for m = 1..m_max, as int64 arrays."""
    refuse_past_memory(m_max, "int64 block sizes")
    return block_sizes(np.arange(1, m_max + 1), model)


class SegmentTable:
    """Segment boundaries of one signal model, as runs of equal block sizes.

    k_m and r_m never decrease and grow like log(log(m)), so segments
    1..2^61 fall into a few runs: maximal stretches of consecutive segments
    with equal (k_m, r_m).  The table holds each run's first segment, k, r
    and first agent, found once; every query is arithmetic on the runs.
    """

    def __init__(self, model):
        self.model = model
        # Bisect segments 1..2^61 for the first at which k_m or r_m reaches
        # each of its values, all values at once.  Every segment holds at
        # least 4 agents, so segment 2^61 starts past agent 2^63 - 1.
        last = (1 << 63) // 4
        k_top, r_top = (int(a[0]) for a in block_sizes([last], model))
        target = np.r_[2 : k_top + 1, 2 : r_top + 1]
        is_k = np.arange(len(target)) < k_top - 1
        lo, hi = np.ones_like(target), np.full_like(target, last)
        for _ in range(61):  # sizes at lo fall short of the target; at hi they reach it
            mid = (lo + hi) // 2
            reached = np.where(is_k, *block_sizes(mid, model)) >= target
            lo, hi = np.where(reached, lo, mid), np.where(reached, mid, hi)
        self._firsts = sorted({1, *hi.tolist()})
        self._k, self._r = (a.tolist() for a in block_sizes(self._firsts, model))
        # Python ints: the first agents of the last runs lie past 2^63.
        spans = zip(self._firsts, self._firsts[1:], self._k, self._r)
        steps = ((b - a) * 2 * (k + r) for a, b, k, r in spans)  # agents in each run
        self._agents = list(itertools.accumulate(steps, initial=3))

    def _locate(self, n: int) -> tuple[int, int, int]:
        """(run, segment, first agent of the segment) of agent n >= 3."""
        j = bisect.bisect_right(self._agents, n) - 1
        length = 2 * (self._k[j] + self._r[j])
        i = (n - self._agents[j]) // length
        return j, self._firsts[j] + i, self._agents[j] + i * length

    def layout(self, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only int64 arrays (k, r, start) of segments 1..m: the block
        sizes k_m and r_m and the first agent of each segment."""
        k, r = block_sizes_arrays(m, self.model)
        starts = np.cumsum(np.r_[3, 2 * (k + r)][:m])
        for view in (k, r, starts):
            view.flags.writeable = False
        return k, r, starts

    def runs(self, m0: int, m1: int) -> tuple[list, list, list]:
        """Lists (k, r, count) of the runs over segments m0..m1, 1 <= m0 <= m1:
        each run's block sizes k_m, r_m and its number of segments in range."""
        j0, j1 = (bisect.bisect_right(self._firsts, m) - 1 for m in (m0, m1))
        bounds = [m0, *self._firsts[j0 + 1 : j1 + 1], m1 + 1]
        counts = [b - a for a, b in zip(bounds, bounds[1:])]
        return self._k[j0 : j1 + 1], self._r[j0 : j1 + 1], counts

    def segment_start(self, m: int) -> int:
        if m < 1:
            raise ValueError("segment index must be >= 1")
        j = bisect.bisect_right(self._firsts, m) - 1
        return self._agents[j] + (m - self._firsts[j]) * 2 * (self._k[j] + self._r[j])

    def segment_of(self, n: int) -> int:
        """Segment index containing agent n (n >= 3)."""
        if n < 3:
            raise ValueError("agents 1 and 2 belong to no segment")
        return self._locate(n)[1]

    def role_of(self, n: int) -> AgentRole:
        if n < 1:
            raise ValueError("agent index must be >= 1")
        if n <= 2:
            return AgentRole(kind=RoleKind.PREAMBLE)
        j, m, start = self._locate(n)
        pos, size = n - start, self._k[j]  # pos is 0-based within the segment
        kinds = (RoleKind.S_FIRST, RoleKind.S_BODY, RoleKind.SR_TRANSIENT)
        if pos >= 2 * size:  # in the R-block or its transient
            pos, size = pos - 2 * size, self._r[j]
            kinds = (RoleKind.R_FIRST, RoleKind.R_BODY, RoleKind.RS_TRANSIENT)
        kind = kinds[0] if pos == 0 else kinds[2] if pos == 2 * size - 1 else kinds[1]
        return AgentRole(kind=kind, m=m)

    def block_start_agent(self, i: int) -> int:
        """Agent index of the first agent of the i-th block.

        Odd i is the start of S-block (i+1)/2; even i the start of
        R-block i/2.  These are the agents whose observed window
        realizes the two-state chain value w_i.
        """
        if i < 1:
            raise ValueError("block index must be >= 1")
        start = self.segment_start((i + 1) // 2)
        return start if i % 2 == 1 else start + 2 * self._k[self._locate(start)[0]]

    def last_block_start_before(self, n: int) -> tuple[int, int]:
        """(i, agent) of the last block start with agent <= n.

        Block starts interleave S-block starts (odd i) and R-block starts
        (even i), so finding the segment and one comparison picks its S-
        or R-block.  Below agent 3 the answer is the first block start,
        (1, 3).
        """
        if n < 3:
            return 1, 3
        j, m, start = self._locate(n)
        r_start = start + 2 * self._k[j]
        return (2 * m, r_start) if n >= r_start else (2 * m - 1, start)

    def role_palette(self, n0: int, n1: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The roles of agents n0..n1 by reference: (kinds, inv_m, index).

        Slot i has role kind ``kinds[i]`` (int8) and 1/m value ``inv_m[i]``,
        and agent n0 + j plays slot ``index[j]``.  Slots 0..6 are the kinds
        themselves with 1/m = 0; slots 7 + 2j and 8 + 2j are the S_FIRST and
        R_FIRST agents of the j-th segment the range touches, with its 1/m.
        The index is one ``np.repeat`` of per-segment slot runs.
        """
        if not (1 <= n0 <= n1):
            raise ValueError("need 1 <= n0 <= n1")
        refuse_past_memory(n1 - n0 + 1, "agent roles")
        j0, lo, start = self._locate(n0) if n0 >= 3 else (0, 0, 1)  # 0: preamble
        j1, hi, _ = self._locate(n1) if n1 >= 3 else (0, 0, 1)
        first = max(lo, 1)
        nseg = hi - first + 1
        slots = np.empty((nseg, 6), dtype=np.intp)
        slots[:] = _SEGMENT_SLOTS
        slots[:, 0] = np.arange(7, 7 + 2 * nseg, 2)
        slots[:, 3] = slots[:, 0] + 1
        counts = np.ones((nseg, 6), dtype=np.int64)
        if j0 == j1:  # one run: the sizes are scalars
            k, r = self._k[j0], self._r[j0]
        else:
            k, r, count = self.runs(first, hi)
            k, r = np.repeat(k, count), np.repeat(r, count)
        counts[:, 1] = 2 * k - 2
        counts[:, 4] = 2 * r - 2
        slots, counts = slots.ravel(), counts.ravel()
        if lo == 0:  # agents 1 and 2 play slot PREAMBLE
            slots, counts = np.r_[RoleKind.PREAMBLE, slots], np.r_[2, counts]
        a = n0 - start
        index = np.repeat(slots, counts)[a : a + n1 - n0 + 1]
        kinds = np.empty(7 + 2 * nseg, dtype=np.int8)
        kinds[:7] = np.arange(7)
        kinds[7::2] = RoleKind.S_FIRST
        kinds[8::2] = RoleKind.R_FIRST
        inv_m = np.zeros(7 + 2 * nseg)
        inv_m[7::2] = inv_m[8::2] = 1.0 / np.arange(first, hi + 1, dtype=np.int64)
        return kinds, inv_m, index

    def role_codes(self, n0: int, n1: int) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized (role kind, 1/m) arrays for agents n0..n1 inclusive,
        read off ``role_palette``.

        The 1/m entry is nonzero only at S_FIRST and R_FIRST agents; it
        parameterizes the searching-phase randomization of the designed
        profile and lets callers assemble per-agent rule tables without
        a per-agent Python loop.
        """
        kinds, inv_m, index = self.role_palette(n0, n1)
        return kinds.take(index), inv_m.take(index)


@functools.cache
def segment_table(model) -> SegmentTable:
    """The shared SegmentTable of a model (frozen, so equal models share it)."""
    return SegmentTable(model)
