"""Segment layout for the designed K>=2 decision profile.

Agents 1 and 2 form a preamble.  From agent 3 on, agents are tiled into
segments m = 1, 2, ...  Segment m consists of an S-block of 2*k_m - 1
agents, one SR transient agent, an R-block of 2*r_m - 1 agents, and one
RS transient agent, for a total of 2*k_m + 2*r_m agents.  Block sizes
grow like log(log(m)) so that consensus-switch probabilities decay at
the rate the learning argument needs.
"""

from __future__ import annotations

import math
import threading
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


def block_sizes_arrays(m_max: int, model) -> tuple[np.ndarray, np.ndarray]:
    """Block sizes (k_m, r_m) for m = 1..m_max, as int64 arrays."""
    lnm = np.log(np.arange(1, m_max + 1, dtype=np.float64))
    # Both block formulas are well defined once ln(m) exceeds 1/pbar and
    # 1/qbar; for smaller m both sizes are pinned to 1.
    cutoff = max(1.0 / model.pbar, 1.0 / model.qbar)
    loglog = np.log(lnm, where=lnm > cutoff, out=np.zeros_like(lnm))  # 0: sizes 1
    k = np.maximum(np.ceil(loglog / math.log(1.0 / model.pbar)), 1).astype(np.int64)
    r = np.maximum(np.ceil(loglog / math.log(1.0 / model.qbar)), 1).astype(np.int64)
    return k, r


class SegmentTable:
    """Memoized segment boundaries for one signal model.

    The cumulative-start table is grown geometrically and only appended
    to, so concurrent readers are safe once an entry exists.
    """

    def __init__(self, model):
        self.model = model
        self._lock = threading.Lock()
        self._k = np.empty(0, dtype=np.int64)
        self._r = np.empty(0, dtype=np.int64)
        # _starts[i] = first agent of segment i+1; segment 1 starts at 3.
        self._starts = np.empty(0, dtype=np.int64)
        self._grow(1024)

    def _grow(self, m_max: int):
        with self._lock:
            if len(self._starts) >= m_max:
                return
            k, r = block_sizes_arrays(m_max, self.model)
            lengths = 2 * k + 2 * r
            starts = np.empty(m_max, dtype=np.int64)
            starts[0] = 3
            np.cumsum(lengths[:-1], out=starts[1:])
            starts[1:] += 3
            self._k, self._r, self._starts = k, r, starts

    def _ensure_segment(self, m: int):
        if m > len(self._starts):
            self._grow(max(m, 2 * len(self._starts)))

    def _ensure_agent(self, n: int):
        while self._starts[-1] + 2 * (self._k[-1] + self._r[-1]) <= n:
            self._grow(2 * len(self._starts))

    def layout(self, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only int64 arrays (k, r, start) of segments 1..m: the block
        sizes k_m and r_m and the first agent of each segment."""
        self._ensure_segment(m)
        views = self._k[:m], self._r[:m], self._starts[:m]
        for view in views:
            view.flags.writeable = False
        return views

    def segment_start(self, m: int) -> int:
        self._ensure_segment(m)
        return int(self._starts[m - 1])

    def segment_of(self, n: int) -> int:
        """Segment index containing agent n (n >= 3)."""
        if n < 3:
            raise ValueError("agents 1 and 2 belong to no segment")
        self._ensure_agent(n)
        return int(np.searchsorted(self._starts, n, side="right"))

    def role_of(self, n: int) -> AgentRole:
        if n < 1:
            raise ValueError("agent index must be >= 1")
        if n <= 2:
            return AgentRole(kind=RoleKind.PREAMBLE)
        m = self.segment_of(n)
        start = int(self._starts[m - 1])
        k = int(self._k[m - 1])
        r = int(self._r[m - 1])
        pos = n - start  # 0-based within the segment
        if pos < 2 * k - 1:
            kind = RoleKind.S_FIRST if pos == 0 else RoleKind.S_BODY
            return AgentRole(kind=kind, m=m)
        if pos == 2 * k - 1:
            return AgentRole(kind=RoleKind.SR_TRANSIENT, m=m)
        pos -= 2 * k
        if pos < 2 * r - 1:
            kind = RoleKind.R_FIRST if pos == 0 else RoleKind.R_BODY
            return AgentRole(kind=kind, m=m)
        return AgentRole(kind=RoleKind.RS_TRANSIENT, m=m)

    def block_start_agent(self, i: int) -> int:
        """Agent index of the first agent of the i-th block.

        Odd i is the start of S-block (i+1)/2; even i the start of
        R-block i/2.  These are the agents whose observed window
        realizes the two-state chain value w_i.
        """
        if i < 1:
            raise ValueError("block index must be >= 1")
        if i % 2 == 1:
            m = (i + 1) // 2
            return self.segment_start(m)
        m = i // 2
        return self.segment_start(m) + 2 * int(self._k[m - 1])

    def last_block_start_before(self, n: int) -> tuple[int, int]:
        """(i, agent) of the last block start with agent <= n.

        Block starts interleave S-block starts (odd i) and R-block starts
        (even i), so a search over segment starts finds the segment and
        one comparison picks its S- or R-block.  Below agent 3 the answer
        is the first block start, (1, 3).
        """
        if n < 3:
            return 1, self.segment_start(1)
        m = self.segment_of(n)
        r_start = int(self._starts[m - 1] + 2 * self._k[m - 1])
        if n >= r_start:
            return 2 * m, r_start
        return 2 * m - 1, int(self._starts[m - 1])

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
        self._ensure_agent(n1)
        lo, hi = np.searchsorted(self._starts, (n0, n1), side="right").tolist()  # 0: preamble
        first = max(lo, 1)
        nseg = hi - first + 1
        slots = np.empty((nseg, 6), dtype=np.intp)
        slots[:] = _SEGMENT_SLOTS
        slots[:, 0] = np.arange(7, 7 + 2 * nseg, 2)
        slots[:, 3] = slots[:, 0] + 1
        counts = np.ones((nseg, 6), dtype=np.int64)
        counts[:, 1] = 2 * self._k[first - 1 : hi] - 2
        counts[:, 4] = 2 * self._r[first - 1 : hi] - 2
        slots, counts = slots.ravel(), counts.ravel()
        start = 1
        if lo == 0:  # agents 1 and 2 play slot PREAMBLE
            slots, counts = np.r_[RoleKind.PREAMBLE, slots], np.r_[2, counts]
        else:
            start = int(self._starts[lo - 1])
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


_tables: dict = {}
_tables_lock = threading.Lock()


def segment_table(model) -> SegmentTable:
    """Shared memoized SegmentTable for a model (keyed by (p0, p1))."""
    key = (model.p0, model.p1)
    tab = _tables.get(key)
    if tab is None:
        with _tables_lock:
            tab = _tables.setdefault(key, SegmentTable(model))
    return tab
