"""Decision rules and concrete decision profiles.

A decision rule for window length K is a table of shape (2**K, 2)
giving the probability of deciding 1 for each (window, signal) pair.
Windows are encoded as integers with the oldest observed decision in
the most significant bit, so the immediate predecessor is the low bit
and a new decision x updates the code as ((code << 1) | x) & mask.
Randomization is carried in the table entries themselves: the Monte
Carlo engine draws against them, the exact chain integrates them.

The designed K=2 profile computes its tables from the segment schedule.
Every other profile is a ``TableProfile``: a default table plus the
tables of a list of agents.  Baseline profiles list none, a JSON profile
lists its overrides, and a myopic profile lists agents 1..F, where F is
the first agent whose step leaves the window laws unchanged (or the
horizon), so that every later agent plays table F.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .schedule import RoleKind, refuse_past_memory, segment_table
from .signals import ArgumentError, _integer

MAX_K = 16  # widest window a profile may have; a rule table has 2^K x 2 entries


def _window_length(K) -> int:
    """K, checked as every profile's window length: an integer >= 1."""
    if _integer("K", K) < 1:
        raise ArgumentError("window length K must be >= 1")
    return K


def window_code(window, K: int) -> int:
    """Integer code of a window tuple (oldest decision first)."""
    if len(window) != K or any(bit not in (0, 1) for bit in window):
        raise ArgumentError(f"window {window} is not {K} decisions of 0 or 1")
    code = 0
    for bit in window:
        code = (code << 1) | int(bit)
    return code


def code_window(code: int, K: int) -> tuple:
    """Inverse of :func:`window_code`."""
    return tuple((code >> (K - 1 - i)) & 1 for i in range(K))


@dataclass(frozen=True)
class DecisionRule:
    """Per-agent map (window, signal) -> probability of deciding 1."""

    table: np.ndarray  # shape (2**K, 2), entries in [0, 1]

    def __post_init__(self):
        table = np.ascontiguousarray(self.table, dtype=np.float64)
        n_states = table.shape[0]
        if table.ndim != 2 or table.shape[1] != 2 or n_states & (n_states - 1):
            raise ArgumentError("rule table must have shape (2**K, 2)")
        if not np.all((table >= 0.0) & (table <= 1.0)):
            raise ArgumentError("rule entries must be probabilities")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @property
    def K(self) -> int:
        return int(self.table.shape[0]).bit_length() - 1


class Profile:
    """An indexed sequence of decision rules over a window of length K, given
    by reference as ``rule_palette(n0, n1)`` -> (palette, index): the
    distinct tables of agents n0..n1, shape (P, 2^K, 2), and an integer
    array of shape (n,), so that agent n0 + i plays ``palette[index[i]]``.
    ``rule_table_chunk(n0, n1)`` spells them out per agent, shape (n, 2^K,
    2), and ``rule(n)`` is one row of that."""

    def __init__(self, K: int, descriptor: str):
        self.K = _window_length(K)
        self.descriptor = descriptor

    def rule_table_chunk(self, n0: int, n1: int) -> np.ndarray:
        """Per-agent rule tables for agents n0..n1, shape (n, 2^K, 2)."""
        palette, index = self.rule_palette(n0, n1)
        return palette.take(index, axis=0)

    def rule(self, n: int) -> DecisionRule:
        return DecisionRule(self.rule_table_chunk(n, n)[0])

    def search_table_chunk(self, n0: int, n1: int) -> np.ndarray:
        """Which (window, decision) pairs start a searching phase, for
        agents n0..n1: bool, shape (n, 2^K, 2).  Only the designed profile
        searches; this is a read-only all-False view."""
        return np.broadcast_to(False, (n1 - n0 + 1, 1 << self.K, 2))

    def __repr__(self):
        return f"<Profile {self.descriptor} K={self.K}>"


class TableProfile(Profile):
    """Every agent plays the ``default`` table, except the listed ``agents``
    (int64, increasing), which play ``tables`` in order.  K comes from the
    table shape.  Entries are not checked here: ``rule(n)`` checks them."""

    def __init__(self, default, agents=(), tables=None, descriptor: str = "table"):
        self._default = np.asarray(default, dtype=np.float64)
        self._agents = np.asarray(agents, dtype=np.int64)
        tables = np.asarray([] if tables is None else tables, dtype=np.float64)
        self._tables = tables.reshape(len(self._agents), *self._default.shape)
        super().__init__(int(self._default.shape[0]).bit_length() - 1, descriptor)

    def rule_palette(self, n0: int, n1: int) -> tuple[np.ndarray, np.ndarray]:
        """The default table, then the tables of the range's listed agents."""
        if not (1 <= _integer("n0", n0) <= _integer("n1", n1)):
            raise ArgumentError("need 1 <= n0 <= n1")
        refuse_past_memory(n1 - n0 + 1, "agent rule indices")
        lo, hi = np.searchsorted(self._agents, [n0, n1 + 1])
        index = np.zeros(n1 - n0 + 1, dtype=np.intp)
        index[self._agents[lo:hi] - n0] = np.arange(1, hi - lo + 1)
        return np.concatenate([self._default[None], self._tables[lo:hi]]), index

    def cascade_onset(self) -> int | None:
        """Smallest n* from which no agent reads its private signal, or None
        if the default rule reads it."""
        if (self._default[:, 0] != self._default[:, 1]).any():
            return None
        reads = np.flatnonzero((self._tables[:, :, 0] != self._tables[:, :, 1]).any(axis=1))
        return int(self._agents[reads[-1]]) + 1 if len(reads) else 1


def baseline_profile(kind: str, K: int) -> TableProfile:
    """Control profiles: constant decisions and predecessor-copying."""
    n_states = 1 << _window_length(K)
    if kind in ("constant0", "constant1"):
        table = np.full((n_states, 2), 1.0 if kind == "constant1" else 0.0)
    elif kind == "copy":
        table = np.zeros((n_states, 2))
        table[1::2, :] = 1.0  # low bit of the code is the predecessor
    else:
        raise ArgumentError(f"unknown baseline profile {kind!r}")
    return TableProfile(table, descriptor=kind)


# ---------------------------------------------------------------------------
# The designed K=2 profile.
#
# Base tables indexed by role kind; the searching-phase randomization of
# block-first agents enters linearly through 1/m, so the table of agent n
# is base[kind] + (1/m) * delta[kind].  Windows (0,1)/(1,0) at block-first
# agents cannot occur under the profile's own dynamics; their entries are
# set to copy the predecessor and never execute.
# ---------------------------------------------------------------------------

_COPY2 = [[0.0, 0.0], [1.0, 1.0], [0.0, 0.0], [1.0, 1.0]]

DESIGNED_BASE = np.array(
    [
        [[0.0, 0.0]] * 4,  # PREAMBLE: decide 0
        _COPY2,  # S_FIRST: (0,0)->searching delta, (1,1)->1
        [[0.0, 0.0], [0.0, 0.0], [0.0, 1.0], [1.0, 1.0]],  # S_BODY
        _COPY2,  # SR_TRANSIENT
        _COPY2,  # R_FIRST: (1,1)->searching delta, (0,0)->0
        [[0.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 1.0]],  # R_BODY
        _COPY2,  # RS_TRANSIENT
    ],
    dtype=np.float64,
)

DESIGNED_DELTA = np.zeros((7, 4, 2), dtype=np.float64)
DESIGNED_DELTA[RoleKind.S_FIRST, 0, 1] = 1.0  # (0,0), s=1: decide 1 w.p. 1/m
DESIGNED_DELTA[RoleKind.R_FIRST, 3, 0] = -1.0  # (1,1), s=0: decide 0 w.p. 1/m

# A search starts when a block-first agent leaves the block's consensus:
# deciding 1 on window (0,0) at S_FIRST, or 0 on (1,1) at R_FIRST.  That is
# exactly where the 1/m term acts, and the agent decides as its signal reads,
# so the signal axis of the delta is the decision axis here.
# Indexed [kind, window, decision].
DESIGNED_SEARCH = DESIGNED_DELTA != 0.0

for _table in (DESIGNED_BASE, DESIGNED_DELTA, DESIGNED_SEARCH):
    _table.setflags(write=False)


class DesignedProfile(Profile):
    """The segment/block learning profile for K=2."""

    def __init__(self, model):
        self.model = model
        self.segments = segment_table(model)
        super().__init__(K=2, descriptor="designed")

    def rule_palette(self, n0: int, n1: int) -> tuple[np.ndarray, np.ndarray]:
        """The 7 base tables, then base + (1/m) * delta for the S_FIRST and
        R_FIRST agents of each segment the range touches, in the slots of
        ``SegmentTable.role_palette``."""
        kinds, inv_m, index = self.segments.role_palette(n0, n1)
        palette = DESIGNED_BASE.take(kinds, axis=0)
        palette[7:] += inv_m[7:, None, None] * DESIGNED_DELTA.take(kinds[7:], axis=0)
        return palette, index

    # Defined on this class as well, where perfbench traces it.
    rule_table_chunk = Profile.rule_table_chunk

    def search_table_chunk(self, n0: int, n1: int) -> np.ndarray:
        """Search-starting (window, decision) pairs of agents n0..n1, shape (n, 4, 2)."""
        return DESIGNED_SEARCH[self.segments.role_codes(n0, n1)[0]]

    def searching_mask(self, n, window_codes, decisions):
        """Which (window, decision) pairs of agent n start a searching phase."""
        return self.search_table_chunk(n, n)[0][np.asarray(window_codes), np.asarray(decisions)]


def designed_profile(model) -> DesignedProfile:
    """The learning decision profile of the K=2 construction."""
    return DesignedProfile(model)


# ---------------------------------------------------------------------------
# Myopic profile by forward induction.
# ---------------------------------------------------------------------------


def _myopic_induction(model, K, horizon) -> np.ndarray:
    """Rule tables of agents 1..F, shape (F, 2^K, 2), where F <= horizon.

    Agent n decides 1 where P(theta=1, v_n=u, s) beats P(theta=0, v_n=u, s)
    and copies its predecessor on a tie, which covers the windows of
    probability zero: those entries never execute.  Agent n's table depends
    on the laws before it alone, so once agent F's step leaves both laws
    bitwise unchanged every later agent plays table F, and the induction
    stops there; otherwise F is the horizon.
    """
    from .chain import _signal_laws, _step, _step_probs  # chain is rule-agnostic

    sig = _signal_laws(model)
    copy = (np.arange(1 << K) & 1)[:, None].astype(bool)  # the predecessor bit
    d = np.zeros((2, 1 << K))
    d[:, 0] = 1.0  # zero-padded window before agent 1
    tables = []  # bool until stacked: every entry is 0 or 1
    for _ in range(horizon):
        w = d[:, :, None] * sig[:, None, :]  # [theta, u, s]
        tables.append(np.where(w[1] == w[0], copy, w[1] > w[0]))
        d, before = _step(d, _step_probs(tables[-1][None], sig)[:, 0]), d
        if np.array_equal(d, before):
            break
    return np.array(tables, dtype=np.float64)


def myopic_profile(model, K: int, horizon: int) -> TableProfile:
    """Forward-induction myopic (probability-of-own-error minimizing)
    profile, built against the exact window laws the profile itself
    induces, so it is a myopic best-response fixed point.  Agents past the
    stored tables (the laws' fixed point, or the horizon) play the last."""
    _window_length(K)  # Profile's check, made before the induction that needs a window
    if _integer("horizon", horizon) < 1:
        raise ArgumentError("horizon must be >= 1")
    tables = _myopic_induction(model, K, horizon)
    return TableProfile(tables[-1], np.arange(1, len(tables) + 1), tables, f"myopic(K={K})")


# ---------------------------------------------------------------------------
# Custom profiles from JSON tables.
# ---------------------------------------------------------------------------


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ArgumentError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def profile_from_dict(obj: dict) -> TableProfile:
    """Profile from a JSON-style dict.

    Schema: ``{"K": 2, "default": {window: {signal: prob}}, "agents":
    {"5": {...}}}`` where windows are K-character bitstrings, oldest
    decision first, and agents are integers >= 1 without sign or leading
    zeros.  Missing entries default to deciding 0.  Any other shape or
    key, or K outside [1, MAX_K], raises ``ArgumentError``.
    """
    K = _object(obj, "a profile").get("K")
    if type(K) is not int or not 1 <= K <= MAX_K:
        raise ArgumentError(f"profile K must be an integer in [1, {MAX_K}], got {K!r}")
    n_states = 1 << K

    def build(entry, what) -> DecisionRule:
        table = np.zeros((n_states, 2))
        for win, by_signal in _object(entry, what).items():
            if len(win) != K or set(win) - {"0", "1"}:  # one key per window, no aliases
                raise ArgumentError(f"bad window key {win!r} for K={K}")
            code = int(win, 2)
            for s, prob in _object(by_signal, f"window {win!r}").items():
                if s not in ("0", "1") or type(prob) not in (int, float):
                    raise ArgumentError(f"bad entry {s!r}: {prob!r} in window {win!r}")
                table[code, int(s)] = prob
        return DecisionRule(table)

    default = build(obj.get("default", {}), "default")
    agents = _object(obj.get("agents", {}), "agents")
    bad = [n for n in agents if not (n.isascii() and n.isdigit() and n[0] != "0")]
    if bad:  # "01" or "+1" would alias agent 1
        raise ArgumentError(f"agent keys must be integers >= 1 written plainly, got {bad}")
    keys = sorted(map(int, agents))
    if keys and keys[-1] > np.iinfo(np.int64).max:
        raise ArgumentError(f"agent keys must be at most 2^63 - 1, got {keys[-1]}")
    tables = [build(agents[str(n)], f"agent {n}").table for n in keys]
    return TableProfile(default.table, keys, tables, "custom")


def profile_from_json(path) -> TableProfile:
    with open(path) as fh:
        return profile_from_dict(json.load(fh))
