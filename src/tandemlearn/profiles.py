"""Decision rules and concrete decision profiles.

A decision rule for window length K is a table of shape (2**K, 2)
giving the probability of deciding 1 for each (window, signal) pair.
Windows are encoded as integers with the oldest observed decision in
the most significant bit, so the immediate predecessor is the low bit
and a new decision x updates the code as ((code << 1) | x) & mask.
Randomization is carried in the table entries themselves: the Monte
Carlo engine draws against them, the exact chain integrates them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .schedule import RoleKind, segment_table


def window_code(window, K: int) -> int:
    """Integer code of a window tuple (oldest decision first)."""
    if len(window) != K:
        raise ValueError(f"window {window} has length {len(window)}, expected {K}")
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
            raise ValueError("rule table must have shape (2**K, 2)")
        if np.any(table < 0.0) or np.any(table > 1.0):
            raise ValueError("rule entries must be probabilities")
        table.setflags(write=False)
        object.__setattr__(self, "table", table)

    @property
    def K(self) -> int:
        return int(self.table.shape[0]).bit_length() - 1

    def prob_one(self, window, s) -> float:
        return float(self.table[window_code(window, self.K), s])


class Profile:
    """An indexed sequence of decision rules over a window of length K."""

    def __init__(self, K: int, rule_fn, descriptor: str):
        if K < 1:
            raise ValueError("window length K must be >= 1")
        self.K = K
        self.descriptor = descriptor
        self._rule_fn = rule_fn

    def rule(self, n: int) -> DecisionRule:
        if n < 1:
            raise ValueError("agent index must be >= 1")
        return self._rule_fn(n)

    def searching_mask(self, n, window_codes, decisions):
        """Boolean mask of searching-phase initiations (designed profile
        only); the default profile has no searching phases."""
        return np.zeros(np.shape(decisions), dtype=bool)

    def __repr__(self):
        return f"<Profile {self.descriptor} K={self.K}>"


def baseline_profile(kind: str, K: int) -> Profile:
    """Control profiles: constant decisions and predecessor-copying."""
    n_states = 1 << K
    if kind in ("constant0", "constant1"):
        c = 1.0 if kind == "constant1" else 0.0
        rule = DecisionRule(np.full((n_states, 2), c))
    elif kind == "copy":
        table = np.zeros((n_states, 2))
        table[1::2, :] = 1.0  # low bit of the code is the predecessor
        rule = DecisionRule(table)
    else:
        raise ValueError(f"unknown baseline profile {kind!r}")
    return _FixedRuleProfile(K, rule, kind)


class _FixedRuleProfile(Profile):
    """Every agent plays the same rule."""

    def __init__(self, K: int, rule: DecisionRule, descriptor: str):
        self._table = rule.table
        super().__init__(K, lambda n: rule, descriptor)

    def rule_table_chunk(self, n0: int, n1: int) -> np.ndarray:
        """Per-agent rule tables for agents n0..n1, shape (n, 2^K, 2), as a
        read-only view of the one table."""
        return np.broadcast_to(self._table, (n1 - n0 + 1, *self._table.shape))


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
DESIGNED_BASE[RoleKind.S_FIRST, 0] = [0.0, 0.0]  # (0,0): randomized via delta

DESIGNED_DELTA = np.zeros((7, 4, 2), dtype=np.float64)
DESIGNED_DELTA[RoleKind.S_FIRST, 0, 1] = 1.0  # (0,0), s=1: decide 1 w.p. 1/m
DESIGNED_DELTA[RoleKind.R_FIRST, 3, 0] = -1.0  # (1,1), s=0: decide 0 w.p. 1/m

DESIGNED_BASE.setflags(write=False)
DESIGNED_DELTA.setflags(write=False)


class DesignedProfile(Profile):
    """The segment/block learning profile for K=2."""

    def __init__(self, model):
        self.model = model
        self.segments = segment_table(model)
        self._cache: dict = {}
        super().__init__(K=2, rule_fn=self._rule, descriptor="designed")

    def _rule(self, n: int) -> DecisionRule:
        role = self.segments.role_of(n)
        key = (role.kind, role.m if role.kind in (RoleKind.S_FIRST, RoleKind.R_FIRST) else None)
        rule = self._cache.get(key)
        if rule is None:
            inv_m = 1.0 / role.m if key[1] is not None else 0.0
            rule = DecisionRule(DESIGNED_BASE[role.kind] + inv_m * DESIGNED_DELTA[role.kind])
            self._cache[key] = rule
        return rule

    def rule_table_chunk(self, n0: int, n1: int) -> np.ndarray:
        """Per-agent rule tables for agents n0..n1, shape (n, 4, 2)."""
        kinds, inv_m = self.segments.role_codes(n0, n1)
        return DESIGNED_BASE[kinds] + inv_m[:, None, None] * DESIGNED_DELTA[kinds]

    def searching_mask(self, n, window_codes, decisions):
        role = self.segments.role_of(n)
        w = np.asarray(window_codes)
        x = np.asarray(decisions)
        if role.kind == RoleKind.S_FIRST:
            return (w == 0) & (x == 1)
        if role.kind == RoleKind.R_FIRST:
            return (w == 3) & (x == 0)
        return np.zeros(x.shape, dtype=bool)


def designed_profile(model) -> DesignedProfile:
    """The learning decision profile of the K=2 construction."""
    return DesignedProfile(model)


# ---------------------------------------------------------------------------
# Myopic profile by forward induction.
# ---------------------------------------------------------------------------


class MyopicProfile(Profile):
    """Each agent maximizes the probability its own decision is correct.

    Built by forward induction against the exact window distributions the
    profile itself induces, so it is a myopic best-response fixed point.
    Requests beyond the construction horizon return the horizon rule
    (after a cascade sets in the rules are constant anyway).
    """

    def __init__(self, model, K: int, horizon: int):
        self.model = model
        self.horizon = horizon
        #: (n, window code) pairs whose window has zero probability under
        #: both states of the world; their entries copy the predecessor
        #: and never execute.
        self.flagged: list[tuple[int, int]] = []
        rules, dists = _myopic_induction(model, K, horizon, self.flagged)
        self._rules = rules
        self._tables = np.stack([rule.table for rule in rules])
        #: per-theta window distributions of v_n for n = 1..horizon+1
        self.window_dists = dists
        super().__init__(K=K, rule_fn=self._rule, descriptor=f"myopic(K={K})")

    def _rule(self, n: int) -> DecisionRule:
        return self._rules[min(n, self.horizon) - 1]

    def rule_table_chunk(self, n0: int, n1: int) -> np.ndarray:
        """Per-agent rule tables for agents n0..n1, shape (n, 2^K, 2);
        agents past the horizon get the horizon rule, as in ``rule``."""
        return self._tables[np.minimum(np.arange(n0, n1 + 1), self.horizon) - 1]

    def cascade_onset(self) -> int | None:
        """Smallest n* with every rule from n* to the horizon ignoring
        the private signal, or None if the tail still consults signals."""
        onset = None
        for n in range(self.horizon, 0, -1):
            t = self._rules[n - 1].table
            if np.array_equal(t[:, 0], t[:, 1]):
                onset = n
            else:
                break
        return onset


def _myopic_induction(model, K, horizon, flagged):
    from .chain import propagate_dist  # local import; chain is rule-agnostic

    n_states = 1 << K
    d0 = np.zeros(n_states)
    d1 = np.zeros(n_states)
    d0[0] = d1[0] = 1.0  # zero-padded window before agent 1
    rules = []
    dists = [(d0.copy(), d1.copy())]
    sig0 = model.signal_probs(0)
    sig1 = model.signal_probs(1)
    for n in range(1, horizon + 1):
        table = np.zeros((n_states, 2))
        for u in range(n_states):
            if d0[u] == 0.0 and d1[u] == 0.0:
                table[u, :] = u & 1  # copy predecessor; never executes
                flagged.append((n, u))
                continue
            for s in (0, 1):
                w1 = d1[u] * sig1[s]
                w0 = d0[u] * sig0[s]
                if w1 > w0:
                    table[u, s] = 1.0
                elif w1 == w0:
                    table[u, s] = u & 1  # tie: copy the predecessor
        rule = DecisionRule(table)
        rules.append(rule)
        d0 = propagate_dist(d0, rule.table, sig0)
        d1 = propagate_dist(d1, rule.table, sig1)
        dists.append((d0.copy(), d1.copy()))
    return rules, dists


def myopic_profile(model, K: int, horizon: int) -> MyopicProfile:
    """Forward-induction myopic (probability-of-own-error minimizing)
    profile over a finite horizon."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    return MyopicProfile(model, K, horizon)


# ---------------------------------------------------------------------------
# Custom profiles from JSON tables.
# ---------------------------------------------------------------------------


def profile_from_dict(obj: dict) -> Profile:
    """Profile from a JSON-style dict.

    Schema: ``{"K": 2, "default": {window: {signal: prob}}, "agents":
    {"5": {...}}}`` where windows are bitstrings, oldest decision first.
    Missing entries default to deciding 0.
    """
    K = int(obj["K"])
    n_states = 1 << K

    def build(entry) -> DecisionRule:
        table = np.zeros((n_states, 2))
        for win, by_signal in entry.items():
            code = int(win, 2)
            if not 0 <= code < n_states or len(win) != K:
                raise ValueError(f"bad window key {win!r} for K={K}")
            for s, prob in by_signal.items():
                table[code, int(s)] = float(prob)
        return DecisionRule(table)

    default = build(obj.get("default", {}))
    per_agent = {int(n): build(entry) for n, entry in obj.get("agents", {}).items()}
    return Profile(K, lambda n: per_agent.get(n, default), "custom")


def profile_from_json(path) -> Profile:
    with open(path) as fh:
        return profile_from_dict(json.load(fh))
