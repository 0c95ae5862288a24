"""Forward-looking payoffs and epsilon-equilibrium verification.

An agent's payoff is the discounted sum over itself and all successors
of the indicators of correct decisions.  The conditional expected payoff
of playing y after observing (window u, signal s) is evaluated exactly up
to a truncation horizon T, with tail bounded by delta^(T+1)/(1-delta);
equilibrium checking certifies violations through interval arithmetic on
those tails, so every reported violation is a true violation of the
untruncated payoff.  Deviations are unilateral: only the agent's own
decision changes, successors keep their rules and respond through the
window chain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from . import chain
from .chain import ArgumentError, ZeroProbabilityError, _integer
from .profiles import code_window, window_code
from .signals import blr_bounds


@dataclass(frozen=True)
class PayoffQuery:
    n: int
    window: tuple
    s: int
    action: int
    delta: float
    horizon: int

    def __post_init__(self):
        if not (0.0 <= self.delta < 1.0):
            raise ArgumentError("discount factor must lie in [0, 1)")
        if _integer("horizon", self.horizon) < 0:
            raise ArgumentError("truncation horizon must be >= 0")
        _integer("n", self.n)
        if _integer("action", self.action) not in (0, 1) or _integer("s", self.s) not in (0, 1):
            raise ArgumentError("signal and action must be binary")


@dataclass
class PayoffResult:
    value: float  # truncated expected payoff
    tail_bound: float  # delta^(T+1)/(1-delta)
    posterior: float  # P(theta=1 | v_n=u, s_n=s)


@dataclass
class Violation:
    n: int
    window: tuple
    s: int
    gain: float  # certified payoff improvement beyond the tail slack
    sigma_value: float
    best_value: float
    best_action: int


@dataclass
class EquilibriumReport:
    """A check's violations by column: ``columns`` maps each field of
    ``Violation`` to its values in the order found, the window as its
    code for window length ``K``.  ``violations`` builds the records."""

    columns: dict
    K: int
    n_range: tuple
    eps: float
    delta: float
    horizon: int
    tail_bound: float
    checked: int = 0

    @property
    def passed(self) -> bool:
        return not self.columns["n"]

    @functools.cached_property
    def violations(self) -> list:
        columns = dict(self.columns)
        windows = {u: code_window(u, self.K) for u in set(columns["window"])}
        columns["window"] = map(windows.__getitem__, columns["window"])
        return list(map(Violation, *columns.values()))


def _tail_bound(delta: float, horizon: int) -> float:
    return 0.0 if delta == 0.0 else delta ** (horizon + 1) / (1.0 - delta)


def certified_tail(n_range: tuple, delta: float, eps: float, horizon: int) -> float:
    """Truncation tail of a check, once the arguments are known to allow one."""
    if not (1 <= _integer("n1", n_range[0]) <= _integer("n2", n_range[1])):
        raise ArgumentError(f"need 1 <= n1 <= n2, got {n_range[0]}..{n_range[1]}")
    if not (0.0 <= delta < 1.0) or _integer("horizon", horizon) < 0:
        raise ArgumentError("need a discount factor in [0, 1) and a horizon >= 0")
    if not (math.isfinite(eps) and eps > 0.0):
        raise ArgumentError(f"need a finite eps > 0, got {eps}")
    tail = _tail_bound(delta, horizon)
    if 2.0 * tail >= eps:
        raise ArgumentError(f"horizon too short to certify eps={eps}: slack {2.0 * tail}")
    return tail


# Per window length K, the shortest horizon at which doubling beat the recursion on
# a full chunk in two timing runs (BENCH_log_depth_game.json); at K = 5 it gains too
# little for its 16 MB of operators.
_DOUBLING_FROM = {1: 48, 2: 16, 3: 32, 4: 64}


def _continuation_values(p_one: np.ndarray, delta: float, horizon: int):
    """G[theta, i, w]: the sum over t = 1..T of delta^t P^theta(x_{n+t} =
    theta | v_{n+1} = w), for the i-th agent n of a run n1..n2 and every
    window w.  ``p_one`` (2, n2 - n1 + 1 + T, S) holds the step
    probabilities of agents n1..n2 + T.

    From T = _DOUBLING_FROM[K] on, ``_doubled`` gives the sums in log2(T)
    rounds of S x S products.  Below it one backward (Horner) recursion
    over depth t = T..1 serves all n: g <- delta P_{n+t}(e_theta + g),
    where e_theta marks the windows whose newest decision is theta and
    (P_k f)(u) = p_k(u) f(2r + 1) + (1 - p_k(u)) f(2r) for r = u mod S/2,
    the two windows that follow u.  The two agree to rounding.
    """
    _, count, n_states = p_one.shape
    count -= horizon
    g = np.zeros((2, count, n_states))
    if delta == 0.0 or horizon == 0:
        return g
    if horizon >= _DOUBLING_FROM.get(n_states.bit_length() - 1, math.inf):
        return _doubled(p_one, delta, horizon)
    p_zero = 1.0 - p_one
    newest = np.eye(2)[:, :, None, None]  # [theta, newest decision]
    for t in range(horizon, 0, -1):
        p = p_one[:, t : t + count].reshape(2, count, 2, -1)
        q = p_zero[:, t : t + count].reshape(2, count, 2, -1)
        f_lo = (g[:, :, 0::2] + newest[:, 0])[:, :, None]
        f_hi = (g[:, :, 1::2] + newest[:, 1])[:, :, None]
        g = (delta * (p * f_hi + q * f_lo)).reshape(2, count, n_states)
    return g


def _doubled(p_one: np.ndarray, delta: float, horizon: int) -> np.ndarray:
    """``_continuation_values`` for T >= 1 by doubling.  A stretch of L
    agents after agent i is the pair g[i] = sum over t <= L of delta^t A_{i+1}
    ... A_{i+t} e_theta and m[i] = delta^L A_{i+1} ... A_{i+L}, with A_k
    agent k's transition matrix; stretches L and L' join as (g[i] + m[i]
    g'[i+L], m[i] m'[i+L]).  Stretches L = 1, 2, 4, ... join with
    themselves, and those of T's binary digits join in order.
    """
    total = p_one.shape[1]

    def join(a, b, keep_m):
        (ga, ma, la), (gb, mb, lb) = a, b
        k = total - la - lb  # the agents i with i + la + lb < total
        g = ga[:, :k] + np.matmul(ma[:, :k], gb[:, la : la + k, :, None])[..., 0]
        return g, np.matmul(ma[:, :k], mb[:, la : la + k]) if keep_m else None, la + lb

    m = chain._transition_operators(p_one[:, 1:])
    m *= delta
    stretch = (delta * np.stack([1.0 - p_one[0, 1:], p_one[1, 1:]]), m, 1)
    acc, bits = None, horizon
    while True:
        if bits & 1:
            acc = stretch if acc is None else join(acc, stretch, bits > 1)
        bits >>= 1
        if not bits:
            return acc[0]
        stretch = join(stretch, stretch, bits > 1)


def _values(dists, p_one, sig, delta: float, horizon: int):
    """(post1, valid, value) over the triples (n, u, s) of a run of agents.

    ``dists[theta, i]`` is the law of v_n for the i-th agent n of the run,
    ``p_one`` the step probabilities of the run and the T agents after it
    and ``sig[theta]`` the signal law.  post1 is P(theta=1 | v_n = u, s_n
    = s), valid marks the triples of positive probability, and value[n,
    u, s, y] is the truncated payoff of playing y there.
    """
    n_states = dists.shape[-1]
    start = (np.arange(2 * n_states) & (n_states - 1)).reshape(n_states, 2)  # [u, y]: 2u + y
    cont = _continuation_values(p_one, delta, horizon)[:, :, start]
    w = dists[:, :, :, None] * sig[:, None, None, :]  # [theta, n, u, s]
    total = w[0] + w[1]
    valid = total != 0.0
    with np.errstate(invalid="ignore"):
        post1 = w[1] / total
    post0 = 1.0 - post1
    value = np.stack([post0, post1], axis=-1) + post0[..., None] * cont[0][:, :, None]
    return post1, valid, value + post1[..., None] * cont[1][:, :, None]


def payoff(profile, model, query: PayoffQuery) -> PayoffResult:
    """Truncated conditional expected payoff U_n(action; window, signal)."""
    n, u, s = query.n, window_code(query.window, profile.K), query.s
    _, _, p_one, dists = next(chain.law_walk(profile, model, n, n, query.horizon))
    post1, valid, value = _values(
        dists, p_one, chain._signal_laws(model), query.delta, query.horizon
    )
    if not valid[0, u, s]:
        raise ZeroProbabilityError(
            f"window {u:0{profile.K}b} with signal {s} has probability zero at n={n}"
        )
    return PayoffResult(
        float(value[0, u, s, query.action]), _tail_bound(query.delta, query.horizon),
        float(post1[0, u, s]),
    )


def check_equilibrium(
    profile, model, delta: float, n_range: tuple, eps: float, horizon: int
) -> EquilibriumReport:
    """Verify the argmax property over every positive-probability
    (agent, window, signal) triple in ``n_range``.

    A violation is recorded only when the alternative action beats the
    profile's (possibly randomized) action by more than eps plus twice
    the truncation tail, so it survives un-truncation.  Agents go in the
    chunks of ``chain.law_walk``; in each the argmax runs on arrays over
    the (n, u, s) triples, and the hits' fields are appended to the
    report's columns, with no record made per violation.
    """
    tail = certified_tail(n_range, delta, eps, horizon)
    n1, n2 = n_range
    sig = chain._signal_laws(model)
    columns, checked = {f.name: [] for f in fields(Violation)}, 0
    for lo, tables, p_one, dists in chain.law_walk(profile, model, n1, n2, horizon):
        _, valid, value = _values(dists, p_one, sig, delta, horizon)
        tables = tables[: dists.shape[1]]
        sigma_value = tables * value[..., 1] + (1.0 - tables) * value[..., 0]
        better = value[..., 1] >= value[..., 0]
        best_value = np.where(better, value[..., 1], value[..., 0])
        gain = best_value - sigma_value
        hits = valid & (gain > eps + 2.0 * tail)
        checked += int(np.count_nonzero(valid))
        at, codes, s = np.nonzero(hits)
        found = (at + lo, codes, s, gain[hits] - 2.0 * tail, sigma_value[hits], best_value[hits],
                 better[hits].astype(int))
        for column, values in zip(columns.values(), found):
            column += values.tolist()
    return EquilibriumReport(columns, profile.K, (n1, n2), eps, delta, horizon, tail, checked)


@dataclass
class PosteriorSequence:
    """Posterior diagnostics along a fixed observed window.

    ``pi`` is P(theta=1 | v_n = window); ``f`` maps a signal value to the
    exact posterior given the window and that signal; ``f_lower`` is the
    bounded-likelihood-ratio lower bound on min_s f_n(s); ``gamma`` is
    the probability (under theta=1) that the profile deviates from 1 at
    the window.  Entries are NaN where the window has probability zero.
    """

    ns: np.ndarray
    window: tuple
    pi: np.ndarray
    f: dict
    f_lower: np.ndarray
    gamma: np.ndarray


def posterior_sequence(profile, model, n_range: tuple, window=None) -> PosteriorSequence:
    n1, n2 = n_range
    window = (1,) * profile.K if window is None else window
    e = window_code(window, profile.K)
    _, M = blr_bounds(model)
    sig = chain._signal_laws(model)
    walk = list(chain.law_walk(profile, model, n1, n2))
    mass0, mass1 = np.concatenate([dists[:, :, e] for _, _, _, dists in walk], axis=1)
    rows = np.concatenate([tables[:, e] for _, tables, _, _ in walk])
    seen = (mass0 != 0.0) | (mass1 != 0.0)
    keep = lambda x: np.where(seen, x, np.nan)  # noqa: E731 - NaN where v_n = window is impossible
    with np.errstate(invalid="ignore", divide="ignore"):
        f = (mass1[:, None] * sig[1]) / (mass0[:, None] * sig[0] + mass1[:, None] * sig[1])
        ratio = (mass1 / mass0) / M
        f_lower = np.where(mass0 > 0.0, ratio / (1.0 + ratio), 1.0)
        pi = mass1 / (mass0 + mass1)
    gamma = sig[1, 0] * (1.0 - rows[:, 0]) + sig[1, 1] * (1.0 - rows[:, 1])
    return PosteriorSequence(
        np.arange(n1, n2 + 1), tuple(window), keep(pi), {0: keep(f[:, 0]), 1: keep(f[:, 1])},
        keep(f_lower), keep(gamma),
    )
