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

from dataclasses import dataclass

import numpy as np

from . import chain
from .chain import ZeroProbabilityError, window_distributions
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
            raise ValueError("discount factor must lie in [0, 1)")
        if self.horizon < 0:
            raise ValueError("truncation horizon must be >= 0")
        if self.action not in (0, 1) or self.s not in (0, 1):
            raise ValueError("signal and action must be binary")


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
    violations: list
    n_range: tuple
    eps: float
    delta: float
    horizon: int
    tail_bound: float
    checked: int = 0

    @property
    def passed(self) -> bool:
        return not self.violations


def _tail_bound(delta: float, horizon: int) -> float:
    return 0.0 if delta == 0.0 else delta ** (horizon + 1) / (1.0 - delta)


class CheckArgumentError(ValueError):
    """Equilibrium-check arguments under which nothing can be certified."""


def certified_tail(n_range: tuple, delta: float, eps: float, horizon: int) -> float:
    """Truncation tail of a check, once the arguments are known to allow one."""
    if not (1 <= n_range[0] <= n_range[1]):
        raise CheckArgumentError(f"need 1 <= n1 <= n2, got {n_range[0]}..{n_range[1]}")
    if not (0.0 <= delta < 1.0) or horizon < 0:
        raise CheckArgumentError("need a discount factor in [0, 1) and a horizon >= 0")
    tail = _tail_bound(delta, horizon)
    if 2.0 * tail >= eps:
        raise CheckArgumentError(f"horizon too short to certify eps={eps}: slack {2.0 * tail}")
    return tail


def _posterior_one(dist, model, u_code: int, s: int) -> float:
    w1 = dist.d1[u_code] * model.signal_probs(1)[s]
    w0 = dist.d0[u_code] * model.signal_probs(0)[s]
    if w0 + w1 == 0.0:
        raise ZeroProbabilityError(
            f"window {u_code:0{dist.K}b} with signal {s} has probability zero at n={dist.n}"
        )
    return w1 / (w0 + w1)


def _continuation_values(profile, model, n1: int, n2: int, delta: float, horizon: int):
    """G[theta, n - n1, w]: the sum over t = 1..T of delta^t P^theta(x_{n+t}
    = theta | v_{n+1} = w), for the agents n = n1..n2 and every window w.

    One backward (Horner) recursion over depth t = T..1 serves all n:
    g <- delta P_{n+t}(e_theta + g), where e_theta marks the windows whose
    newest decision is theta and (P_k f)(u) = p_k(u) f(2r + 1) + (1 -
    p_k(u)) f(2r) for r = u mod S/2, the two windows that follow u.
    """
    count, n_states = n2 - n1 + 1, 1 << profile.K
    g = np.zeros((2, count, n_states))
    if delta == 0.0 or horizon == 0:
        return g
    tables = chain._rule_tables(profile, n1 + 1, n2 + horizon)
    p_one = chain._step_probs(tables, chain._signal_laws(model))
    p_zero = 1.0 - p_one
    newest = np.eye(2)[:, :, None, None]  # [theta, newest decision]
    for t in range(horizon, 0, -1):
        p = p_one[:, t - 1 : t - 1 + count].reshape(2, count, 2, -1)
        q = p_zero[:, t - 1 : t - 1 + count].reshape(2, count, 2, -1)
        f_lo = (g[:, :, 0::2] + newest[:, 0])[:, :, None]
        f_hi = (g[:, :, 1::2] + newest[:, 1])[:, :, None]
        g = (delta * (p * f_hi + q * f_lo)).reshape(2, count, n_states)
    return g


def payoff(profile, model, query: PayoffQuery, _dist=None) -> PayoffResult:
    """Truncated conditional expected payoff U_n(action; window, signal)."""
    u_code = window_code(query.window, profile.K)
    dist = _dist if _dist is not None else window_distributions(profile, model, [query.n])[query.n]
    post1 = _posterior_one(dist, model, u_code, query.s)
    post0 = 1.0 - post1
    immediate = post1 if query.action == 1 else post0
    start = ((u_code << 1) | query.action) & ((1 << profile.K) - 1)
    cont = _continuation_values(profile, model, query.n, query.n, query.delta, query.horizon)
    value = immediate + post0 * cont[0, 0, start] + post1 * cont[1, 0, start]
    return PayoffResult(value, _tail_bound(query.delta, query.horizon), post1)


def check_equilibrium(
    profile, model, delta: float, n_range: tuple, eps: float, horizon: int,
    stop_after: int | None = None,
) -> EquilibriumReport:
    """Verify the argmax property over every positive-probability
    (agent, window, signal) triple in ``n_range``.

    A violation is recorded only when the alternative action beats the
    profile's (possibly randomized) action by more than eps plus twice
    the truncation tail, so it survives un-truncation.  Agents go in
    chunks; in each the window laws advance one agent at a time and the
    argmax runs on arrays over the (n, u, s) triples.
    """
    tail = certified_tail(n_range, delta, eps, horizon)
    n1, n2 = n_range
    K, sig = profile.K, chain._signal_laws(model)
    start = ((np.arange(1 << K)[:, None] << 1) | np.arange(2)) & ((1 << K) - 1)  # [u, y]
    d = np.stack(chain.sweep(profile, model, n1 - 1, [n1 - 1])[n1 - 1])  # law of v_n1
    # A chunk and its horizon hold at most _CHUNK_BYTES / (32 S) agents, so the
    # step probabilities and [n, u, s, y] values stay within _CHUNK_BYTES; with
    # stop_after, chunks start at one agent and double, so an early stop does
    # about twice the work up to it.
    size = max(1, chain._CHUNK_BYTES // (32 << K) - horizon)
    step = size if stop_after is None else 1
    violations, checked, lo = [], 0, n1
    while lo <= n2:
        hi = min(lo + step - 1, n2)
        tables = chain._rule_tables(profile, lo, hi)
        p_one = chain._step_probs(tables, sig)
        dists = np.empty((2, hi - lo + 1, 1 << K))
        for i in range(hi - lo + 1):
            dists[:, i] = d
            d = chain._step(d, p_one[:, i])
        # Guard the drift without rescaling, so no value depends on the chunk ends.
        if np.abs(d.sum(axis=1) - 1.0).max() > chain.DRIFT_TOLERANCE:
            raise chain.ChainDriftError(f"probability mass drifted to {d.sum(axis=1)!r}")
        cont = _continuation_values(profile, model, lo, hi, delta, horizon)[:, :, start]
        w = dists[:, :, :, None] * sig[:, None, None, :]  # [theta, n, u, s]
        valid = w[0] + w[1] != 0.0
        with np.errstate(invalid="ignore"):
            post1 = w[1] / (w[0] + w[1])
        post0 = 1.0 - post1
        value = np.stack([post0, post1], axis=-1) + post0[..., None] * cont[0][:, :, None]
        value = value + post1[..., None] * cont[1][:, :, None]  # [n, u, s, y]
        sigma_value = tables * value[..., 1] + (1.0 - tables) * value[..., 0]
        best_action = (value[..., 1] >= value[..., 0]).astype(int)
        best_value = np.where(best_action == 1, value[..., 1], value[..., 0])
        gain = best_value - sigma_value
        hits = np.flatnonzero(valid & (gain > eps + 2.0 * tail))
        stop = stop_after is not None and len(hits) and len(violations) + len(hits) >= stop_after
        if stop:
            hits = hits[: max(1, stop_after - len(violations))]
            valid = valid.ravel()[: hits[-1] + 1]  # the triples up to the last violation kept
        checked += int(np.count_nonzero(valid))
        for at in zip(*np.unravel_index(hits, gain.shape)):
            violations.append(Violation(
                lo + int(at[0]), code_window(int(at[1]), K), int(at[2]),
                float(gain[at]) - 2.0 * tail, float(sigma_value[at]), float(best_value[at]),
                int(best_action[at]),
            ))
        if stop:
            break
        lo, step = hi + 1, min(2 * step, size)
    return EquilibriumReport(violations, (n1, n2), eps, delta, horizon, tail, checked)


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
    agents = list(range(n1, n2 + 1))
    dists = window_distributions(profile, model, agents)
    mass0, mass1 = np.array([(dists[n].d0[e], dists[n].d1[e]) for n in agents]).T
    seen = (mass0 != 0.0) | (mass1 != 0.0)
    sig = chain._signal_laws(model)
    table = chain._rule_tables(profile, n1, n2)[:, e]  # [n, s]
    keep = lambda x: np.where(seen, x, np.nan)  # noqa: E731 - NaN where v_n = window is impossible
    with np.errstate(invalid="ignore", divide="ignore"):
        f = (mass1[:, None] * sig[1]) / (mass0[:, None] * sig[0] + mass1[:, None] * sig[1])
        ratio = (mass1 / mass0) / M
        f_lower = np.where(mass0 > 0.0, ratio / (1.0 + ratio), 1.0)
        pi = mass1 / (mass0 + mass1)
    gamma = sig[1, 0] * (1.0 - table[:, 0]) + sig[1, 1] * (1.0 - table[:, 1])
    return PosteriorSequence(
        np.asarray(agents), tuple(window), keep(pi), {0: keep(f[:, 0]), 1: keep(f[:, 1])},
        keep(f_lower), keep(gamma),
    )
