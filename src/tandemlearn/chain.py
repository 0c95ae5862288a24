"""Exact probabilistic evaluation of tandem decision processes.

The observed window of the K immediate predecessors is a non-homogeneous
Markov chain over {0,1}^K under each state of the world.  This module
propagates its distribution exactly (forward Chapman-Kolmogorov), plus:

* the two-state block-start chain of the designed profile and its
  closed-form transition probabilities,
* convergence diagnostics for the block-size series,
* per-step transition diagnostics for the K=1 chain,
* a brute-force enumeration oracle over signal sequences.

Probabilities are propagated in linear space; the state count is tiny
and magnitudes stay near 1.  Periodic renormalization is guarded by a
drift check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .schedule import block_sizes, block_sizes_arrays, segment_table

# The sweep has no numba path; perfbench's environment stamp reads this name.
HAVE_NUMBA = False

DRIFT_TOLERANCE = 1e-9
_CHUNK = 1 << 12  # agents per chunk of rule tables
_SCAN_MAX_K = 5  # widest window whose stretches are composed as matrices
_CHUNK_BYTES = 1 << 20  # bound on one chunk's per-agent arrays


class ChainDriftError(RuntimeError):
    """Probability mass drifted beyond the renormalization guard."""


class ZeroProbabilityError(ValueError):
    """Conditioning on an event of probability zero."""


class CheckpointRangeError(ValueError):
    """A checkpoint outside the agents 1..N of the horizon."""


# ---------------------------------------------------------------------------
# Window distributions and forward propagation.
# ---------------------------------------------------------------------------


@dataclass
class WindowDistribution:
    """Per-state-of-world distribution of the window v_n at agent n."""

    n: int
    d0: np.ndarray
    d1: np.ndarray

    def __post_init__(self):
        self.d0 = np.asarray(self.d0, dtype=np.float64)
        self.d1 = np.asarray(self.d1, dtype=np.float64)
        for d in (self.d0, self.d1):
            if np.any(d < 0.0) or abs(d.sum() - 1.0) > 1e-12:
                raise ValueError("window distribution must be a probability vector")
        if self.d0.shape != self.d1.shape:
            raise ValueError("per-theta vectors must have equal length")

    @property
    def K(self) -> int:
        return int(len(self.d0)).bit_length() - 1

    @classmethod
    def initial(cls, K: int) -> "WindowDistribution":
        d = np.zeros(1 << K)
        d[0] = 1.0  # zero-padded window before agent 1
        return cls(n=1, d0=d.copy(), d1=d.copy())


def propagate_dist(dist: np.ndarray, table: np.ndarray, sig: tuple) -> np.ndarray:
    """One forward step of the window chain under one state of the world.

    ``table`` is the acting agent's rule table, ``sig`` the signal law
    (P(s=0), P(s=1)) under that state of the world.  Signal-independent
    rule entries bypass the signal average so that deterministic rules
    move mass without rounding.
    """
    n_states = len(dist)
    mask = n_states - 1
    new = np.zeros(n_states)
    for u in range(n_states):
        mass = dist[u]
        if mass == 0.0:
            continue
        hi = ((u << 1) | 1) & mask
        lo = (u << 1) & mask
        t0, t1 = table[u, 0], table[u, 1]
        if t0 == t1:
            p_one = t0
        else:
            p_one = sig[0] * t0 + sig[1] * t1
        new[hi] += mass * p_one
        new[lo] += mass * (1.0 - p_one)
    return new


def propagate(dist: WindowDistribution, rule, model) -> WindowDistribution:
    """Advance the window distribution across agent ``dist.n``'s decision."""
    table = rule.table
    if len(table) != len(dist.d0):
        raise ValueError("rule window length does not match the distribution")
    return WindowDistribution(
        n=dist.n + 1,
        d0=propagate_dist(dist.d0, table, model.signal_probs(0)),
        d1=propagate_dist(dist.d1, table, model.signal_probs(1)),
    )


def _rule_tables(profile, n0: int, n1: int) -> np.ndarray:
    if hasattr(profile, "rule_table_chunk"):
        return profile.rule_table_chunk(n0, n1)
    return np.stack([profile.rule(n).table for n in range(n0, n1 + 1)])


def _signal_laws(model) -> np.ndarray:
    """sig[theta, s]: the signal law under each state of the world."""
    return np.array([model.signal_probs(0), model.signal_probs(1)], dtype=np.float64)


def _renormalize(d: np.ndarray):
    total = d.sum()
    if abs(total - 1.0) > DRIFT_TOLERANCE:
        raise ChainDriftError(f"probability mass drifted to {total!r}")
    if total != 1.0:
        d /= total


def _step_probs(tables: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """P(decision = 1 | window u) per theta and agent, shape (2, n, S).

    ``tables`` holds n rule tables of shape (S, 2) and ``sig[theta]`` the
    signal law under theta.  As in :func:`propagate_dist`,
    signal-independent entries are the probability itself, with no signal
    average, so deterministic rules stay exact.
    """
    t0 = tables[:, :, 0]
    t1 = tables[:, :, 1]
    averaged = sig[:, 0, None, None] * t0 + sig[:, 1, None, None] * t1
    return np.where(t0 == t1, t0, averaged)


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


def _compose(ops: np.ndarray) -> np.ndarray:
    """Ordered product of ``ops[:, 0] @ ops[:, 1] @ ...``, shape (2, S, S).

    Adjacent pairs are multiplied in one batched matmul per round, which
    halves the count (an odd last factor carries over), so the product
    takes log2(n) rounds of numpy work instead of n Python steps.
    """
    while ops.shape[1] > 1:
        even = ops.shape[1] & ~1
        paired = np.matmul(ops[:, 0:even:2], ops[:, 1:even:2])
        if even < ops.shape[1]:
            paired = np.concatenate([paired, ops[:, even:]], axis=1)
        ops = paired
    return ops[:, 0]


def _step(d: np.ndarray, p_one: np.ndarray) -> np.ndarray:
    """One agent's decision for both theta in O(S), for windows too wide to scan.

    Windows u and u + S/2 differ only in the bit that drops out, so both
    move to windows 2r and 2r + 1 for r = u mod S/2.
    """
    half = d.shape[1] // 2
    mass = d.reshape(2, 2, half)
    p = p_one.reshape(2, 2, half)
    new = np.empty((2, half, 2))
    new[:, :, 1] = (mass * p).sum(axis=1)
    new[:, :, 0] = (mass * (1.0 - p)).sum(axis=1)
    return new.reshape(2, -1)


def _chunk_agents(K: int) -> int:
    # Agents per chunk: _CHUNK, or fewer where one chunk's
    # per-agent arrays (S x S operators up to _SCAN_MAX_K, S step
    # probabilities and S x 2 rule tables above it) would pass 1 MB.
    n_states = 1 << K
    per_agent = 16 * n_states * (n_states if K <= _SCAN_MAX_K else 1)
    return max(1, min(_CHUNK, _CHUNK_BYTES // per_agent))


def sweep(profile, model, N: int, record_after=()) -> dict:
    """Run the exact window chain through agents 1..N.

    Returns {step: (d0, d1)} snapshots of the window distribution taken
    after the decision of agent ``step`` (step 0 is the initial
    zero-padded point mass, i.e. the distribution of v_1).

    Each chunk of agents is turned into transition matrices once, and the
    stretch between consecutive record points (or chunk ends) is applied
    as one composed product.  Composing costs O(S^3) per agent, so for
    K > _SCAN_MAX_K agents are applied one at a time in O(S) instead.
    """
    points = sorted(set(int(s) for s in record_after))
    if points and (points[0] < 0 or points[-1] > N):
        raise ValueError("record points must lie in [0, N]")
    n_states = 1 << profile.K
    scan = profile.K <= _SCAN_MAX_K
    d = np.zeros((2, n_states))
    d[:, 0] = 1.0
    sig = _signal_laws(model)
    snapshots = {}
    if points and points[0] == 0:
        snapshots[0] = (d[0].copy(), d[1].copy())
        points = points[1:]
    chunk = _chunk_agents(profile.K)
    end = points[-1] if points else 0
    pending = iter(points)
    target = next(pending, None)
    step = 0
    while step < end:
        hi = min(step + chunk, end)
        p_one = _step_probs(_rule_tables(profile, step + 1, hi), sig)
        ops = _transition_operators(p_one) if scan else None
        done = step
        while done < hi:
            stop = min(target, hi)
            a, b = done - step, stop - step
            if scan:
                d = np.matmul(d[:, None, :], _compose(ops[:, a:b]))[:, 0]
            else:
                for i in range(a, b):
                    d = _step(d, p_one[:, i])
            _renormalize(d[0])
            _renormalize(d[1])
            if stop == target:
                snapshots[target] = (d[0].copy(), d[1].copy())
                target = next(pending, None)
            done = stop
        step = hi
    return snapshots


def window_distributions(profile, model, ns) -> dict:
    """Exact distributions of v_n for each requested agent index n."""
    snaps = sweep(profile, model, max(ns) - 1 if ns else 0, [n - 1 for n in ns])
    return {n: WindowDistribution(n=n, d0=snaps[n - 1][0], d1=snaps[n - 1][1]) for n in ns}


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


def _correct_probs(d0: np.ndarray, d1: np.ndarray) -> tuple[float, float]:
    # After agent n acts, the low bit of the window code is x_n.
    even = slice(0, None, 2)
    odd = slice(1, None, 2)
    return float(d0[even].sum()), float(d1[odd].sum())


def error_trajectory(profile, model, N: int, checkpoints=None) -> Trajectory:
    """Exact P(x_n = theta) at the checkpoint agents via forward sweep."""
    if checkpoints is None:
        checkpoints = [N]
    ns = sorted(set(int(n) for n in checkpoints))
    if ns and (ns[0] < 1 or ns[-1] > N):
        raise CheckpointRangeError(f"checkpoints must lie in [1, {N}], got {ns[0]}..{ns[-1]}")
    snaps = sweep(profile, model, N, ns)
    p0 = np.empty(len(ns))
    p1 = np.empty(len(ns))
    for i, n in enumerate(ns):
        p0[i], p1[i] = _correct_probs(*snaps[n])
    return Trajectory(ns=np.asarray(ns), p0_correct=p0, p1_correct=p1)


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


def block_start_transition(i: int, model, theta: int) -> tuple[float, float]:
    """Closed-form (P(w_{i+1}=1 | w_i=0), P(w_{i+1}=0 | w_i=1)).

    Upward switches happen only across S-blocks (odd i), with probability
    p^{k_m}/m; downward only across R-blocks (even i), with probability
    q^{r_m}/m, where m = m(i) indexes the block's segment.
    """
    if i < 1:
        raise ValueError("chain step must be >= 1")
    if i % 2 == 1:
        m = (i + 1) // 2
        k = block_sizes(m, model).k
        return (model.p(theta) ** k / m, 0.0)
    m = i // 2
    r = block_sizes(m, model).r
    return (0.0, model.q(theta) ** r / m)


def block_start_trajectory(model, theta: int, segments: int) -> BlockStartChain:
    """Exact P^theta(w_i = 1) for i = 1..2*segments by chain iteration."""
    if segments < 1:
        raise ValueError("need at least one segment")
    steps = 2 * segments
    pi = np.empty(steps)
    up = np.empty(steps)
    down = np.empty(steps)
    pi[0] = 0.0  # w_1 is the decision x_2 = 0
    for i in range(1, steps):
        u, d = block_start_transition(i, model, theta)
        up[i - 1], down[i - 1] = u, d
        pi[i] = pi[i - 1] * (1.0 - d) + (1.0 - pi[i - 1]) * u
    up[-1], down[-1] = block_start_transition(steps, model, theta)
    return BlockStartChain(theta=theta, pi=pi, up=up, down=down)


def block_start_masses(profile, model, segments: int):
    """Block-start consensus probabilities read off the full window chain.

    Returns per-theta arrays (pi0, pi1) of the window mass on (1,1) at
    the first agent of each block, plus per-theta impurity arrays (mass
    on the mixed windows (0,1) and (1,0), which the designed profile
    forces to zero at block starts).
    """
    tab = segment_table(model)
    agents = [tab.block_start_agent(i) for i in range(1, 2 * segments + 1)]
    dists = window_distributions(profile, model, agents)
    pi0 = np.array([dists[a].d0[3] for a in agents])
    pi1 = np.array([dists[a].d1[3] for a in agents])
    imp0 = np.array([dists[a].d0[1] + dists[a].d0[2] for a in agents])
    imp1 = np.array([dists[a].d1[1] + dists[a].d1[2] for a in agents])
    return (pi0, pi1), (imp0, imp1)


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
    if M < 2:
        raise ValueError("need M >= 2")
    if checkpoints is None:
        checkpoints = [M]
    cps = sorted(set(int(c) for c in checkpoints))
    if cps[0] < 1 or cps[-1] > M:
        raise ValueError("checkpoints must lie in [1, M]")
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
    from .signals import blr_bounds

    if profile.K != 1:
        raise ValueError("k1_diagnostics requires a K=1 profile")
    m_blr, M_blr = blr_bounds(model)
    sig0 = model.signal_probs(0)
    sig1 = model.signal_probs(1)
    a = np.full((N, 2, 2), np.nan)
    abar = np.full((N, 2, 2), np.nan)
    sums = np.zeros((4, N))  # a01, a10, abar01, abar10 running sums
    violations = []
    p_state0 = np.array([1.0, 0.0])  # x_0 is the zero padding
    p_state1 = np.array([1.0, 0.0])
    run = np.zeros(4)
    for n in range(1, N + 1):
        table = profile.rule(n).table
        for i in (0, 1):
            one0 = sig0[0] * table[i, 0] + sig0[1] * table[i, 1]
            one1 = sig1[0] * table[i, 0] + sig1[1] * table[i, 1]
            if p_state0[i] > 0.0:
                a[n - 1, i, 1] = one0
                a[n - 1, i, 0] = 1.0 - one0
            if p_state1[i] > 0.0:
                abar[n - 1, i, 1] = one1
                abar[n - 1, i, 0] = 1.0 - one1
            if p_state0[i] > 0.0 and p_state1[i] > 0.0:
                for j in (0, 1):
                    lo = m_blr * abar[n - 1, i, j]
                    hi = M_blr * abar[n - 1, i, j]
                    if not (lo - 1e-12 <= a[n - 1, i, j] <= hi + 1e-12):
                        violations.append((n, i, j))
        if not math.isnan(a[n - 1, 0, 1]):
            run[0] += a[n - 1, 0, 1]
        if not math.isnan(a[n - 1, 1, 0]):
            run[1] += a[n - 1, 1, 0]
        if not math.isnan(abar[n - 1, 0, 1]):
            run[2] += abar[n - 1, 0, 1]
        if not math.isnan(abar[n - 1, 1, 0]):
            run[3] += abar[n - 1, 1, 0]
        sums[:, n - 1] = run
        p_state0 = propagate_dist(p_state0, table, sig0)
        p_state1 = propagate_dist(p_state1, table, sig1)
    return K1Diagnostics(
        a=a,
        abar=abar,
        sum_a01=sums[0],
        sum_a10=sums[1],
        sum_abar01=sums[2],
        sum_abar10=sums[3],
        coupling_violations=violations,
    )


def k1_error_floor(model) -> float:
    """Reference constant from the K=1 impossibility argument.

    Equals (1/2) * min{(1/6)(1 - e^(-1/(2M))), (1/4)(1 - e^(-m/2))}.
    Derived under the learning hypothesis; reported as a reference value,
    not asserted as a bound for arbitrary profiles.
    """
    from .signals import blr_bounds

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
    if N > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force enumeration is limited to N <= {BRUTE_FORCE_MAX_N}")
    if checkpoints is None:
        checkpoints = range(1, N + 1)
    ns = sorted(set(int(n) for n in checkpoints))
    if ns[0] < 1 or ns[-1] > N:
        raise ValueError("checkpoints must lie in [1, N]")
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
