from types import SimpleNamespace

import numpy as np
import pytest

from tandemlearn import (
    PayoffQuery,
    ZeroProbabilityError,
    baseline_profile,
    check_equilibrium,
    designed_profile,
    myopic_profile,
    payoff,
    posterior_sequence,
    window_distributions,
)
from tandemlearn import chain, game
from tandemlearn.chain import propagate_dist
from tandemlearn.profiles import window_code
from conftest import TableProfile
from test_chain import _random_json_profile


def test_payoff_zero_discount_is_correctness_probability(m46):
    mp = myopic_profile(m46, 1, 30)
    q1 = PayoffQuery(n=5, window=(1,), s=1, action=1, delta=0.0, horizon=5)
    q0 = PayoffQuery(n=5, window=(1,), s=1, action=0, delta=0.0, horizon=5)
    r1 = payoff(mp, m46, q1)
    r0 = payoff(mp, m46, q0)
    # with no discounting the payoff is P(theta = action | window, signal)
    assert r1.value == pytest.approx(r1.posterior)
    assert r0.value == pytest.approx(1.0 - r0.posterior)
    assert r1.value + r0.value == pytest.approx(1.0)
    assert r1.tail_bound == 0.0


def test_payoff_posterior_updates_with_signal(m46):
    mp = myopic_profile(m46, 1, 30)
    high = payoff(mp, m46, PayoffQuery(n=5, window=(1,), s=1, action=1, delta=0.0, horizon=5))
    low = payoff(mp, m46, PayoffQuery(n=5, window=(1,), s=0, action=1, delta=0.0, horizon=5))
    assert high.posterior > low.posterior


def test_payoff_rejects_impossible_window(m46):
    mp = myopic_profile(m46, 1, 30)
    # agent 1's window is the zero padding; conditioning on (1,) has no mass
    with pytest.raises(ZeroProbabilityError):
        payoff(mp, m46, PayoffQuery(n=1, window=(1,), s=1, action=1, delta=0.0, horizon=5))


def test_payoff_tail_bound_formula(m46):
    mp = myopic_profile(m46, 1, 40)
    # horizon counts future agents beyond n, so the discarded tail is
    # delta^(horizon+1) / (1 - delta)
    res = payoff(mp, m46, PayoffQuery(n=3, window=(1,), s=1, action=1, delta=0.5, horizon=23))
    assert res.tail_bound == pytest.approx(0.5**24 / 0.5)
    # the truncated discounted payoff is bounded by the full geometric mass
    assert 0.0 <= res.value <= 1.0 / (1.0 - 0.5)


def test_myopic_is_exact_equilibrium_at_zero_discount(m46):
    mp = myopic_profile(m46, 1, 120)
    report = check_equilibrium(mp, m46, delta=0.0, n_range=(1, 100), eps=1e-9, horizon=120)
    assert report.passed
    assert report.violations == []
    assert report.checked > 0
    assert report.tail_bound == 0.0


def test_designed_profile_fails_at_positive_discount(m37):
    dp = designed_profile(m37)
    report = check_equilibrium(
        dp, m37, delta=0.5, n_range=(1, 40), eps=0.01, horizon=60, stop_after=1
    )
    assert not report.passed
    v = report.violations[0]
    assert v.gain > 0.01
    assert v.best_value > v.sigma_value


def test_constant_profile_fails_when_future_matters(m46):
    # an agent holding a strong contrary signal gains by deviating from
    # the all-zeros convention once its own correctness is at stake
    c0 = baseline_profile("constant0", 1)
    report = check_equilibrium(c0, m46, delta=0.0, n_range=(1, 5), eps=1e-9, horizon=10)
    assert not report.passed


def test_equilibrium_refuses_insufficient_horizon(m37):
    dp = designed_profile(m37)
    with pytest.raises(ValueError):
        check_equilibrium(dp, m37, delta=0.9, n_range=(1, 10), eps=0.01, horizon=5)


def test_posterior_sequence_cascade_values(m46):
    mp = myopic_profile(m46, 1, 60)
    ps = posterior_sequence(mp, m46, (2, 40))
    # after the cascade the all-ones window pins the posterior at p1
    assert np.allclose(ps.pi, 0.6)
    # the rules ignore the signal, so the decision entropy term vanishes
    assert np.allclose(ps.gamma, 0.0)
    # posterior with a contrary signal stays above the likelihood-ratio floor
    assert np.all(ps.f[0] >= ps.f_lower - 1e-12)


def test_posterior_sequence_signal_update(m46):
    mp = myopic_profile(m46, 1, 60)
    ps = posterior_sequence(mp, m46, (2, 10))
    assert np.all(ps.f[1] > ps.pi)
    assert np.all(ps.f[0] < ps.pi)


# ---------------------------------------------------------------------------
# The continuation values and the checker against the per-(n, u, y) forward
# walk: one propagate_dist step per future agent, per start window and theta.
# ---------------------------------------------------------------------------


def _forward_walk(profile, model, n, start, delta, horizon):
    """Per-theta sums of delta^t P(x_{n+t} = theta), t = 1..T, from v_{n+1} = start."""
    sums = []
    for theta in (0, 1):
        d = np.zeros(1 << profile.K)
        d[start] = 1.0
        disc, total = 1.0, 0.0
        for k in range(n + 1, n + horizon + 1):
            d = propagate_dist(d, profile.rule(k).table, model.signal_probs(theta))
            disc *= delta
            total += disc * d[theta::2].sum()
        sums.append(total)
    return sums


def _reference_check(profile, model, delta, n_range, eps, horizon):
    """(checked, [(n, u, s, best_action, gain, sigma_value, best_value)],
    the triples checked up to each violation) by the forward walk, triple
    by triple in (n, u, s) order."""
    tail = 0.0 if delta == 0.0 else delta ** (horizon + 1) / (1.0 - delta)
    n1, n2 = n_range
    dists = window_distributions(profile, model, list(range(n1, n2 + 1)))
    sig = (model.signal_probs(0), model.signal_probs(1))
    mask = (1 << profile.K) - 1
    checked, found, upto = 0, [], []
    for n in range(n1, n2 + 1):
        d, table = dists[n], profile.rule(n).table
        for u in range(mask + 1):
            if d.d0[u] == 0.0 and d.d1[u] == 0.0:
                continue
            cont = [_forward_walk(profile, model, n, ((u << 1) | y) & mask, delta, horizon)
                    for y in (0, 1)]
            for s in (0, 1):
                w0, w1 = d.d0[u] * sig[0][s], d.d1[u] * sig[1][s]
                if w0 + w1 == 0.0:
                    continue
                checked += 1
                post1 = w1 / (w0 + w1)
                post0 = 1.0 - post1
                value = [(post1 if y else post0) + post0 * cont[y][0] + post1 * cont[y][1]
                         for y in (0, 1)]
                sigma = table[u, s] * value[1] + (1.0 - table[u, s]) * value[0]
                best = 1 if value[1] >= value[0] else 0
                if value[best] - sigma > eps + 2.0 * tail:
                    found.append((n, u, s, best, value[best] - sigma - 2.0 * tail, sigma,
                                  value[best]))
                    upto.append(checked)
    return checked, found, upto


def _random_wide_profile(K, agents=9):
    # Random tables (a third of the entries signal-independent) that
    # spread mass over every window.
    rng = np.random.default_rng(K)
    tables = []
    for _ in range(agents):
        t = rng.random((1 << K, 2))
        same = rng.random(1 << K) < 1 / 3
        t[same, 1] = t[same, 0]
        tables.append(t)
    return TableProfile(tables * 10)


# name -> (profile, model, agents checked, horizon); the wide K=6 case is
# kept short because the walk costs 2^K * 4 * T propagations per agent.
def _case(name, m37, m46, tmp_path):
    return {
        "designed": lambda: (designed_profile(m37), m37, (1, 14), 12),
        "myopic1": lambda: (myopic_profile(m46, 1, 40), m46, (1, 14), 12),
        "myopic3": lambda: (myopic_profile(m37, 3, 40), m37, (2, 14), 10),
        "copy": lambda: (baseline_profile("copy", 2), m37, (1, 14), 12),
        "custom": lambda: (
            _random_json_profile(tmp_path / "p.json", np.random.default_rng(3), 60),
            m37, (1, 14), 12,
        ),
        "random6": lambda: (_random_wide_profile(6), m37, (1, 5), 4),
    }[name]()


CASES = ["designed", "myopic1", "myopic3", "copy", "custom", "random6"]


@pytest.mark.parametrize("name", CASES)
def test_continuation_values_match_forward_walk(name, m37, m46, tmp_path):
    prof, model, (n1, n2), horizon = _case(name, m37, m46, tmp_path)
    for delta in (0.0, 0.5, 0.9):
        got = game._continuation_values(prof, model, n1, n2, delta, horizon)
        assert got.shape == (2, n2 - n1 + 1, 1 << prof.K)
        for n in range(n1, n2 + 1):
            for start in range(1 << prof.K):
                ref = _forward_walk(prof, model, n, start, delta, horizon)
                assert np.max(np.abs(got[:, n - n1, start] - ref)) <= 1e-12, (name, delta, n)


def _as_tuples(report):
    return [(v.n, window_code(v.window, len(v.window)), v.s, v.best_action, v.gain,
             v.sigma_value, v.best_value) for v in report.violations]


def _assert_same(report, ref):
    checked, found, _ = ref
    got = _as_tuples(report)
    assert report.checked == checked
    assert [v[:4] for v in got] == [v[:4] for v in found]
    for a, b in zip(got, found):
        assert np.max(np.abs(np.subtract(a[4:], b[4:]))) <= 1e-12, a[:4]


@pytest.mark.parametrize("name", CASES)
def test_check_matches_forward_walk_across_chunk_ends(name, m37, m46, tmp_path, monkeypatch):
    prof, model, n_range, horizon = _case(name, m37, m46, tmp_path)
    # Three agents per chunk, so every range crosses several chunk ends.
    monkeypatch.setattr(chain, "_CHUNK_BYTES", (32 << prof.K) * (horizon + 3))
    for delta, eps in ((0.0, 1e-9), (0.5, 0.01), (0.9, 0.01)):
        eps += 2.0 * game._tail_bound(delta, horizon)
        report = check_equilibrium(prof, model, delta, n_range, eps, horizon)
        _assert_same(report, _reference_check(prof, model, delta, n_range, eps, horizon))


def test_check_matches_forward_walk_at_natural_chunk_end(m37):
    # With K=2 and T=20 a check from agent 1 ends its first chunk at agent
    # `size`; the agents around it are compared with the walk.
    dp = designed_profile(m37)
    size = chain._CHUNK_BYTES // (32 << dp.K) - 20
    full = check_equilibrium(dp, m37, 0.5, (1, size + 6), 0.01, 20)
    head = check_equilibrium(dp, m37, 0.5, (1, size - 7), 0.01, 20)
    assert full.violations[: len(head.violations)] == head.violations
    around = SimpleNamespace(
        checked=full.checked - head.checked, violations=full.violations[len(head.violations):]
    )
    assert around.violations
    _assert_same(around, _reference_check(dp, m37, 0.5, (size - 6, size + 6), 0.01, 20))


@pytest.mark.parametrize("chunk_agents", [None, 7])
def test_stop_after_gives_the_leading_violations(chunk_agents, m37, monkeypatch):
    dp = designed_profile(m37)
    if chunk_agents:
        monkeypatch.setattr(chain, "_CHUNK_BYTES", (32 << dp.K) * (20 + chunk_agents))
    full = check_equilibrium(dp, m37, 0.5, (1, 80), 0.01, 20)
    _, found, upto = _reference_check(dp, m37, 0.5, (1, 80), 0.01, 20)
    assert len(found) > 40
    for k in (1, 2, 5, 37, len(found)):
        part = check_equilibrium(dp, m37, 0.5, (1, 80), 0.01, 20, stop_after=k)
        assert part.violations == full.violations[:k]
        # checked counts the triples up to and including the k-th violation
        _assert_same(part, (upto[k - 1], found[:k], None))


@pytest.mark.parametrize("name", ["designed", "copy", "custom"])
def test_payoff_equals_checker_values(name, m37, m46, tmp_path):
    prof, model, n_range, horizon = _case(name, m37, m46, tmp_path)
    report = check_equilibrium(prof, model, 0.5, n_range, 0.005, horizon)
    assert report.violations
    for v in report.violations:
        value = [
            payoff(prof, model, PayoffQuery(v.n, v.window, v.s, y, 0.5, horizon)).value
            for y in (0, 1)
        ]
        t = prof.rule(v.n).table[window_code(v.window, prof.K), v.s]
        assert value[v.best_action] == pytest.approx(v.best_value, abs=1e-12)
        assert t * value[1] + (1.0 - t) * value[0] == pytest.approx(v.sigma_value, abs=1e-12)


def test_check_chunks_stay_within_the_byte_bound(m37, monkeypatch):
    # A chunk's agents plus their horizon stay within _CHUNK_BYTES / (32 S)
    # agents, however long the range.
    dp = designed_profile(m37)
    chunks = []
    continuation_values = game._continuation_values

    def recording(profile, model, n1, n2, delta, horizon):
        chunks.append(n2 - n1 + 1)
        return continuation_values(profile, model, n1, n2, delta, horizon)

    monkeypatch.setattr(game, "_continuation_values", recording)
    for stop_after in (None, 10**6):
        chunks.clear()
        report = check_equilibrium(dp, m37, 0.9, (1, 20_000), 0.01, 200, stop_after=stop_after)
        assert report.checked > 0
        assert sum(chunks) == 20_000
        assert max(chunks) + 200 <= chain._CHUNK_BYTES // (32 << dp.K)
