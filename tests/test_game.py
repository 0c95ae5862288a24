import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from tandemlearn import (
    PayoffQuery,
    SignalModel,
    ZeroProbabilityError,
    baseline_profile,
    check_equilibrium,
    designed_profile,
    myopic_profile,
    payoff,
    posterior_sequence,
    window_distributions,
)
from tandemlearn import ArgumentError, chain, game
from tandemlearn.cli import EXIT_USAGE_ERROR, main
from tandemlearn.profiles import code_window, window_code
from conftest import reference_step, table_profile
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


@pytest.mark.parametrize("profile, model, delta, n_range, eps, horizon", [
    ("myopic", "m46", 0.0, (1, 100), 1e-9, 120),
    ("designed", "m37", 0.5, (1, 150), 0.01, 20),
    ("designed", "m37", 0.5, (1, 1), 0.01, 20),
])
def test_report_passes_exactly_when_it_holds_no_violation(
    profile, model, delta, n_range, eps, horizon, request
):
    # passed reads the report's columns; violations builds the records from them.
    model = request.getfixturevalue(model)
    prof = myopic_profile(model, 1, 120) if profile == "myopic" else designed_profile(model)
    report = check_equilibrium(prof, model, delta, n_range, eps, horizon)
    assert report.passed == (len(report.violations) == 0)
    assert all(len(column) == len(report.violations) for column in report.columns.values())


def test_designed_profile_fails_at_positive_discount(m37):
    dp = designed_profile(m37)
    report = check_equilibrium(dp, m37, delta=0.5, n_range=(1, 40), eps=0.01, horizon=60)
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


_CERTIFY = ["equilibrium", "--profile", "designed", "--range"]
_M37 = SignalModel(0.3, 0.7)
_DESIGNED = designed_profile(_M37)


@pytest.mark.parametrize("call, argv", [
    (lambda: PayoffQuery(1, (1,), 1, 1, 1.0, 5), None),
    (lambda: PayoffQuery(1, (1,), 1, 1, 0.5, -1), None),
    (lambda: PayoffQuery(1, (1,), 2, 1, 0.5, 5), None),
    (lambda: PayoffQuery(1, (1,), 1, 2, 0.5, 5), None),
    (lambda: game.certified_tail((5, 1), 0.5, 0.01, 20), [*_CERTIFY, "5..1"]),
    (lambda: game.certified_tail((1, 5), 1.0, 0.01, 20),
     [*_CERTIFY, "1..5", "--delta", "1", "--eps", "0.01", "--horizon", "20"]),
    (lambda: game.certified_tail((1, 5), 0.5, float("nan"), 20),
     [*_CERTIFY, "1..5", "--delta", "0.5", "--eps", "nan", "--horizon", "20"]),
    (lambda: game.certified_tail((1, 50), 0.9, 0.01, 5),
     [*_CERTIFY, "1..50", "--delta", "0.9", "--eps", "0.01", "--horizon", "5"]),
    (lambda: PayoffQuery(1, (1,), 1, 1, 0.5, 2.5), None),
    (lambda: PayoffQuery(1, (1,), 1, 1, 0.5, True), None),
    (lambda: check_equilibrium(_DESIGNED, _M37, 0.5, (1, 3.5), 0.01, 20), None),
    (lambda: check_equilibrium(_DESIGNED, _M37, 0.5, (1, 3), 0.01, 20.5), None),
    (lambda: PayoffQuery(1, (1,), 1.0, 1, 0.5, 5), None),
    (lambda: PayoffQuery(1, (1,), 1, True, 0.5, 5), None),
    (lambda: PayoffQuery(3.0, (1,), 1, 1, 0.5, 5), None),
    (lambda: payoff(_DESIGNED, _M37, PayoffQuery(5, (3, 3), 1, 1, 0.5, 5)), None),
    (lambda: posterior_sequence(_DESIGNED, _M37, (2, 10), window=(0, -1)), None),
], ids=["payoff-discount", "payoff-horizon", "payoff-signal", "payoff-action",
        "check-range", "check-discount", "check-eps", "check-horizon-too-short",
        "payoff-horizon-fraction", "payoff-horizon-bool", "check-range-fraction",
        "check-horizon-fraction", "payoff-signal-float", "payoff-action-bool",
        "payoff-agent-float", "payoff-window-entry", "posterior-window-entry"])
def test_argument_checks_raise_argument_error(call, argv, capsys):
    """Each argument check of the module raises ``ArgumentError``; a command
    line that reaches it exits 4 with the library's reason."""
    with pytest.raises(ArgumentError) as info:
        call()
    if argv is not None:
        assert main([*argv, "--model", "0.3,0.7"]) == EXIT_USAGE_ERROR
        assert json.loads(capsys.readouterr().out)["reason"] == str(info.value)


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


@pytest.mark.parametrize("call, got", [
    (lambda p, m: posterior_sequence(p, m, (5, 3)), "5..3"),
    (lambda p, m: posterior_sequence(p, m, (0, 3)), "0..3"),
    (lambda p, m: payoff(p, m, PayoffQuery(0, (1,), 1, 1, 0.0, 5)), "0..0"),
    (lambda p, m: check_equilibrium(p, m, 0.0, (5, 3), 1e-9, 5), "5..3"),
], ids=["posterior-reversed", "posterior-from-0", "payoff-at-0", "check-reversed"])
def test_bad_agent_range_is_named(call, got, m46):
    # Every law walk refuses a range outside 1 <= n1 <= n2 and says which.
    with pytest.raises(ValueError, match=rf"need 1 <= n\d <= n\d, got {got}$"):
        call(myopic_profile(m46, 1, 30), m46)


# ---------------------------------------------------------------------------
# The continuation values and the checker against the per-(n, u, y) forward
# walk: one reference_step per future agent, per start window and theta.
# ---------------------------------------------------------------------------


def _forward_walk(profile, model, n, start, delta, horizon):
    """Per-theta sums of delta^t P(x_{n+t} = theta), t = 1..T, from v_{n+1} = start."""
    sums = []
    for theta in (0, 1):
        d = np.zeros(1 << profile.K)
        d[start] = 1.0
        disc, total = 1.0, 0.0
        for k in range(n + 1, n + horizon + 1):
            d = reference_step(d, profile.rule(k).table, model.signal_probs(theta))
            disc *= delta
            total += disc * d[theta::2].sum()
        sums.append(total)
    return sums


def _reference_check(profile, model, delta, n_range, eps, horizon):
    """(checked, [(n, u, s, best_action, gain, sigma_value, best_value)])
    by the forward walk, triple by triple in (n, u, s) order."""
    tail = 0.0 if delta == 0.0 else delta ** (horizon + 1) / (1.0 - delta)
    n1, n2 = n_range
    dists = window_distributions(profile, model, list(range(n1, n2 + 1)))
    sig = (model.signal_probs(0), model.signal_probs(1))
    mask = (1 << profile.K) - 1
    checked, found = 0, []
    for n in range(n1, n2 + 1):
        d, table = dists[n], profile.rule(n).table
        for u in range(mask + 1):
            if d[0, u] == 0.0 and d[1, u] == 0.0:
                continue
            cont = [_forward_walk(profile, model, n, ((u << 1) | y) & mask, delta, horizon)
                    for y in (0, 1)]
            for s in (0, 1):
                w0, w1 = d[0, u] * sig[0][s], d[1, u] * sig[1][s]
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
    return checked, found


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
    return table_profile(tables * 10)


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
        p_one = chain._step_probs(prof.rule_table_chunk(n1, n2 + horizon),
                                  chain._signal_laws(model))
        got = game._continuation_values(p_one, delta, horizon)
        assert got.shape == (2, n2 - n1 + 1, 1 << prof.K)
        for n in range(n1, n2 + 1):
            for start in range(1 << prof.K):
                ref = _forward_walk(prof, model, n, start, delta, horizon)
                assert np.max(np.abs(got[:, n - n1, start] - ref)) <= 1e-12, (name, delta, n)


def _as_tuples(report):
    return [(v.n, window_code(v.window, len(v.window)), v.s, v.best_action, v.gain,
             v.sigma_value, v.best_value) for v in report.violations]


def _assert_same(report, ref):
    checked, found = ref
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

    def recording(p_one, delta, horizon):
        chunks.append(p_one.shape[1] - horizon)
        return continuation_values(p_one, delta, horizon)

    monkeypatch.setattr(game, "_continuation_values", recording)
    report = check_equilibrium(dp, m37, 0.9, (1, 20_000), 0.01, 200)
    assert report.checked > 0
    assert sum(chunks) == 20_000
    assert max(chunks) + 200 <= chain._CHUNK_BYTES // (32 << dp.K)


def _horner(p_one, delta, horizon):
    """The backward recursion g <- delta P_{n+t}(e_theta + g), t = T..1."""
    _, count, n_states = p_one.shape
    count -= horizon
    g = np.zeros((2, count, n_states))
    newest = np.eye(2)[:, :, None, None]  # [theta, newest decision]
    for t in range(horizon, 0, -1):
        p = p_one[:, t : t + count].reshape(2, count, 2, -1)
        f_lo = (g[:, :, 0::2] + newest[:, 0])[:, :, None]
        f_hi = (g[:, :, 1::2] + newest[:, 1])[:, :, None]
        g = (delta * (p * f_hi + (1.0 - p) * f_lo)).reshape(2, count, n_states)
    return g


@pytest.mark.parametrize("K", [1, 2, 3, 5])
def test_doubling_matches_the_backward_recursion(K, m37, monkeypatch):
    monkeypatch.setattr(game, "_DOUBLING_FROM", {K: 0})
    rng = np.random.default_rng(30 + K)
    for horizon in (0, 1, 2, 3, 20, 33, 200):
        tables = rng.random((29 + horizon, 1 << K, 2))
        tables[rng.random((29 + horizon, 1 << K)) < 0.2] = 1.0
        p_one = chain._step_probs(tables, chain._signal_laws(m37))
        for delta in (0.0, 0.5, 0.9):
            got = game._continuation_values(p_one, delta, horizon)
            ref = _horner(p_one, delta, horizon)
            assert got.shape == ref.shape == (2, 29, 1 << K)
            assert np.max(np.abs(got - ref)) <= 1e-13 / (1.0 - delta), (K, horizon, delta)


def test_check_walks_the_laws_in_a_few_hundred_steps(m37, monkeypatch):
    # The window laws of 20000 agents come from block products, not from
    # one step per agent.
    steps = []
    step = chain._step

    def counting(d, p_one):
        steps.append(1)
        return step(d, p_one)

    monkeypatch.setattr(chain, "_step", counting)
    report = check_equilibrium(designed_profile(m37), m37, 0.9, (1, 20_000), 0.01, 200)
    assert report.checked > 0
    assert len(steps) <= 300


def _per_hit_violations(profile, model, delta, n_range, eps, horizon):
    """The checker's violations gathered hit by hit, one Violation per
    (n, u, s) index, as the checker did before it gathered by column."""
    tail = game._tail_bound(delta, horizon)
    sig = chain._signal_laws(model)
    violations = []
    for lo, tables, p_one, dists in chain.law_walk(profile, model, *n_range, horizon):
        _, valid, value = game._values(dists, p_one, sig, delta, horizon)
        tables = tables[: dists.shape[1]]
        sigma_value = tables * value[..., 1] + (1.0 - tables) * value[..., 0]
        best_action = (value[..., 1] >= value[..., 0]).astype(int)
        best_value = np.where(best_action == 1, value[..., 1], value[..., 0])
        gain = best_value - sigma_value
        hits = np.flatnonzero(valid & (gain > eps + 2.0 * tail))
        for at in zip(*np.unravel_index(hits, gain.shape)):
            violations.append(game.Violation(
                lo + int(at[0]), code_window(int(at[1]), profile.K), int(at[2]),
                float(gain[at]) - 2.0 * tail, float(sigma_value[at]), float(best_value[at]),
                int(best_action[at]),
            ))
    return violations


@pytest.mark.parametrize(
    "delta, n_range, eps, horizon", [(0.5, (1, 150), 0.01, 20), (0.9, (1, 3000), 0.001, 120)]
)
def test_column_gather_gives_the_per_hit_violations(delta, n_range, eps, horizon, m37):
    dp = designed_profile(m37)
    got = check_equilibrium(dp, m37, delta, n_range, eps, horizon).violations
    ref = _per_hit_violations(dp, m37, delta, n_range, eps, horizon)
    assert len(got) == len(ref) > 100
    for a, b in zip(got, ref):
        for field in dataclasses.fields(game.Violation):
            x, y = getattr(a, field.name), getattr(b, field.name)
            assert type(x) is type(y) and x == y, (field.name, x, y)
        assert all(type(bit) is int for bit in a.window)
