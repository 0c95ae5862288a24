import json
import tracemalloc

import numpy as np
import pytest

from tandemlearn import (
    DecisionRule,
    RoleKind,
    SignalModel,
    baseline_profile,
    designed_profile,
    myopic_profile,
    profile_from_dict,
    profile_from_json,
    segment_table,
)
from tandemlearn.profiles import (
    DESIGNED_BASE,
    DESIGNED_DELTA,
    DESIGNED_SEARCH,
    Profile,
    _myopic_induction,
    code_window,
    window_code,
)
from conftest import reference_designed_table, reference_step, table_profile


@pytest.mark.parametrize("call", [
    lambda m: window_code((1, 0, 1), 2),
    lambda m: Profile(0, "empty"),
    lambda m: baseline_profile("copy", 2).rule(0),
    lambda m: myopic_profile(m, K=1, horizon=0),
    lambda m: window_code((0, 2), 2),
    lambda m: window_code((0, -1), 2),
], ids=["window-length", "profile-window", "rule-agent", "myopic-horizon", "window-entry-2",
        "window-entry-negative"])
def test_argument_checks_raise_value_error(call, m37):
    with pytest.raises(ValueError):
        call(m37)


def test_myopic_profile_checks_its_window_length_first(m37):
    # Profile's own check, before the induction builds laws of no window.
    with pytest.raises(ValueError, match="window length K must be >= 1"):
        myopic_profile(m37, K=0, horizon=5)


def test_window_code_roundtrip():
    for K in (1, 2, 3):
        for code in range(1 << K):
            assert window_code(code_window(code, K), K) == code


def test_window_code_oldest_first():
    # the oldest decision occupies the most significant bit
    assert window_code((1, 0), 2) == 2
    assert window_code((0, 1), 2) == 1
    assert code_window(2, 2) == (1, 0)


def test_decision_rule_validation():
    with pytest.raises(ValueError):
        DecisionRule(np.ones((3, 2)))  # rows must be a power of two
    with pytest.raises(ValueError):
        DecisionRule(np.full((2, 2), 1.5))  # probabilities only
    with pytest.raises(ValueError):
        DecisionRule(np.full((2, 2), np.nan))
    rule = DecisionRule(np.zeros((4, 2)))
    assert rule.K == 2
    with pytest.raises(ValueError):
        rule.table[0, 0] = 1.0  # tables are frozen


def test_baseline_profiles():
    c0 = baseline_profile("constant0", 2)
    c1 = baseline_profile("constant1", 2)
    cp = baseline_profile("copy", 2)
    assert np.all(c0.rule(5).table == 0.0)
    assert np.all(c1.rule(5).table == 1.0)
    table = cp.rule(5).table
    for code in range(4):
        assert np.all(table[code] == code & 1)  # copy the immediate predecessor


def test_designed_preamble_decides_zero(m37):
    dp = designed_profile(m37)
    for n in (1, 2):
        assert np.all(dp.rule(n).table == 0.0)


def test_designed_searching_probabilities(m37):
    dp = designed_profile(m37)
    # an S-block opener seeing consensus (0,0) probes 1 only when it both
    # searches (probability 1/m) and holds a confirming signal
    assert dp.rule(3).table[0].tolist() == [0.0, 1.0]  # m = 1
    assert dp.rule(7).table[0].tolist() == [0.0, 0.5]  # m = 2
    # an R-block opener seeing consensus (1,1) probes 0 symmetrically
    assert dp.rule(5).table[3].tolist() == [0.0, 1.0]  # m = 1
    assert segment_table(m37).role_of(13).kind == RoleKind.R_FIRST
    t13 = dp.rule(13).table  # m = 3: stays at 1 w.p. 2/3 on signal 0
    assert t13[3, 0] == pytest.approx(2 / 3)
    assert t13[3, 1] == pytest.approx(1.0)
    # off the consensus path every opener copies its predecessor
    assert dp.rule(7).table[1].tolist() == [1.0, 1.0]
    assert dp.rule(7).table[2].tolist() == [0.0, 0.0]


def test_designed_transients_copy(m37):
    dp = designed_profile(m37)
    t4 = dp.rule(4).table  # transient between S and R blocks
    for code in range(4):
        assert np.all(t4[code] == code & 1)


def test_designed_block_body_switch_path(m37):
    # S-block body (needs block size >= 2, i.e. segment m >= 8): a live
    # upward switch alternates through the window — after a probe the body
    # answers 0 from (0, 1), then follows its signal from (1, 0), so k
    # independent confirming signals are needed before the transient locks
    # in the new consensus.
    from tandemlearn.schedule import segment_table

    dp = designed_profile(m37)
    tab = segment_table(m37)
    n_body = tab.segment_start(8) + 1  # second agent of the m=8 S-block
    body = dp.rule(n_body).table
    assert body[1].tolist() == [0.0, 0.0]
    assert body[2].tolist() == [0.0, 1.0]
    # off the switch path the body holds the standing consensus
    assert body[0].tolist() == [0.0, 0.0]
    assert body[3].tolist() == [1.0, 1.0]


def test_designed_block_switch_mass(m37):
    # the full m=8 S-block converts consensus-0 mass to a completed switch
    # with probability exactly p^2 / 8 under theta=1 (and q^2 / 8 under 0)
    from tandemlearn.chain import propagate_dist

    dp = designed_profile(m37)
    start = segment_table(m37).segment_start(8)
    d0 = d1 = np.array([1.0, 0, 0, 0])
    for n in range(start, start + 4):  # three block agents plus transient
        d0 = propagate_dist(d0, dp.rule(n).table, m37.signal_probs(0))
        d1 = propagate_dist(d1, dp.rule(n).table, m37.signal_probs(1))
    assert d1[3] == pytest.approx(0.7**2 / 8, abs=1e-15)
    assert d0[3] == pytest.approx(0.3**2 / 8, abs=1e-15)


def test_designed_rule_chunk_matches_per_agent(m37):
    dp = designed_profile(m37)
    for n0, n1 in [(1, 60), (7, 7), (500, 700)]:
        chunk = dp.rule_table_chunk(n0, n1)
        for n in range(n0, n1 + 1):
            assert np.array_equal(chunk[n - n0], reference_designed_table(dp.segments, n))


def test_designed_rule_chunk_equals_the_dense_formula(m37):
    """The chunk adds the searching delta only at block-first agents; it
    must give the bits of base + (1/m) * delta taken over every agent."""
    dp = designed_profile(m37)
    seg = dp.segments
    m = 40
    s_first = seg.segment_start(m)
    r_first = s_first + 2 * int(seg.layout(m)[0][-1])  # after 2 k_m agents of S-block and transient
    assert seg.role_of(s_first).kind == RoleKind.S_FIRST
    assert seg.role_of(r_first).kind == RoleKind.R_FIRST
    singles = [(s_first, s_first), (r_first, r_first)]
    for n0, n1 in [(1, 1), (1, 2), (2, 5), (3, 4100), (10**6, 10**6 + 4095), *singles]:
        kinds, inv_m = seg.role_codes(n0, n1)
        dense = DESIGNED_BASE[kinds] + inv_m[:, None, None] * DESIGNED_DELTA[kinds]
        assert np.array_equal(dp.rule_table_chunk(n0, n1), dense), (n0, n1)
    assert dp.rule_table_chunk(r_first, r_first)[0, 3, 0] == 1.0 - 1.0 / m


def _json_spec(K, agents, seed):
    rng = np.random.default_rng(seed)

    def entry():
        return {format(u, f"0{K}b"): {"0": rng.random(), "1": rng.random()} for u in range(1 << K)}

    return {"K": K, "default": entry(), "agents": {str(n): entry() for n in agents}}


def _spec_table(spec, n):
    """Agent n's table as its JSON entry spells it out, window by window."""
    entry = spec["agents"].get(str(n), spec["default"])
    return np.array([[entry[format(u, f"0{spec['K']}b")][s] for s in "01"]
                     for u in range(1 << spec["K"])])


@pytest.mark.parametrize("K", [1, 3])
def test_myopic_and_baseline_rule_chunks_match_per_agent(K, m46):
    """Each chunk row equals an independent reference table: myopic
    induction's Python loop, clamped at the horizon; the closed forms 0, 1
    and the predecessor bit; and the JSON spec itself."""
    horizon = 40
    myopic = _myopic_loop(m46, K, horizon)[0]
    copy = np.repeat(np.arange(1 << K)[:, None] & 1, 2, axis=1).astype(float)
    # Overrides just inside and just outside the ends of each range below.
    spec = _json_spec(K, [1, 2, 36, 37, 41, 45, 46, 90, 91], seed=K)
    references = [
        (myopic_profile(m46, K, horizon), lambda n: myopic[min(n, horizon) - 1]),
        (baseline_profile("constant0", K), lambda n: np.zeros((1 << K, 2))),
        (baseline_profile("constant1", K), lambda n: np.ones((1 << K, 2))),
        (baseline_profile("copy", K), lambda n: copy),
        (profile_from_dict(spec), lambda n: _spec_table(spec, n)),
    ]
    for prof, table in references:
        for n0, n1 in [(1, 1), (1, horizon), (horizon - 3, horizon + 5), (horizon + 2, 90)]:
            chunk = prof.rule_table_chunk(n0, n1)
            assert chunk.shape == (n1 - n0 + 1, 1 << K, 2)
            expect = np.stack([table(n) for n in range(n0, n1 + 1)])
            assert np.array_equal(chunk, expect), (prof.descriptor, n0, n1)


def _palette_cases(name, model):
    """(profile, agent n's reference table, chunk edges) for the palette test."""
    seg = segment_table(model)
    edges = [(1, 1), (1, 2), (2, 5), (3, 4100)]
    # Across the steps of k_m and r_m from 2 to 3 (m = 55) and 3 to 4 (m = 2981).
    edges += [(seg.segment_start(m - 1) + 1, seg.segment_start(m + 1) + 2) for m in (55, 2981)]
    edges.append((10**6, 10**6 + 4095))
    if name == "designed":
        dp = designed_profile(model)
        return dp, lambda n: reference_designed_table(dp.segments, n), edges
    if name.startswith("myopic"):  # agents past the horizon of 60 play its rule
        K = int(name[-1])
        tables = _myopic_loop(model, K, 60)[0]
        return myopic_profile(model, K, 60), lambda n: tables[min(n, 60) - 1], edges
    if name.startswith("copy"):
        K = int(name[-1])
        copy = np.repeat(np.arange(1 << K)[:, None] & 1, 2, axis=1).astype(float)
        return baseline_profile("copy", K), lambda n: copy, edges
    if name.startswith("constant"):
        K = int(name[-1])
        return baseline_profile("constant1", K), lambda n: np.ones((1 << K, 2)), edges
    if name == "json":  # overrides on both sides of every chunk edge
        agents = {n + d for lo, hi in edges for n in (lo, hi) for d in (-1, 0, 1) if n + d >= 1}
        spec = _json_spec(2, sorted(agents), seed=7)
        return profile_from_dict(spec), lambda n: _spec_table(spec, n), edges
    tables = np.random.default_rng(8).random((50, 8, 2))  # "table": 50 listed agents
    return table_profile(list(tables)), lambda n: tables[min(n, 50) - 1], edges


@pytest.mark.parametrize(
    "name", ["designed", "myopic1", "myopic2", "myopic3", "copy2", "copy4", "constant2",
             "constant4", "json", "table"]
)
def test_rule_palette_spells_out_every_agent_rule(name, m37):
    """``palette[index]`` is ``rule_table_chunk`` and, agent by agent, the
    independent reference table; the designed palette holds the 7 base
    tables and two per segment the range touches, at most."""
    prof, table, edges = _palette_cases(name, m37)
    S = 1 << prof.K
    for n0, n1 in edges:
        palette, index = prof.rule_palette(n0, n1)
        assert palette.dtype == np.float64 and palette.ndim == 3 and palette.shape[1:] == (S, 2)
        assert index.shape == (n1 - n0 + 1,) and index.dtype.kind == "i"
        assert 0 <= index.min() and index.max() < len(palette), (name, n0, n1)
        chunk = prof.rule_table_chunk(n0, n1)
        assert np.array_equal(palette[index], chunk), (name, n0, n1)
        expect = np.stack([table(n) for n in range(n0, n1 + 1)])
        assert np.array_equal(chunk, expect), (name, n0, n1)
        for n in {n0, (n0 + n1) // 2, n1}:
            assert np.array_equal(prof.rule(n).table, expect[n - n0]), (name, n)
        if name == "designed":
            seg = prof.segments
            touched = seg.segment_of(n1) - seg.segment_of(max(n0, 3)) + 1 if n1 >= 3 else 0
            assert len(palette) <= 7 + 2 * touched, (n0, n1, len(palette), touched)


def test_designed_searches_start_where_the_delta_acts():
    """Only deciding 1 on window 00 at S_FIRST and 0 on window 11 at
    R_FIRST start a search."""
    assert DESIGNED_SEARCH.dtype == bool and not DESIGNED_SEARCH.flags.writeable
    assert np.argwhere(DESIGNED_SEARCH).tolist() == [
        [RoleKind.S_FIRST, window_code((0, 0), 2), 1],
        [RoleKind.R_FIRST, window_code((1, 1), 2), 0],
    ]


def test_designed_searching_mask(m37):
    dp = designed_profile(m37)
    win = np.array([0, 1, 2, 3])
    dec = np.array([1, 1, 1, 1])
    # agent 3 is an S-block opener: a probe is window (0,0) plus decision 1
    mask = dp.searching_mask(3, win, dec)
    assert mask.tolist() == [True, False, False, False]
    # R-block opener at agent 5: probe is window (1,1) plus decision 0
    mask = dp.searching_mask(5, win, 1 - dec)
    assert mask.tolist() == [False, False, False, True]
    # transient agents never search
    assert not dp.searching_mask(4, win, dec).any()


def _myopic_loop(model, K, horizon):
    """Myopic tables by one Python step per agent and window, and the onset
    of the signal-free tail found by walking back from the horizon."""
    sig = (model.signal_probs(0), model.signal_probs(1))
    d = [np.eye(1, 1 << K)[0], np.eye(1, 1 << K)[0]]
    tables = []
    for n in range(1, horizon + 1):
        table = np.zeros((1 << K, 2))
        for u in range(1 << K):
            for s in (0, 1):
                w1, w0 = d[1][u] * sig[1][s], d[0][u] * sig[0][s]
                if w1 > w0:
                    table[u, s] = 1.0
                elif w1 == w0:
                    table[u, s] = u & 1  # tie, or a window of probability zero
        tables.append(table)
        d = [reference_step(d[t], table, sig[t]) for t in (0, 1)]
    onset = None
    for n in range(horizon, 0, -1):
        if not np.array_equal(tables[n - 1][:, 0], tables[n - 1][:, 1]):
            break
        onset = n
    return np.array(tables), onset


@pytest.mark.parametrize("K", [1, 2, 3, 4])
@pytest.mark.parametrize("model_args", [(0.4, 0.6), (0.35, 0.8), (0.3, 0.7)])
def test_myopic_tables_equal_the_per_window_loop(K, model_args):
    """Horizon 60 passes the laws' fixed point at 0.4/0.6 and caps the
    tables before it at 0.35/0.8 for K >= 3; horizon 1500 passes it at
    0.3/0.7 (agents 4, 921, 922 and 923 for K = 1..4)."""
    model = SignalModel(*model_args)
    horizon = 1500 if model_args == (0.3, 0.7) else 60
    mp = myopic_profile(model, K, horizon)
    tables, onset = _myopic_loop(model, K, horizon)
    assert np.array_equal(mp.rule_table_chunk(1, horizon), tables)
    assert mp.cascade_onset() == onset
    for n in (1, horizon, horizon + 1):
        assert np.array_equal(mp.rule(n).table, tables[min(n, horizon) - 1])
    assert myopic_profile(model, K, 1).cascade_onset() is None  # agent 1 reads its signal


def test_myopic_induction_holds_its_tables_once(m37):
    """K = 12 stops at its fixed point near agent 930: about 61 MB of float64
    tables, which the induction must not hold twice while it runs."""
    tracemalloc.start()
    try:
        tables = _myopic_induction(m37, 12, 10**9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * tables.nbytes


def test_myopic_tables_stop_at_the_fixed_point(m37):
    """A horizon of 10^9 stores tables 1..F for the fixed point F alone:
    F < 2000, so agent 2000 plays the default and no stored table."""
    palette, index = myopic_profile(m37, 12, 10**9).rule_palette(2000, 2000)
    assert len(palette) == 1 and index.tolist() == [0]


def test_table_profile_cascade_onset():
    """No agent reads its signal from n*: the agent after the last listed
    agent that reads it, or 1 if none does, and None if the default reads it."""
    follow = {"0": {"0": 0.0, "1": 1.0}, "1": {"0": 0.0, "1": 1.0}}
    assert baseline_profile("copy", 2).cascade_onset() == 1
    assert profile_from_dict({"K": 1, "agents": {"5": follow, "9": {}}}).cascade_onset() == 6
    reads = profile_from_dict({"K": 1, "default": follow, "agents": {"2": {}}})
    assert reads.cascade_onset() is None


def test_myopic_k1_cascades_immediately(m46):
    mp = myopic_profile(m46, 1, 50)
    assert mp.cascade_onset() == 2
    # after onset the rule copies the predecessor regardless of the signal
    for n in (2, 10, 50):
        table = mp.rule(n).table
        assert np.all(table[0] == 0.0)
        assert np.all(table[1] == 1.0)
    # agent 1 follows its signal
    assert mp.rule(1).table[0, 0] == 0.0
    assert mp.rule(1).table[0, 1] == 1.0


def test_myopic_k2_first_agents_use_signal(m37):
    mp = myopic_profile(m37, 2, 20)
    t1 = mp.rule(1).table
    assert t1[0, 0] == 0.0 and t1[0, 1] == 1.0


def test_myopic_rule_beyond_horizon_repeats_last(m46):
    mp = myopic_profile(m46, 1, 10)
    assert np.array_equal(mp.rule(500).table, mp.rule(10).table)


def test_profile_from_dict_and_json(tmp_path):
    spec = {
        "K": 1,
        "default": {"0": {"0": 0.0, "1": 1.0}, "1": {"0": 0.0, "1": 1.0}},
        "agents": {"3": {"0": {"0": 1.0, "1": 1.0}, "1": {"0": 1.0, "1": 1.0}}},
    }
    p = profile_from_dict(spec)
    assert p.K == 1
    assert p.rule(1).table[0, 1] == 1.0
    assert np.all(p.rule(3).table == 1.0)
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(spec))
    q = profile_from_json(path)
    assert np.array_equal(q.rule(3).table, p.rule(3).table)


def test_profile_from_dict_rejects_bad_probability():
    with pytest.raises(ValueError):
        profile_from_dict({"K": 1, "default": {"0": {"0": 2.0, "1": 1.0}, "1": {"0": 0.0, "1": 1.0}}})


def test_profile_from_dict_rejects_agent_keys_beyond_int64():
    """Agent indices are int64, so a key above 2^63 - 1 cannot name one."""
    profile_from_dict({"K": 1, "agents": {str(2**63 - 1): {}}})
    with pytest.raises(ValueError, match="2\\^63 - 1"):
        profile_from_dict({"K": 1, "agents": {"99999999999999999999": {}}})


@pytest.mark.parametrize("key", ["0", "-4"])
def test_profile_from_dict_rejects_agent_keys_below_one(key):
    """Agents are numbered from 1: an override keyed 0 or below would never
    be read, so it is an error rather than silently dropped."""
    spec = {"K": 1, "agents": {"3": {"0": {"0": 1.0}}, key: {"0": {"0": 1.0}}}}
    with pytest.raises(ValueError, match="agent keys"):
        profile_from_dict(spec)
