import json

import numpy as np
import pytest

from tandemlearn import (
    DecisionRule,
    RoleKind,
    baseline_profile,
    designed_profile,
    myopic_profile,
    profile_from_dict,
    profile_from_json,
    role_of,
)
from tandemlearn.profiles import code_window, window_code


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
    assert role_of(13, m37).kind == RoleKind.R_FIRST
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
    import numpy as np
    from tandemlearn.chain import WindowDistribution, propagate
    from tandemlearn.schedule import segment_table

    dp = designed_profile(m37)
    tab = segment_table(m37)
    start = tab.segment_start(8)
    d = WindowDistribution(
        n=start, d0=np.array([1.0, 0, 0, 0]), d1=np.array([1.0, 0, 0, 0])
    )
    for n in range(start, start + 4):  # three block agents plus transient
        d = propagate(d, dp.rule(n), m37)
    assert d.d1[3] == pytest.approx(0.7**2 / 8, abs=1e-15)
    assert d.d0[3] == pytest.approx(0.3**2 / 8, abs=1e-15)


def test_designed_rule_chunk_matches_per_agent(m37):
    dp = designed_profile(m37)
    chunk = dp.rule_table_chunk(1, 60)
    for n in range(1, 61):
        assert np.array_equal(chunk[n - 1], dp.rule(n).table)


@pytest.mark.parametrize("K", [1, 3])
def test_myopic_and_baseline_rule_chunks_match_per_agent(K, m46):
    horizon = 40
    profiles = [myopic_profile(m46, K, horizon)]
    profiles += [baseline_profile(kind, K) for kind in ("constant0", "constant1", "copy")]
    for prof in profiles:
        for n0, n1 in [(1, 1), (1, horizon), (horizon - 3, horizon + 5), (horizon + 2, 90)]:
            chunk = prof.rule_table_chunk(n0, n1)
            assert chunk.shape == (n1 - n0 + 1, 1 << K, 2)
            expect = np.stack([prof.rule(n).table for n in range(n0, n1 + 1)])
            assert np.array_equal(chunk, expect), (prof.descriptor, n0, n1)


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
