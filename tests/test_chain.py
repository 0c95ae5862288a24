import json

import numpy as np
import pytest

from tandemlearn import (
    SignalModel,
    baseline_profile,
    block_start_masses,
    block_start_trajectory,
    brute_force_oracle,
    designed_profile,
    designed_trajectory,
    error_trajectory,
    k1_diagnostics,
    k1_error_floor,
    myopic_profile,
    series_diagnostics,
    window_distributions,
)
from tandemlearn import chain
from tandemlearn.chain import (
    BRUTE_FORCE_MAX_N,
    _SCAN_MAX_K,
    ChainDriftError,
    _CHUNK_BYTES,
    _advance,
    _chunk_agents,
    _mass,
    _pair_products,
    _signal_laws,
    _step_probs,
    _transition_operators,
    _walk,
    agent_chunks,
    law_walk,
    propagate_dist,
    sweep,
)
from tandemlearn.profiles import profile_from_dict
from tandemlearn.schedule import block_sizes, block_sizes_arrays, segment_table
from tandemlearn.signals import blr_bounds
from tandemlearn.profiles import profile_from_json
from tandemlearn.cli import EXIT_USAGE_ERROR, main
from conftest import reference_step, table_profile


def test_initial_window_is_zero_padded(m46):
    laws = window_distributions(table_profile([np.full((4, 2), 0.37)]), m46, [1])
    assert list(laws) == [1]
    assert laws[1][0].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert laws[1][1].tolist() == [1.0, 0.0, 0.0, 0.0]


def test_propagate_conserves_mass(m46):
    prof = table_profile([np.full((4, 2), 0.37)])
    d0 = d1 = np.array([1.0, 0.0, 0.0, 0.0])
    for n in range(1, 30):
        d0 = propagate_dist(d0, prof.rule(n).table, m46.signal_probs(0))
        d1 = propagate_dist(d1, prof.rule(n).table, m46.signal_probs(1))
        assert d0.sum() == pytest.approx(1.0, abs=1e-12)
        assert d1.sum() == pytest.approx(1.0, abs=1e-12)


def test_constant_and_copy_trajectories(m37):
    ns = list(range(1, 11))
    tr = error_trajectory(baseline_profile("constant0", 2), m37, 10, checkpoints=ns)
    assert np.all(tr.p0_correct == 1.0)
    assert np.all(tr.p1_correct == 0.0)
    assert np.all(tr.p_correct == 0.5)
    tr = error_trajectory(baseline_profile("copy", 2), m37, 10, checkpoints=ns)
    # copying propagates the zero-padding forever
    assert np.all(tr.p0_correct == 1.0)
    assert np.all(tr.p1_correct == 0.0)


def test_first_informative_agent_matches_channel(m37):
    dp = designed_profile(m37)
    d0, d1 = window_distributions(dp, m37, [4])[4]
    # agent 3 follows its signal from consensus 0, so v_4 carries one signal
    assert d1.tolist() == pytest.approx([0.3, 0.7, 0.0, 0.0])
    assert d0.tolist() == pytest.approx([0.7, 0.3, 0.0, 0.0])


def test_sweep_snapshots_are_independent_copies(m37):
    dp = designed_profile(m37)
    snaps = sweep(dp, m37, 20, record_after=[0, 5, 20])
    assert set(snaps) == {0, 5, 20}
    d0_5 = snaps[5][0].copy()
    snaps[20][0][:] = -1.0
    assert np.array_equal(snaps[5][0], d0_5)


def _sequential_sweep(profile, model, N):
    """Reference: one reference_step per agent, no renormalization,
    a snapshot after every agent."""
    sig = (model.signal_probs(0), model.signal_probs(1))
    start = np.zeros(1 << profile.K)
    start[0] = 1.0
    d = [start, start]
    snaps = {0: tuple(d)}
    for n in range(1, N + 1):
        table = profile.rule(n).table
        d = [reference_step(d[t], table, sig[t]) for t in (0, 1)]
        snaps[n] = tuple(d)
    return snaps


def _random_json_profile(path, rng, N):
    """K=2 table profile with random entries: some signal-independent,
    some exactly 0 or 1, and per-agent overrides around chunk edges."""

    def entry():
        out = {}
        for code in range(4):
            kind = rng.integers(3)
            if kind == 0:
                t0 = t1 = float(rng.random())
            elif kind == 1:
                t0, t1 = (float(x) for x in rng.integers(0, 2, size=2))
            else:
                t0, t1 = (float(x) for x in rng.random(2))
            out[format(code, "02b")] = {"0": t0, "1": t1}
        return out

    edge = _chunk_agents(2)
    agents = set(rng.integers(1, N + 1, size=40).tolist()) | {edge - 1, edge, edge + 1}
    path.write_text(json.dumps({
        "K": 2, "default": entry(), "agents": {str(n): entry() for n in sorted(agents)}
    }))
    return profile_from_json(path)


@pytest.mark.parametrize("name", ["designed", "myopic1", "myopic3", "copy", "custom"])
def test_sweep_matches_sequential_propagation(name, m37, m46, tmp_path):
    model = m46 if name == "myopic1" else m37
    N = 3 * _chunk_agents(2) + 123  # not a multiple of any chunk length
    prof = {
        "designed": lambda: designed_profile(m37),
        "myopic1": lambda: myopic_profile(m46, 1, 300),
        "myopic3": lambda: myopic_profile(m37, 3, 60),
        "copy": lambda: baseline_profile("copy", 2),
        "custom": lambda: _random_json_profile(tmp_path / "p.json", np.random.default_rng(5), N),
    }[name]()
    ref = _sequential_sweep(prof, model, N)
    chunk = _chunk_agents(prof.K)
    layouts = [
        range(0, chunk + 40),  # dense: every step, across a chunk end
        [1, 999, 2 * chunk + 1, N],  # sparse
        [chunk - 1, chunk, chunk + 1],  # around the first chunk end
        [N],  # one stretch through several chunks
    ]
    for points in layouts:
        snaps = sweep(prof, model, N, points)
        assert set(snaps) == set(points)
        for n in points:
            for t in (0, 1):
                assert np.max(np.abs(snaps[n][t] - ref[n][t])) <= 1e-12, (name, n, t)


def _reference_sweep(profile, model, N, points):
    """The sweep with one dense operator per agent: each chunk's pair
    products are matmuls of ``_transition_operators``, multiplied up a
    tree level by level (an odd last node carries over).  The law before
    agent j of a chunk passes the chunk's first law through the nodes
    named by the binary digits of j // 2, highest first, one at a time,
    and one ``_step`` more for an odd j; the chunk's end is the law
    before its agent count.  Each chunk is renormalised at its end.  The
    reference for ``sweep``'s pair products, rule palettes and batched
    down-sweep."""
    points = set(points)
    d = np.zeros((2, 1 << profile.K))
    d[:, 0] = 1.0
    sig = _signal_laws(model)
    laws = {0: d.copy()} if 0 in points else {}
    for lo, hi in agent_chunks(1, N, _chunk_agents(profile.K)):
        p_one = _step_probs(profile.rule_table_chunk(lo, hi), sig)
        ops = _transition_operators(p_one)
        even = ops.shape[1] & ~1
        levels = [np.matmul(ops[:, 0:even:2], ops[:, 1:even:2])]
        while levels[-1].shape[1] > 1:
            nodes, even = levels[-1], levels[-1].shape[1] & ~1
            pairs = np.matmul(nodes[:, 0:even:2], nodes[:, 1:even:2])
            levels.append(np.concatenate([pairs, nodes[:, even:]], axis=1))

        def before(j):
            law = d
            for level in reversed(range(len(levels))):
                if j >> 1 >> level & 1:
                    law = np.matmul(law[:, None, :], levels[level][:, (j >> 1 >> level) - 1])[:, 0]
            return chain._step(law, p_one[:, j - 1]) if j & 1 else law

        for n in range(lo, hi):
            if n in points:
                laws[n] = before(n + 1 - lo)
        d = before(hi + 1 - lo)
        d /= _mass(d)
        if hi in points:
            laws[hi] = d.copy()
    return laws


def _random_tables(rng, n, K):
    """n random rule tables: a third of the entries random, a third
    exactly 0 or 1 and a third signal-independent."""
    tables = rng.random((n, 1 << K, 2))
    kind = rng.integers(3, size=(n, 1 << K))
    tables[kind == 1] = rng.integers(0, 2, size=(int((kind == 1).sum()), 2))
    tables[kind == 2, 1] = tables[kind == 2, 0]
    return tables


@pytest.mark.parametrize("name", ["designed", "myopic1", "myopic2", "table3", "table5", "copy4"])
def test_sweep_equals_the_stretch_by_stretch_composition(name, m37, m46):
    model = m46 if name == "myopic1" else m37
    prof = {
        "designed": lambda: designed_profile(m37),
        "myopic1": lambda: myopic_profile(m46, 1, 300),
        "myopic2": lambda: myopic_profile(m37, 2, 300),
        "table3": lambda: table_profile(list(_random_tables(np.random.default_rng(3), 1000, 3))),
        "table5": lambda: table_profile(list(_random_tables(np.random.default_rng(5), 1000, 5))),
        "copy4": lambda: baseline_profile("copy", 4),
    }[name]()
    chunk = _chunk_agents(prof.K)
    N = 2 * chunk + 1001  # odd
    k, _, start = segment_table(m37).layout(1500)
    block_starts = (np.stack([start, start + 2 * k], axis=1).ravel() - 1).tolist()
    layouts = [
        [N],  # no record point before the last agent
        block_starts,  # the agents before every block start of 1500 segments
        [chunk // 2, chunk // 2 + 3, chunk + 6, chunk + 7, 2 * chunk - 2, N],  # odd and even offsets
        [chunk - 1, chunk, chunk + 1, N],
    ]
    for points in layouts:
        got = sweep(prof, model, max(points), points)
        ref = _reference_sweep(prof, model, max(points), points)
        assert set(got) == set(ref) == set(points)
        for n in points:
            assert np.array_equal(got[n], ref[n]), (name, len(points), n)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_pair_products_equal_the_operator_matmul(K, m37):
    rng = np.random.default_rng(30 + K)
    p_one = _step_probs(_random_tables(rng, 4099, K), _signal_laws(m37))
    # Tiny, even and odd counts, and a full chunk's with a lone last agent.
    for agents in (1, 2, 3, 13, 4097):
        pairs = agents // 2
        first = np.arange(0, 2 * pairs, 2)
        ref = np.matmul(_transition_operators(p_one[:, first]), _transition_operators(p_one[:, first + 1]))
        got = _pair_products(p_one[:, :agents])  # slices; a lone last agent is left out
        assert got.shape == (2, pairs, 1 << K, 1 << K)
        assert np.array_equal(got, ref), (K, agents)


def test_a_chunk_with_dense_record_points_is_composed_once(m37, monkeypatch):
    """The agents before the 3374 block starts up to 2*10^4 lie in 5
    chunks; each chunk is walked as one tree, with one ``_pair_products``
    call, however many record points it holds."""
    k, _, start = segment_table(m37).layout(2000)
    opened = np.stack([start, start + 2 * k], axis=1).ravel()
    points = (opened[opened <= 20_000] - 1).tolist()
    assert len(points) == 3374
    chunks = list(agent_chunks(1, max(points), _chunk_agents(2)))
    assert len(chunks) == 5
    calls = []
    pair_products = chain._pair_products
    monkeypatch.setattr(chain, "_pair_products", lambda p: calls.append(p.shape) or pair_products(p))
    laws = sweep(designed_profile(m37), m37, 2 * 10**4, points)
    assert sorted(laws) == points
    assert len(calls) == len(chunks)


def test_designed_trajectory_joins_each_tree_level_once(m37, monkeypatch):
    """The benchmark's ``exact --n 50000 --checkpoints 10000,50000`` joins
    the maps of its two pieces, 853 and 3032 segments padded to 1024 and
    4096, in 12 levels shared by both, then each piece onto the chain: 14
    ``_join`` calls (35 when every block had its own map and each piece its
    own tree with odd-count fix-ups)."""
    calls = []
    join = chain._join
    monkeypatch.setattr(chain, "_join", lambda *a: calls.append(a[1].shape) or join(*a))
    designed_trajectory(m37, 50_000, [10_000, 50_000])
    assert len(calls) == 14
    assert max(shape[-1] for shape in calls) == (1024 + 4096) // 2


def test_block_start_laws_fault_in_no_page_per_chunk(m37):
    """A chunk of ``_block_start_laws`` frees its one array whole, so the
    heap it takes is not given back and faulted in again by the next chunk:
    64 chunks more make fewer than 64 minor page faults more."""
    resource = pytest.importorskip("resource")
    size = chain._CHUNK_BYTES // 64  # blocks per chunk

    def faults(chunks):
        chain._block_start_laws(m37, [chunks * size + 1])  # sets the heap up
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        chain._block_start_laws(m37, [chunks * size + 1])
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before

    assert faults(80) - faults(16) < 64


def test_one_record_point_per_chunk_steps_a_few_laws(m37, monkeypatch):
    """A chunk with one record point passes one law down its tree: at
    most two laws per theta reach ``_step`` per chunk (the point's odd
    agent and an odd last agent), not every agent of the chunk."""
    points = list(range(2000, 10**5, 4096))
    chunks = list(agent_chunks(1, max(points), _chunk_agents(2)))
    rows = []
    step = chain._step

    def counting(d, p_one):
        rows.append(d.size // d.shape[-1] // 2)
        return step(d, p_one)

    monkeypatch.setattr(chain, "_step", counting)
    laws = sweep(designed_profile(m37), m37, 10**5, points)
    assert sorted(laws) == points
    assert sum(rows) <= 2 * len(chunks)


@pytest.mark.parametrize("K", [_SCAN_MAX_K + 1, 12])
def test_wide_window_sweep_matches_sequential_propagation(K, m37):
    # Above _SCAN_MAX_K agents are applied one at a time; random tables
    # (a third of the entries signal-independent) spread mass over every
    # window, and N crosses several chunk ends.
    rng = np.random.default_rng(K)
    tables = []
    for _ in range(7):
        t = rng.random((1 << K, 2))
        same = rng.random(1 << K) < 1 / 3
        t[same, 1] = t[same, 0]
        tables.append(t)
    prof = table_profile(tables * 20)
    chunk = _chunk_agents(K)
    N = 3 * chunk + 5
    ref = _sequential_sweep(prof, m37, N)
    points = [0, 1, K, chunk - 1, chunk, chunk + 1, N]
    snaps = sweep(prof, m37, N, points)
    for n in points:
        for t in (0, 1):
            assert np.max(np.abs(snaps[n][t] - ref[n][t])) <= 1e-12, (K, n, t)
    const = baseline_profile("constant1", K)
    ref = _sequential_sweep(const, m37, N)
    snaps = sweep(const, m37, N, points)
    for n in points:
        for t in (0, 1):
            assert np.array_equal(snaps[n][t], ref[n][t]), (K, n, t)


@pytest.mark.parametrize("K", [1, 2, 3, 6])
def test_advance_matches_reference_step_at_every_agent(K, m37):
    # Random tables (a third of the entries signal-independent), advanced
    # in uneven pieces so that the laws cross several piece ends.
    rng = np.random.default_rng(10 + K)
    tables = rng.random((40, 1 << K, 2))
    same = rng.random((40, 1 << K)) < 1 / 3
    tables[same, 1] = tables[same, 0]
    sig = _signal_laws(m37)
    p_one = _step_probs(tables, sig)
    ref = np.zeros((2, 1 << K))
    ref[:, 0] = 1.0
    d, n = ref.copy(), 0
    for piece in (1, 2, 7, 30):
        before, d = _advance(d, p_one[:, n : n + piece])
        for i in range(piece):
            assert np.array_equal(before[:, i], ref), (K, n + i)
            step = [reference_step(ref[t], tables[n + i], sig[t]) for t in (0, 1)]
            assert np.array_equal(propagate_dist(ref[1], tables[n + i], sig[1]), step[1])
            ref = np.array(step)
        n += piece
    assert np.array_equal(d, ref)


def test_advance_rejects_drifted_mass(m37):
    p_one = _step_probs(np.full((3, 4, 2), 0.5), _signal_laws(m37))
    for first in (1.0 + 1e-6, np.nan):  # a NaN mass is no mass
        d = np.array([[first, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ChainDriftError):
            _advance(d, p_one)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6])
def test_walk_matches_advance_at_every_agent(K, m37):
    # Random tables with entries 0, 1 and signal-independent ones, so
    # that some windows carry no mass; the lengths end around pair and
    # tree-level boundaries and past several pieces of _chunk_agents agents.
    rng = np.random.default_rng(20 + K)
    n = 2 * _chunk_agents(K) + 53
    tables = rng.random((n, 1 << K, 2))
    tables[rng.random((n, 1 << K)) < 0.2] = 0.0
    tables[rng.random((n, 1 << K)) < 0.2] = 1.0
    same = rng.random((n, 1 << K)) < 1 / 3
    tables[same, 1] = tables[same, 0]
    p_one = _step_probs(tables, _signal_laws(m37))
    start = np.zeros((2, 1 << K))
    start[:, 0] = 1.0
    for length in (1, 2, 3, 31, 32, 33, _chunk_agents(K), n):
        ref, ref_after = _advance(start, p_one[:, :length])
        got, after = _walk(start, p_one[:, :length])
        assert np.array_equal(got == 0.0, ref == 0.0), (K, length)
        assert np.array_equal(after == 0.0, ref_after == 0.0), (K, length)
        assert np.max(np.abs(got - ref)) <= 1e-13, (K, length)
        assert np.max(np.abs(after - ref_after)) <= 1e-13, (K, length)


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5, 6])
def test_walk_at_some_agents_equals_the_walk_at_every_agent(K, m37):
    # Random ascending subsets of the agents of three pieces, with repeats,
    # odd and even offsets alike: the same bits as the laws before every
    # agent, and the same law after the last.
    rng = np.random.default_rng(40 + K)
    n = 3 * _chunk_agents(K) - 7
    p_one = _step_probs(_random_tables(rng, n, K), _signal_laws(m37))
    start = np.zeros((2, 1 << K))
    start[:, 0] = 1.0
    every, end = _walk(start, p_one)
    for at in ([], [0], [n - 1], [0, 1, 1], np.sort(rng.integers(0, n, size=5)),
               np.sort(rng.integers(0, n, size=200)), np.flatnonzero(rng.random(n) < 0.5)):
        got, after = _walk(start, p_one, at)
        assert got.shape == (2, len(at), 1 << K)
        assert np.array_equal(got, every[:, np.asarray(at, dtype=int)]), (K, len(at))
        assert np.array_equal(after, end), (K, len(at))


def test_walk_rejects_drifted_mass(m37):
    p_one = _step_probs(np.full((40, 4, 2), 0.5), _signal_laws(m37))
    for first in (1.0 + 1e-6, np.nan):  # a NaN mass is no mass
        d = np.array([[first, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        with pytest.raises(ChainDriftError):
            _walk(d, p_one)


@pytest.mark.parametrize("name", ["designed", "random3"])
def test_laws_before_an_agent_do_not_depend_on_the_range_end(name, m37):
    # The laws before agents n0..j are the same bits whatever n1 >= j,
    # across pair, tree-level, piece and law_walk chunk ends.
    if name == "designed":
        prof = designed_profile(m37)
    else:
        rng = np.random.default_rng(4)
        prof = table_profile(list(rng.random((97, 8, 2))))
    n0, horizon = 7, 20
    size = _CHUNK_BYTES // (32 << prof.K) - horizon  # agents per law_walk chunk

    def laws(n1):
        befores = []
        for lo, tables, p_one, before in law_walk(prof, m37, n0, n1, horizon):
            # The chunk's tables and step probabilities, agent by agent.
            per_agent = prof.rule_table_chunk(lo, lo + before.shape[1] - 1 + horizon)
            assert np.array_equal(tables, per_agent), (name, lo)
            assert np.array_equal(p_one, _step_probs(per_agent, _signal_laws(m37))), (name, lo)
            befores.append(before)
        return np.concatenate(befores, axis=1)

    longest = laws(n0 + 2 * size + 50)
    chunk = _chunk_agents(prof.K)
    for length in (1, 2, 3, 31, 32, 33, 101, chunk, chunk + 4, size + 10):
        n1 = n0 + length - 1
        assert np.array_equal(laws(n1), longest[:, : n1 - n0 + 1]), (name, n1)


@pytest.mark.parametrize("name", ["designed", "random3", "copy6"])
def test_law_walk_from_agent_1_starts_from_the_sweep_origin(name, m37):
    # A walk from agent 1 sweeps no agent first: its laws are the bits of
    # the chunk walks started from sweep(profile, model, 0, [0])[0].
    if name == "designed":
        prof = designed_profile(m37)
    elif name == "random3":
        prof = table_profile(list(np.random.default_rng(5).random((97, 8, 2))))
    else:
        prof = baseline_profile("copy", 6)
    horizon = 20
    n1 = 2 * (_CHUNK_BYTES // (32 << prof.K) - horizon) + 50  # three law_walk chunks
    d = sweep(prof, m37, 0, [0])[0]
    chunks = list(law_walk(prof, m37, 1, n1, horizon))
    assert len(chunks) == 3
    for lo, _, p_one, before in chunks:
        expected, d = _walk(d, p_one[:, : before.shape[1]])
        assert np.array_equal(before, expected), (name, lo)


@pytest.mark.parametrize("model_args", [(0.3, 0.7), (0.4, 0.6)])
def test_exact_chain_matches_enumeration(model_args):
    model = SignalModel(*model_args)
    ns = list(range(1, 11))
    profiles = [
        baseline_profile("constant0", 2),
        baseline_profile("copy", 2),
        designed_profile(model),
        myopic_profile(model, 1, 12),
        myopic_profile(model, 2, 12),
    ]
    for prof in profiles:
        tr = error_trajectory(prof, model, 10, checkpoints=ns)
        bf = brute_force_oracle(prof, model, 10, checkpoints=ns)
        assert np.allclose(tr.p0_correct, bf.p0_correct, atol=1e-12)
        assert np.allclose(tr.p1_correct, bf.p1_correct, atol=1e-12)


def test_enumeration_refuses_large_n(m37):
    with pytest.raises(ValueError):
        brute_force_oracle(baseline_profile("copy", 2), m37, BRUTE_FORCE_MAX_N + 1)


def test_enumeration_of_no_checkpoint_or_no_agent_is_empty(m37):
    """In every trajectory, an empty list, or no agent, is no checkpoint."""
    copy = baseline_profile("copy", 2)
    for N, checkpoints in ((5, []), (0, None), (0, [])):
        for traj in (brute_force_oracle(copy, m37, N, checkpoints),
                     error_trajectory(copy, m37, N, checkpoints),
                     designed_trajectory(m37, N, checkpoints)):
            assert traj.ns.size == traj.p0_correct.size == traj.p1_correct.size == 0


def test_block_start_transition_closed_form(m37):
    bt = block_start_trajectory(m37, 1, 8)
    # odd block index: upward switch probability p^{k_m}/m, no downward
    up, down = bt.up[0], bt.down[0]
    assert up == pytest.approx(0.7)
    assert down == 0.0
    up, down = bt.up[2], bt.down[2]
    assert up == pytest.approx(0.7 / 2)
    # even block index: downward switch probability q^{r_m}/m, no upward
    up, down = bt.up[1], bt.down[1]
    assert up == 0.0
    assert down == pytest.approx(0.3)
    bt = block_start_trajectory(m37, 0, 8)
    up, down = bt.up[15], bt.down[15]
    assert down == pytest.approx(0.7**2 / 8)  # m = 8 has r = 2


def test_block_start_trajectory_refuses_a_state_outside_0_1(m37):
    with pytest.raises(ValueError):
        block_start_trajectory(m37, 5, 3)


def _block_start_transition(i, model, theta, k, r):
    """The closed form one chain step at a time, from the sizes k_m, r_m:
    p^{k_m}/m upward across S-blocks (odd i), q^{r_m}/m downward across
    R-blocks (even i)."""
    if i % 2 == 1:
        m = (i + 1) // 2
        return model.p(theta) ** int(k[m - 1]) / m, 0.0
    m = i // 2
    return 0.0, model.q(theta) ** int(r[m - 1]) / m


@pytest.mark.parametrize("model_args", [(0.3, 0.7), (0.4, 0.6), (0.15, 0.9)])
def test_block_start_trajectory_follows_the_transition_step_by_step(model_args):
    model = SignalModel(*model_args)
    segments = 400
    k, r = block_sizes_arrays(segments, model)
    for theta in (0, 1):
        bt = block_start_trajectory(model, theta, segments)
        pi = 0.0
        for i in range(1, 2 * segments + 1):
            assert bt.pi[i - 1] == pi, (model_args, theta, i)
            u, d = _block_start_transition(i, model, theta, k, r)
            assert (bt.up[i - 1], bt.down[i - 1]) == (u, d), (model_args, theta, i)
            pi = pi * (1.0 - d) + (1.0 - pi) * u


def test_block_start_chain_matches_window_chain(m37):
    (pi0, pi1), (imp0, imp1) = block_start_masses(designed_profile(m37), m37, 60)
    assert imp0.max() == 0.0 and imp1.max() == 0.0  # consensus purity
    for theta, pi in ((0, pi0), (1, pi1)):
        bt = block_start_trajectory(m37, theta, 60)
        assert np.max(np.abs(pi - bt.pi)) < 1e-12


def test_block_start_chain_learns_toward_truth(m37):
    bt1 = block_start_trajectory(m37, 1, 5000)
    bt0 = block_start_trajectory(m37, 0, 5000)
    assert bt1.pi[-1] > 0.9  # P^1(consensus = 1) at late block starts
    assert bt0.pi[-1] < 0.1


def test_block_start_masses_refuse_other_windows_and_no_segment(m37):
    with pytest.raises(ValueError):
        block_start_masses(baseline_profile("copy", 3), m37, 5)
    with pytest.raises(ValueError):
        block_start_masses(baseline_profile("copy", 1), m37, 5)
    for segments in (0, -3):
        with pytest.raises(ValueError):
            block_start_masses(designed_profile(m37), m37, segments)


def _one_at_a_time(model, ns):
    """designed_trajectory at each agent of ns by itself: every one is swept
    from its own block start, whose law comes from the block-start chain."""
    got = [designed_trajectory(model, max(ns), [n]) for n in ns]
    return np.array([t.p0_correct[0] for t in got]), np.array([t.p1_correct[0] for t in got])


def _assert_close_to_the_sweep(model, ns, p0, p1, tol=1e-12):
    ref = error_trajectory(designed_profile(model), model, max(ns), ns)
    assert np.max(np.abs(p0 - ref.p0_correct)) < tol
    assert np.max(np.abs(p1 - ref.p1_correct)) < tol


def test_designed_trajectory_equals_the_sweep_at_every_agent(m37):
    ns = list(range(1, 3001))
    _assert_close_to_the_sweep(m37, ns, *_one_at_a_time(m37, ns))


@pytest.mark.parametrize(
    "model_args", [(0.3, 0.7), (0.2, 0.9), (0.45, 0.55), (0.1, 0.8), (0.4, 0.6)]
)
def test_designed_trajectory_equals_the_sweep_around_the_size_runs(model_args):
    """Agents around the segments where k_m or r_m grows (8, 55 and 2981
    at 0.3/0.7, and the model's own up to 3000)."""
    model = SignalModel(*model_args)
    k, r = block_sizes_arrays(3000, model)
    runs = 2 + np.flatnonzero((np.diff(k) != 0) | (np.diff(r) != 0))
    table = segment_table(model)
    ns = sorted({
        n
        for m in {8, 55, 2981, *runs.tolist()}
        for n in range(table.segment_start(m) - 9, table.segment_start(m + 1) + 9)
    })
    _assert_close_to_the_sweep(model, ns, *_one_at_a_time(model, ns))


def test_designed_trajectory_sweeps_close_checkpoints_once(m37, monkeypatch):
    """The checkpoints before each of the 3374 block starts up to 2*10^4,
    at each of them or every 7th agent lie closer than _JOIN_GAP, so each
    set takes one sweep with the sweep's values; checkpoints further apart
    take one short sweep each."""
    k, _, start = segment_table(m37).layout(2000)
    opened = np.stack([start, start + 2 * k], axis=1).ravel()
    opened = opened[opened <= 20_000]
    assert len(opened) == 3374
    calls = []
    sweep_from = chain._sweep_from
    monkeypatch.setattr(chain, "_sweep_from", lambda *a: calls.append(a[2]) or sweep_from(*a))
    for ns in ((opened - 1).tolist(), opened.tolist(), list(range(1, 20_000, 7))):
        calls.clear()
        got = designed_trajectory(m37, 20_000, ns)
        assert len(calls) == 1
        _assert_close_to_the_sweep(m37, ns, got.p0_correct, got.p1_correct)
    calls.clear()
    sparse = list(range(100, 20_000, chain._JOIN_GAP + 50))
    got = designed_trajectory(m37, 20_000, sparse)
    assert len(calls) == len(sparse)
    _assert_close_to_the_sweep(m37, sparse, got.p0_correct, got.p1_correct)


def test_block_start_chain_in_chunks_equals_the_loop(m37):
    """Block starts on and around three chunk ends of the chunked chain."""
    size = chain._CHUNK_BYTES // (32 + 32)  # per block: (u, leak) maps and join temporaries
    segments = 2 * size  # 4 chunks of maps
    ends = [c * size + e for c in (1, 2, 3) for e in (-1, 0, 1, 2)]
    blocks = sorted({1, 2, 3, *range(5, 2 * segments, 613), *ends, 2 * segments})
    laws = chain._block_start_laws(m37, blocks)
    assert sorted(laws) == blocks
    for theta in (0, 1):
        pi = block_start_trajectory(m37, theta, segments).pi
        got = np.array([laws[i][theta] for i in blocks])
        assert np.max(np.abs(got[:, 1] - pi[np.array(blocks) - 1])) < 1e-12
        assert np.max(np.abs(got.sum(axis=1) - 1.0)) < 1e-15


@pytest.mark.parametrize(
    "model_args", [(0.3, 0.7), (0.2, 0.9), (0.45, 0.55), (0.1, 0.8), (0.4, 0.6)]
)
def test_block_start_chain_around_the_size_runs_equals_the_loop(model_args):
    """Block starts on and around the first blocks of every run up to
    segment 2*10^5 (8, 55 and 2981 at 0.3/0.7), where the maps of a run
    begin."""
    model = SignalModel(*model_args)
    segments = 200_000
    count = segment_table(model).runs(1, segments)[2]
    firsts = np.cumsum([1, *count[:-1]]).tolist()
    if model_args == (0.3, 0.7):
        assert firsts == [1, 8, 55, 2981]
    blocks = sorted({i for m in firsts for i in range(2 * m - 4, 2 * m + 4) if i >= 1})
    laws = chain._block_start_laws(model, blocks)
    for theta in (0, 1):
        pi = block_start_trajectory(model, theta, segments).pi
        got = np.array([laws[i][theta, 1] for i in blocks])
        assert np.max(np.abs(got - pi[np.array(blocks) - 1])) < 1e-12, (model_args, theta)


def _long_double_chain(model, blocks, piece=1 << 16):
    """P^theta(w_i = 1) per theta at the sorted block indices i of ``blocks``
    by the affine recursion pi -> pi + u - leak pi in np.longdouble, from
    the float64 u_i and d_i of ``block_start_trajectory``.  Each piece of
    at most ``piece`` maps is joined pairwise, padded by the identity
    (0, 0), and applied."""
    pi = np.zeros(2, dtype=np.longdouble)
    out = {}
    done = 1  # pi is the law at block ``done``
    for target in blocks:
        while done < target:
            i = np.arange(done, min(done + piece, target))  # the maps of blocks i
            m = (i + 1) // 2
            k, r = block_sizes(m, model)
            u = np.zeros((2, len(i)), dtype=np.longdouble)
            leak = np.zeros((2, len(i)), dtype=np.longdouble)
            for t in (0, 1):
                up = np.array([model.p(t) ** j for j in range(k.max() + 1)])[k] / m
                down = np.array([model.q(t) ** j for j in range(r.max() + 1)])[r] / m
                u[t] = np.where(i % 2 == 1, up, 0.0)
                leak[t] = np.where(i % 2 == 1, up, down)
            while u.shape[1] > 1:
                if u.shape[1] % 2:
                    u, leak = (np.pad(a, ((0, 0), (0, 1))) for a in (u, leak))
                u, leak = (u[:, 0::2] + u[:, 1::2] - leak[:, 1::2] * u[:, 0::2],
                           leak[:, 0::2] + leak[:, 1::2] - leak[:, 0::2] * leak[:, 1::2])
            pi = pi + u[:, 0] - leak[:, 0] * pi
            done = int(i[-1]) + 1
        out[target] = pi.copy()
    return out


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
    reason="np.longdouble is no wider than float64 here",
)
@pytest.mark.parametrize("model_args", [(0.3, 0.7), (0.2, 0.9)])
def test_block_start_chain_keeps_float64_accuracy_to_a_million_segments(model_args):
    """The float64 chain against the same recursion in long double to 10^6
    segments.  Keeping 1 - leak instead of the leak rounds away the low bits
    of the leaks near 1/m, and the former 2x2 chain was up to 1.2e-13 off."""
    model = SignalModel(*model_args)
    blocks = sorted({1, 2, 999, 54_321, *range(1, 2 * 10**6, 2**18), 2 * 10**6})
    laws = chain._block_start_laws(model, blocks)
    ref = _long_double_chain(model, blocks)
    for i in blocks:
        err = np.abs(laws[i][:, 1].astype(np.longdouble) - ref[i])
        assert float(err.max()) < 1e-14, (model_args, i, err)


def test_designed_trajectory_reproduces_the_frozen_plateau(m37):
    """Criterion 3's values, from the block-start chain."""
    _, n_star = segment_table(m37).last_block_start_before(16_000_000)
    early, plateau = designed_trajectory(m37, n_star, [10_000, n_star]).p_correct
    assert abs(plateau - 0.9512267602030317) < 1e-9
    assert abs(early - 0.8825181300823625) < 1e-9


def test_designed_trajectory_checks_its_checkpoints(m37):
    with pytest.raises(chain.ArgumentError):
        designed_trajectory(m37, 10, [0, 5])
    with pytest.raises(chain.ArgumentError):
        designed_trajectory(m37, 10, [11])
    assert designed_trajectory(m37, 10, []).ns.size == 0
    assert designed_trajectory(m37, 10).ns.tolist() == [10]


def test_series_diagnostics_refuses_no_checkpoint(m37):
    with pytest.raises(ValueError):
        series_diagnostics(m37, 100, [])


_COPY1, _COPY2 = baseline_profile("copy", 1), baseline_profile("copy", 2)


@pytest.mark.parametrize("call, argv", [
    (lambda m: sweep(_COPY2, m, 5, [6]), None),
    (lambda m: block_start_trajectory(m, 1, 0), None),
    (lambda m: k1_diagnostics(_COPY2, m, 5), ["k1diag", "--profile", "designed", "--n", "5"]),
    (lambda m: brute_force_oracle(_COPY2, m, 5, [0, 3]), None),
    (lambda m: brute_force_oracle(_COPY2, m, 5, [6]), None),
    (lambda m: error_trajectory(_COPY2, m, 10, [11]),
     ["exact", "--profile", "copy", "--n", "10", "--checkpoints", "11"]),
    (lambda m: series_diagnostics(m, 1), ["series", "--m", "1"]),
    (lambda m: series_diagnostics(m, 100, [200]), ["series", "--m", "100", "--checkpoints", "200"]),
    (lambda m: error_trajectory(_COPY2, m, 2.5), None),
    (lambda m: designed_trajectory(m, 2.5), None),
    (lambda m: designed_trajectory(m, True), None),
    (lambda m: brute_force_oracle(_COPY2, m, 2.5), None),
    (lambda m: series_diagnostics(m, 2.5), None),
    (lambda m: k1_diagnostics(_COPY1, m, -1), None),
    (lambda m: k1_diagnostics(_COPY1, m, 2.5), None),
    (lambda m: block_start_trajectory(m, 1, 2.5), None),
], ids=["sweep-record-point", "block-start-segments", "k1-window", "oracle-checkpoint-0",
        "oracle-checkpoint-past-n", "trajectory-checkpoint", "series-m", "series-checkpoint",
        "trajectory-n-fraction", "designed-n-fraction",
        "designed-n-bool", "oracle-n-fraction", "series-m-fraction", "k1-n-negative",
        "k1-n-fraction", "block-start-segments-fraction"])
def test_argument_checks_raise_argument_error(call, argv, m37, capsys):
    """Each argument check of the module raises ``chain.ArgumentError``; a
    command line that reaches it exits 4 with the library's reason."""
    with pytest.raises(chain.ArgumentError) as info:
        call(m37)
    if argv is not None:
        assert main([*argv, "--model", "0.3,0.7"]) == EXIT_USAGE_ERROR
        assert json.loads(capsys.readouterr().out)["reason"] == str(info.value)


def test_series_diagnostics_closed_forms(m37):
    sd = series_diagnostics(m37, 10_000, checkpoints=[100, 10_000])
    # exponents alpha = log_{pbar}(p): tail exponent of p^{k_m}
    assert sd.alpha[1] == pytest.approx(np.log(0.7) / np.log(0.5))
    assert sd.alpha[0] == pytest.approx(np.log(0.3) / np.log(0.5))
    assert sd.beta[1] == pytest.approx(np.log(0.3) / np.log(0.5))
    # partial sums are increasing, and the p1 series dominates the q1 series
    assert sd.sum_p1k[1] > sd.sum_p1k[0]
    assert sd.sum_q1r[1] > sd.sum_q1r[0]
    assert sd.sum_p1k[1] > sd.sum_q1r[1]
    # symmetry of the binary channel with pbar = qbar = 0.5
    assert sd.sum_p0k[1] == pytest.approx(sd.sum_q1r[1], abs=1e-12)


def test_series_partial_sum_values(m37):
    sd = series_diagnostics(m37, 100, checkpoints=[3])
    # direct hand sum for m = 1..3 (k_m = r_m = 1 below the cutoff)
    assert sd.sum_p1k[0] == pytest.approx(0.7 * (1 + 1 / 2 + 1 / 3), abs=1e-12)
    assert sd.sum_q1r[0] == pytest.approx(0.3 * (1 + 1 / 2 + 1 / 3), abs=1e-12)


def test_k1_diagnostics_coupling(m46):
    mp = myopic_profile(m46, 1, 80)
    diag = k1_diagnostics(mp, m46, 80)
    assert diag.coupling_violations == []
    # after the cascade the chain freezes: switching probabilities vanish
    assert diag.a[5:, 0, 1].max() == 0.0
    assert diag.sum_a01[-1] == diag.sum_a01[2]


def test_k1_diagnostics_signal_following_profile(m46):
    # an always-follow-signal profile has constant switch probabilities
    follow = table_profile([np.array([[0.0, 1.0], [0.0, 1.0]])])
    diag = k1_diagnostics(follow, m46, 40)
    a01 = diag.a[5:, 0, 1]
    assert np.allclose(a01, 0.4)  # P^0(decide 1) = p0
    assert np.allclose(diag.abar[5:, 0, 1], 0.6)
    assert diag.coupling_violations == []


def test_k1_error_floor_positive(m46, m37):
    for m in (m46, m37):
        floor = k1_error_floor(m)
        assert 0.0 < floor < 0.5
    # tighter likelihood-ratio bounds give a larger guaranteed floor
    assert k1_error_floor(m46) > k1_error_floor(m37)


def _k1_loop(profile, model, N):
    """k1_diagnostics as one Python step per agent and window: a, abar, the
    four running sums and the coupling violations."""
    m_blr, M_blr = blr_bounds(model)
    sig = (model.signal_probs(0), model.signal_probs(1))
    ab = np.full((2, N, 2, 2), np.nan)  # [theta, n, i, j]
    sums = np.zeros((4, N))
    violations = []
    states = [np.array([1.0, 0.0]), np.array([1.0, 0.0])]
    run = np.zeros(4)
    for n, table in enumerate(profile.rule_table_chunk(1, N), start=1):
        for i in (0, 1):
            for t in (0, 1):
                if states[t][i] > 0.0:
                    one = sig[t][0] * table[i, 0] + sig[t][1] * table[i, 1]
                    ab[t, n - 1, i] = [1.0 - one, one]
            if states[0][i] > 0.0 and states[1][i] > 0.0:
                for j in (0, 1):
                    a, abar = ab[0, n - 1, i, j], ab[1, n - 1, i, j]
                    if not (m_blr * abar - 1e-12 <= a <= M_blr * abar + 1e-12):
                        violations.append((n, i, j))
        for k, (t, i, j) in enumerate([(0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0)]):
            if not np.isnan(ab[t, n - 1, i, j]):
                run[k] += ab[t, n - 1, i, j]
        sums[:, n - 1] = run
        states = [reference_step(states[t], table, sig[t]) for t in (0, 1)]
    return ab[0], ab[1], sums, violations


def _fractional_k1_profile():
    # Signal-independent entries 0.45 and 0.9, whose signal average is not
    # the entry itself; agent 1 decides 0, so window 1 is unseen at agents
    # 1 and 2, and agent 6 decides 1 against its signal.
    default = {"0": {"0": 0.45, "1": 0.45}, "1": {"0": 0.2, "1": 0.9}}
    agents = {
        "1": {"0": {"0": 0.0, "1": 0.0}},
        "4": {"0": {"0": 0.9, "1": 0.9}, "1": {"0": 0.9, "1": 0.9}},
        "6": {"0": {"0": 1.0, "1": 0.0}, "1": {"0": 1.0, "1": 0.3}},
    }
    return profile_from_dict({"K": 1, "default": default, "agents": agents})


@pytest.mark.parametrize("name", ["myopic", "follow", "fractional", "outside"])
@pytest.mark.parametrize("model_args", [(0.4, 0.6), (0.35, 0.8)])
def test_k1_diagnostics_equal_the_per_agent_loop(name, model_args, monkeypatch):
    model = SignalModel(*model_args)
    prof = {
        "myopic": lambda: myopic_profile(model, 1, 30),
        "follow": lambda: table_profile([np.array([[0.0, 1.0], [0.0, 1.0]])]),
        "fractional": _fractional_k1_profile,
        # Rules always meet the coupling; entries outside [0, 1], which no
        # DecisionRule accepts, break it, so the violation lists are compared.
        "outside": lambda: table_profile([[[0.2, 0.9], [0.1, 0.3]], [[-0.5, 1.5], [1.2, 0.4]]]),
    }[name]()
    walked = []  # the step probabilities the diagnostics walk

    def walk(d, p_one):
        walked.append(p_one)
        return _walk(d, p_one)

    monkeypatch.setattr(chain, "_walk", walk)
    diag = k1_diagnostics(prof, model, 40)
    assert len(walked) == 1
    assert np.array_equal(walked[0], _step_probs(prof.rule_table_chunk(1, 40), _signal_laws(model)))
    a, abar, sums, violations = _k1_loop(prof, model, 40)
    assert np.array_equal(diag.a, a, equal_nan=True)
    assert np.array_equal(diag.abar, abar, equal_nan=True)
    got = [diag.sum_a01, diag.sum_a10, diag.sum_abar01, diag.sum_abar10]
    assert np.array_equal(np.array(got), sums)
    assert diag.coupling_violations == violations
    if name == "fractional":
        assert np.isnan(a[:2, 1]).all() and not np.isnan(a[2:]).any()
    assert bool(violations) == (name == "outside")
