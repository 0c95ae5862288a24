import tracemalloc

import numpy as np
import pytest

from tandemlearn import AgentRole, RoleKind, SignalModel, segment_table
from tandemlearn.schedule import SegmentTable, block_sizes, block_sizes_arrays

# 0.001/0.002 never clears its cutoff below segment 2^61: one run.
RUN_MODELS = [(0.3, 0.7), (0.2, 0.9), (0.01, 0.99), (0.9, 0.99), (0.45, 0.55), (0.4, 0.6),
              (0.1, 0.8), (0.001, 0.002)]


@pytest.mark.parametrize("call", [
    lambda t: t.segment_start(0),
    lambda t: t.segment_of(2),
    lambda t: t.role_of(0),
    lambda t: t.block_start_agent(0),
    lambda t: t.role_palette(0, 3),
], ids=["segment-start", "segment-of", "role-of", "block-start", "role-palette"])
def test_argument_checks_raise_value_error(call, m37):
    with pytest.raises(ValueError):
        call(segment_table(m37))


def test_block_sizes_past_any_memory_are_refused_at_once(m37):
    """No system holds 2^59 int64 sizes; past about 2^60 numpy itself would
    raise ``ValueError`` rather than ``MemoryError``."""
    for m in (1 << 59, 1 << 62, (1 << 63) - 1, 1 << 64):
        with pytest.raises(MemoryError):
            block_sizes_arrays(m, m37)


def test_block_sizes_below_cutoff(m37):
    # while ln m <= max(1/pbar, 1/qbar) both block sizes stay at 1
    ks, rs = block_sizes_arrays(7, m37)
    for m in range(1, 8):
        assert (ks[m - 1], rs[m - 1]) == (1, 1)


def test_block_sizes_log_log_growth(m37):
    ks, rs = block_sizes_arrays(1096, m37)
    assert (ks[8 - 1], rs[8 - 1]) == (2, 2)
    assert (ks[1096 - 1], rs[1096 - 1]) == (3, 3)


def test_asymmetric_model_separates_block_sizes():
    m = SignalModel(0.2, 0.9)  # pbar = 0.55, qbar = 0.45
    ks, rs = block_sizes_arrays(4000, m)
    assert ks[4000 - 1] != rs[4000 - 1]


def test_first_segment_roles(m37):
    expected = [
        (1, RoleKind.PREAMBLE),
        (2, RoleKind.PREAMBLE),
        (3, RoleKind.S_FIRST),
        (4, RoleKind.SR_TRANSIENT),
        (5, RoleKind.R_FIRST),
        (6, RoleKind.RS_TRANSIENT),
        (7, RoleKind.S_FIRST),
    ]
    tab = segment_table(m37)
    for n, kind in expected:
        role = tab.role_of(n)
        assert role.kind == kind, n
    assert tab.role_of(3).m == 1
    assert tab.role_of(7).m == 2


def test_segment_lengths_and_starts(m37):
    tab = segment_table(m37)
    # segment m occupies 2k_m + 2r_m agents starting at segment_start(m)
    ks, rs = block_sizes_arrays(49, m37)
    k, r, starts = tab.layout(49)
    assert np.array_equal(k, ks) and np.array_equal(r, rs)
    assert not any(a.flags.writeable for a in (k, r, starts))
    start = 3
    for m in range(1, 50):
        assert tab.segment_start(m) == starts[m - 1] == start
        length = 2 * int(ks[m - 1]) + 2 * int(rs[m - 1])
        for n in range(start, start + length):
            assert tab.segment_of(n) == m
        start += length


def test_block_start_agents(m37):
    tab = segment_table(m37)
    # odd indices open S-blocks, even indices open R-blocks
    assert tab.block_start_agent(1) == 3
    assert tab.block_start_agent(2) == 5
    assert tab.block_start_agent(3) == 7
    for i in range(1, 80):
        n = tab.block_start_agent(i)
        kind = tab.role_of(n).kind
        assert kind == (RoleKind.S_FIRST if i % 2 == 1 else RoleKind.R_FIRST)
        expected_m = (i + 1) // 2 if i % 2 == 1 else i // 2
        assert tab.role_of(n).m == expected_m


def test_last_block_start_before(m37):
    tab = segment_table(m37)
    i, n = tab.last_block_start_before(100)
    assert n <= 100
    assert tab.block_start_agent(i) == n
    assert tab.block_start_agent(i + 1) > 100


@pytest.mark.parametrize("model_args", [(0.3, 0.7), (0.3, 0.8)])
def test_last_block_start_before_matches_walk(model_args):
    tab = segment_table(SignalModel(*model_args))
    starts = [tab.block_start_agent(i) for i in range(1, 2000)]

    def walk(n):
        # Reference: step through block starts until one passes n.
        i = 1
        while starts[i] <= n:
            i += 1
        return i, starts[i - 1]

    for n in range(-1, 4001):
        assert tab.last_block_start_before(n) == walk(n), n


def test_role_codes_match_role_of(m37):
    """Over the preamble, chunk-sized ranges and the steps of k_m and r_m
    (m = 55 and 2981), every kind and every 1/m of ``role_codes`` is the
    one ``role_of`` gives, bit for bit."""
    tab = segment_table(m37)
    ranges = [(1, 400), (1, 1), (1, 2), (2, 2), (2, 5), (3, 3), (3, 4100), (10**6, 10**6 + 4095)]
    ranges += [(tab.segment_start(m - 1) + 1, tab.segment_start(m + 1) + 2) for m in (55, 2981)]
    first = (RoleKind.S_FIRST, RoleKind.R_FIRST)
    for n0, n1 in ranges:
        kinds, inv_m = tab.role_codes(n0, n1)
        assert kinds.dtype == np.int8 and inv_m.dtype == np.float64
        roles = [tab.role_of(n) for n in range(n0, n1 + 1)]
        assert kinds.tolist() == [role.kind for role in roles], (n0, n1)
        assert inv_m.tolist() == [1.0 / role.m if role.kind in first else 0.0 for role in roles]


def test_block_sizes_depend_on_model():
    skew = SignalModel(0.05, 0.95)  # pbar = 0.5 still, cutoff identical
    sym = SignalModel(0.3, 0.7)
    k_skew, r_skew = block_sizes_arrays(10, skew)
    k_sym, r_sym = block_sizes_arrays(10, sym)
    assert (k_skew[9], r_skew[9]) == (k_sym[9], r_sym[9])
    tilted = SignalModel(0.3, 0.8)  # pbar = 0.55: later, shallower k growth
    assert block_sizes_arrays(8, tilted)[0][7] <= k_sym[7]


def test_runs_of_the_symmetric_model(m37):
    tab = SegmentTable(m37)
    assert tab._firsts == [1, 8, 55, 2981, 8886111, 78962960182681]
    assert (tab._k, tab._r) == ([1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6])
    assert len(SegmentTable(SignalModel(0.001, 0.002))._firsts) == 1


@pytest.mark.parametrize("model_args", RUN_MODELS)
def test_runs_expand_to_the_block_sizes(model_args):
    """The runs, expanded segment by segment, are ``block_sizes_arrays``; the
    sizes hold from each run's first segment to its last and change at each
    run start."""
    model = SignalModel(*model_args)
    tab = SegmentTable(model)
    firsts = np.array(tab._firsts)
    M = 10**6
    inside = firsts[firsts <= M]
    counts = np.diff(np.r_[inside, M + 1])
    ks, rs = block_sizes_arrays(M, model)
    assert np.array_equal(np.repeat(tab._k[: len(inside)], counts), ks)
    assert np.array_equal(np.repeat(tab._r[: len(inside)], counts), rs)
    lasts = np.r_[firsts[1:] - 1, 1 << 61]
    for ends in (firsts, lasts):
        k, r = block_sizes(ends, model)
        assert k.tolist() == tab._k and r.tolist() == tab._r
    b = firsts[(firsts > 1) & (firsts < 1 << 53)]
    (k0, r0), (k1, r1) = block_sizes(b - 1, model), block_sizes(b, model)
    assert ((k0 != k1) | (r0 != r1)).all()


@pytest.mark.parametrize("model_args", RUN_MODELS)
def test_runs_over_a_range_are_the_block_sizes(model_args):
    """``runs(m0, m1)`` expanded by its counts is ``block_sizes`` of m0..m1,
    integer for integer, for ranges inside one run, across run starts and
    far past 10^15."""
    model = SignalModel(*model_args)
    tab = segment_table(model)
    ranges = [(1, 1), (1, 3000), (7, 56), (54, 2982), (2981, 2981), (100, 10**5)]
    ranges += [(b - 3, b + 3) for b in tab._firsts[1:]]
    ranges += [((1 << 61) - 5, 1 << 61)]
    for m0, m1 in ranges:
        k, r, count = tab.runs(max(m0, 1), m1)
        assert min(count) >= 1 and sum(count) == m1 - max(m0, 1) + 1
        k_ref, r_ref = block_sizes(np.arange(max(m0, 1), m1 + 1), model)
        assert np.repeat(k, count).tolist() == k_ref.tolist(), (m0, m1)
        assert np.repeat(r, count).tolist() == r_ref.tolist(), (m0, m1)


@pytest.mark.parametrize("model_args", RUN_MODELS)
def test_queries_reach_the_last_int64_agent(model_args):
    tab = segment_table(SignalModel(*model_args))
    for n in (10**9, 10**12, 10**18, (1 << 63) - 1):
        m = tab.segment_of(n)
        assert tab.segment_start(m) <= n < tab.segment_start(m + 1)
        i, agent = tab.last_block_start_before(n)
        assert tab.block_start_agent(i) == agent <= n < tab.block_start_agent(i + 1)
        kind = RoleKind.S_FIRST if i % 2 == 1 else RoleKind.R_FIRST
        assert tab.role_of(agent) == AgentRole(kind, (i + 1) // 2)


def test_role_codes_match_role_of_across_far_runs(m37):
    """Ranges across the run starts at segments 8886111 and 78962960182681
    (agents past 10^8 and 10^15) and one near agent 2^63 - 1."""
    tab = segment_table(m37)
    ranges = [(tab.segment_start(m) - 30, tab.segment_start(m) + 40)
              for m in (8886111, 78962960182681)]
    ranges.append(((1 << 63) - 100, (1 << 63) - 1))
    first = (RoleKind.S_FIRST, RoleKind.R_FIRST)
    for n0, n1 in ranges:
        kinds, inv_m = tab.role_codes(n0, n1)
        roles = [tab.role_of(n) for n in range(n0, n1 + 1)]
        assert kinds.tolist() == [role.kind for role in roles], (n0, n1)
        assert inv_m.tolist() == [1.0 / role.m if role.kind in first else 0.0 for role in roles]


def test_far_queries_allocate_little(m37):
    tracemalloc.start()
    try:
        SegmentTable(m37).last_block_start_before(10**18)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_equal_models_share_one_table():
    # perfbench's set-up warms the table that the timed runs then read.
    assert segment_table(SignalModel(0.3, 0.7)) is segment_table(SignalModel(0.7, 0.3))
