"""Randomized invariant suites.

Each invariant runs at least 10^3 generated cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tandemlearn import SignalModel, blr_bounds, designed_profile
from tandemlearn.chain import agent_chunks, block_start_masses, propagate_dist
from tandemlearn.rng import (
    KIND_RULE, KIND_SIGNAL, KIND_WORLD, bar, bits, finish, step_key, stream_key, uniform,
)
from tandemlearn.schedule import segment_table
from conftest import table_profile

CASES = settings(max_examples=1000, deadline=None)

models = st.tuples(
    st.floats(0.02, 0.98), st.floats(0.02, 0.98)
).filter(lambda t: abs(t[0] - t[1]) > 1e-3).map(lambda t: SignalModel(*t))

probabilities = st.floats(0.0, 1.0)


def rule_tables(K):
    return st.lists(
        st.lists(st.tuples(probabilities, probabilities).map(list), min_size=1 << K, max_size=1 << K),
        min_size=1,
        max_size=6,
    )


@CASES
@given(model=models, tables=rule_tables(2), steps=st.integers(1, 12))
def test_normalization_invariant(model, tables, steps):
    """Window distributions stay normalized and non-negative under any
    rule sequence and any signal model."""
    prof = table_profile(tables)
    d = [np.array([1.0, 0.0, 0.0, 0.0])] * 2
    for n in range(1, steps + 1):
        d = [propagate_dist(d[t], prof.rule(n).table, model.signal_probs(t)) for t in (0, 1)]
        for mass in d:
            assert np.all(mass >= 0.0)
            assert abs(mass.sum() - 1.0) < 1e-12


@CASES
@given(model=models, row=st.tuples(probabilities, probabilities))
def test_likelihood_ratio_coupling_invariant(model, row):
    """Transition probabilities under the two states are coupled by the
    likelihood-ratio bounds: m_blr * abar <= a <= M_blr * abar."""
    lo, hi = blr_bounds(model)
    t = np.asarray(row)
    a = float(model.signal_probs(0) @ t)  # P^0(decide 1 | window)
    abar = float(model.signal_probs(1) @ t)  # P^1(decide 1 | window)
    assert lo * abar - 1e-12 <= a <= hi * abar + 1e-12
    # the same holds for the complementary decision
    a0, abar0 = 1.0 - a, 1.0 - abar
    assert lo * abar0 - 1e-12 <= a0 <= hi * abar0 + 1e-12


@CASES
@given(model=models, segments=st.integers(1, 8))
def test_block_start_purity_invariant(model, segments):
    """At every block-start agent the designed profile's window is a pure
    consensus: zero mass on the mixed windows (0,1) and (1,0)."""
    (_, _), (imp0, imp1) = block_start_masses(designed_profile(model), model, segments)
    assert imp0.max() == 0.0
    assert imp1.max() == 0.0


@CASES
@given(model=models, n=st.integers(1, 3000))
def test_schedule_partition_invariant(model, n):
    """Every agent index belongs to exactly one role, consistent between
    the scalar and vectorized role assignments, and segments tile the
    agent axis with lengths 2*k_m + 2*r_m."""
    tab = segment_table(model)
    role = tab.role_of(n)
    kinds, _ = tab.role_codes(n, n)
    assert kinds[0] == role.kind
    if n >= 3:
        m = tab.segment_of(n)
        start = tab.segment_start(m)
        assert start <= n < tab.segment_start(m + 1)
        from tandemlearn.schedule import block_sizes_arrays

        ks, rs = block_sizes_arrays(m, model)
        assert tab.segment_start(m + 1) - start == 2 * ks[m - 1] + 2 * rs[m - 1]


@CASES
@given(qs=st.lists(st.floats(0.0, 0.999), min_size=1, max_size=30))
def test_product_bound_invariant(qs):
    """1 - sum(q) <= prod(1 - q) <= exp(-sum(q)) for q in [0, 1)."""
    q = np.asarray(qs)
    prod = np.prod(1.0 - q)
    total = q.sum()
    assert 1.0 - total <= prod + 1e-12
    assert prod <= np.exp(-total) + 1e-12


@CASES
@given(
    seed=st.integers(0, 2**63 - 1),
    stream=st.integers(0, 2**31 - 1),
    step=st.integers(0, 2**31 - 1),
    kind=st.sampled_from([KIND_WORLD, KIND_SIGNAL, KIND_RULE]),
)
def test_rng_reproducibility_invariant(seed, stream, step, kind):
    """Draws are pure functions of (seed, stream, step, kind), lie in
    [0, 1), and the vectorized path reproduces scalar draws exactly."""
    u = uniform(seed, stream, step, kind)
    assert 0.0 <= u < 1.0
    assert uniform(seed, stream, step, kind) == u
    vec = uniform(seed, np.array([stream, stream + 1]), step, kind)
    assert vec[0] == u
    assert vec.shape == (2,)


@CASES
@given(
    seed=st.integers(0, 2**64 - 1),
    streams=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    agents=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=4),
)
def test_split_draw_invariant(seed, streams, agents):
    """The Monte Carlo walk's draw, a key per stream and a step key per
    agent finished for both kinds in one call, equals the scalar draw of
    every (seed, stream, agent, kind)."""
    keys = stream_key(seed, np.array(streams, dtype=np.uint64))
    steps = step_key(np.array(agents, dtype=np.int64))
    kinds = (KIND_SIGNAL, KIND_RULE)
    block = finish(keys, steps[:, None], kinds)
    assert block.shape == (2, len(agents), len(streams))
    for k, kind in enumerate(kinds):
        for i, agent in enumerate(agents):
            for j, stream in enumerate(streams):
                assert block[k, i, j] == uniform(seed, stream, agent, kind)


# Probabilities where a bar could slip: the ends, the smallest subnormal
# and the multiples of 2^-53, beside any float in [0, 1].
bar_points = st.one_of(
    st.floats(0.0, 1.0),
    st.sampled_from([0.0, 1.0, 5e-324]),
    st.integers(0, 2**53).map(lambda k: k * 2.0**-53),
)


@CASES
@given(
    base=bar_points, side=st.sampled_from((-1, 0, 1)),
    x=st.integers(0, 2**53 - 1), near=st.integers(-2, 2),
)
def test_bar_invariant(base, side, x, near):
    """For a 53-bit draw x and p in [0, 1], x < bar(p) holds exactly when
    x * 2^-53 < p: at p and at its float neighbours, for any draw and for
    the draws next to p * 2^53, in the uint64 arrays the walk compares."""
    p = float(np.clip(np.nextafter(base, side * np.inf), 0.0, 1.0)) if side else base
    cut = int(p * 2**53)  # exact: p * 2^53 is a float with no rounding
    for draw in (x, min(max(cut + near, 0), 2**53 - 1)):
        want = draw * 2.0**-53 < p
        assert bool(np.uint64(draw) < bar(p)) == want
        assert (np.array([draw], dtype=np.uint64) < bar(np.array([p]))).tolist() == [want]


@CASES
@given(
    seed=st.integers(0, 2**64 - 1),
    streams=st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4),
    agents=st.lists(st.integers(0, 2**63 - 1), min_size=1, max_size=4),
    kind=st.sampled_from((KIND_WORLD, KIND_SIGNAL, KIND_RULE)),
)
def test_finish_scales_bits_invariant(seed, streams, agents, kind):
    """``finish`` is the 53-bit draw of ``bits`` times 2^-53, bit for bit,
    for a scalar kind and for a tuple of kinds, on blocks and on scalars."""
    keys = stream_key(seed, np.array(streams, dtype=np.uint64))
    steps = step_key(np.array(agents, dtype=np.int64))[:, None]
    for kinds in (kind, (KIND_SIGNAL, KIND_RULE)):
        x = bits(keys, steps, kinds)
        assert x.dtype == np.uint64 and not (x >> np.uint64(53)).any()
        scaled = (x * 2.0**-53).view(np.uint64)
        assert np.array_equal(scaled, finish(keys, steps, kinds).view(np.uint64))
        one = bits(keys[0], steps[0, 0], kinds) * 2.0**-53
        assert np.array_equal(np.asarray(one), finish(keys[0], steps[0, 0], kinds))
    assert isinstance(finish(keys[0], steps[0, 0], kind), float)


@CASES
@given(
    n0=st.integers(1, 50), length=st.integers(0, 200), size=st.integers(1, 40),
    cuts=st.lists(st.integers(-5, 260), max_size=12),
)
def test_agent_chunks_invariant(n0, length, size, cuts):
    """The chunks cover n0..n1 in order with no gap or overlap, none holds
    more than ``size`` agents, every cut in [n0, n1) ends a chunk, and
    every other chunk end but n1 lies on the grid n0 + k * size - 1."""
    n1 = n0 + length - 1
    chunks = list(agent_chunks(n0, n1, size, cuts))
    agents = [n for lo, hi in chunks for n in range(lo, hi + 1)]
    assert agents == list(range(n0, n1 + 1))
    assert all(1 <= hi - lo + 1 <= size for lo, hi in chunks)
    ends = {hi for _, hi in chunks}
    assert {c for c in cuts if n0 <= c < n1} <= ends
    for end in ends - set(cuts) - {n1}:
        assert (end - n0 + 1) % size == 0
