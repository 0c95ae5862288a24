import json

import numpy as np
import pytest
from conftest import reference_run

from tandemlearn import (
    ArgumentError,
    RoleKind,
    SimConfig,
    baseline_profile,
    designed_profile,
    error_trajectory,
    estimate_error,
    montecarlo,
    myopic_profile,
    profile_from_dict,
    rng,
    simulate_path,
)
from tandemlearn.chain import agent_chunks, sweep
from tandemlearn.cli import EXIT_USAGE_ERROR, main


def _config(profile, model, **kw):
    defaults = dict(N=400, reps=64, seed=123, checkpoints=(100, 400))
    defaults.update(kw)
    return SimConfig(profile=profile, model=model, **defaults)


def test_path_is_reproducible(m37):
    cfg = _config(designed_profile(m37), m37)
    a = simulate_path(cfg, 5)
    b = simulate_path(cfg, 5)
    assert a == b


def test_path_matches_vectorized_batch(m37):
    # replication r of the batch run equals the standalone path run
    cfg = _config(designed_profile(m37), m37, reps=8)
    paths = [simulate_path(cfg, r) for r in range(8)]
    stats = estimate_error(cfg)
    for n_idx, n in enumerate(stats.ns):
        batch_mean = stats.mean[n_idx]
        solo_mean = np.mean([p.correct[n] for p in paths])
        assert batch_mean == pytest.approx(solo_mean, abs=1e-12)


def test_seed_changes_draws(m37):
    cfg_a = _config(designed_profile(m37), m37, seed=1)
    cfg_b = _config(designed_profile(m37), m37, seed=2)
    assert simulate_path(cfg_a, 0) != simulate_path(cfg_b, 0)


def test_forced_state_of_the_world(m37):
    cfg = _config(designed_profile(m37), m37, theta=1, reps=16)
    assert all(simulate_path(cfg, r).theta == 1 for r in range(16))
    cfg = _config(designed_profile(m37), m37, theta=0, reps=16)
    assert all(simulate_path(cfg, r).theta == 0 for r in range(16))


def test_state_of_the_world_must_be_none_0_or_1(m37):
    dp = designed_profile(m37)
    for theta in (2, -1, 0.5, "1"):
        with pytest.raises(ValueError):
            _config(dp, m37, theta=theta)
    assert [_config(dp, m37, theta=t).theta for t in (None, 0, 1)] == [None, 0, 1]


def test_prior_draw_balances_states(m37):
    cfg = _config(designed_profile(m37), m37, reps=4000, N=3, checkpoints=(3,))
    thetas = [simulate_path(cfg, r).theta for r in range(200)]
    assert 0.3 < np.mean(thetas) < 0.7


def test_constant_profile_statistics(m37):
    cfg = _config(baseline_profile("constant0", 2), m37, reps=32)
    stats = estimate_error(cfg)
    # constant decisions are correct exactly when theta = 0
    for n_idx in range(len(stats.ns)):
        assert (1.0 - stats.mean[n_idx]) == pytest.approx(
            np.mean([simulate_path(cfg, r).theta for r in range(32)])
        )
    assert np.all(stats.census_median == 0)  # nothing ever searches
    assert stats.switches_quantiles[90] == 0.0


def test_estimate_matches_exact_chain(m37):
    dp = designed_profile(m37)
    cfg = _config(dp, m37, N=600, reps=3000, checkpoints=(200, 600))
    stats = estimate_error(cfg)
    exact = error_trajectory(dp, m37, 600, checkpoints=[200, 600])
    for i in range(2):
        assert abs(stats.mean[i] - exact.p_correct[i]) < 4 * stats.se[i]
        assert stats.se[i] == pytest.approx(
            np.sqrt(stats.mean[i] * (1 - stats.mean[i]) / cfg.reps)
        )


def test_checkpoints_sorted_and_defaulted(m37):
    dp = designed_profile(m37)
    cfg = SimConfig(profile=dp, model=m37, N=50, reps=4, seed=0,
                    checkpoints=(50, 10))
    assert cfg.checkpoints == (10, 50)
    cfg = SimConfig(profile=dp, model=m37, N=50, reps=4, seed=0)
    assert cfg.checkpoints == (50,)


def test_searching_census_grows_with_horizon(m37):
    dp = designed_profile(m37)
    cfg = _config(dp, m37, N=20_000, reps=200, checkpoints=(1_000, 20_000))
    stats = estimate_error(cfg)
    assert stats.census_mean[1] > stats.census_mean[0]


@pytest.mark.parametrize("fields, argv", [
    (dict(reps=0), None),
    (dict(N=0), None),
    (dict(seed=-1), ["--n", "10", "--seed", "-1"]),
    (dict(theta=2), None),
    (dict(N=10, checkpoints=(0, 5)), ["--n", "10", "--checkpoints", "0,5"]),
    (dict(N=10, checkpoints=(50,)), ["--n", "10", "--checkpoints", "50"]),
    (dict(reps=2.5), None),
    (dict(N=1.5, checkpoints=()), None),
    (dict(N=True, checkpoints=()), None),
    (dict(N="5", checkpoints=()), None),
    (dict(N=None, checkpoints=()), None),
    (dict(theta=True), None),
], ids=["reps", "agents", "seed", "theta", "checkpoint-0", "checkpoint-past-n",
        "reps-fraction", "agents-fraction", "agents-bool", "agents-text", "agents-none",
        "theta-bool"])
def test_config_checks_raise_argument_error(fields, argv, m37, capsys):
    """Each check of ``SimConfig`` raises ``ArgumentError``; a command line
    that reaches it exits 4 with the library's reason."""
    with pytest.raises(ArgumentError) as info:
        _config(designed_profile(m37), m37, **fields)
    if argv is not None:
        assert main(["simulate", *argv, "--model", "0.3,0.7"]) == EXIT_USAGE_ERROR
        assert json.loads(capsys.readouterr().out)["reason"] == str(info.value)


def test_seed_must_lie_in_the_uint64_range(m37):
    dp = designed_profile(m37)
    for seed in (-1, 1 << 64, 1.5, "3", True):
        with pytest.raises(ValueError):
            _config(dp, m37, seed=seed)
    assert _config(dp, m37, seed=(1 << 64) - 1).seed == (1 << 64) - 1


def test_replication_is_checked_as_the_seed_is(m37):
    """A replication outside [0, 2^64), a float or a bool is refused, not
    wrapped, truncated or recorded as given."""
    cfg = _config(designed_profile(m37), m37, N=20, checkpoints=(20,))
    for replication in (-1, 1 << 64, 1.5, "3", True):
        with pytest.raises(ArgumentError, match="replication must be an integer"):
            simulate_path(cfg, replication)
    assert simulate_path(cfg, (1 << 64) - 1).stream == (1 << 64) - 1
    assert simulate_path(cfg, np.uint64(7)) == simulate_path(cfg, 7)


# ---------------------------------------------------------------------------
# Block draws and the chunked loop against the agent-by-agent reference.
# ---------------------------------------------------------------------------


def test_uniform_blocks_equal_scalar_draws():
    streams = np.array([0, 1, 7, 2**33, 2**63 + 5], dtype=np.uint64)
    steps = np.array([0, 1, 2, 999, 2**40])[:, None]
    kinds = (rng.KIND_WORLD, rng.KIND_SIGNAL, rng.KIND_RULE)
    for seed in (0, 3, 2**64 - 1):
        for kind in kinds:
            block = rng.uniform(seed, streams, steps, kind)
            assert block.shape == (5, 5) and block.dtype == np.float64
            for i, step in enumerate(steps[:, 0].tolist()):
                for j, stream in enumerate(streams.tolist()):
                    assert block[i, j] == rng.uniform(seed, stream, step, kind)
            assert np.array_equal(rng.uniform(seed, 7, steps, kind), block[:, 2:3])
        # A tuple of kinds stacks the draws of each kind along a leading axis.
        for pair in (kinds, (rng.KIND_SIGNAL, rng.KIND_RULE), (rng.KIND_RULE,)):
            stacked = rng.uniform(seed, streams, steps, pair)
            assert stacked.shape == (len(pair), 5, 5)
            for block, kind in zip(stacked, pair):
                assert np.array_equal(block, rng.uniform(seed, streams, steps, kind))
            scalars = rng.uniform(seed, 7, 999, pair)
            assert scalars.tolist() == [rng.uniform(seed, 7, 999, kind) for kind in pair]
    # Draws of the hash as first defined, so neither path can drift.
    assert rng.uniform(0, 0, 0, 0) == 0.7141855929184249
    assert rng.uniform(7, 3, 12345, 1) == 0.5969638276693716
    assert rng.uniform(2**64 - 1, 2**40, 2**31, 2) == 0.4379082653589881
    assert isinstance(rng.uniform(0, 0, 0, 0), float)


def test_finish_array_path_raises_nothing():
    """``finish`` on arrays of stream and step keys makes no floating-point
    or integer warning (uint64 array arithmetic wraps silently), and its
    draws equal the scalar ones."""
    streams = np.array([0, 1, 7, 2**33, 2**63 + 5], dtype=np.uint64)
    steps = np.array([0, 1, 2, 999, 2**40], dtype=np.uint64)
    seed = 2**64 - 1
    keys, step_keys = rng.stream_key(seed, streams), rng.step_key(steps)
    pair = (rng.KIND_SIGNAL, rng.KIND_RULE)
    want = {
        kind: np.array([[rng.uniform(seed, r, n, kind) for r in streams.tolist()]
                        for n in steps.tolist()])
        for kind in pair
    }
    with np.errstate(all="raise"):
        aligned = {kind: rng.finish(keys, step_keys, kind) for kind in pair}
        block = rng.finish(keys, step_keys[:, None], rng.KIND_RULE)
        stacked = rng.finish(keys, step_keys[:, None], pair)
    for kind in pair:
        assert np.array_equal(aligned[kind], np.diagonal(want[kind]))
    assert np.array_equal(block, want[rng.KIND_RULE])
    assert stacked.dtype == np.float64 and stacked.shape == (2, 5, 5)
    assert np.array_equal(stacked, np.stack([want[kind] for kind in pair]))


def _assert_same_run(got, want):
    """Every field of two ``_run`` results equal, dtype for dtype."""
    assert len(got) == len(want)
    for a, b in zip(got, want):
        if isinstance(b, dict):
            assert list(a) == list(b)
            pairs = [(a[n], b[n]) for n in b]
        else:
            pairs = [(a, b)]
        for x, y in pairs:
            assert x.dtype == y.dtype and x.shape == y.shape
            assert np.array_equal(x, y)


def _entry(gen, K, kind):
    """A JSON rule entry: ``fixed`` has 0/1 entries only, ``blind`` ignores
    the signal, ``mixed`` has blind, 0/1 and randomised rows."""
    rows = {}
    for u in range(1 << K):
        row = kind if kind != "mixed" else ("fixed", "blind", "random")[u % 3]
        if row == "fixed":
            t = gen.integers(0, 2, size=2).astype(float)
        elif row == "blind":
            t = np.full(2, gen.random())
        else:
            t = gen.random(2)
        rows[format(u, f"0{K}b")] = {"0": float(t[0]), "1": float(t[1])}
    return rows


STREAMS = 37
_EDGE = 45  # agents per K=2 table chunk under _SMALL_TABLES
_SMALL_TABLES = _EDGE * (montecarlo._WINDOW_BYTES << 2)


def _straddling_json(m37):
    """K=2 overrides on both sides of the first two small-chunk ends."""
    gen = np.random.default_rng(5)
    agents = [_EDGE - 1, _EDGE, _EDGE + 1, 2 * _EDGE, 2 * _EDGE + 1]
    kinds = ["fixed", "blind", "mixed", "mixed", "fixed"]
    spec = {
        "K": 2,
        "default": _entry(gen, 2, "mixed"),
        "agents": {str(n): _entry(gen, 2, kind) for n, kind in zip(agents, kinds)},
    }
    return profile_from_dict(spec), 2 * _EDGE + 40


def _random_k6(m37):
    gen = np.random.default_rng(6)
    N = 600
    kinds = ("fixed", "blind", "mixed")
    spec = {
        "K": 6,
        "agents": {str(n): _entry(gen, 6, kinds[gen.integers(3)]) for n in range(1, N + 1)},
    }
    return profile_from_dict(spec), N


def _follow_until_1(m37):
    """K=1: window 0 follows the signal and window 1 decides 1, so a stream
    passes a chunk in one jump once it has decided 1 and stops at every
    agent before: streams leave a chunk at very different passes."""
    spec = {"K": 1, "default": {"0": {"0": 0, "1": 1}, "1": {"0": 1, "1": 1}}}
    return profile_from_dict(spec), 1000


PROFILES = {
    "designed": lambda m: (designed_profile(m), 2 * _EDGE + 100),
    "follow-until-1": _follow_until_1,
    "myopic-k1": lambda m: (myopic_profile(m, 1, 300), 1000),
    "myopic-k3": lambda m: (myopic_profile(m, 3, 1200), 1200),
    "copy-k3": lambda m: (baseline_profile("copy", 3), 900),
    "json-straddling": _straddling_json,
    "random-k6": _random_k6,
}


def _inside_a_jump(profile, N):
    """The middle agent of the longest run of agents in 2..N whose rows at
    the all-zero and all-one windows draw nothing and start no search: a
    stream at either window passes it inside one jump.  Agent 1 when there
    is no such run."""
    tables = profile.rule_table_chunk(1, N)[:, [0, -1]]
    search = profile.search_table_chunk(1, N)[:, [0, -1]]
    fixed = np.isin(tables, (0.0, 1.0)) & (tables[..., :1] == tables[..., 1:])
    quiet = fixed.all(axis=(1, 2)) & ~search.any(axis=(1, 2))
    best, run, best_end = 0, 0, 0
    for n in range(2, N + 1):
        run = run + 1 if quiet[n - 1] else 0
        if run > best:
            best, best_end = run, n
    return max(best_end - best // 2, 1)


@pytest.mark.parametrize("table_bytes", [None, _SMALL_TABLES, 1480, 128])
@pytest.mark.parametrize("name", sorted(PROFILES))
def test_run_matches_reference_run(name, table_bytes, m37, monkeypatch):
    """Table chunks of the default size, of _EDGE agents at K=2, of at
    most five agents (1480 bytes) and of one agent with 16-stream groups
    (128 bytes).  Checkpoints at agent 1, inside a deterministic jump, and
    on both sides of every second chunk end, so that other chunk ends fall
    where no checkpoint cuts the walk."""
    if table_bytes is not None:
        monkeypatch.setattr(montecarlo, "_TABLE_BYTES", table_bytes)
    if table_bytes == 128:
        monkeypatch.setattr(montecarlo, "_GROUP", 16)
    profile, N = PROFILES[name](m37)
    size = montecarlo._chunk_agents(profile.K)
    cps = {1, N, _inside_a_jump(profile, N)}
    cps |= {e + d for e in range(size, N, 2 * size) for d in (0, 1)}
    cfg = SimConfig(profile=profile, model=m37, N=N, reps=STREAMS, seed=11, checkpoints=tuple(cps))
    streams = np.arange(STREAMS)
    _assert_same_run(montecarlo._run(cfg, streams), reference_run(cfg, streams))


def _reference_jumps(tables, search, n0):
    """``_jump_tables`` state by state and edge by edge, with every one of
    the (count - 1).bit_length() doubling rounds: the reference for the
    early end of its rounds."""
    count, S = tables.shape[:2]
    K = S.bit_length() - 1
    end = count << K
    table, search = tables.reshape(end, 2), search.reshape(end, 2)
    stop = (table[:, 0] != table[:, 1]) | ((table[:, 0] > 0) & (table[:, 0] < 1))
    stop |= search.any(axis=1)

    def succ(state, x):  # the state after the agent of ``state`` decides x
        i, u = state >> K, state & (S - 1)
        return np.where(state < end, ((i + 1) << K) | (((u << 1) | x) & (S - 1)), state)

    def last(state, x):  # the last switch that decision reads, or 0
        i, u = state >> K, state & (S - 1)
        moved = ((u & 1) != x) & (state < end) & ((i > 0) | (n0 > 1))
        return np.where(moved, i + 1, 0)

    states = np.arange(end + S)
    go = np.append(~stop, np.zeros(S, dtype=bool))
    x = np.append(table[:, 0] == 1.0, np.zeros(S, dtype=bool)).astype(np.int64)
    nxt = np.where(go, succ(states, x), states)
    lst = np.where(go, last(states, x), 0)
    sw = (lst > 0).astype(np.int64)
    for _ in range((count - 1).bit_length()):
        sw, lst, nxt = sw + sw[nxt], np.maximum(lst, lst[nxt]), nxt[nxt]
    edges = np.arange(2 * (end + S))
    e_succ, e_last = succ(edges >> 1, edges & 1), last(edges >> 1, edges & 1)
    e_search = np.append(search.reshape(-1), np.zeros(2 * S, dtype=bool))
    counts = sw[e_succ] + (e_last > 0) + (e_search.astype(np.int64) << 32)
    return montecarlo._Jumps(
        n0=n0,
        end=end,
        entry=table.reshape(-1),
        start=(nxt[:S] << 1, sw[:S], lst[:S]),  # stops by their edge base
        edge=(nxt[e_succ] << 1, counts, np.maximum(e_last, lst[e_succ])),
    )


def _random_k2():
    rows = {format(u, "02b"): {"0": 0.2 + 0.1 * u, "1": 0.35 + 0.1 * u} for u in range(4)}
    return profile_from_dict({"K": 2, "default": rows})


@pytest.mark.parametrize(
    "name, n0, n1",
    [("designed", 1, 600), ("designed", 4000, 8095), ("myopic-k3", 1, 1200),
     ("myopic-k3", 37, 300), ("copy-k3", 1, 900), ("copy-k3", 2, 514),
     ("random-k2", 1, 300), ("random-k2", 301, 301)],
)
def test_jump_tables_equal_every_round(name, n0, n1, m37):
    """Pointer doubling that ends once every pointer rests on a stop or a
    chunk end gives the tables of all (count - 1).bit_length() rounds: on
    chunks with stops, on the stopless copy profile (every round needed)
    and on a profile whose every row is a stop.  A chunk with stops also
    tables the bar of every edge and the step key of its agent."""
    profile = _random_k2() if name == "random-k2" else PROFILES[name](m37)[0]
    tables, search = profile.rule_table_chunk(n0, n1), profile.search_table_chunk(n0, n1)
    got = montecarlo._jump_tables(tables, search, n0)
    want = _reference_jumps(tables, search, n0)
    assert (got.n0, got.end) == (want.n0, want.end)
    assert np.array_equal(got.entry, want.entry)
    for a, b in zip(got.start, want.start):
        assert np.array_equal(a, b)
    if got.edge[0] is None:  # only where every edge leads out of the chunk
        assert name == "copy-k3" and (want.edge[0] >= 2 * want.end).all()
    else:
        for a, b in zip(got.edge, want.edge):
            assert np.array_equal(a, b)
        bars, steps = got.draws  # per edge, chunk ends included in the step keys
        agents = n0 + (np.arange(len(steps)) // (2 * tables.shape[1]))
        assert np.array_equal(steps, rng.step_key(agents))
        assert np.array_equal(bars, rng.bar(want.entry))


def test_checkpoint_inside_a_jump_cuts_it(m37):
    """The designed profile's longest quiet stretch holds a checkpoint that
    streams at a consensus window reach inside a jump, and the walk stops
    there with the reference's decisions."""
    profile, N = PROFILES["designed"](m37)
    n = _inside_a_jump(profile, N)
    cfg = SimConfig(profile=profile, model=m37, N=N, reps=STREAMS, seed=11,
                    checkpoints=(n - 2, n - 1, n, N))
    streams = np.arange(STREAMS)
    got = montecarlo._run(cfg, streams)
    _assert_same_run(got, reference_run(cfg, streams))
    assert (got[1][n - 2] == got[1][n - 1]).any()  # some window before agent n is 00 or 11


@pytest.mark.parametrize("theta, offset", [(1, 1000), (0, 5), (None, 2**40)])
def test_run_matches_reference_with_offset_and_forced_state(theta, offset, m46, monkeypatch):
    monkeypatch.setattr(montecarlo, "_TABLE_BYTES", _SMALL_TABLES)
    profile = designed_profile(m46)
    cfg = SimConfig(profile=profile, model=m46, N=1500, reps=STREAMS, seed=3, theta=theta,
                    checkpoints=(1, _EDGE, _EDGE + 1, 1500))
    streams = offset + np.arange(STREAMS)
    got = montecarlo._run(cfg, streams)
    _assert_same_run(got, reference_run(cfg, streams))
    record = simulate_path(cfg, offset + 4)  # one stream through the same chunks
    assert record.stream == offset + 4
    assert record.decisions == {n: int(x[4]) for n, x in got[1].items()}


def test_jump_tables_are_built_once_per_chunk_for_all_groups(m37, monkeypatch):
    """With 16-stream groups, 100 streams walk every chunk in seven groups
    on tables built once for the chunk, and match the reference."""
    monkeypatch.setattr(montecarlo, "_GROUP", 16)
    monkeypatch.setattr(montecarlo, "_TABLE_BYTES", _SMALL_TABLES)
    built = []
    real = montecarlo._jump_tables

    def counted(*args):
        built.append(args[2])
        return real(*args)

    monkeypatch.setattr(montecarlo, "_jump_tables", counted)
    profile, N = PROFILES["designed"](m37)
    cfg = SimConfig(profile=profile, model=m37, N=N, reps=100, seed=5, checkpoints=(_EDGE, N))
    streams = np.arange(100)
    got = montecarlo._run(cfg, streams)
    chunks = list(agent_chunks(1, N, montecarlo._chunk_agents(profile.K), cfg.checkpoints))
    assert len(chunks) > 1
    assert built == [n0 for n0, _ in chunks]
    _assert_same_run(got, reference_run(cfg, streams))


@pytest.mark.parametrize("reps, group", [(1, None), (1000, None), (10**4, None), (40, 16)])
def test_draws_stay_within_the_group_bound(reps, group, m37, monkeypatch):
    """Every draw array holds at most one entry per kind and stream of a
    group, and the designed profile at N=2500, R=1000 draws at most 0.25
    uniforms per agent-replication (its stops are about 9% of them).
    Every draw, the walk's and the world's, is made by ``rng.bits``."""
    if group is not None:
        monkeypatch.setattr(montecarlo, "_GROUP", group)
    shapes = []
    real = rng.bits

    def counted(*args):
        out = real(*args)
        shapes.append(np.shape(out))
        return out

    monkeypatch.setattr(rng, "bits", counted)
    N = 2500
    cfg = SimConfig(profile=designed_profile(m37), model=m37, N=N, reps=reps, seed=2,
                    checkpoints=(1000, N))
    montecarlo._run(cfg, np.arange(reps))
    assert shapes and max(shape[-1] for shape in shapes) <= montecarlo._GROUP
    assert max(np.prod(shape) for shape in shapes) <= 2 * montecarlo._GROUP
    assert sum(len(shape) == 2 for shape in shapes) > 1  # the walk's (kind, stream) blocks
    if reps == 1000:
        assert sum(np.prod(shape) for shape in shapes) / (N * reps) <= 0.25


# ---------------------------------------------------------------------------
# The searching census against its exact expectation.
# ---------------------------------------------------------------------------


def _expected_census(profile, model, checkpoints):
    """E[census at n]: P(v = (0,0)) P(s=1|theta)/m summed over S-block
    openers and P(v = (1,1)) P(s=0|theta)/m over R-block openers up to n,
    from the exact window laws, averaged over theta."""
    N = max(checkpoints)
    kinds, inv_m = profile.segments.role_codes(1, N)
    agents = np.arange(1, N + 1)
    openers = np.flatnonzero((kinds == RoleKind.S_FIRST) | (kinds == RoleKind.R_FIRST))
    laws = sweep(profile, model, N, record_after=agents[openers] - 1)
    terms = np.zeros(len(openers))
    for theta in (0, 1):
        p1 = model.p(theta)
        for i, a in enumerate(openers):
            d = laws[a][theta]  # the window law after agent a, before opener a + 1
            if kinds[a] == RoleKind.S_FIRST:
                terms[i] += 0.5 * d[0] * p1 * inv_m[a]
            else:
                terms[i] += 0.5 * d[3] * (1.0 - p1) * inv_m[a]
    return np.array([terms[agents[openers] <= n].sum() for n in checkpoints])


def test_census_mean_matches_exact_expectation(m37):
    dp = designed_profile(m37)
    checkpoints = (1000, 20_000)
    cfg = SimConfig(profile=dp, model=m37, N=20_000, reps=2000, seed=3, checkpoints=checkpoints)
    stats = estimate_error(cfg)
    census = montecarlo._run(cfg, np.arange(cfg.reps))[2]
    expect = _expected_census(dp, m37, checkpoints)
    for i, n in enumerate(checkpoints):
        assert stats.census_mean[i] == census[n].mean()
        se = census[n].std() / np.sqrt(cfg.reps)
        assert abs(stats.census_mean[i] - expect[i]) <= 4 * se, (n, stats.census_mean[i], expect[i])
