"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (bypassing pytest capture) and then
asserts, so the criterion status is visible in the live terminal output.
"""

import math

import numpy as np
import pytest

from tandemlearn import (
    SignalModel,
    baseline_profile,
    block_start_masses,
    block_start_trajectory,
    brute_force_oracle,
    check_equilibrium,
    designed_profile,
    error_trajectory,
    estimate_error,
    myopic_profile,
    series_diagnostics,
    SimConfig,
)
from tandemlearn.schedule import segment_table

M37 = SignalModel(0.3, 0.7)
M46 = SignalModel(0.4, 0.6)

# Frozen first-run oracle values.
PLATEAU_LEARNING = 0.9512267602030317  # designed profile, agent 15_999_999
LEARNING_AT_1E4 = 0.8825181300823625
PLATEAU_CASCADE = 0.6  # myopic K=1, p0=0.4/p1=0.6 (bit-exact)
# Partial sums of p1^{k_m}/m and q1^{r_m}/m for 0.3/0.7 at M=10^3 and 10^6.
# An independent math.fsum over the closed-form schedule (k_m = r_m steps
# to 2 at m=8, to 3 at m=55 and to 4 at m=2981) reproduces all four to
# about 1e-13.  Between the checkpoints the convergent sum grows by
# 0.3^3 (H_2980 - H_1000) + 0.3^4 (H_1000000 - H_2980) = 0.07658, where
# H_n is the n-th harmonic number.
SUM_DIVERGENT = {10**3: 3.784604773049173, 10**6: 5.555361635924436}
SUM_CONVERGENT = {10**3: 1.0348598280407488, 10**6: 1.1114396734439607}


@pytest.fixture
def report(capfd):
    def _report(num, desc, ok):
        status = "PASS" if ok else "FAIL"
        with capfd.disabled():
            print(f"ACCEPTANCE {num}: {status} - {desc}", flush=True)
        assert ok, f"acceptance criterion {num} failed: {desc}"

    return _report


def test_criterion_1_oracle_equivalence(report):
    N = 18
    ns = list(range(1, N + 1))
    worst = 0.0
    for model in (M37, M46):
        profiles = [
            baseline_profile("constant0", 2),
            baseline_profile("copy", 2),
            designed_profile(model),
            myopic_profile(model, 1, N),
            myopic_profile(model, 2, N),
        ]
        for prof in profiles:
            tr = error_trajectory(prof, model, N, checkpoints=ns)
            bf = brute_force_oracle(prof, model, N, checkpoints=ns)
            worst = max(
                worst,
                np.max(np.abs(tr.p0_correct - bf.p0_correct)),
                np.max(np.abs(tr.p1_correct - bf.p1_correct)),
            )
    report(1, f"exact chain vs enumeration oracle, N={N}, max |diff| = {worst:.3e}",
            worst < 1e-10)


def test_criterion_2_block_start_chain(report):
    segments = 200
    dp = designed_profile(M37)
    (pi0, pi1), (imp0, imp1) = block_start_masses(dp, M37, segments)
    worst = max(
        np.max(np.abs(pi0 - block_start_trajectory(M37, 0, segments).pi)),
        np.max(np.abs(pi1 - block_start_trajectory(M37, 1, segments).pi)),
        imp0.max(),
        imp1.max(),
    )
    report(2, f"closed-form block-start chain vs window chain over {segments} "
               f"segments, max |diff| = {worst:.3e}", worst < 1e-10)


def test_criterion_3_learning_plateau(report):
    dp = designed_profile(M37)
    tab = segment_table(M37)
    _, n_star = tab.last_block_start_before(16_000_000)
    tr = error_trajectory(dp, M37, n_star, checkpoints=[10_000, n_star])
    early, plateau = tr.p_correct
    ok = (
        abs(plateau - PLATEAU_LEARNING) < 1e-9
        and abs(early - LEARNING_AT_1E4) < 1e-9
        and plateau > 0.9
        and plateau > early
    )
    report(3, f"designed profile P(x_n=theta) = {plateau:.12f} at agent {n_star} "
               f"(vs {early:.6f} at 1e4)", ok)


def test_criterion_4_cascade_plateau(report):
    mp = myopic_profile(M46, 1, 200)
    n_star = mp.cascade_onset()
    ns = list(range(n_star, 101))
    tr = error_trajectory(mp, M46, 100, checkpoints=ns)
    constant = np.all(tr.p_correct == tr.p_correct[0])
    plateau = float(tr.p_correct[0])
    ok = (
        n_star is not None
        and constant
        and plateau == PLATEAU_CASCADE
        and plateau < 0.95
    )
    report(4, f"myopic K=1 cascade onset n*={n_star}, constant plateau "
               f"{plateau}", ok)


def test_criterion_5_series_tails(report):
    lo, hi = 10**3, 10**6
    sd = series_diagnostics(M37, hi, checkpoints=[lo, hi])
    ok_exp = (
        abs(sd.alpha[1] - 0.5146) < 1e-3 and abs(sd.beta[1] - 1.737) < 1e-3
    )
    div_growth = sd.sum_p1k[1] - sd.sum_p1k[0]
    conv_growth = sd.sum_q1r[1] - sd.sum_q1r[0]
    ok_pin = (
        abs(sd.sum_p1k[0] - SUM_DIVERGENT[10**3]) < 1e-9
        and abs(sd.sum_p1k[1] - SUM_DIVERGENT[10**6]) < 1e-9
        and abs(sd.sum_q1r[0] - SUM_CONVERGENT[10**3]) < 1e-9
        and abs(sd.sum_q1r[1] - SUM_CONVERGENT[10**6]) < 1e-9
    )
    # Bounds on the growth over (lo, hi] that follow from the schedule's
    # definition once ln m is past the cutoff (ln m > 2 here).
    # r_m >= log_{1/qbar} ln m gives q1^{r_m} <= (ln m)^{-beta}; the terms
    # decrease, so their sum is at most the integral over [lo, hi].
    # k_m < log_{1/pbar} ln m + 1 gives p1^{k_m} > p1 (ln m)^{-alpha}, so
    # the sum is at least p1 times the integral over [lo + 1, hi + 1].
    alpha = math.log(M37.p1) / math.log(M37.pbar)
    beta = math.log(M37.q1) / math.log(M37.qbar)
    conv_bound = (
        math.log(lo) ** (1 - beta) - math.log(hi) ** (1 - beta)
    ) / (beta - 1)
    div_bound = M37.p1 * (
        math.log(hi + 1) ** (1 - alpha) - math.log(lo + 1) ** (1 - alpha)
    ) / (1 - alpha)
    ok_growth = conv_growth <= conv_bound and div_growth >= div_bound
    report(5, f"series exponents ({sd.alpha[1]:.4f}, {sd.beta[1]:.4f}); "
               f"convergent growth {conv_growth:.4f} <= {conv_bound:.4f}, "
               f"divergent growth {div_growth:.4f} >= {div_bound:.4f}",
           ok_exp and ok_pin and ok_growth)


def test_criterion_6_monte_carlo_consistency(report):
    dp = designed_profile(M37)
    checkpoints = (10**3, 10**4, 10**5)
    cfg = SimConfig(profile=dp, model=M37, N=10**5, reps=10**4, seed=7,
                    checkpoints=checkpoints)
    stats = estimate_error(cfg)
    exact = error_trajectory(dp, M37, 10**5, checkpoints=list(checkpoints))
    z = np.abs(stats.mean - exact.p_correct) / stats.se
    allowed_excursions = len(checkpoints) // 100
    ok = int(np.sum(z > 3.0)) <= allowed_excursions
    report(6, f"Monte Carlo (R=10^4) z-scores {np.round(z, 2).tolist()} "
               f"at checkpoints {list(checkpoints)}", ok)


def test_criterion_7_searching_never_freezes(report):
    dp = designed_profile(M37)
    cfg = SimConfig(profile=dp, model=M37, N=10**6, reps=10**3, seed=11,
                    checkpoints=(10**4, 10**6))
    stats = estimate_error(cfg)
    early, late = stats.census_median
    report(7, f"searching-phase census median {late} at 10^6 vs {early} at "
               f"10^4 (R=10^3)", late > early)


def test_criterion_8_equilibrium_checker(report):
    mp = myopic_profile(M46, 1, 1000)
    rep_a = check_equilibrium(mp, M46, delta=0.0, n_range=(1, 500), eps=1e-9,
                              horizon=500)
    dp = designed_profile(M37)
    rep_b = check_equilibrium(dp, M37, delta=0.5, n_range=(1, 500), eps=0.01,
                              horizon=20)
    ok = rep_a.passed and len(rep_b.violations) >= 1
    first = rep_b.violations[0] if rep_b.violations else None
    report(8, f"myopic delta=0 passes ({rep_a.checked} checks); designed "
               f"delta=0.5 violated at agent {first.n if first else '-'} "
               f"(gain {first.gain:.4f})" if first else "no violation found", ok)


def test_criterion_9_invariant_suites(report):
    import test_properties as props

    suites = [
        props.test_normalization_invariant,
        props.test_likelihood_ratio_coupling_invariant,
        props.test_block_start_purity_invariant,
        props.test_schedule_partition_invariant,
        props.test_product_bound_invariant,
        props.test_rng_reproducibility_invariant,
    ]
    failed = []
    for suite in suites:
        try:
            suite()
        except Exception:  # noqa: BLE001 - any failure fails the criterion
            failed.append(suite.__name__)
    report(9, f"{len(suites)} invariant suites at 10^3 cases each"
               + (f"; failed: {failed}" if failed else ""), not failed)
