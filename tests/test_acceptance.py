"""Acceptance suite: every criterion at its stated scale and tolerance.

Each test prints one PASS/FAIL line.  Seeds are fixed arbitrary constants,
chosen once and never tuned against the assertions.
"""

import time
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from kdeproc import BandwidthSchedule, KernelSpec, cf_path, dominating_path
from kdeproc import martingale as mg
from kdeproc.config import ExperimentConfig
from kdeproc.harness import run
from kdeproc.process import ancestor_blocks, simulate_batch
from kdeproc.urn import (
    anchor_fractions,
    betabinom_pmf_vector,
    descendant_tail_bound,
    window_roots,
)
from oracles import reconstruct_all, reconstruct_from_genealogy

SCHED = BandwidthSchedule.power(1.0, 0.2)
GAUSS = KernelSpec("gaussian")
FLAVORS = ("kde", "recursive")


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")


# --------------------------------------------------------------- criterion 1


def test_criterion_1_genealogy_identity():
    start = time.perf_counter()
    worst = 0.0
    h = SCHED.values(10**4)
    for flavor in FLAVORS:
        for traj in simulate_batch(flavor, h, GAUSS, 10**4, 101, range(100)):
            worst = max(worst, float(np.max(np.abs(reconstruct_all(traj) - traj.points))))
        # spot-check the single-index walker on the last trajectory
        for n in (1, 2, 5000, 10**4):
            err = np.max(np.abs(reconstruct_from_genealogy(traj, n) - traj.points[n - 1]))
            worst = max(worst, float(err))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    report("1-genealogy-identity", ok, f"max err {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


# --------------------------------------------------------------- criterion 2


def enumerate_two_step_urn() -> list[float]:
    pmf = [Fraction(0)] * 3

    def walk(left, drawn, black, total, prob):
        if left == 0:
            pmf[drawn] += prob
            return
        walk(left - 1, drawn + 1, black + 1, total + 1, prob * Fraction(black, total))
        walk(left - 1, drawn, black, total + 1, prob * Fraction(total - black, total))

    walk(2, 0, 1, 2, Fraction(1))
    return [float(p) for p in pmf]


def test_criterion_2_urn_law_exactness():
    start = time.perf_counter()
    oracle = enumerate_two_step_urn()
    pmf2 = betabinom_pmf_vector(2)
    exact_ok = bool(np.max(np.abs(pmf2 - oracle)) <= 1e-12)
    norm_err = max(abs(betabinom_pmf_vector(n).sum() - 1.0) for n in range(2, 201))
    tails_ok = True
    for n in range(2, 101):
        pmf = betabinom_pmf_vector(n)
        tails = np.cumsum(pmf[::-1])[::-1]
        bounds = np.array([descendant_tail_bound(n, k) for k in range(n + 1)])
        tails_ok = tails_ok and bool(np.all(tails <= bounds + 1e-12))
    elapsed = time.perf_counter() - start
    ok = exact_ok and norm_err <= 1e-12 and tails_ok and elapsed < 5.0
    report(
        "2-urn-law-exactness",
        ok,
        f"pmf(2) err {np.max(np.abs(pmf2 - oracle)):.1e}, norm err {norm_err:.1e}, {elapsed:.1f}s",
    )
    assert exact_ok and norm_err <= 1e-12 and tails_ok
    assert elapsed < 5.0


# --------------------------------------------------------------- criterion 3


def test_criterion_3_genealogy_urn_embedding():
    start = time.perf_counter()
    reps = 10**5
    p_values = {}
    for n in (2, 5, 10):
        counts = np.zeros(n + 1, dtype=np.int64)
        # Replication r's genealogy comes from its ancestor stream, keyed by
        # (300 + n, r), a block of replications at a time.
        for _, anc in ancestor_blocks(2 * n, 300 + n, range(reps)):
            roots = window_roots(anc, n)
            counts += np.bincount(np.count_nonzero(roots == 0, axis=1), minlength=n + 1)
        expected = betabinom_pmf_vector(n) * reps
        # merge sparse tail bins for chi-square validity
        obs, exp = [0.0], [0.0]
        for o, e in zip(counts, expected):
            obs[-1] += o
            exp[-1] += e
            if exp[-1] >= 5.0:
                obs.append(0.0)
                exp.append(0.0)
        if exp[-1] < 5.0:
            obs[-2] += obs[-1]
            exp[-2] += exp[-1]
            obs.pop()
            exp.pop()
        p_values[n] = float(stats.chisquare(obs, exp).pvalue)
    elapsed = time.perf_counter() - start
    ok = all(p > 0.001 for p in p_values.values()) and elapsed < 60.0
    report("3-genealogy-urn-embedding", ok, f"chi2 p {p_values}, {elapsed:.0f}s")
    assert all(p > 0.001 for p in p_values.values())
    assert elapsed < 60.0


# ------------------------------------------------------- criteria 4 and 5


T_GRID = (0.5, 1.0, 2.0)
TIGHT_TIMES = (10, 100, 1000)
CF_TIMES = (100, 1000)
R_DRIFT = 2000
DRIFT_LENGTH = 1001


@pytest.fixture(scope="module")
def drift_data():
    """Shared replication sweep for the two drift criteria."""
    data = {}
    ew1 = GAUSS.norm_mean
    h = SCHED.values(DRIFT_LENGTH + 1)
    for flavor in FLAVORS:
        comp = mg.compensator_values(flavor, h, ew1, DRIFT_LENGTH - 1)
        corrections = {
            t: mg.cf_corrections(SCHED, h, GAUSS, t, DRIFT_LENGTH, flavor) for t in T_GRID
        }
        # |S_n| = |P_n| |path_n| <= |P_n| for either flavor, the bound
        # diagnose reports as cf_martingale_modulus.
        sup_allowed = max(float(np.max(np.abs(c))) for c, _ in corrections.values())
        tight = {n: np.empty(R_DRIFT) for n in TIGHT_TIMES}
        cf_inc = {(t, n): np.empty(R_DRIFT, dtype=complex) for t in T_GRID for n in CF_TIMES}
        sup_mod = 0.0
        trajectories = simulate_batch(flavor, h, GAUSS, DRIFT_LENGTH, 45000, range(R_DRIFT))
        for r, traj in enumerate(trajectories):
            u = dominating_path(traj)
            j = np.cumsum(u) / np.arange(1, DRIFT_LENGTH + 1, dtype=float)
            for n in TIGHT_TIMES:
                tight[n][r] = j[n] - j[n - 1] - comp[n - 1]
            for t in T_GRID:
                corr, kernel_cf = corrections[t]
                s_vals = corr * cf_path(traj, t, kernel_cf)[1]
                sup_mod = max(sup_mod, float(np.max(np.abs(s_vals))))
                for n in CF_TIMES:
                    cf_inc[(t, n)][r] = s_vals[n] - s_vals[n - 1]
        data[flavor] = {
            "tight": tight,
            "cf_inc": cf_inc,
            "sup_mod": sup_mod,
            "sup_allowed": sup_allowed,
        }
    return data


def test_criterion_4_tightness_drift(drift_data):
    start = time.perf_counter()
    worst = 0.0
    detail = []
    for flavor in FLAVORS:
        for n in TIGHT_TIMES:
            inc = drift_data[flavor]["tight"][n]
            res = mg.drift_test(inc)
            worst = max(worst, res["statistic"])
            detail.append(f"{flavor[:3]}:n={n}:z={res['z_re']:+.2f}")
    elapsed = time.perf_counter() - start
    ok = worst < 4.0
    report("4-tightness-drift", ok, f"max|z|={worst:.2f} [{', '.join(detail)}]")
    assert worst < 4.0
    assert elapsed < 120.0


def test_criterion_5_cf_drift_and_bounds(drift_data):
    start = time.perf_counter()
    worst = 0.0
    for flavor in FLAVORS:
        for t in T_GRID:
            for n in CF_TIMES:
                res = mg.drift_test(drift_data[flavor]["cf_inc"][(t, n)])
                worst = max(worst, res["statistic"])
    bound_slack = max(
        drift_data[f]["sup_mod"] - drift_data[f]["sup_allowed"] for f in FLAVORS
    )
    elapsed = time.perf_counter() - start
    ok = worst < 4.0 and bound_slack <= 1e-10
    report(
        "5-cf-drift-and-bounds",
        ok,
        f"max|z|={worst:.2f}, bound slack {bound_slack:.2e}",
    )
    assert worst < 4.0
    assert bound_slack <= 1e-10
    assert elapsed < 180.0


# --------------------------------------------------------------- criterion 6


def test_criterion_6_lemma_product():
    start = time.perf_counter()
    t = 1.0
    grid = [64, 256, 1024, 4096, 16384, 65536, 262144]
    f = mg._log_factor_fn(SCHED, GAUSS, np.array([t]), "kde")
    partials = {}
    for m in grid:
        k = np.arange(1, m + 1, dtype=float)
        partials[m] = complex(np.exp(np.sum(f(k))))
    cauchy_ok = True
    for m1, m2 in zip(grid, grid[1:]):
        bound = mg.product_tail_bound(SCHED, GAUSS, t, m1 + 1, "kde")
        allowed = abs(partials[m1]) * np.expm1(bound) + 1e-12
        cauchy_ok = cauchy_ok and abs(partials[m2] - partials[m1]) <= allowed
    res = mg.lemma_product_tail(SCHED, GAUSS, t, 10**4, "kde")
    band = np.expm1(res.lemma_bound) + res.numerical_error
    in_band = abs(res.value - 1.0) <= band and res.value != 0
    elapsed = time.perf_counter() - start
    ok = cauchy_ok and in_band and elapsed < 5.0
    report(
        "6-lemma-product",
        ok,
        f"|P-1|={abs(res.value - 1):.3f} <= band {band:.3f}, Cauchy {cauchy_ok}, {elapsed:.1f}s",
    )
    assert cauchy_ok
    assert in_band
    assert elapsed < 5.0


# --------------------------------------------------------------- criterion 7


def test_criterion_7_convergence_proxy():
    start = time.perf_counter()
    n_final = 10**5
    checkpoints = (10**4, 25 * 10**3, 5 * 10**4)
    means = {}
    ok = True
    h = SCHED.values(n_final)
    kernel_cfs = {t: GAUSS.cf_scaled(t, h) for t in T_GRID}
    for flavor in FLAVORS:
        dists = {n: np.empty(50) for n in checkpoints}
        for r, traj in enumerate(simulate_batch(flavor, h, GAUSS, n_final, 700, range(50))):
            phis = {t: cf_path(traj, t, kernel_cfs[t])[0] for t in T_GRID}
            for n in checkpoints:
                dists[n][r] = max(abs(phis[t][n - 1] - phis[t][n_final - 1]) for t in T_GRID)
        means[flavor] = [float(dists[n].mean()) for n in checkpoints]
        ok = ok and all(a >= b for a, b in zip(means[flavor], means[flavor][1:]))
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 600.0
    report("7-convergence-proxy", ok, f"mean distances {means}, {elapsed:.0f}s")
    for flavor in FLAVORS:
        assert all(a >= b for a, b in zip(means[flavor], means[flavor][1:])), means
    assert elapsed < 600.0


# --------------------------------------------------------------- criterion 8


def test_criterion_8_support_dichotomy(tmp_path):
    """Record-proportion contrast at the stated scale.

    Honest status: at this exact scale both flavors break their running-max
    records in the last half at nearly identical rates.  The argmax's
    children set records at rate 1/n under either bandwidth rule, and the
    non-negative kernel makes every such child a strict record, so the two
    record streams share their dominant mechanism.  Measured across 1000
    replications per flavor, the proportion difference is about 0.01 (0.005
    and 0.011 under two stream derivations), nearly an order of magnitude
    below what a p < 0.01 two-proportion test at R = 200 can detect, so this
    check fails by construction: this run gives kde 0.855 against recursive
    0.865, p = 0.387.  The mean final maxima printed below (5.16 vs 6.02)
    are no evidence either: both flavors
    run from one master seed, so replication r of each shares its ancestors
    and kernel draws, and with Y >= 0 and a non-increasing schedule every
    recursive point is at least its kde twin.  See README for details.
    """
    start = time.perf_counter()
    cfg = ExperimentConfig(
        kernel_family="half_normal",
        bandwidth_c=1.0,
        bandwidth_delta=0.3,
        steps=10**5,
        replications=200,
        master_seed=20260810,
        base_dir=str(tmp_path),
    )
    rep = run(cfg, "contrast")
    kde, recursive = rep["kde"], rep["recursive"]
    kde_late = kde["last_half_record_fraction"]
    recursive_late = recursive["last_half_record_fraction"]
    elapsed = time.perf_counter() - start
    ok = recursive_late > kde_late and rep["p_value"] < 0.01 and elapsed < 600.0
    report(
        "8-support-dichotomy",
        ok,
        f"kde {kde_late:.3f} vs recursive {recursive_late:.3f}, p={rep['p_value']:.3f}, "
        f"mean max {kde['mean_final_max']:.2f} vs {recursive['mean_final_max']:.2f}, "
        f"{elapsed:.0f}s",
    )
    assert recursive_late > kde_late, (
        "record-proportion direction did not materialize at this scale"
    )
    assert rep["p_value"] < 0.01, (
        "the record-occurrence proportions differ by ~0.01 at this scale, so a "
        "p < 0.01 two-proportion test at R = 200 is unreachable; see this test's "
        "docstring and README"
    )
    assert elapsed < 600.0


# --------------------------------------------------------------- criterion 9


def test_criterion_9_beta_limit():
    start = time.perf_counter()
    anchor, horizon, reps = 5, 10**4, 2000
    finals = np.empty(reps)
    # Replication r's genealogy comes from its ancestor stream, keyed by
    # (900, r), a block of replications at a time.
    for block, anc in ancestor_blocks(horizon, 900, range(reps)):
        finals[block.start : block.stop] = anchor_fractions(anc, anchor, horizon)
    res = stats.kstest(finals, stats.beta(1, anchor - 1).cdf)
    elapsed = time.perf_counter() - start
    ok = res.pvalue > 0.001 and elapsed < 120.0
    report("9-beta-limit", ok, f"KS stat {res.statistic:.4f}, p={res.pvalue:.3f}, {elapsed:.0f}s")
    assert res.pvalue > 0.001
    assert elapsed < 120.0


# -------------------------------------------------------------- criterion 10


def test_criterion_10_determinism(tmp_path):
    import hashlib

    start = time.perf_counter()
    cfg = ExperimentConfig(
        flavor="recursive",
        steps=300,
        replications=100,
        master_seed=1010,
        checkpoints=(30, 100, 200),
        drift_times=(10, 100),
        base_dir=str(tmp_path),
    )
    run(cfg.with_overrides(output_dir="a"), "diagnose")
    run(cfg.with_overrides(output_dir="a2"), "diagnose")
    run(cfg.with_overrides(output_dir="s1"), "simulate")
    run(cfg.with_overrides(output_dir="s2"), "simulate")

    def tree_hash(sub):
        acc = hashlib.sha256()
        root = tmp_path / sub
        for p in sorted(root.rglob("*")):
            if p.is_file():
                acc.update(p.name.encode())
                acc.update(p.read_bytes())
        return acc.hexdigest()

    same_diag = tree_hash("a") == tree_hash("a2")
    same_sim = tree_hash("s1") == tree_hash("s2")
    elapsed = time.perf_counter() - start
    ok = same_diag and same_sim
    report("10-determinism", ok, f"diagnose {same_diag}, simulate {same_sim}, {elapsed:.1f}s")
    assert same_diag and same_sim
