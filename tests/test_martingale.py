"""Martingale traces: compensators, product corrections, drift tests."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdeproc import (
    BandwidthSchedule,
    DrawStreams,
    KernelSpec,
    cf_path,
    dominating_path,
    simulate,
)
from kdeproc import martingale as mg
from kdeproc.config import ExperimentConfig
from kdeproc.errors import (
    MissingGenealogy,
    NoEnvelope,
    ToleranceNotReached,
    TooFewReplications,
    ZeroDenominator,
    ZeroFactor,
)
from kdeproc.harness import run

SCHED = BandwidthSchedule.power(1.0, 0.2)
# One read of SCHED, sliced by every test as a run slices its own.
H = SCHED.values(10_001)
GAUSS = KernelSpec("gaussian")
HALF = KernelSpec("half_normal")


def tightness(traj, schedule, ew1):
    """(U, J, tail, S) along a trajectory, composed as cf-trace composes them:
    the running mean of the dominating path plus the compensator tail."""
    u = dominating_path(traj)
    j = np.cumsum(u) / np.arange(1, len(traj) + 1, dtype=float)
    tail = mg.compensator_tails(traj.flavor, schedule, schedule.values(len(traj)), ew1,
                                len(traj))
    return u, j, tail, j + tail


def markov_excess(flavor, u, j, kernel, threshold, times=None):
    """Largest tail mass minus Markov bound over the checked times (every
    n = 1..N-1 unless given), the bound formed as ``diagnose`` forms it:
    (J_n + (n + 1) c_n) / threshold."""
    n_pts = len(u)
    times = np.arange(1, n_pts) if times is None else np.asarray(times)
    h = SCHED.values(n_pts - 1)
    comp = mg.compensator_values(flavor, h, kernel.norm_mean, n_pts - 1)
    tail_mass = mg.dominating_tail_mass(flavor, u, h, kernel, threshold, times)
    bound = (j[times - 1] + (times + 1) * comp[times - 1]) / threshold
    return float(np.max(tail_mass - bound)), tail_mass, bound


def tail_prob_bound_oracle(flavor, dominating, running_mean, schedule, kernel, threshold,
                           at_times=None):
    """Oracle for the tail mass and its Markov bound: one bandwidth read per
    call, and the compensator term h_n E[W] (kde) or mean(h_1..h_n) E[W]
    (recursive) formed on its own, per time."""
    n_pts = len(dominating)
    times = np.arange(1, n_pts) if at_times is None else np.asarray(at_times, dtype=np.int64)
    h = schedule.values(n_pts - 1)
    ew1 = kernel.norm_mean
    tail_mass = np.empty(times.size)
    bound = np.empty(times.size)
    for i, n in enumerate(times):
        if flavor == "kde":
            scales = np.full(n, h[n - 1])
            comp = h[n - 1] * ew1
        else:
            scales = h[:n]
            comp = float(np.mean(scales)) * ew1
        tail_mass[i] = float(np.mean(kernel.norm_survival((threshold - dominating[:n]) / scales)))
        bound[i] = (running_mean[n - 1] + comp) / threshold
    return tail_mass, bound


class TestTightnessTrace:
    def test_telescoping_compensator_tail(self):
        # h_n = 1/n with E[W] = 1: c_n = 1/(n(n+1)), tail = 1/n exactly; the
        # last entry is the closed-form tail past the horizon alone.
        sched = BandwidthSchedule.power(1.0, 1.0)
        tail = mg.compensator_tails("kde", sched, sched.values(1000), 1.0, 1000)
        for n in (1, 4, 33, 1000):
            assert tail[n - 1] == pytest.approx(1.0 / n, rel=1e-12)

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    def test_one_point_tail_is_closed_form(self, flavor):
        # No compensator term lies inside a one-point horizon, so the tail is
        # E[W] times the schedule's closed-form tail weight from n = 1.
        ew1 = GAUSS.norm_mean
        if flavor == "kde":
            weight = SCHED.tail_weight_kde(1)
        else:
            weight = SCHED.tail_weight_recursive(1, H[0])
        assert mg.compensator_values(flavor, H, ew1, 0).shape == (0,)
        tail = mg.compensator_tails(flavor, SCHED, H, ew1, 1)
        assert tail.shape == (1,)
        assert tail[0] == ew1 * weight

    def test_empty_horizon_rejected(self):
        with pytest.raises(ValueError, match="n_max >= 1"):
            mg.compensator_tails("kde", SCHED, H, 1.0, 0)

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    def test_reads_the_head_of_a_longer_read(self, flavor):
        # A run passes its one read h_1..h_M; the compensators up to n_max
        # are those of a read of h_1..h_{n_max} alone, to the bit.
        ew1 = GAUSS.norm_mean
        for n_max in (1, 2, 77, 1000):
            own = SCHED.values(n_max)
            got = mg.compensator_tails(flavor, SCHED, H, ew1, n_max)
            assert got.tobytes() == mg.compensator_tails(flavor, SCHED, own, ew1, n_max).tobytes()
            got = mg.compensator_values(flavor, H, ew1, n_max)
            assert got.tobytes() == mg.compensator_values(flavor, own, ew1, n_max).tobytes()
        with pytest.raises(ValueError, match="h_1..h_10, got 9"):
            mg.compensator_values(flavor, H[:9], ew1, 10)
        with pytest.raises(ValueError, match="h_1..h_10, got 9"):
            mg.compensator_tails(flavor, SCHED, H[:9], ew1, 10)

    def test_degenerate_path(self):
        traj = simulate("kde", SCHED, GAUSS, 6, forced_ancestors=[1] * 5, forced_draws=[0.0] * 5)
        u, j, tail, s = tightness(traj, SCHED, GAUSS.norm_mean)
        assert np.all(u == 0.0)
        assert np.all(j == 0.0)
        np.testing.assert_allclose(s, tail, atol=0)

    def test_two_point_hand_values(self):
        traj = simulate("kde", SCHED, GAUSS, 2, forced_ancestors=[1], forced_draws=[1.0])
        u, j, _, _ = tightness(traj, SCHED, GAUSS.norm_mean)
        assert u[1] == pytest.approx(1.0)
        assert j[1] == pytest.approx(0.5)

    def test_running_mean_identity(self):
        # The cumulative-sum running mean against the one-step update
        # J_n = J_{n-1} + (U_n - J_{n-1}) / n.
        streams = DrawStreams.from_seed(1, 0)
        traj = simulate("recursive", SCHED, HALF, 500, streams)
        u, j, _, _ = tightness(traj, SCHED, HALF.norm_mean)
        direct = np.empty(500)
        running = 0.0
        for n, value in enumerate(u, start=1):
            running += (value - running) / n
            direct[n - 1] = running
        rel = np.abs(j - direct) / np.maximum(direct, 1e-300)
        assert np.max(rel) < 1e-12

    def test_martingale_dominates_mean_and_tail_summable(self):
        streams = DrawStreams.from_seed(2, 0)
        traj = simulate("kde", SCHED, GAUSS, 2000, streams)
        _, j, tail, s = tightness(traj, SCHED, GAUSS.norm_mean)
        assert np.all(s >= j)
        assert np.all(tail[:-1] >= tail[1:])  # tails decrease
        assert tail[-1] < tail[0]

    @pytest.mark.parametrize("prefix", [[5.0], [1.0, 2.0]], ids=["one-point", "two-point"])
    def test_seeded_prefix_rejected(self, prefix):
        # Even one data point roots every chain at it instead of the origin,
        # so U_p would not bound ||x_p||.
        streams = DrawStreams.from_seed(3, 0)
        traj = simulate("kde", SCHED, GAUSS, 30, streams, data_prefix=prefix)
        with pytest.raises(MissingGenealogy):
            tightness(traj, SCHED, 1.0)

    def test_increments_match_trace_differences(self):
        # The increment formula diagnose uses: the compensator tail cancels.
        for flavor in ("kde", "recursive"):
            traj = simulate(flavor, SCHED, GAUSS, 51, DrawStreams.from_seed(88, 0))
            _, j, _, s = tightness(traj, SCHED, GAUSS.norm_mean)
            c = mg.compensator_values(flavor, H, GAUSS.norm_mean, 50)
            for n in (1, 10, 50):
                assert j[n] - j[n - 1] - c[n - 1] == pytest.approx(s[n] - s[n - 1], abs=1e-12)


class TestTailProbBound:
    def test_zero_path_holds_with_slack(self):
        traj = simulate("kde", SCHED, GAUSS, 20, forced_ancestors=[1] * 19, forced_draws=[0.0] * 19)
        u, j, _, _ = tightness(traj, SCHED, GAUSS.norm_mean)
        excess, tail_mass, bound = markov_excess("kde", u, j, GAUSS, threshold=5.0)
        assert excess <= mg.TAIL_BOUND_TOLERANCE
        assert tail_mass.shape == bound.shape == (19,)
        assert np.all(tail_mass < bound)

    def test_huge_threshold_vanishing_tail(self):
        streams = DrawStreams.from_seed(5, 0)
        traj = simulate("recursive", SCHED, GAUSS, 100, streams)
        u, j, _, _ = tightness(traj, SCHED, GAUSS.norm_mean)
        excess, tail_mass, _ = markov_excess("recursive", u, j, GAUSS, threshold=1e6)
        assert excess <= mg.TAIL_BOUND_TOLERANCE
        assert np.max(tail_mass) < 1e-12

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    def test_markov_bound_pathwise(self, flavor):
        streams = DrawStreams.from_seed(6, 0)
        traj = simulate(flavor, SCHED, GAUSS, 1000, streams)
        u, j, _, _ = tightness(traj, SCHED, GAUSS.norm_mean)
        excess, _, _ = markov_excess(flavor, u, j, GAUSS, threshold=10.0 * j[-1])
        assert excess <= 1e-10
        assert excess <= mg.TAIL_BOUND_TOLERANCE

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    @pytest.mark.parametrize("kernel", [GAUSS, HALF, KernelSpec("laplace")], ids=str)
    @pytest.mark.parametrize("factor", [0.5, 2.0, 10.0])
    def test_matches_oracle(self, flavor, kernel, factor):
        # The tail mass is the oracle's to the bit; the bound reads the
        # compensators c_n, so (n + 1) c_n and the oracle's own compensator
        # term may round apart, by a few ulp of the bound.
        traj = simulate(flavor, SCHED, kernel, 800, DrawStreams.from_seed(61, 0))
        u, j, _, _ = tightness(traj, SCHED, kernel.norm_mean)
        threshold = factor * j[-1]
        _, tail_mass, bound = markov_excess(flavor, u, j, kernel, threshold)
        want_mass, want_bound = tail_prob_bound_oracle(flavor, u, j, SCHED, kernel, threshold)
        assert tail_mass.tobytes() == want_mass.tobytes()
        assert np.all(np.abs(bound - want_bound) <= 4 * np.spacing(want_bound))

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    def test_diagnose_entry_matches_oracle(self, flavor, tmp_path):
        # diagnose's dominating_tail_markov statistic against the oracle over
        # the same replications, re-simulated one at a time.
        cfg = ExperimentConfig(
            flavor=flavor, steps=400, replications=3, master_seed=31,
            drift_times=(1, 10, 100, 399), base_dir=str(tmp_path),
        )
        checks = {e["name"]: e for e in run(cfg, "diagnose")["bound_checks"]}
        schedule, kernel = cfg.schedule(), cfg.kernel()
        worst, scale = -np.inf, 0.0
        for r in range(cfg.replications):
            traj = simulate(flavor, schedule, kernel, cfg.steps, DrawStreams.from_seed(31, r))
            u, j, _, _ = tightness(traj, schedule, kernel.norm_mean)
            threshold = cfg.tail_threshold_factor * max(j[-1], 1e-12)
            mass, bound = tail_prob_bound_oracle(
                flavor, u, j, schedule, kernel, threshold, at_times=cfg.drift_times
            )
            worst = max(worst, float(np.max(mass - bound)))
            scale = max(scale, float(np.max(bound)))
        statistic = checks["dominating_tail_markov"]["statistic"]
        assert abs(statistic - worst) <= 4 * np.spacing(scale)

    def test_check_times_within_path_and_bandwidths(self):
        u = np.zeros(10)
        h = SCHED.values(9)
        for times in ([0], [10]):
            with pytest.raises(ValueError, match="check times"):
                mg.dominating_tail_mass("kde", u, h, GAUSS, 1.0, times)
        with pytest.raises(ValueError, match="check times"):
            mg.dominating_tail_mass("recursive", u, h[:5], GAUSS, 1.0, [6])
        with pytest.raises(ValueError, match="threshold"):
            mg.dominating_tail_mass("kde", u, h, GAUSS, 0.0, [1])


class _StubKernel:
    """Stub kernel with a hand-set CF (to exercise guard rails)."""

    dim = 1

    def cf_scaled_minus_one(self, t, scales):
        return self.cf_scaled(t, scales) - 1.0

    def mean_vector(self):
        return np.zeros(1)

    norm_mean = 1.0


class _NegatingCF(_StubKernel):
    """Stub with CF identically -1: the only way a growth factor can vanish
    (it needs phi = -n at time n, possible only at n = 1)."""

    def cf_scaled(self, t, scales):
        return np.full(np.shape(scales), -1.0 + 0.0j)


class _CFZeroAtH3(_StubKernel):
    """Stub with CF 1 everywhere except 0 at exactly the bandwidth h_3."""

    def cf_scaled(self, t, scales):
        return np.where(np.asarray(scales) == SCHED.values(3)[2], 0.0, 1.0) + 0.0j


def oracle_start(schedule, kernel, t, n_max):
    """First n <= n_max with |phi_K(h_n t)| > 0.1, by a plain loop; None if
    there is none."""
    t = np.broadcast_to(np.asarray(t, dtype=float), (kernel.dim,))
    for n in range(1, n_max + 1):
        if abs(kernel.cf(schedule.values(n)[-1] * t)) > 0.1:
            return n
    return None


def oracle_factors(schedule, kernel, t, n_lo, n_hi, flavor):
    """Growth factors 1 + (phi_K(h_{n+s} t) - 1)/(n + 1) for n = n_lo..n_hi,
    one scalar CF at a time (s = 0 kde, 1 recursive)."""
    t = np.broadcast_to(np.asarray(t, dtype=float), (kernel.dim,))
    s = 0 if flavor == "kde" else 1
    return np.array(
        [
            1 + (kernel.cf(schedule.values(n + s)[-1] * t) - 1) / (n + 1)
            for n in range(n_lo, n_hi + 1)
        ]
    )


def factors_of_correction(schedule, kernel, t, corr, start_n, flavor):
    """a_n for n = start_n..len(corr) - 1 read back from a correction:
    c_n / c_{n+1}, after undoing the kde division by phi_K(h_n t)."""
    n_max = len(corr)
    prod = corr.copy()
    if flavor == "kde":
        t = np.broadcast_to(np.asarray(t, dtype=float), (kernel.dim,))
        prod *= [kernel.cf(schedule.values(n)[-1] * t) for n in range(1, n_max + 1)]
    return prod[start_n - 1 : n_max - 1] / prod[start_n:]


# Keyword arguments of each kernel family beyond its dimension.
FAMILIES = {"gaussian": {}, "laplace": {}, "student_t": {"dof": 3.0}, "half_normal": {}}


class TestFactorValues:
    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    def test_at_zero(self, flavor):
        start, corr, _ = mg.cf_corrections(SCHED, H, GAUSS, 0.0, 100, flavor)
        assert start == 1
        np.testing.assert_array_equal(corr, np.ones(100))

    def test_first_factor_value(self):
        a = oracle_factors(SCHED, GAUSS, 1.0, 1, 1, "kde")[0]
        assert a.real == pytest.approx(np.exp(-0.5) / 2 + 0.5, abs=1e-12)

    def test_recursive_factor_uses_next_bandwidth(self):
        a = oracle_factors(SCHED, GAUSS, 1.0, 1, 1, "recursive")[0]
        expected = GAUSS.cf(2.0**-0.2) / 2 + 0.5
        assert a == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    def test_factor_values_vectorized(self, flavor):
        t = 1.0
        start, corr, _ = mg.cf_corrections(SCHED, H, GAUSS, t, 8, flavor)
        got = factors_of_correction(SCHED, GAUSS, t, corr, start, flavor)[2:]
        shift = 0 if flavor == "kde" else 1
        expected = [
            1 + (GAUSS.cf(SCHED.values(n + shift)[-1] * t) - 1) / (n + 1) for n in range(3, 8)
        ]
        np.testing.assert_allclose(got, expected, atol=1e-15)

    @settings(max_examples=150, deadline=None)
    @given(
        family=st.sampled_from(sorted(FAMILIES)),
        d=st.integers(1, 3),
        data=st.data(),
        flavor=st.sampled_from(["kde", "recursive"]),
        n_max=st.integers(2, 300),
    )
    def test_one_pass_matches_scalar_oracle(self, family, d, data, flavor, n_max):
        kernel = KernelSpec(family, dim=d, **FAMILIES[family])
        t = np.array(data.draw(st.lists(st.floats(-15.0, 15.0), min_size=d, max_size=d)))
        # Only the kde correction divides by the kernel CF, so only it has a
        # conditioning floor; the recursive one starts at n = 1.
        want = oracle_start(SCHED, kernel, t, n_max) if flavor == "kde" else 1
        # The certified tail past n_max is stubbed to 1: it scales every
        # entry alike, so the start index and the factor ratios read the
        # in-range pass alone, also where the tail cannot be certified.
        unit_tail = mg.ProductTail(value=1.0 + 0.0j, from_n=n_max + 1, lemma_bound=0.0,
                                   numerical_error=0.0)
        with mock.patch.object(mg, "lemma_product_tail", return_value=unit_tail):
            if want is None:
                with pytest.raises(ZeroDenominator, match="conditioning floor"):
                    mg.cf_corrections(SCHED, H, kernel, t, n_max, flavor)
                return
            start, corr, _ = mg.cf_corrections(SCHED, H, kernel, t, n_max, flavor)
        assert start == want
        assert np.all(np.isnan(corr[: start - 1]))
        got = factors_of_correction(SCHED, kernel, t, corr, start, flavor)
        expected = oracle_factors(SCHED, kernel, t, start, n_max - 1, flavor)
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0.0)


class TestStartIndex:
    def test_gaussian_immediate(self):
        assert mg.cf_corrections(SCHED, H, GAUSS, 1.0, 50, "kde")[0] == 1

    def test_half_normal_large_t(self):
        start = mg.cf_corrections(SCHED, H, HALF, 15.0, 1000, "kde")[0]
        assert start > 1
        h = SCHED.values(start)
        mods = np.abs(HALF.cf_scaled(15.0, h))
        assert mods[-1] > 0.1
        assert np.all(mods[:-1] <= 0.1)

    @pytest.mark.parametrize("t", [5.0, 10.0])
    def test_recursive_starts_at_one(self, t):
        # The recursive correction divides by nothing: past the kde start
        # index (n = 69 at t = 5) and past its conditioning floor (t = 10),
        # every entry is finite from n = 1, each one the suffix product.
        sched = BandwidthSchedule.default(1)
        h = sched.values(1001)
        if t == 5.0:
            assert mg.cf_corrections(sched, h, GAUSS, t, 1000, "kde")[0] == 69
        else:
            with pytest.raises(ZeroDenominator, match="conditioning floor"):
                mg.cf_corrections(sched, h, GAUSS, t, 1000, "kde")
        start, corr, row = mg.cf_corrections(sched, h, GAUSS, t, 1000, "recursive")
        assert start == 1
        assert np.all(np.isfinite(corr))
        factors = factors_of_correction(sched, GAUSS, t, corr, 1, "recursive")
        expected = oracle_factors(sched, GAUSS, t, 1, 999, "recursive")
        np.testing.assert_allclose(factors, expected, rtol=1e-10, atol=0.0)
        assert np.all(np.abs(corr) <= 1.0)

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    @pytest.mark.parametrize("d", [1, 3])
    def test_one_kernel_cf_pass(self, monkeypatch, flavor, d):
        # One cf_scaled_minus_one call over h_1..h_{N+s} per t, besides the
        # certified tail's quadrature (stubbed here), and no cf_scaled call.
        n_max, shift = 500, 0 if flavor == "kde" else 1
        kernel = KernelSpec("half_normal", dim=d)
        calls, elements = [], []
        minus_one = KernelSpec.cf_scaled_minus_one
        coordinate = KernelSpec._cf1_m1

        def recording(spec, t, scales):
            calls.append(np.shape(scales))
            return minus_one(spec, t, scales)

        def counted(spec, u):
            elements.append(np.size(u))
            return coordinate(spec, u)

        def refused(spec, t, scales):
            raise AssertionError("cf_scaled called")

        monkeypatch.setattr(KernelSpec, "cf_scaled_minus_one", recording)
        monkeypatch.setattr(KernelSpec, "_cf1_m1", counted)
        monkeypatch.setattr(KernelSpec, "cf_scaled", refused)
        unit_tail = mg.ProductTail(value=1.0 + 0.0j, from_n=n_max + 1, lemma_bound=0.0,
                                   numerical_error=0.0)
        with mock.patch.object(mg, "lemma_product_tail", return_value=unit_tail):
            start, corr, row = mg.cf_corrections(SCHED, H, kernel, 0.7, n_max, flavor)
        assert calls == [(n_max + shift,)]
        assert sum(elements) == (n_max + shift) * d
        assert row.shape == corr.shape == (n_max,)

    def test_corrections_scan_only_up_to_horizon(self, monkeypatch):
        # At t = 1000 and d = 2 no h_n up to n = 20 qualifies: the search
        # stops at the horizon instead of scanning the run's bandwidths
        # beyond it, and reads none from the schedule.
        scanned = []
        minus_one = KernelSpec.cf_scaled_minus_one

        def recording(spec, t, scales):
            scanned.append(len(scales))
            return minus_one(spec, t, scales)

        def refused(schedule, n):
            raise AssertionError("cf_corrections read the schedule")

        monkeypatch.setattr(KernelSpec, "cf_scaled_minus_one", recording)
        monkeypatch.setattr(BandwidthSchedule, "values", refused)
        with pytest.raises(ZeroDenominator, match="conditioning floor"):
            mg.cf_corrections(SCHED, H, KernelSpec("gaussian", dim=2), 1000.0, 20, "kde")
        assert scanned == [20]

    @pytest.mark.parametrize("flavor, needed", [("kde", 20), ("recursive", 21)])
    def test_bandwidths_must_cover_the_shift(self, flavor, needed):
        # n = 1..20 reads h_1..h_{20+s}: one past the horizon for recursive.
        with pytest.raises(ValueError, match=f"h_1..h_{needed}, got {needed - 1}"):
            mg.cf_corrections(SCHED, H[: needed - 1], GAUSS, 1.0, 20, flavor)
        start, corr, row = mg.cf_corrections(SCHED, H[:needed], GAUSS, 1.0, 20, flavor)
        want = mg.cf_corrections(SCHED, H, GAUSS, 1.0, 20, flavor)
        assert start == want[0]
        assert corr.tobytes() == want[1].tobytes() and row.tobytes() == want[2].tobytes()


class TestLemmaProduct:
    def test_at_zero_exactly_one(self):
        res = mg.lemma_product_tail(SCHED, GAUSS, 0.0, 5, "kde")
        assert res.value == 1.0 + 0.0j

    def test_within_lemma_band(self):
        res = mg.lemma_product_tail(SCHED, GAUSS, 1.0, 10**4, "kde")
        assert res.value != 0
        assert abs(res.value - 1.0) <= 10 * res.lemma_bound
        # spec band: 10 * kappa * zeta(1.2, 1e4)
        from scipy.special import zeta

        kappa = mg.lemma_constant(GAUSS, 1.0)
        assert abs(res.value - 1.0) <= 10 * kappa * zeta(1.2, 10**4)

    def test_high_delta_against_direct_summation(self):
        sched = BandwidthSchedule.power(1.0, 0.8)
        res = mg.lemma_product_tail(sched, GAUSS, 1.0, 50, "kde")
        f = mg._log_factor_fn(sched, GAUSS, np.array([1.0]), "kde")
        total = 0.0 + 0.0j
        lo = 50
        for _ in range(30):
            k = np.arange(lo, lo + 10**6, dtype=float)
            total += np.sum(f(k))
            lo += 10**6
        assert abs(res.value - np.exp(total)) < 1e-9

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    def test_tail_telescopes_over_explicit_factors(self, flavor):
        # prod_{k>=50} a_k = (prod_{k=50}^{4999} a_k) * prod_{k>=5000} a_k,
        # with the head built here from h_{k+s} = (k+s)^(-0.2) and the
        # gaussian CF in closed form.
        s = 0 if flavor == "kde" else 1
        t = 1.5
        k = np.arange(50, 5000, dtype=float)
        head = np.exp(np.sum(np.log1p(np.expm1(-0.5 * (t * (k + s) ** -0.2) ** 2) / (k + 1))))
        whole = mg.lemma_product_tail(SCHED, GAUSS, t, 50, flavor).value
        rest = mg.lemma_product_tail(SCHED, GAUSS, t, 5000, flavor).value
        assert abs(whole - head * rest) <= 1e-10

    def test_complex_case_cut_stability(self):
        a = mg.lemma_product_tail(SCHED, HALF, 2.0, 100, "kde")
        f = mg._log_factor_fn(SCHED, HALF, np.array([2.0]), "kde")
        k = np.arange(100, 4096, dtype=float)
        head = np.exp(np.sum(f(k)))
        b = mg.lemma_product_tail(SCHED, HALF, 2.0, 4096, "kde")
        assert b.numerical_error <= 1e-10 * abs(b.value)
        assert abs(a.value - head * b.value) < 1e-9

    def test_monotone_certificates(self):
        bounds = [
            mg.product_tail_bound(SCHED, GAUSS, 1.0, n, "kde") for n in (10, 100, 1000, 10**4)
        ]
        assert all(x > y for x, y in zip(bounds, bounds[1:]))

    def test_partial_products_cauchy(self):
        start = 16
        grid = [64, 256, 1024, 4096, 16384]
        f = mg._log_factor_fn(SCHED, GAUSS, np.array([1.0]), "kde")
        partials = {}
        for m in grid:
            k = np.arange(start, m + 1, dtype=float)
            partials[m] = np.exp(np.sum(f(k)))
        for m1, m2 in zip(grid, grid[1:]):
            bound = mg.product_tail_bound(SCHED, GAUSS, 1.0, m1 + 1, "kde")
            diff = abs(partials[m2] - partials[m1])
            assert diff <= abs(partials[m1]) * (np.expm1(bound)) + 1e-12

    def test_no_envelope_for_table(self):
        sched = BandwidthSchedule.from_table([0.5] * 100)
        with pytest.raises(NoEnvelope):
            mg.lemma_product_tail(sched, GAUSS, 1.0, 5, "kde")

    def test_zero_factor_guard(self):
        with pytest.raises(ZeroFactor):
            mg.lemma_product_tail(SCHED, _NegatingCF(), 1.0, 1, "kde")

    def test_exponential_schedule_supported(self):
        sched = BandwidthSchedule.exponential(0.5)
        res = mg.lemma_product_tail(sched, GAUSS, 1.0, 3, "kde")
        f = mg._log_factor_fn(sched, GAUSS, np.array([1.0]), "kde")
        k = np.arange(3, 500, dtype=float)
        assert abs(res.value - np.exp(np.sum(f(k)))) < 1e-10


def two_pass_euler_maclaurin_tail(f, start, schedule):
    """Oracle for ``mg._euler_maclaurin_tail``: one quadrature pass for the
    real part and one for the imaginary part, each calling f at its own
    nodes, then seven scalar calls at the five endpoint points."""
    from scipy import integrate

    if schedule.form == "power":
        inv = 1.0 / schedule.delta

        def x_of(u):
            return start * u ** (-inv)

        def jac(u):
            return start * inv * u ** (-inv - 1.0)

    else:
        rate = schedule.rate

        def x_of(u):
            return start - np.log(u) / rate

        def jac(u):
            return 1.0 / (rate * u)

    def quad_part(g):
        return integrate.quad(lambda u: g(x_of(u)) * jac(u), 0.0, 1.0, limit=400)

    re_val, re_err = quad_part(lambda x: float(f(x).real))
    im_val, im_err = quad_part(lambda x: float(f(x).imag))
    f0 = complex(f(float(start)))
    d1 = complex(f(start + 0.5) - f(start - 0.5))
    d3 = complex(f(start + 1.5) - 3 * f(start + 0.5) + 3 * f(start - 0.5) - f(start - 1.5))
    remainder = re_val + 1j * im_val + 0.5 * f0 - d1 / 12.0
    err = re_err + im_err + abs(d3) / 720.0 + 1e-15 * (abs(remainder) + 1.0)
    return remainder, float(err)


def counting(f):
    """f with a record of every argument it is called at."""
    calls = []

    def counted(x):
        calls.append(float(x))
        return f(x)

    return counted, calls


class TestTailQuadrature:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    @pytest.mark.parametrize("t", [0.5, 2.0, -3.0])
    @pytest.mark.parametrize("from_n", [1, 100, 5000])
    def test_matches_two_pass_oracle(self, family, flavor, t, from_n):
        kernel = KernelSpec(family, **FAMILIES[family])
        got = mg.lemma_product_tail(SCHED, kernel, t, from_n, flavor)
        with mock.patch.object(mg, "_euler_maclaurin_tail", two_pass_euler_maclaurin_tail):
            want = mg.lemma_product_tail(SCHED, kernel, t, from_n, flavor)
        assert got.value == want.value
        assert got.numerical_error == want.numerical_error
        assert got.lemma_bound == want.lemma_bound

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    def test_matches_two_pass_oracle_exponential(self, flavor):
        sched = BandwidthSchedule.exponential(0.01)
        kernel = KernelSpec("half_normal", dim=2)
        got = mg.lemma_product_tail(sched, kernel, 1.5, 40, flavor)
        with mock.patch.object(mg, "_euler_maclaurin_tail", two_pass_euler_maclaurin_tail):
            want = mg.lemma_product_tail(sched, kernel, 1.5, 40, flavor)
        assert (got.value, got.numerical_error) == (want.value, want.numerical_error)

    @pytest.mark.parametrize(
        "schedule", [SCHED, BandwidthSchedule.exponential(0.01)], ids=["power", "exponential"]
    )
    @pytest.mark.parametrize("kernel", [GAUSS, HALF], ids=["gaussian", "half_normal"])
    def test_each_node_evaluated_once(self, schedule, kernel):
        f = mg._log_factor_fn(schedule, kernel, np.array([2.0]), "kde")
        once, calls = counting(f)
        got = mg._euler_maclaurin_tail(once, 4096, schedule)
        twice, oracle_calls = counting(f)
        want = two_pass_euler_maclaurin_tail(twice, 4096, schedule)
        assert got == want
        assert len(calls) == len(set(calls))
        assert set(calls) == set(oracle_calls)
        # The two-pass form calls f more often than there are nodes.
        assert len(oracle_calls) > len(calls)


class TestToleranceMessage:
    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    def test_names_where_and_how_far(self, flavor):
        # student_t with dof 1.5 at d = 3, t = 20 on h_n = n^(-0.05): the
        # tail from n = 1000 does not reach the tolerance at any cut.
        kernel = KernelSpec("student_t", dim=3, dof=1.5)
        sched = BandwidthSchedule.power(1.0, 0.05)
        with pytest.raises(ToleranceNotReached) as info:
            mg.lemma_product_tail(sched, kernel, np.full(3, 20.0), 1000, flavor)
        message = str(info.value)
        assert f"t=(20, 20, 20), flavor {flavor}, from n=1000" in message
        assert "at the last cut n=262144" in message
        assert f"above the tolerance {mg.PRODUCT_TAIL_REL_TOL:g}" in message
        reached = float(message.split("relative error ")[1].split(" ")[0])
        assert reached > mg.PRODUCT_TAIL_REL_TOL

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    @pytest.mark.parametrize("d, t", [(2, 5.0), (3, 3.0), (3, 5.0)])
    def test_log_sum_error_is_the_relative_error(self, flavor, d, t):
        # half_normal on the default schedule from n = 1001: |tail| is as
        # small as 1e-6, and the log-sum error, which is the tail's relative
        # error, meets the tolerance at the first cut.
        kernel = KernelSpec("half_normal", dim=d)
        sched = BandwidthSchedule.default(d)
        t_arr = np.full(d, t)
        quadrature = mg._euler_maclaurin_tail
        with mock.patch.object(mg, "_euler_maclaurin_tail", wraps=quadrature) as spy:
            tail = mg.lemma_product_tail(sched, kernel, t_arr, 1001, flavor)
        assert spy.call_count == 1
        assert spy.call_args.args[1] == 4096
        remainder, rem_err = quadrature(spy.call_args.args[0], 4096, sched)
        assert rem_err <= mg.PRODUCT_TAIL_REL_TOL
        assert tail.numerical_error == rem_err * abs(tail.value)
        assert abs(tail.value) < 1e-3
        h = sched.values(1001)
        start, corr, _ = mg.cf_corrections(sched, h, kernel, t_arr, 1000, flavor)
        assert corr[-1] != 0 and np.isfinite(corr[-1])


def cf_martingale(traj, schedule, kernel, t):
    """(start_n, correction, phi, martingale) composed as the run modes do."""
    h = schedule.values(len(traj) + 1)
    start_n, corr, kernel_cf = mg.cf_corrections(schedule, h, kernel, t, len(traj), traj.flavor)
    phi = cf_path(traj, t, kernel_cf)
    return start_n, corr, phi, corr * phi


class TestCfMartingaleTrace:
    def test_t_zero_is_identically_one(self):
        streams = DrawStreams.from_seed(7, 0)
        traj = simulate("kde", SCHED, GAUSS, 50, streams)
        _, _, _, mart = cf_martingale(traj, SCHED, GAUSS, 0.0)
        np.testing.assert_array_equal(mart, np.ones(50, dtype=complex))

    def test_single_point_cf(self):
        traj = simulate("kde", SCHED, GAUSS, 1)
        _, _, phi, _ = cf_martingale(traj, SCHED, GAUSS, 1.0)
        assert phi[0] == pytest.approx(np.exp(-0.5), abs=1e-14)

    def test_recursive_bounded_by_one(self):
        streams = DrawStreams.from_seed(8, 0)
        traj = simulate("recursive", SCHED, GAUSS, 10**4, streams)
        _, corr, _, mart = cf_martingale(traj, SCHED, GAUSS, 1.0)
        assert float(np.nanmax(np.abs(mart))) <= 1.0 + 1e-10
        assert float(np.nanmax(np.abs(corr))) <= 1.0 + 1e-10

    def test_kde_bounded_by_correction_sup(self):
        streams = DrawStreams.from_seed(9, 0)
        traj = simulate("kde", SCHED, GAUSS, 2000, streams)
        _, corr, _, mart = cf_martingale(traj, SCHED, GAUSS, 2.0)
        sup_c = float(np.nanmax(np.abs(corr)))
        assert float(np.nanmax(np.abs(mart))) <= sup_c + 1e-10

    def test_correction_approaches_one(self):
        _, corr, _ = mg.cf_corrections(SCHED, H, GAUSS, 1.0, 5000, "recursive")
        gaps = np.abs(corr - 1.0)
        checkpoints = np.array([10, 100, 1000, 4999]) - 1
        vals = gaps[checkpoints]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        bound = mg.product_tail_bound(SCHED, GAUSS, 1.0, 5000, "recursive")
        assert vals[-1] <= np.expm1(bound) + 1e-10

    def test_kde_correction_equals_telescoped_ratio_product(self):
        # prod_{k=n}^{M} of the ratio factors telescopes to
        # (prod a_k) phi_K(h_{M+1} t) / phi_K(h_n t); for large M this must
        # approach the stored correction within the certified bounds.
        t, n, m = 1.3, 7, 20000
        start, corr, _ = mg.cf_corrections(SCHED, H, GAUSS, t, 64, "kde")
        a = oracle_factors(SCHED, GAUSS, t, n, m, "kde")
        phi_h = GAUSS.cf_scaled(t, SCHED.values(m + 1))
        ratio_factors = a * phi_h[n : m + 1] / phi_h[n - 1 : m]
        partial = complex(np.prod(ratio_factors))
        slack = np.expm1(mg.product_tail_bound(SCHED, GAUSS, t, m + 1, "kde")) + 2 * abs(
            phi_h[m] - 1.0
        )
        assert abs(corr[n - 1] - partial) <= abs(partial) * slack + 1e-12

    def test_laplace_traces_full_pipeline(self):
        lap = KernelSpec("laplace")
        streams = DrawStreams.from_seed(71, 0)
        traj = simulate("recursive", SCHED, lap, 800, streams)
        u, j, _, s = tightness(traj, SCHED, lap.norm_mean)
        assert np.all(s >= j)
        _, _, _, mart = cf_martingale(traj, SCHED, lap, 1.5)
        assert float(np.nanmax(np.abs(mart))) <= 1.0 + 1e-10
        excess, _, _ = markov_excess("recursive", u, j, lap, 10 * j[-1], times=[500])
        assert excess <= mg.TAIL_BOUND_TOLERANCE

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    @pytest.mark.parametrize("kernel", [GAUSS, KernelSpec("laplace")], ids=["gaussian", "laplace"])
    @pytest.mark.parametrize("t", [0.5, 2.0, 7.0])
    def test_corrections_match_suffix_loop(self, flavor, kernel, t):
        # Reference: the suffix product multiplied one factor at a time from
        # the far end, as a scalar loop, over the same factor floats.
        start, corr, _ = mg.cf_corrections(SCHED, H, kernel, t, 400, flavor)
        shift = 0 if flavor == "kde" else 1
        h = SCHED.values(400 + shift)[start - 1 + shift :]
        n = np.arange(start, 401, dtype=float)
        factors = 1.0 + mg._factor_deviation(kernel.cf_scaled_minus_one(t, h), n)
        running = mg.lemma_product_tail(SCHED, kernel, t, 401, flavor).value
        expected = np.full(400, np.nan, dtype=complex)
        for i in range(len(factors) - 1, -1, -1):
            running = factors[i] * running
            expected[start - 1 + i] = running
        if flavor == "kde":
            expected[start - 1 :] /= kernel.cf_scaled(t, SCHED.values(400)[start - 1 :])
        np.testing.assert_array_equal(corr, expected)

    def test_vanishing_growth_factor_rejected(self):
        with pytest.raises(ZeroFactor):
            mg.cf_corrections(SCHED, H, _NegatingCF(), 1.0, 5, "kde")

    def test_kernel_cf_zero_inside_range_rejected(self):
        # start_n = 1 and every growth factor is non-zero, but the kde
        # correction divides by phi_K(h_3 t) = 0; the recursive one does not.
        with pytest.raises(ZeroDenominator):
            mg.cf_corrections(SCHED, H, _CFZeroAtH3(), 1.0, 5, "kde")
        start, corr, _ = mg.cf_corrections(SCHED, H, _CFZeroAtH3(), 1.0, 5, "recursive")
        assert start == 1 and np.all(np.isfinite(corr))

    def test_start_index_beyond_horizon_rejected(self):
        with pytest.raises(ZeroDenominator):
            mg.cf_corrections(SCHED, H, HALF, 20.0, 5, "kde")


class TestOneStepIdentities:
    """Exact conditional expectations by enumerating the ancestor choice.

    The kernel draw integrates out analytically through its CF (or first
    norm moment), so these checks carry no Monte Carlo noise at all.
    """

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    @pytest.mark.parametrize("t", [0.7, 2.3])
    def test_cf_growth_factor_matches_enumeration(self, flavor, t):
        n = 37
        streams = DrawStreams.from_seed(55, 0)
        traj = simulate(flavor, SCHED, GAUSS, n, streams)
        h = SCHED.values(n + 1)
        phases = np.exp(1j * t * traj.points[:, 0])
        scales_now = np.full(n, h[n - 1]) if flavor == "kde" else h[:n]
        phi_n = np.mean(phases * GAUSS.cf_scaled(t, scales_now))
        # E[phase of the new point | state]: average over the n ancestors,
        # kernel draw integrated via phi_K.
        if flavor == "kde":
            next_phase = np.mean(phases) * GAUSS.cf_scaled(t, np.array([h[n - 1]]))[0]
        else:
            next_phase = np.mean(phases * GAUSS.cf_scaled(t, h[:n]))
        # E[phi_{n+1} | state]: old components plus the integrated new one.
        scales_next = np.full(n, h[n]) if flavor == "kde" else h[:n]
        expected = (
            np.sum(phases * GAUSS.cf_scaled(t, scales_next))
            + next_phase * GAUSS.cf_scaled(t, np.array([h[n]]))[0]
        ) / (n + 1)
        # The production martingale c_n phi_n has this as its one-step mean.
        _, c, _ = mg.cf_corrections(SCHED, H, GAUSS, t, n + 1, flavor)
        assert c[n - 1] * phi_n == pytest.approx(c[n] * expected, abs=1e-13)

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    def test_tightness_compensator_matches_enumeration(self, flavor):
        n = 23
        streams = DrawStreams.from_seed(56, 0)
        traj = simulate(flavor, SCHED, GAUSS, n, streams)
        ew1 = GAUSS.norm_mean
        u = dominating_path(simulate(flavor, SCHED, GAUSS, n, DrawStreams.from_seed(56, 0)))
        h = SCHED.values(n)
        j_n = np.mean(u)
        # E[U_{n+1} | state] enumerated over ancestors with E[W] integrated.
        if flavor == "kde":
            expected_u = np.mean(u) + h[n - 1] * ew1
        else:
            expected_u = np.mean(u) + np.mean(h[:n]) * ew1
        expected_increment = (expected_u - j_n) / (n + 1)
        comp = mg.compensator_values(flavor, h, ew1, n)[n - 1]
        assert comp == pytest.approx(expected_increment, rel=1e-13)


class TestDriftTest:
    def test_constant_sequences(self):
        v = np.ones(200)
        res = mg.drift_test(v - v)
        assert res["z_re"] == 0.0 and res["statistic"] == 0.0
        assert res["statistic"] <= mg.DRIFT_FLAG_THRESHOLD

    def test_fair_increments_pass(self):
        rng = np.random.default_rng(13)
        inc = rng.choice([-1.0, 1.0], size=10**4)
        res = mg.drift_test(inc)
        assert res["statistic"] < 4.0
        assert res["replications"] == 10**4

    def test_biased_increments_flagged(self):
        rng = np.random.default_rng(14)
        inc = 0.1 + rng.standard_normal(10**4)
        res = mg.drift_test(inc)
        assert res["statistic"] > mg.DRIFT_FLAG_THRESHOLD
        assert res["z_re"] == pytest.approx(10.0, abs=2.0)

    def test_complex_components(self):
        rng = np.random.default_rng(15)
        inc = rng.standard_normal(500) + 1j * (0.5 + rng.standard_normal(500))
        res = mg.drift_test(inc)
        assert abs(res["z_re"]) < 4.0
        assert res["z_im"] > 4.0
        assert res["statistic"] == max(abs(res["z_re"]), abs(res["z_im"]))
        assert res["statistic"] > mg.DRIFT_FLAG_THRESHOLD

    def test_too_few(self):
        with pytest.raises(TooFewReplications, match=f">= {mg.MIN_REPLICATIONS} "):
            mg.drift_test(np.zeros(mg.MIN_REPLICATIONS - 1))
        assert mg.drift_test(np.zeros(mg.MIN_REPLICATIONS))["replications"] == 100
