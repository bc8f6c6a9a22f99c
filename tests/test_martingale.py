"""Martingale traces: compensators, product corrections, drift tests."""

import numpy as np
import pytest

from kdeproc import BandwidthSchedule, DrawStreams, KernelSpec, cf_path, simulate
from kdeproc import martingale as mg
from kdeproc.errors import (
    IndexBeyondTable,
    MissingGenealogy,
    NoEnvelope,
    TooFewReplications,
    ZeroDenominator,
    ZeroFactor,
)

SCHED = BandwidthSchedule.power(1.0, 0.2)
GAUSS = KernelSpec("gaussian")
HALF = KernelSpec("half_normal")


class TestTightnessTrace:
    def test_telescoping_compensator_tail(self):
        # h_n = 1/n with E[W] = 1: c_n = 1/(n(n+1)), tail = 1/n exactly.
        sched = BandwidthSchedule.power(1.0, 1.0)
        for n in (1, 4, 33, 1000):
            assert mg.compensator_tail("kde", sched, 1.0, n) == pytest.approx(1.0 / n, rel=1e-12)

    def test_degenerate_path(self):
        traj = simulate("kde", SCHED, GAUSS, 6, forced_ancestors=[1] * 5, forced_draws=[0.0] * 5)
        trace = mg.tightness_trace(traj, SCHED, GAUSS.norm_mean)
        assert np.all(trace.dominating == 0.0)
        assert np.all(trace.running_mean == 0.0)
        np.testing.assert_allclose(trace.martingale, trace.tail, atol=0)

    def test_two_point_hand_values(self):
        traj = simulate("kde", SCHED, GAUSS, 2, forced_ancestors=[1], forced_draws=[1.0])
        trace = mg.tightness_trace(traj, SCHED, GAUSS.norm_mean)
        assert trace.dominating[1] == pytest.approx(1.0)
        assert trace.running_mean[1] == pytest.approx(0.5)

    def test_running_mean_identity(self):
        streams = DrawStreams.from_seed(1, 0)
        traj = simulate("recursive", SCHED, HALF, 500, streams)
        trace = mg.tightness_trace(traj, SCHED, HALF.norm_mean)
        direct = np.cumsum(trace.dominating) / np.arange(1, 501)
        rel = np.abs(trace.running_mean - direct) / np.maximum(direct, 1e-300)
        assert np.max(rel) < 1e-12

    def test_martingale_dominates_mean_and_tail_summable(self):
        streams = DrawStreams.from_seed(2, 0)
        traj = simulate("kde", SCHED, GAUSS, 2000, streams)
        trace = mg.tightness_trace(traj, SCHED, GAUSS.norm_mean)
        assert np.all(trace.martingale >= trace.running_mean)
        assert np.all(trace.tail[:-1] >= trace.tail[1:])  # tails decrease
        assert trace.tail[-1] < trace.tail[0]

    def test_seeded_prefix_rejected(self):
        streams = DrawStreams.from_seed(3, 0)
        traj = simulate("kde", SCHED, GAUSS, 30, streams, data_prefix=[1.0, 2.0])
        with pytest.raises(MissingGenealogy):
            mg.tightness_trace(traj, SCHED, 1.0)

    def test_increments_match_trace_differences(self):
        # The increment formula diagnose uses: the compensator tail cancels.
        for flavor in ("kde", "recursive"):
            traj = simulate(flavor, SCHED, GAUSS, 51, DrawStreams.from_seed(88, 0))
            trace = mg.tightness_trace(traj, SCHED, GAUSS.norm_mean)
            j, c, s = trace.running_mean, trace.compensators, trace.martingale
            for n in (1, 10, 50):
                assert j[n] - j[n - 1] - c[n - 1] == pytest.approx(s[n] - s[n - 1], abs=1e-12)


class TestTailProbBound:
    def test_zero_path_holds_with_slack(self):
        traj = simulate("kde", SCHED, GAUSS, 20, forced_ancestors=[1] * 19, forced_draws=[0.0] * 19)
        trace = mg.tightness_trace(traj, SCHED, GAUSS.norm_mean)
        report = mg.tail_prob_bound_check(trace, traj, SCHED, GAUSS, threshold=5.0)
        assert report.passed
        assert np.all(report.tail_mass < report.bound)

    def test_huge_threshold_vanishing_tail(self):
        streams = DrawStreams.from_seed(5, 0)
        traj = simulate("recursive", SCHED, GAUSS, 100, streams)
        trace = mg.tightness_trace(traj, SCHED, GAUSS.norm_mean)
        report = mg.tail_prob_bound_check(trace, traj, SCHED, GAUSS, threshold=1e6)
        assert report.passed
        assert np.max(report.tail_mass) < 1e-12

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    def test_markov_bound_pathwise(self, flavor):
        streams = DrawStreams.from_seed(6, 0)
        traj = simulate(flavor, SCHED, GAUSS, 1000, streams)
        trace = mg.tightness_trace(traj, SCHED, GAUSS.norm_mean)
        report = mg.tail_prob_bound_check(
            trace, traj, SCHED, GAUSS, threshold=10.0 * trace.running_mean[-1]
        )
        assert report.max_violation <= 1e-10
        assert report.passed


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


class TestFactorValues:
    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    def test_at_zero(self, flavor):
        got = mg.factor_values(SCHED, GAUSS, 0.0, 1, 100, flavor)
        np.testing.assert_array_equal(got, np.ones(100))

    def test_first_factor_value(self):
        a = mg.factor_values(SCHED, GAUSS, 1.0, 1, 1, "kde")[0]
        assert a.real == pytest.approx(np.exp(-0.5) / 2 + 0.5, abs=1e-12)

    def test_recursive_factor_uses_next_bandwidth(self):
        a = mg.factor_values(SCHED, GAUSS, 1.0, 1, 1, "recursive")[0]
        expected = GAUSS.cf(2.0**-0.2) / 2 + 0.5
        assert a == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    def test_factor_values_vectorized(self, flavor):
        t = 1.0
        got = mg.factor_values(SCHED, GAUSS, t, 3, 7, flavor)
        shift = 0 if flavor == "kde" else 1
        expected = [1 + (GAUSS.cf(SCHED.at(n + shift) * t) - 1) / (n + 1) for n in range(3, 8)]
        np.testing.assert_allclose(got, expected, atol=1e-15)


class TestStartIndex:
    def test_gaussian_immediate(self):
        assert mg.start_index(SCHED, GAUSS, 1.0) == 1

    def test_half_normal_large_t(self):
        start = mg.start_index(SCHED, HALF, 20.0)
        assert start > 1
        h = SCHED.values(start)
        mods = np.abs(HALF.cf_scaled(20.0, h))
        assert mods[-1] > 0.1
        assert np.all(mods[:-1] <= 0.1)

    def test_table_shorter_than_first_block(self):
        # The first scan block is 1024 long, even when h_1 already qualifies.
        with pytest.raises(IndexBeyondTable):
            mg.start_index(BandwidthSchedule.from_table([0.5] * 10), GAUSS, 1.0)

    def test_scan_limit(self):
        start = mg.start_index(SCHED, HALF, 20.0)
        assert mg.start_index(SCHED, HALF, 20.0, max_scan=start) == start
        with pytest.raises(ZeroDenominator, match="conditioning floor"):
            mg.start_index(SCHED, HALF, 20.0, max_scan=start - 1)

    def test_corrections_scan_only_up_to_horizon(self, monkeypatch):
        # At t = 1000 and d = 2 no h_n up to n = 20 qualifies: the scan stops
        # at the horizon instead of evaluating bandwidths far beyond it.
        asked = []
        values = BandwidthSchedule.values

        def recording(schedule, n, start=1):
            asked.append((start, n))
            return values(schedule, n, start)

        monkeypatch.setattr(BandwidthSchedule, "values", recording)
        with pytest.raises(ZeroDenominator, match="conditioning floor"):
            mg.cf_corrections(SCHED, KernelSpec("gaussian", dim=2), 1000.0, 20, "kde")
        assert asked == [(1, 20)]


class TestLemmaProduct:
    def test_at_zero_exactly_one(self):
        res = mg.lemma_product_tail(SCHED, GAUSS, 0.0, 5)
        assert res.value == 1.0 + 0.0j

    def test_within_lemma_band(self):
        res = mg.lemma_product_tail(SCHED, GAUSS, 1.0, 10**4)
        assert res.value != 0
        assert abs(res.value - 1.0) <= 10 * res.lemma_bound
        # spec band: 10 * kappa * zeta(1.2, 1e4)
        from scipy.special import zeta

        kappa = mg.lemma_constant(GAUSS, 1.0)
        assert abs(res.value - 1.0) <= 10 * kappa * zeta(1.2, 10**4)

    def test_high_delta_against_direct_summation(self):
        sched = BandwidthSchedule.power(1.0, 0.8)
        res = mg.lemma_product_tail(sched, GAUSS, 1.0, 50)
        f = mg._log_factor_fn(sched, GAUSS, np.array([1.0]), "kde")
        total = 0.0 + 0.0j
        lo = 50
        for _ in range(30):
            k = np.arange(lo, lo + 10**6, dtype=float)
            total += np.sum(f(k))
            lo += 10**6
        assert abs(res.value - np.exp(total)) < 1e-9

    def test_complex_case_cut_stability(self):
        a = mg.lemma_product_tail(SCHED, HALF, 2.0, 100)
        f = mg._log_factor_fn(SCHED, HALF, np.array([2.0]), "kde")
        k = np.arange(100, 4096, dtype=float)
        head = np.exp(np.sum(f(k)))
        b = mg.lemma_product_tail(SCHED, HALF, 2.0, 4096, rel_tol=1e-10)
        assert abs(a.value - head * b.value) < 1e-9

    def test_monotone_certificates(self):
        bounds = [mg.product_tail_bound(SCHED, GAUSS, 1.0, n) for n in (10, 100, 1000, 10**4)]
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
            bound = mg.product_tail_bound(SCHED, GAUSS, 1.0, m1 + 1)
            diff = abs(partials[m2] - partials[m1])
            assert diff <= abs(partials[m1]) * (np.expm1(bound)) + 1e-12

    def test_no_envelope_for_table(self):
        sched = BandwidthSchedule.from_table([0.5] * 100)
        with pytest.raises(NoEnvelope):
            mg.lemma_product_tail(sched, GAUSS, 1.0, 5)

    def test_zero_factor_guard(self):
        with pytest.raises(ZeroFactor):
            mg.lemma_product_tail(SCHED, _NegatingCF(), 1.0, 1)

    def test_exponential_schedule_supported(self):
        sched = BandwidthSchedule.exponential(0.5)
        res = mg.lemma_product_tail(sched, GAUSS, 1.0, 3)
        f = mg._log_factor_fn(sched, GAUSS, np.array([1.0]), "kde")
        k = np.arange(3, 500, dtype=float)
        assert abs(res.value - np.exp(np.sum(f(k)))) < 1e-10


class TestCfMartingaleTrace:
    def test_t_zero_is_identically_one(self):
        streams = DrawStreams.from_seed(7, 0)
        traj = simulate("kde", SCHED, GAUSS, 50, streams)
        trace = mg.cf_martingale_trace(traj, SCHED, GAUSS, 0.0)
        np.testing.assert_array_equal(trace.martingale, np.ones(50, dtype=complex))

    def test_single_point_cf(self):
        traj = simulate("kde", SCHED, GAUSS, 1)
        trace = mg.cf_martingale_trace(traj, SCHED, GAUSS, 1.0)
        assert trace.phi[0] == pytest.approx(np.exp(-0.5), abs=1e-14)

    def test_recursive_bounded_by_one(self):
        streams = DrawStreams.from_seed(8, 0)
        traj = simulate("recursive", SCHED, GAUSS, 10**4, streams)
        trace = mg.cf_martingale_trace(traj, SCHED, GAUSS, 1.0)
        assert float(np.nanmax(np.abs(trace.martingale))) <= 1.0 + 1e-10
        assert float(np.nanmax(np.abs(trace.correction))) <= 1.0 + 1e-10

    def test_kde_bounded_by_correction_sup(self):
        streams = DrawStreams.from_seed(9, 0)
        traj = simulate("kde", SCHED, GAUSS, 2000, streams)
        trace = mg.cf_martingale_trace(traj, SCHED, GAUSS, 2.0)
        sup_c = trace.correction_sup()
        assert float(np.nanmax(np.abs(trace.martingale))) <= sup_c + 1e-10

    def test_correction_approaches_one(self):
        streams = DrawStreams.from_seed(10, 0)
        traj = simulate("recursive", SCHED, GAUSS, 5000, streams)
        trace = mg.cf_martingale_trace(traj, SCHED, GAUSS, 1.0)
        gaps = np.abs(trace.correction - 1.0)
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
        start, corr = mg.cf_corrections(SCHED, GAUSS, t, 64, "kde")
        a = mg.factor_values(SCHED, GAUSS, t, n, m, "kde")
        phi_h = GAUSS.cf_scaled(t, SCHED.values(m + 1))
        ratio_factors = a * phi_h[n : m + 1] / phi_h[n - 1 : m]
        partial = complex(np.prod(ratio_factors))
        slack = np.expm1(mg.product_tail_bound(SCHED, GAUSS, t, m + 1)) + 2 * abs(
            phi_h[m] - 1.0
        )
        assert abs(corr[n - 1] - partial) <= abs(partial) * slack + 1e-12

    def test_laplace_traces_full_pipeline(self):
        lap = KernelSpec("laplace")
        streams = DrawStreams.from_seed(71, 0)
        traj = simulate("recursive", SCHED, lap, 800, streams)
        tight = mg.tightness_trace(traj, SCHED, lap.norm_mean)
        assert np.all(tight.martingale >= tight.running_mean)
        trace = mg.cf_martingale_trace(traj, SCHED, lap, 1.5)
        assert float(np.nanmax(np.abs(trace.martingale))) <= 1.0 + 1e-10
        bound = mg.tail_prob_bound_check(
            tight, traj, SCHED, lap, threshold=10 * tight.running_mean[-1], at_times=[500]
        )
        assert bound.passed

    @pytest.mark.parametrize("kernel", [GAUSS, KernelSpec("gaussian", dim=3)], ids=["d1", "d3"])
    def test_traces_match_corrections_helper(self, kernel):
        streams = DrawStreams.from_seed(11, 0)
        traj = simulate("kde", SCHED, kernel, 300, streams)
        trace = mg.cf_martingale_trace(traj, SCHED, kernel, 1.5)
        start, corr = mg.cf_corrections(SCHED, kernel, 1.5, 300, "kde")
        assert start == trace.start_n
        np.testing.assert_allclose(corr, trace.correction, atol=1e-12)
        phi = cf_path(traj, SCHED, kernel, 1.5)
        np.testing.assert_allclose(trace.martingale, corr * phi, atol=1e-14)

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    @pytest.mark.parametrize("kernel", [GAUSS, KernelSpec("laplace")], ids=["gaussian", "laplace"])
    @pytest.mark.parametrize("t", [0.5, 2.0, 7.0])
    def test_corrections_match_suffix_loop(self, flavor, kernel, t):
        # Reference: the suffix product multiplied one factor at a time from
        # the far end, as a scalar loop.
        start, corr = mg.cf_corrections(SCHED, kernel, t, 400, flavor)
        factors = mg.factor_values(SCHED, kernel, t, start, 400, flavor)
        running = mg.lemma_product_tail(SCHED, kernel, t, 401, flavor=flavor).value
        expected = np.full(400, np.nan, dtype=complex)
        for i in range(len(factors) - 1, -1, -1):
            running = factors[i] * running
            expected[start - 1 + i] = running
        if flavor == "kde":
            expected[start - 1 :] /= kernel.cf_scaled(t, SCHED.values(400)[start - 1 :])
        np.testing.assert_array_equal(corr, expected)

    def test_vanishing_growth_factor_rejected(self):
        with pytest.raises(ZeroFactor):
            mg.cf_corrections(SCHED, _NegatingCF(), 1.0, 5, "kde")

    def test_kernel_cf_zero_inside_range_rejected(self):
        # start_n = 1 and every growth factor is non-zero, but the kde
        # correction divides by phi_K(h_3 t) = 0; the recursive one does not.
        with pytest.raises(ZeroDenominator):
            mg.cf_corrections(SCHED, _CFZeroAtH3(), 1.0, 5, "kde")
        start, corr = mg.cf_corrections(SCHED, _CFZeroAtH3(), 1.0, 5, "recursive")
        assert start == 1 and np.all(np.isfinite(corr))

    def test_start_index_beyond_horizon_rejected(self):
        with pytest.raises(ZeroDenominator):
            mg.cf_martingale_trace(
                simulate("kde", SCHED, HALF, 5, DrawStreams.from_seed(1, 1)),
                SCHED,
                HALF,
                20.0,
            )


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
        _, c = mg.cf_corrections(SCHED, GAUSS, t, n + 1, flavor)
        assert c[n - 1] * phi_n == pytest.approx(c[n] * expected, abs=1e-13)

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    def test_tightness_compensator_matches_enumeration(self, flavor):
        n = 23
        streams = DrawStreams.from_seed(56, 0)
        traj = simulate(flavor, SCHED, GAUSS, n, streams)
        ew1 = GAUSS.norm_mean
        u = mg.tightness_trace(
            simulate(flavor, SCHED, GAUSS, n, DrawStreams.from_seed(56, 0)), SCHED, ew1
        ).dominating
        h = SCHED.values(n)
        j_n = np.mean(u)
        # E[U_{n+1} | state] enumerated over ancestors with E[W] integrated.
        if flavor == "kde":
            expected_u = np.mean(u) + h[n - 1] * ew1
        else:
            expected_u = np.mean(u) + np.mean(h[:n]) * ew1
        expected_increment = (expected_u - j_n) / (n + 1)
        comp = mg.compensator_values(flavor, SCHED, ew1, n)[n - 1]
        assert comp == pytest.approx(expected_increment, rel=1e-13)


class TestDriftTest:
    def test_constant_sequences(self):
        v = np.ones(200)
        res = mg.drift_test(v - v)
        assert res.z_re == 0.0 and res.max_abs_z == 0.0 and res.passed

    def test_fair_increments_pass(self):
        rng = np.random.default_rng(13)
        inc = rng.choice([-1.0, 1.0], size=10**4)
        res = mg.drift_test(inc)
        assert res.max_abs_z < 4.0

    def test_biased_increments_flagged(self):
        rng = np.random.default_rng(14)
        inc = 0.1 + rng.standard_normal(10**4)
        res = mg.drift_test(inc)
        assert res.flagged
        assert res.z_re == pytest.approx(10.0, abs=2.0)

    def test_complex_components(self):
        rng = np.random.default_rng(15)
        inc = rng.standard_normal(500) + 1j * (0.5 + rng.standard_normal(500))
        res = mg.drift_test(inc)
        assert abs(res.z_re) < 4.0
        assert res.z_im > 4.0
        assert res.flagged

    def test_too_few(self):
        with pytest.raises(TooFewReplications):
            mg.drift_test(np.zeros(99))
