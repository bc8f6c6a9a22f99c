"""Martingale traces: compensators, product corrections, drift tests."""

import cmath
import re
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from kdeproc import (
    BandwidthSchedule,
    DrawStreams,
    KernelSpec,
    cf_path,
    dominating_path,
    predictive_mixture,
    simulate,
)
from kdeproc import bandwidth as bw
from kdeproc import martingale as mg
from kdeproc.config import ExperimentConfig
from kdeproc.errors import (
    NoEnvelope,
    ToleranceNotReached,
    TooFewReplications,
)
from kdeproc.harness import run
from kdeproc.kernels import frequency
from kdeproc.process import FLAVORS

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
            assert tail[n - 1] == pytest.approx(1.0 / n, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    def test_one_point_tail_is_closed_form(self, flavor):
        # No compensator term lies inside a one-point horizon, so the tail is
        # E[W] times the schedule's closed-form tail weight from n = 1, plus
        # H_1 / 1 for the recursive flavor.
        ew1 = GAUSS.norm_mean
        weight = SCHED.tail_weight(1, mg.BANDWIDTH_SHIFT[flavor])
        if flavor == "recursive":
            weight += H[0]
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
        schedule, kernel = cfg.schedule, cfg.kernel
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


class _CFZeroAtH3(_StubKernel):
    """Stub with CF 1 everywhere except 0 at exactly the bandwidth h_3."""

    def cf_scaled(self, t, scales):
        return np.where(np.asarray(scales) == SCHED.values(3)[2], 0.0, 1.0) + 0.0j


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


def factors_of_correction(corr):
    """a_n = P_n / P_{n+1} for n = 1..len(corr) - 1, read back from a
    correction."""
    return corr[:-1] / corr[1:]


# Keyword arguments of each kernel family beyond its dimension.
FAMILIES = {"gaussian": {}, "laplace": {}, "student_t": {"dof": 3.0}, "half_normal": {}}


class TestFactorValues:
    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    def test_at_zero(self, flavor):
        corr, _ = mg.cf_corrections(SCHED, H, GAUSS, 0.0, 100, flavor)
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
        corr, _ = mg.cf_corrections(SCHED, H, GAUSS, t, 8, flavor)
        got = factors_of_correction(corr)[2:]
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
        # The certified tail past n_max is stubbed to 1: it scales every
        # entry alike, so the factor ratios read the in-range pass alone,
        # also where the tail cannot be certified.
        unit_tail = mg.ProductTail(value=1.0 + 0.0j, from_n=n_max + 1, lemma_bound=0.0,
                                   numerical_error=0.0)
        with mock.patch.object(mg, "lemma_product_tail", return_value=unit_tail):
            corr, _ = mg.cf_corrections(SCHED, H, kernel, t, n_max, flavor)
        assert np.all(np.isfinite(corr))
        got = factors_of_correction(corr)
        expected = oracle_factors(SCHED, kernel, t, 1, n_max - 1, flavor)
        np.testing.assert_allclose(got, expected, rtol=1e-10, atol=0.0)


class TestStartIndex:
    """Either correction starts at n = 1: every entry is a finite suffix
    product, also where the kernel CF row is near 0."""

    def test_gaussian_immediate(self):
        # The kde path at n = 1 is the origin's phase, 1, so the martingale
        # starts at P_1 itself; the mixture CF there is phi_K(h_1 t).
        traj = simulate("kde", SCHED, GAUSS, 50, DrawStreams.from_seed(5, 0))
        corr, row = mg.cf_corrections(SCHED, H, GAUSS, 1.0, 50, "kde")
        phi, path = cf_path(traj, 1.0, row)
        assert path[0] == 1.0 and (corr * path)[0] == corr[0]
        assert phi[0] == row[0]

    def test_half_normal_large_t(self):
        # |phi_K(h_n t)| stays at or below 0.1 for the first n, where the kde
        # correction used to divide by it; the suffix product is finite and
        # inside the unit disc from n = 1.
        corr, row = mg.cf_corrections(SCHED, H, HALF, 15.0, 1000, "kde")
        assert np.all(np.abs(row[:5]) <= 0.1)
        assert np.all(np.isfinite(corr)) and np.all(corr != 0)
        assert np.all(np.abs(corr) <= 1.0)

    @staticmethod
    def _starts_at_one(t, flavor):
        sched = BandwidthSchedule.default(1)
        corr, _ = mg.cf_corrections(sched, sched.values(1001), GAUSS, t, 1000, flavor)
        assert np.all(np.isfinite(corr))
        factors = factors_of_correction(corr)
        expected = oracle_factors(sched, GAUSS, t, 1, 999, flavor)
        np.testing.assert_allclose(factors, expected, rtol=1e-10, atol=0.0)
        assert np.all(np.abs(corr) <= 1.0)

    @pytest.mark.parametrize("t", [5.0, 10.0])
    def test_recursive_starts_at_one(self, t):
        self._starts_at_one(t, "recursive")

    @pytest.mark.parametrize("t", [5.0, 10.0])
    def test_kde_starts_at_one(self, t):
        # Where dividing by phi_K(h_n t) used to start the kde correction at
        # n = 69 (t = 5), or nowhere up to n = 1000 (t = 10).
        self._starts_at_one(t, "kde")

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
            corr, row = mg.cf_corrections(SCHED, H, kernel, 0.7, n_max, flavor)
        assert calls == [(n_max + shift,)]
        assert sum(elements) == (n_max + shift) * d
        assert row.shape == corr.shape == (n_max,)

    @pytest.mark.parametrize("flavor, needed", [("kde", 20), ("recursive", 21)])
    def test_bandwidths_must_cover_the_shift(self, flavor, needed):
        # n = 1..20 reads h_1..h_{20+s}: one past the horizon for recursive.
        with pytest.raises(ValueError, match=f"h_1..h_{needed}, got {needed - 1}"):
            mg.cf_corrections(SCHED, H[: needed - 1], GAUSS, 1.0, 20, flavor)
        corr, row = mg.cf_corrections(SCHED, H[:needed], GAUSS, 1.0, 20, flavor)
        want = mg.cf_corrections(SCHED, H, GAUSS, 1.0, 20, flavor)
        assert corr.tobytes() == want[0].tobytes() and row.tobytes() == want[1].tobytes()


class TestLogFactor:
    @settings(max_examples=300, deadline=None)
    @given(modulus=st.floats(1e-300, 1e-2), angle=st.floats(-np.pi, np.pi))
    def test_log1p_within_ulps_of_w(self, modulus, angle):
        # Each log growth factor is off by a few ulp of w, not of 1: a tail
        # of 10^8 factors would otherwise gather ~1e-8.  The Taylor series,
        # summed smallest term first, is that accurate at |w| <= 1e-2.
        w = cmath.rect(modulus, angle)
        want = sum((-1) ** (j + 1) * w**j / j for j in range(11, 0, -1))
        got = complex(mg._log1p_complex(np.array([w]))[0])
        assert abs(got - want) <= 8 * np.finfo(float).eps * abs(w)

    def test_log1p_away_from_zero(self):
        w = np.array([0.7 - 0.2j, -0.6 + 0.1j, 2.0 + 3.0j])
        np.testing.assert_allclose(mg._log1p_complex(w), np.log(1.0 + w), rtol=1e-15, atol=0.0)


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

    def test_exponential_schedule_supported(self):
        sched = BandwidthSchedule.exponential(0.5)
        res = mg.lemma_product_tail(sched, GAUSS, 1.0, 3, "kde")
        f = mg._log_factor_fn(sched, GAUSS, np.array([1.0]), "kde")
        k = np.arange(3, 500, dtype=float)
        assert abs(res.value - np.exp(np.sum(f(k)))) < 1e-10


def two_pass_tail_sum(schedule, f, n, epsabs, epsrel):
    """Oracle for ``BandwidthSchedule.tail_sum``: the same cut, map and
    tolerances, but one quadrature pass for the real part and one for the
    imaginary part of complex terms, each calling f at its own nodes, then
    seven calls at the five endpoint points, one length-1 array a call."""

    def at(x):
        return f(np.array([x], dtype=float))[0]

    cut = max(n, bw.TAIL_CUT)
    if schedule.form == "exponential" and schedule.rate > bw._EM_MAX_RATE:
        cut = max(cut, n + int(np.ceil(37.0 / schedule.rate)))
    k = np.arange(n, cut, dtype=float)
    direct = np.sum(f(k)) if k.size else 0.0
    p = 1.0 / schedule.delta if schedule.form == "power" else 1.0

    def quad_part(g):
        return integrate.quad(
            lambda u: g(at(cut * u ** (-p))) * (cut * p * u ** (-p - 1.0)), 0.0, 1.0,
            epsabs=epsabs, epsrel=epsrel, limit=400, full_output=1,
        )[:2]

    re_val, err = quad_part(lambda v: float(v.real))
    if np.iscomplexobj(at(cut)):
        im_val, im_err = quad_part(lambda v: float(v.imag))
        integral, err = re_val + 1j * im_val, err + im_err
    else:
        integral = re_val
    d1 = at(cut + 0.5) - at(cut - 0.5)
    d3 = at(cut + 1.5) - 3 * at(cut + 0.5) + 3 * at(cut - 0.5) - at(cut - 1.5)
    remainder = integral + 0.5 * at(cut) - d1 / 12.0
    err += 7.0 * abs(d3) / 1440.0 + 1e-15 * (abs(direct) + abs(remainder))
    return direct + remainder, float(err)


def counting(f):
    """f with a record of every call: the points it was called at, as one
    flat float array per call."""
    calls = []

    def counted(x):
        calls.append(np.array(x, dtype=float).ravel())
        return f(x)

    return counted, calls


def points(calls) -> list:
    """Every point of every recorded call, in call order."""
    return np.concatenate(calls).tolist()


def assert_tails_agree(got, want):
    """Two certified product tails agree to the tolerances they are certified
    to: the values to PRODUCT_TAIL_REL_TOL relative, and the lemma bounds,
    tail weights times one constant, to TAIL_WEIGHT_REL_TOL."""
    assert got.from_n == want.from_n
    assert abs(got.value - want.value) <= mg.PRODUCT_TAIL_REL_TOL * abs(want.value)
    assert got.lemma_bound == pytest.approx(want.lemma_bound, rel=bw.TAIL_WEIGHT_REL_TOL, abs=0.0)


class TestTailQuadrature:
    """``tail_sum``'s own Gauss-Kronrod rule against the two-pass oracle,
    which integrates through QUADPACK's quad."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    @pytest.mark.parametrize("t", [0.5, 2.0, -3.0])
    @pytest.mark.parametrize("from_n", [1, 100, 5000])
    def test_matches_two_pass_oracle(self, family, flavor, t, from_n):
        kernel = KernelSpec(family, **FAMILIES[family])
        got = mg.lemma_product_tail(SCHED, kernel, t, from_n, flavor)
        with mock.patch.object(BandwidthSchedule, "tail_sum", two_pass_tail_sum):
            want = mg.lemma_product_tail(SCHED, kernel, t, from_n, flavor)
        assert_tails_agree(got, want)

    @pytest.mark.parametrize("rate", [0.01, 1e-9])
    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    def test_matches_two_pass_oracle_exponential(self, flavor, rate):
        # Rate 0.01 sums a longer head directly; at rate 1e-9 the map spreads
        # the stretch below 1/rate on a log-uniform scale.
        sched = BandwidthSchedule.exponential(rate)
        kernel = KernelSpec("half_normal", dim=2)
        got = mg.lemma_product_tail(sched, kernel, 1.5, 40, flavor)
        with mock.patch.object(BandwidthSchedule, "tail_sum", two_pass_tail_sum):
            want = mg.lemma_product_tail(sched, kernel, 1.5, 40, flavor)
        assert_tails_agree(got, want)

    @pytest.mark.parametrize(
        "schedule",
        [SCHED, BandwidthSchedule.exponential(0.01), BandwidthSchedule.exponential(1e-9)],
        ids=["power", "exponential", "slow-exponential"],
    )
    @pytest.mark.parametrize("kernel", [GAUSS, HALF], ids=["gaussian", "half_normal"])
    def test_each_point_evaluated_once(self, schedule, kernel):
        # One call for the direct head with the five difference points, then
        # one per quadrature round of 21 nodes for each new interval: no point
        # twice, and fewer points than the two-pass form, which integrates the
        # imaginary part apart and calls f one point at a time.
        f = mg._log_factor_fn(schedule, kernel, np.array([2.0]), "kde")
        tol = mg.PRODUCT_TAIL_REL_TOL / 4
        once, calls = counting(f)
        got, _ = schedule.tail_sum(once, 4096, tol, 0.0)
        twice, oracle_calls = counting(f)
        want, _ = two_pass_tail_sum(schedule, twice, 4096, tol, 0.0)
        nodes, oracle_nodes = points(calls), points(oracle_calls)
        assert abs(got - want) <= mg.PRODUCT_TAIL_REL_TOL
        assert len(nodes) == len(set(nodes))
        cut = calls[0][-5]
        assert calls[0][:-5].tolist() == list(range(4096, int(cut)))
        assert calls[0][-4:].tolist() == [cut + 0.5, cut - 0.5, cut + 1.5, cut - 1.5]
        assert all(c.size % 21 == 0 for c in calls[1:])
        assert len(oracle_nodes) > len(nodes)

    @pytest.mark.parametrize("family", ["gaussian", "half_normal", "laplace"])
    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("from_n", [1001, 25_001])
    def test_one_call_per_round_past_the_head(self, family, flavor, t, from_n):
        # The rule resolves these tails on its first interval: one call for
        # the direct head (from_n up to the cut) with the five difference
        # points, then one of the interval's 21 nodes.
        schedule = BandwidthSchedule.default(1)
        f = mg._log_factor_fn(schedule, KernelSpec(family), frequency(t, 1), flavor)
        counted, calls = counting(f)
        schedule.tail_sum(counted, from_n, mg.PRODUCT_TAIL_REL_TOL / 4, 0.0)
        head = max(0, bw.TAIL_CUT - from_n)
        assert [c.size for c in calls] == [head + 5, 21]

    @pytest.mark.parametrize("shift", [0, 1])
    @pytest.mark.parametrize("from_n", [1001, 25_001])
    def test_tail_weight_one_call_per_round_past_the_head(self, shift, from_n):
        schedule = BandwidthSchedule.default(1)
        with mock.patch.object(
            BandwidthSchedule, "law", autospec=True, side_effect=BandwidthSchedule.law
        ) as law:
            schedule.tail_weight(from_n, shift)
        head = max(0, bw.TAIL_CUT - from_n)
        assert [np.size(c.args[1]) for c in law.call_args_list] == [head + 5, 21]

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(["gaussian", "half_normal", "laplace"]),
        d=st.integers(1, 3),
        t=st.lists(st.floats(0.1, 5.0), min_size=3, max_size=3),
        signs=st.lists(st.sampled_from([-1.0, 1.0]), min_size=3, max_size=3),
        n=st.integers(1, 30_000),
        flavor=st.sampled_from(FLAVORS),
        schedule=st.one_of(
            st.floats(0.05, 0.5).map(lambda delta: BandwidthSchedule.power(1.0, delta)),
            st.floats(-9.0, -3.0).map(lambda e: BandwidthSchedule.exponential(10.0**e)),
        ),
    )
    def test_matches_scalar_node_oracle(self, family, d, t, signs, n, flavor, schedule):
        # The log-sum, to the 1e-8 its tails are certified to, against the
        # oracle that calls f one scalar at a time, on tails resolved on the
        # first interval and on tails that subdivide (slow exponential rates).
        t = np.array(t[:d]) * np.array(signs[:d])
        f = mg._log_factor_fn(schedule, KernelSpec(family, dim=d), t, flavor)
        tol = mg.PRODUCT_TAIL_REL_TOL / 4
        got, want = schedule.tail_sum(f, n, tol, 0.0), two_pass_tail_sum(schedule, f, n, tol, 0.0)
        assert abs(got[0] - want[0]) <= mg.PRODUCT_TAIL_REL_TOL

    @pytest.mark.parametrize(
        "schedule", [SCHED, BandwidthSchedule.exponential(1e-9)], ids=["power", "exponential"]
    )
    def test_complex_terms_take_one_pass(self, schedule):
        # The tail weight's terms as they are and as complex numbers with a
        # zero imaginary part: the same calls at the same points, and the
        # same value up to the rounding of complex arithmetic.
        weight = lambda x: schedule.law(x) / (x + 1.0)  # noqa: E731
        real, real_calls = counting(weight)
        value, _ = schedule.tail_sum(real, 4096, 0.0, 1e-13)
        both, complex_calls = counting(lambda x: weight(x) + 0j)
        z, _ = schedule.tail_sum(both, 4096, 0.0, 1e-13)
        assert isinstance(value, float) and z.imag == 0.0
        assert z.real == pytest.approx(value, rel=1e-15, abs=0.0)
        assert [c.tolist() for c in complex_calls] == [c.tolist() for c in real_calls]


def direct_product_log(schedule, kernel, t, from_n, flavor, stop):
    """log prod_{k>=from_n} a_k without tail_sum: the terms summed directly
    below ``stop``, the rest as the integral over x in decade segments (40
    Gauss-Legendre nodes in ln x each) plus f(stop)/2 - f'(stop)/12."""
    f = mg._log_factor_fn(schedule, kernel, frequency(t, kernel.dim), flavor)
    total = 0j
    for lo in range(from_n, stop, 10**6):
        total += np.sum(f(np.arange(lo, min(lo + 10**6, stop), dtype=float)))
    nodes, weights = np.polynomial.legendre.leggauss(40)
    edges = np.log(stop) + np.log(10.0) * np.arange(0, 300)
    mid, half = (edges[1:] + edges[:-1]) / 2, (edges[1:] - edges[:-1]) / 2
    y = (mid[:, None] + half[:, None] * nodes).ravel()
    x = np.exp(y)
    total += np.sum(np.repeat(half, nodes.size) * np.tile(weights, mid.size) * f(x) * x)
    ends = f(np.array([stop, stop + 0.5, stop - 0.5], dtype=float))
    return total + ends[0] / 2 - (ends[1] - ends[2]) / 12


class TestProductTailOracle:
    """The certified product tail against a direct sum and a log-spaced
    integral that share no code with tail_sum."""

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    def test_slow_exponential(self, flavor):
        # h_n = exp(-1e-9 n): the factors fall like 1/n up to n ~ 1e9.
        sched = BandwidthSchedule.exponential(1e-9)
        tail = mg.lemma_product_tail(sched, GAUSS, 1.0, 51, flavor)
        want = np.exp(direct_product_log(sched, GAUSS, 1.0, 51, flavor, 10**7))
        assert abs(tail.value - want) <= tail.numerical_error
        assert tail.numerical_error <= mg.PRODUCT_TAIL_REL_TOL * abs(tail.value)

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    @pytest.mark.parametrize(
        "t, from_n, rate", [((16.0, -17.0), 27_410, 2.5e-9), ((10.0, -7.0), 23_471, 7.5e-9)]
    )
    def test_half_normal_phase_on_slow_exponential(self, flavor, t, from_n, rate):
        # The log-sum's imaginary part, the phase of half_normal's CF, lives
        # where h ~ 1, far from the map's first interval.  Integrated apart
        # by QUADPACK it read 0.0 at t = (16, -17), where it is -0.0192, and
        # the tail was certified 1.9% off; at t = (10, -7) it was refused.
        sched = BandwidthSchedule.exponential(rate)
        kernel = KernelSpec("half_normal", dim=2)
        tail = mg.lemma_product_tail(sched, kernel, t, from_n, flavor)
        want = np.exp(direct_product_log(sched, kernel, t, from_n, flavor, 10**6))
        assert abs(tail.value - want) <= tail.numerical_error
        assert tail.numerical_error <= mg.PRODUCT_TAIL_REL_TOL * abs(tail.value)

    def test_heavy_tailed_kernel_on_slow_power(self):
        # student_t with dof 1.5 at d = 3, t = 20 on h_n = n^(-0.05): the
        # factors fall like n^(-1.075).  Its CF costs ~1 s per 10^6 terms,
        # so the direct part stops at 10^6.
        kernel = KernelSpec("student_t", dim=3, dof=1.5)
        sched = BandwidthSchedule.power(1.0, 0.05)
        tail = mg.lemma_product_tail(sched, kernel, 20.0, 1000, "recursive")
        want = np.exp(direct_product_log(sched, kernel, 20.0, 1000, "recursive", 10**6))
        assert abs(tail.value - want) <= tail.numerical_error
        assert tail.numerical_error <= mg.PRODUCT_TAIL_REL_TOL * abs(tail.value)


class TestToleranceMessage:
    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    @pytest.mark.parametrize("t", [20.0, np.full(3, 20.0)], ids=["scalar", "vector"])
    def test_names_where_and_how_far(self, flavor, t):
        # student_t with dof 1.5 at d = 3, t = 20 on h_n = n^(-0.05): the
        # tail from n = 1000 certifies.  Under a tolerance no log-sum can
        # reach, the refusal names the point (a scalar t names the same
        # point (20, 20, 20)), the flavor, the start and the error reached.
        kernel = KernelSpec("student_t", dim=3, dof=1.5)
        sched = BandwidthSchedule.power(1.0, 0.05)
        tail = mg.lemma_product_tail(sched, kernel, t, 1000, flavor)
        assert 0 < abs(tail.value) < 1e-30
        with mock.patch.object(mg, "PRODUCT_TAIL_REL_TOL", 1e-16):
            with pytest.raises(ToleranceNotReached) as info:
                mg.lemma_product_tail(sched, kernel, t, 1000, flavor)
        message = str(info.value)
        assert message.startswith(
            f"CF product tail at t=(20, 20, 20), flavor {flavor}, from n=1000: relative error "
        )
        assert message.endswith("above the tolerance 1e-16")
        reached = float(message.split("relative error ")[1].split(" ")[0])
        assert reached > 1e-16

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    def test_substitution_out_of_float_range(self, flavor):
        # h_n = n^(-0.001) maps u in (0, 1] to x = n u^(-1000), beyond the
        # float range near u = 0: a ToleranceNotReached naming t, the flavor
        # and the start, not an OverflowError.
        sched = BandwidthSchedule.power(1.0, 1e-3)
        with pytest.raises(ToleranceNotReached) as info:
            mg.lemma_product_tail(sched, GAUSS, 1.0, 51, flavor)
        assert str(info.value) == (
            f"CF product tail at t=(1), flavor {flavor}, from n=51: the tail quadrature "
            "from the cut n=4096 leaves the float range"
        )

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    @pytest.mark.parametrize("d, t", [(2, 5.0), (3, 3.0), (3, 5.0)])
    def test_log_sum_error_is_the_relative_error(self, flavor, d, t):
        # half_normal on the default schedule from n = 1001: |tail| is as
        # small as 1e-6, and the log-sum error, which is the tail's relative
        # error, meets the tolerance at the one cut.
        kernel = KernelSpec("half_normal", dim=d)
        sched = BandwidthSchedule.default(d)
        t_arr = np.full(d, t)
        with mock.patch.object(
            BandwidthSchedule, "tail_sum", autospec=True, side_effect=BandwidthSchedule.tail_sum
        ) as spy:
            tail = mg.lemma_product_tail(sched, kernel, t_arr, 1001, flavor)
        # The log-sum, then the tail weight of the lemma bound.
        assert spy.call_count == 2
        log_sum = spy.call_args_list[0].args
        assert log_sum[2:] == (1001, mg.PRODUCT_TAIL_REL_TOL / 4, 0.0)
        _, log_err = sched.tail_sum(*log_sum[1:])
        assert log_err <= mg.PRODUCT_TAIL_REL_TOL
        assert tail.numerical_error == log_err * abs(tail.value)
        assert abs(tail.value) < 1e-3
        h = sched.values(1001)
        corr, _ = mg.cf_corrections(sched, h, kernel, t_arr, 1000, flavor)
        assert corr[-1] != 0 and np.isfinite(corr[-1])


def _entry_points(kernel, flavor):
    """Every CF entry point as a function of t alone, on a fixed trajectory
    of the kernel's dimension; each returns a tuple of its results."""
    traj = simulate(flavor, SCHED, kernel, 40, DrawStreams.from_seed(3, 0))
    scales = H[:40]
    return {
        "KernelSpec.cf": lambda t: (kernel.cf(t),),
        "cf_scaled": lambda t: (kernel.cf_scaled(t, scales),),
        "cf_scaled_minus_one": lambda t: (kernel.cf_scaled_minus_one(t, scales),),
        "PredictiveMixture.cf": lambda t: (predictive_mixture(traj, H, kernel).cf(t),),
        "cf_path": lambda t: cf_path(traj, t, kernel.cf_scaled(t, scales)),
        "lemma_constant": lambda t: (mg.lemma_constant(kernel, t),),
        "product_tail_bound": lambda t: (mg.product_tail_bound(SCHED, kernel, t, 40, flavor),),
        "lemma_product_tail": lambda t: (mg.lemma_product_tail(SCHED, kernel, t, 41, flavor),),
        "cf_corrections": lambda t: mg.cf_corrections(SCHED, H, kernel, t, 40, flavor),
    }


ENTRY_POINTS = sorted(_entry_points(GAUSS, "kde"))


def _bits(results) -> list:
    """The bytes of each result; of a ProductTail, its value and certificates."""
    return [
        np.asarray(astuple(r) if isinstance(r, mg.ProductTail) else r).tobytes()
        for r in results
    ]


class TestFrequencyRule:
    """A scalar t is the point (t, ..., t) of R^d at every CF entry point."""

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_scalar_is_the_diagonal_point(self, family, d, entry):
        kernel = KernelSpec(family, dim=d, **FAMILIES[family])
        for flavor in FLAVORS:
            call = _entry_points(kernel, flavor)[entry]
            for t in (0.7, -2.0):
                want = _bits(call(np.full(d, t)))
                assert _bits(call(t)) == want
                assert _bits(call([t])) == want

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize("d, t", [(3, [1.0, 1.0]), (1, [0.5, 0.5]), (2, [[1.0], [1.0]])])
    def test_other_shapes_name_the_dimension(self, entry, d, t):
        call = _entry_points(KernelSpec("half_normal", dim=d), "kde")[entry]
        where = re.escape(f"({d},)") + ".*" + re.escape(f"got shape {np.shape(t)}")
        with pytest.raises(ValueError, match=where):
            call(t)

    def test_gaussian_d3_values(self):
        # phi(u) = exp(-|u|^2 / 2), so a scalar 2.0 in d = 3 gives exp(-6).
        kernel = KernelSpec("gaussian", dim=3)
        # 1 + (phi - 1) rounds at the scale of 1, which is 4e-14 relative to e^-6.
        assert kernel.cf(2.0) == pytest.approx(np.exp(-6.0), rel=1e-13, abs=0.0)
        assert kernel.cf_scaled(2.0, [1.0])[0] == kernel.cf(2.0)
        # ||t|| (0 + 2 E||Y||) with ||(1, 1, 1)|| = sqrt(3) and E||Y|| = 2 sqrt(2/pi).
        assert mg.lemma_constant(kernel, 1.0) == pytest.approx(
            np.sqrt(3.0) * 4.0 * np.sqrt(2.0 / np.pi), rel=1e-14, abs=0.0
        )
        # t't overflows past |t| ~ 1e154, the norm does not.
        assert mg.lemma_constant(kernel, 1e200) == pytest.approx(
            1e200 * np.sqrt(3.0) * 4.0 * np.sqrt(2.0 / np.pi), rel=1e-14, abs=0.0
        )
        tail = mg.lemma_product_tail(SCHED, kernel, 1.0, 1001, "kde").value
        assert tail == pytest.approx(0.79372, abs=5e-6)


# Each function of a flavor, called with every other argument valid.
FLAVORED = {
    "compensator_values": lambda f: mg.compensator_values(f, H, 1.0, 10),
    "compensator_tails": lambda f: mg.compensator_tails(f, SCHED, H, 1.0, 10),
    "dominating_tail_mass": lambda f: mg.dominating_tail_mass(f, np.ones(10), H, GAUSS, 2.0, [3]),
    "product_tail_bound": lambda f: mg.product_tail_bound(SCHED, GAUSS, 1.0, 10, f),
    "lemma_product_tail": lambda f: mg.lemma_product_tail(SCHED, GAUSS, 1.0, 10, f),
    "cf_corrections": lambda f: mg.cf_corrections(SCHED, H, GAUSS, 1.0, 10, f),
}


@pytest.mark.parametrize("name", sorted(FLAVORED))
@pytest.mark.parametrize("flavor", ["KDE", "adaptive", ""])
def test_unknown_flavor_is_refused(name, flavor):
    # The message simulate gives, from the one check they share.
    with pytest.raises(ValueError, match=f"unknown flavor {flavor!r}; expected one of"):
        FLAVORED[name](flavor)
    with pytest.raises(ValueError, match=f"unknown flavor {flavor!r}; expected one of"):
        simulate(flavor, SCHED, GAUSS, 1)
    for known in FLAVORS:
        FLAVORED[name](known)


def cf_martingale(traj, schedule, kernel, t):
    """(correction, phi, martingale) composed as the run modes do."""
    h = schedule.values(len(traj) + 1)
    corr, kernel_cf = mg.cf_corrections(schedule, h, kernel, t, len(traj), traj.flavor)
    phi, path = cf_path(traj, t, kernel_cf)
    return corr, phi, corr * path


def oracle_cf_martingale(traj, schedule, kernel, t):
    """P_n X_n for n = 1..N by pure-Python loops: P_n the suffix product of
    scalar growth factors times the certified tail, X_n the explicit phase
    sum (1/n) sum_{i<=n} w_i exp(i t'x_i), with w_i = phi_K(h_i t) for the
    frozen bandwidth (the mixture CF) and 1 for the shared one (psi_n)."""
    n_pts = len(traj)
    t = np.broadcast_to(np.asarray(t, dtype=float), (kernel.dim,))
    s = mg.BANDWIDTH_SHIFT[traj.flavor]
    h = [float(v) for v in schedule.values(n_pts + s)]
    running = mg.lemma_product_tail(schedule, kernel, t, n_pts + 1, traj.flavor).value
    suffix = [0j] * n_pts
    for n in range(n_pts, 0, -1):
        running *= 1.0 + (complex(kernel.cf(h[n + s - 1] * t)) - 1.0) / (n + 1)
        suffix[n - 1] = running
    total = 0j
    out = []
    for n in range(1, n_pts + 1):
        x = [float(v) for v in traj.points[n - 1]]
        phase = cmath.exp(1j * sum(tj * xj for tj, xj in zip(t.tolist(), x)))
        weight = 1.0 if traj.flavor == "kde" else complex(kernel.cf(h[n - 1] * t))
        total += weight * phase
        out.append(suffix[n - 1] * total / n)
    return np.array(out)


class TestCfMartingaleTrace:
    def test_t_zero_is_identically_one(self):
        streams = DrawStreams.from_seed(7, 0)
        traj = simulate("kde", SCHED, GAUSS, 50, streams)
        _, _, mart = cf_martingale(traj, SCHED, GAUSS, 0.0)
        np.testing.assert_array_equal(mart, np.ones(50, dtype=complex))

    def test_single_point_cf(self):
        traj = simulate("kde", SCHED, GAUSS, 1)
        _, phi, _ = cf_martingale(traj, SCHED, GAUSS, 1.0)
        assert phi[0] == pytest.approx(np.exp(-0.5), abs=1e-14)

    def test_recursive_bounded_by_one(self):
        streams = DrawStreams.from_seed(8, 0)
        traj = simulate("recursive", SCHED, GAUSS, 10**4, streams)
        corr, _, mart = cf_martingale(traj, SCHED, GAUSS, 1.0)
        assert float(np.max(np.abs(mart))) <= 1.0 + 1e-10
        assert float(np.max(np.abs(corr))) <= 1.0 + 1e-10

    def test_kde_bounded_by_correction_sup(self):
        streams = DrawStreams.from_seed(9, 0)
        traj = simulate("kde", SCHED, GAUSS, 2000, streams)
        corr, _, mart = cf_martingale(traj, SCHED, GAUSS, 2.0)
        sup_c = float(np.max(np.abs(corr)))
        assert float(np.max(np.abs(mart))) <= sup_c + 1e-10

    def test_correction_approaches_one(self):
        corr, _ = mg.cf_corrections(SCHED, H, GAUSS, 1.0, 5000, "recursive")
        gaps = np.abs(corr - 1.0)
        checkpoints = np.array([10, 100, 1000, 4999]) - 1
        vals = gaps[checkpoints]
        assert all(x > y for x, y in zip(vals, vals[1:]))
        bound = mg.product_tail_bound(SCHED, GAUSS, 1.0, 5000, "recursive")
        assert vals[-1] <= np.expm1(bound) + 1e-10

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_martingale_matches_pure_python_oracle(self, family, d, flavor):
        # From n = 1, for either flavor: t = 3 puts phi_K(h_n t) near or
        # below 0.1 for the first n in every family.
        kernel = KernelSpec(family, dim=d, **FAMILIES[family])
        t = np.linspace(3.0, 2.0, d)
        traj = simulate(flavor, SCHED, kernel, 120, DrawStreams.from_seed(31, d))
        _, _, mart = cf_martingale(traj, SCHED, kernel, t)
        np.testing.assert_allclose(mart, oracle_cf_martingale(traj, SCHED, kernel, t),
                                   rtol=1e-10, atol=0.0)

    def test_laplace_traces_full_pipeline(self):
        lap = KernelSpec("laplace")
        streams = DrawStreams.from_seed(71, 0)
        traj = simulate("recursive", SCHED, lap, 800, streams)
        u, j, _, s = tightness(traj, SCHED, lap.norm_mean)
        assert np.all(s >= j)
        _, _, mart = cf_martingale(traj, SCHED, lap, 1.5)
        assert float(np.max(np.abs(mart))) <= 1.0 + 1e-10
        excess, _, _ = markov_excess("recursive", u, j, lap, 10 * j[-1], times=[500])
        assert excess <= mg.TAIL_BOUND_TOLERANCE

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    @pytest.mark.parametrize("kernel", [GAUSS, KernelSpec("laplace")], ids=["gaussian", "laplace"])
    @pytest.mark.parametrize("t", [0.5, 2.0, 7.0])
    def test_corrections_match_suffix_loop(self, flavor, kernel, t):
        # Reference: the suffix product multiplied one factor at a time from
        # the far end, as a scalar loop, over the same factor floats.
        corr, _ = mg.cf_corrections(SCHED, H, kernel, t, 400, flavor)
        shift = mg.BANDWIDTH_SHIFT[flavor]
        h = SCHED.values(400 + shift)[shift:]
        n = np.arange(1, 401, dtype=float)
        factors = 1.0 + mg._factor_deviation(kernel.cf_scaled_minus_one(t, h), n)
        running = mg.lemma_product_tail(SCHED, kernel, t, 401, flavor).value
        expected = np.empty(400, dtype=complex)
        for i in range(len(factors) - 1, -1, -1):
            running = factors[i] * running
            expected[i] = running
        np.testing.assert_array_equal(corr, expected)

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    def test_kernel_cf_zero_inside_range_accepted(self, flavor):
        # phi_K(h_3 t) = 0, but every growth factor is non-zero, and neither
        # correction divides by the kernel CF row.
        corr, row = mg.cf_corrections(SCHED, H, _CFZeroAtH3(), 1.0, 5, flavor)
        assert np.all(np.isfinite(corr)) and np.all(corr != 0)
        assert row[2] == 0.0


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
        # The path X the correction multiplies: the phase mean psi_n (kde)
        # or the mixture CF phi_n (recursive), a mean of weighted phases.
        if flavor == "kde":
            weighted = phases
            new_scale = h[n - 1]
        else:
            weighted = phases * GAUSS.cf_scaled(t, h[:n])
            new_scale = h[n]
        path_n = np.mean(weighted)
        # E[X_{n+1} | state]: the old terms plus the new point's, averaged
        # over the n ancestors with the kernel draw integrated via phi_K.
        expected = (
            np.sum(weighted) + path_n * GAUSS.cf_scaled(t, np.array([new_scale]))[0]
        ) / (n + 1)
        # The production martingale P_n X_n has this as its one-step mean.
        c, _ = mg.cf_corrections(SCHED, H, GAUSS, t, n + 1, flavor)
        assert c[n - 1] * path_n == pytest.approx(c[n] * expected, abs=1e-13)

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
        assert comp == pytest.approx(expected_increment, rel=1e-13, abs=0.0)


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
