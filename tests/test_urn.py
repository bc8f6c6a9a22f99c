"""Descendant laws: exact pmf, tail bounds, simulated counts, limit fractions."""

from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from kdeproc import BandwidthSchedule, DrawStreams, KernelSpec, simulate
from kdeproc.errors import DomainError, TrajectoryTooShort
from kdeproc.urn import (
    ContrastReport,
    betabinom_pmf,
    betabinom_pmf_vector,
    descendant_fraction_path,
    descendant_tail_bound,
    max_descendant_tail_bound,
    simulate_descendants,
    support_contrast_experiment,
    two_proportion_one_sided,
)

SCHED = BandwidthSchedule.power(1.0, 0.2)
GAUSS = KernelSpec("gaussian")


def enumerate_urn_law(n: int) -> list[Fraction]:
    """Exact descendant-count law by exhaustive path enumeration.

    Start with 1 black and n-1 red balls; draw n times, returning the drawn
    color plus one more of it each time.  Exact rational arithmetic.
    """
    pmf = [Fraction(0)] * (n + 1)

    def walk(draws_left: int, blacks_drawn: int, black: int, total: int, prob: Fraction):
        if draws_left == 0:
            pmf[blacks_drawn] += prob
            return
        walk(draws_left - 1, blacks_drawn + 1, black + 1, total + 1, prob * Fraction(black, total))
        walk(draws_left - 1, blacks_drawn, black, total + 1, prob * Fraction(total - black, total))

    walk(n, 0, 1, n, Fraction(1))
    return pmf


class TestExactPmf:
    def test_two_step_urn_is_uniform(self):
        got = betabinom_pmf_vector(2)
        np.testing.assert_allclose(got, [1 / 3, 1 / 3, 1 / 3], atol=1e-14)

    def test_three_step_example(self):
        # C(3,0) B(1,5) / B(1,2) = (1/5)/(1/2) = 2/5
        assert betabinom_pmf(3, 0) == pytest.approx(0.4, abs=1e-14)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_exhaustive_enumeration(self, n):
        exact = [float(p) for p in enumerate_urn_law(n)]
        got = betabinom_pmf_vector(n)
        np.testing.assert_allclose(got, exact, atol=1e-13)

    @pytest.mark.parametrize("n", [2, 10, 50, 137, 200])
    def test_normalization(self, n):
        assert abs(betabinom_pmf_vector(n).sum() - 1.0) <= 1e-12

    def test_matches_scipy_betabinom(self):
        for n in (2, 9, 50):
            got = betabinom_pmf_vector(n)
            ref = stats.betabinom.pmf(np.arange(n + 1), n, 1, n - 1)
            np.testing.assert_allclose(got, ref, atol=1e-13)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            betabinom_pmf(1, 0)
        with pytest.raises(DomainError):
            betabinom_pmf(5, -1)
        with pytest.raises(DomainError):
            betabinom_pmf(5, 6)


class TestTailBound:
    def test_plug_in_values(self):
        assert descendant_tail_bound(2, 0) == 3.0
        assert descendant_tail_bound(2, 2) == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert max_descendant_tail_bound(2, 1) == pytest.approx(2 * 3 * (2 / 3), rel=1e-15)

    def test_dominates_exact_tails_up_to_100(self):
        for n in range(2, 101):
            pmf = betabinom_pmf_vector(n)
            tails = np.cumsum(pmf[::-1])[::-1]
            bounds = np.array([descendant_tail_bound(n, k) for k in range(n + 1)])
            assert np.all(tails <= bounds + 1e-12), f"violated at n={n}"

    def test_domain(self):
        with pytest.raises(DomainError):
            descendant_tail_bound(1, 0)
        with pytest.raises(DomainError):
            descendant_tail_bound(3, -1)


class TestSimulatedCounts:
    def test_single_step_window(self):
        traj = simulate("kde", SCHED, GAUSS, 2, DrawStreams.from_seed(0, 0))
        counts = simulate_descendants(traj, 1)
        assert counts.counts.tolist() == [1]
        assert counts.total() == 1

    def test_worked_example(self):
        # ancestors of points 3 and 4 forced to 1 and 3: both descend from 1
        traj = simulate("kde", SCHED, GAUSS, 4, forced_ancestors=[1, 1, 3], forced_draws=[0.1] * 3)
        counts = simulate_descendants(traj, 2)
        assert counts.counts.tolist() == [2, 0]

    def test_counts_sum_to_window(self):
        for r in range(25):
            traj = simulate("recursive", SCHED, GAUSS, 40, DrawStreams.from_seed(100, r))
            counts = simulate_descendants(traj, 20)
            assert counts.total() == 20

    def test_too_short(self):
        traj = simulate("kde", SCHED, GAUSS, 9, DrawStreams.from_seed(1, 0))
        with pytest.raises(TrajectoryTooShort):
            simulate_descendants(traj, 5)

    def test_empirical_law_small_window(self):
        reps = 20000
        counts = np.zeros(3)
        for r in range(reps):
            traj = simulate("kde", SCHED, GAUSS, 4, DrawStreams.from_seed(77, r))
            counts[simulate_descendants(traj, 2).counts[0]] += 1
        # multinomial 3-sigma bands around 1/3 each
        se = np.sqrt(reps * (1 / 3) * (2 / 3))
        assert np.all(np.abs(counts - reps / 3) < 3 * se)


class TestFractionPath:
    def test_at_anchor(self):
        traj = simulate("kde", SCHED, GAUSS, 10, DrawStreams.from_seed(2, 0))
        frac = descendant_fraction_path(traj, 5, 10)
        assert frac[4] == pytest.approx(1 / 5)
        assert np.all(frac[:3] == 0.0)

    def test_degenerate_forcing_reaches_one(self):
        # every step after the anchor attaches to the anchor's subtree
        traj = simulate(
            "kde", SCHED, GAUSS, 6,
            forced_ancestors=[1, 2, 2, 3, 5], forced_draws=[0.0] * 5,
        )
        frac = descendant_fraction_path(traj, 2, 6)
        assert frac[-1] == pytest.approx(5 / 6)
        counts = frac * np.arange(1, 7)
        assert np.all(np.diff(np.round(counts)) <= 1 + 1e-9)

    def test_data_points_are_not_descendants(self):
        # points 1..5 are observed data; 6 -> 3, 7 -> 6, 8 -> 2, 9 -> 7
        traj = simulate(
            "kde", SCHED, GAUSS, 9, data_prefix=[0.0, 1.0, 2.0, 3.0, 4.0],
            forced_ancestors=[3, 6, 2, 7], forced_draws=[0.1] * 4,
        )
        frac = descendant_fraction_path(traj, 3, 9)
        np.testing.assert_array_equal(frac * np.arange(1, 10), [0, 0, 1, 1, 1, 2, 3, 3, 4])
        np.testing.assert_array_equal(descendant_fraction_path(traj, 3, 4), [0, 0, 1 / 3, 1 / 4])

    def test_counts_monotone_and_in_range(self):
        traj = simulate("recursive", SCHED, GAUSS, 500, DrawStreams.from_seed(3, 1))
        frac = descendant_fraction_path(traj, 4, 500)
        m = np.arange(1, 501)
        counts = np.round(frac * m)
        assert np.all(np.diff(counts) >= 0)
        assert np.all(np.diff(counts) <= 1)
        live = m >= 4
        assert np.all(frac[live] >= 1 / m[live] - 1e-12)
        assert np.all(frac <= 1.0)

    def test_beta_limit_mini(self):
        reps, horizon, anchor = 800, 3000, 5
        finals = np.empty(reps)
        for r in range(reps):
            traj = simulate("kde", SCHED, GAUSS, horizon, DrawStreams.from_seed(404, r))
            finals[r] = descendant_fraction_path(traj, anchor, horizon)[-1]
        res = stats.kstest(finals, stats.beta(1, anchor - 1).cdf)
        assert res.pvalue > 0.001

    def test_validation(self):
        traj = simulate("kde", SCHED, GAUSS, 10, DrawStreams.from_seed(4, 0))
        with pytest.raises(ValueError):
            descendant_fraction_path(traj, 1, 10)
        with pytest.raises(ValueError):
            descendant_fraction_path(traj, 5, 11)


class TestSupportContrast:
    def test_short_runs_finite(self):
        rep = support_contrast_experiment(
            SCHED, KernelSpec("half_normal"), 10, 8, master_seed=5
        )
        assert isinstance(rep, ContrastReport)
        assert np.isfinite(rep.kde.mean_final_max)
        assert np.isfinite(rep.recursive.mean_final_max)
        assert 0 <= rep.p_value <= 1

    def test_requires_half_normal(self):
        with pytest.raises(ValueError):
            support_contrast_experiment(SCHED, GAUSS, 10, 4, master_seed=0)

    def test_record_stats_fields(self):
        rep = support_contrast_experiment(
            SCHED, KernelSpec("half_normal"), 200, 30, master_seed=6
        )
        for side in (rep.kde, rep.recursive):
            assert 0.0 <= side.last_half_record_fraction <= 1.0
            assert 1 <= side.mean_last_record_index <= 200
            assert side.mean_support_ratio >= 1.0

    def test_two_proportion(self):
        z, p = two_proportion_one_sided(80, 100, 50, 100)
        assert z > 4.0 and p < 1e-4
        z2, p2 = two_proportion_one_sided(50, 100, 50, 100)
        assert z2 == 0.0 and p2 == pytest.approx(0.5)
