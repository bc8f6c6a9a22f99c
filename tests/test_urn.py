"""Descendant laws: exact pmf, tail bounds, simulated counts, limit fractions;
and the record-statistic support contrast between the two flavors."""

import csv
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from kdeproc import BandwidthSchedule, DrawStreams, KernelSpec, simulate
from kdeproc.config import ExperimentConfig
from kdeproc.errors import ConfigError, DomainError, TrajectoryTooShort
from kdeproc.harness import _two_proportion_one_sided, run
from kdeproc.kernels import FAMILIES
from kdeproc.process import FLAVORS, ancestor_blocks
from kdeproc.urn import (
    anchor_fractions,
    betabinom_pmf_vector,
    block_roots,
    descendant_tail_bound,
    window_roots,
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


def walk_root(ancestors, p, bound, base=1):
    """1-based root of point p: follow its recorded ancestors (row p - base - 1
    belongs to point p, after ``base`` points with no record) until the chain
    reaches {1..bound}."""
    while p > bound:
        p = int(ancestors[p - base - 1])
    return p


def window_counts(ancestors, n):
    """Descendant counts of points 1..n over the window (n, 2n], by walking
    each window point's chain."""
    counts = np.zeros(n, dtype=np.int64)
    for p in range(n + 1, 2 * n + 1):
        counts[walk_root(ancestors, p, n) - 1] += 1
    return counts


def fraction_path(traj, anchor, horizon):
    """Running fraction of points 1..m in the anchor's subtree (anchor
    included) for m = 1..horizon, by walking each point's chain.  Injected
    data points have no ancestry, so chains stop at max(anchor, data prefix
    length) and data points are nobody's descendants."""
    bound = max(anchor, traj.seed_prefix_len)
    m = np.arange(1, horizon + 1)
    hits = [walk_root(traj.ancestors, p, bound, traj.root_bound) == anchor for p in m]
    return np.cumsum(hits) / m


def max_descendant_tail_bound(n: int, k: int) -> float:
    """Union bound over all n tracked points: 3 n (n-1) (2/3)^k."""
    return n * descendant_tail_bound(n, k)


class TestExactPmf:
    def test_two_step_urn_is_uniform(self):
        got = betabinom_pmf_vector(2)
        np.testing.assert_allclose(got, [1 / 3, 1 / 3, 1 / 3], atol=1e-14)

    def test_three_step_example(self):
        # C(3,0) B(1,5) / B(1,2) = (1/5)/(1/2) = 2/5
        assert betabinom_pmf_vector(3)[0] == pytest.approx(0.4, abs=1e-14)

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
        for n in (1, 0, -3):
            with pytest.raises(DomainError, match="window parameter must be >= 2"):
                betabinom_pmf_vector(n)


class TestTailBound:
    def test_plug_in_values(self):
        assert descendant_tail_bound(2, 0) == 3.0
        assert descendant_tail_bound(2, 2) == pytest.approx(4.0 / 3.0, rel=1e-15, abs=0.0)
        want = 2 * 3 * (2 / 3)
        assert max_descendant_tail_bound(2, 1) == pytest.approx(want, rel=1e-15, abs=0.0)

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
    @staticmethod
    def counts(traj, n):
        return np.bincount(window_roots(traj.ancestors[None], n)[0], minlength=n)

    def test_single_step_window(self):
        traj = simulate("kde", SCHED, GAUSS, 2, DrawStreams.from_seed(0, 0))
        counts = self.counts(traj, 1)
        assert counts.tolist() == [1]
        assert counts.sum() == 1

    def test_worked_example(self):
        # ancestors of points 3 and 4 forced to 1 and 3: both descend from 1
        traj = simulate("kde", SCHED, GAUSS, 4, forced_ancestors=[1, 1, 3], forced_draws=[0.1] * 3)
        assert self.counts(traj, 2).tolist() == [2, 0]

    def test_counts_sum_to_window(self):
        for r in range(25):
            traj = simulate("recursive", SCHED, GAUSS, 40, DrawStreams.from_seed(100, r))
            counts = self.counts(traj, 20)
            assert counts.sum() == 20
            np.testing.assert_array_equal(counts, window_counts(traj.ancestors, 20))

    def test_too_short(self):
        traj = simulate("kde", SCHED, GAUSS, 9, DrawStreams.from_seed(1, 0))
        with pytest.raises(TrajectoryTooShort):
            window_roots(traj.ancestors[None], 5)

    def test_empirical_law_small_window(self):
        reps = 20000
        ((_, anc),) = ancestor_blocks(4, 77, range(reps))
        roots = window_roots(anc, 2)
        counts = np.bincount(np.count_nonzero(roots == 0, axis=1), minlength=3)
        # multinomial 3-sigma bands around 1/3 each
        se = np.sqrt(reps * (1 / 3) * (2 / 3))
        assert np.all(np.abs(counts - reps / 3) < 3 * se)


@st.composite
def ancestor_rows(draw):
    """(R, m) block of 1-based ancestors of points 2..m + 1, column j (point
    j + 2) in 1..j + 1."""
    rows = draw(st.integers(1, 5))
    m = draw(st.integers(1, 40))
    raw = draw(st.lists(st.integers(0, 10**6), min_size=rows * m, max_size=rows * m))
    steps = np.arange(1, m + 1)
    return np.array(raw, dtype=np.int64).reshape(rows, m) % steps + 1


class TestPointerJumping:
    """Block roots by pointer jumping against a walk along each chain."""

    @settings(max_examples=200, deadline=None)
    @given(ancestors=ancestor_rows(), data=st.data())
    def test_block_roots_match_walk(self, ancestors, data):
        upto = data.draw(st.integers(1, ancestors.shape[1] + 1))
        bound = data.draw(st.integers(1, upto))
        got = block_roots(ancestors, bound, upto)
        want = [[walk_root(row, p, bound) - 1 for p in range(1, upto + 1)] for row in ancestors]
        np.testing.assert_array_equal(got, np.array(want, dtype=np.int64).reshape(got.shape))

    @settings(max_examples=200, deadline=None)
    @given(ancestors=ancestor_rows(), data=st.data())
    def test_window_counts_match_walk(self, ancestors, data):
        n = data.draw(st.integers(1, (ancestors.shape[1] + 1) // 2))
        roots = window_roots(ancestors, n)
        for row, row_roots in zip(ancestors, roots):
            counts = np.bincount(row_roots, minlength=n)
            np.testing.assert_array_equal(counts, window_counts(row, n))

    @settings(max_examples=100, deadline=None)
    @given(ancestors=ancestor_rows(), data=st.data())
    def test_anchor_fractions_match_fraction_path(self, ancestors, data):
        horizon = data.draw(st.integers(2, ancestors.shape[1] + 1))
        anchor = data.draw(st.integers(2, horizon))
        got = anchor_fractions(ancestors, anchor, horizon)
        m = np.arange(1, horizon + 1)
        for row, frac in zip(ancestors, got):
            # Reference: walk each point's chain down to {1..anchor}.
            want = np.cumsum([walk_root(row, p, anchor) == anchor for p in m]) / m
            assert frac == want[-1]
            traj = simulate(
                "kde", SCHED, GAUSS, len(row) + 1,
                forced_ancestors=row, forced_draws=np.zeros(len(row)),
            )
            np.testing.assert_array_equal(fraction_path(traj, anchor, horizon), want)


class TestFractionPath:
    def test_at_anchor(self):
        traj = simulate("kde", SCHED, GAUSS, 10, DrawStreams.from_seed(2, 0))
        frac = fraction_path(traj, 5, 10)
        assert frac[4] == pytest.approx(1 / 5)
        assert np.all(frac[:3] == 0.0)
        assert anchor_fractions(traj.ancestors[None], 5, 10)[0] == frac[-1]

    def test_degenerate_forcing_reaches_one(self):
        # every step after the anchor attaches to the anchor's subtree
        traj = simulate(
            "kde", SCHED, GAUSS, 6,
            forced_ancestors=[1, 2, 2, 3, 5], forced_draws=[0.0] * 5,
        )
        frac = fraction_path(traj, 2, 6)
        assert frac[-1] == pytest.approx(5 / 6)
        counts = frac * np.arange(1, 7)
        assert np.all(np.diff(np.round(counts)) <= 1 + 1e-9)

    def test_data_points_are_not_descendants(self):
        # points 1..5 are observed data; 6 -> 3, 7 -> 6, 8 -> 2, 9 -> 7
        traj = simulate(
            "kde", SCHED, GAUSS, 9, data_prefix=[0.0, 1.0, 2.0, 3.0, 4.0],
            forced_ancestors=[3, 6, 2, 7], forced_draws=[0.1] * 4,
        )
        frac = fraction_path(traj, 3, 9)
        np.testing.assert_array_equal(frac * np.arange(1, 10), [0, 0, 1, 1, 1, 2, 3, 3, 4])
        np.testing.assert_array_equal(fraction_path(traj, 3, 4), [0, 0, 1 / 3, 1 / 4])

    def test_counts_monotone_and_in_range(self):
        traj = simulate("recursive", SCHED, GAUSS, 500, DrawStreams.from_seed(3, 1))
        frac = fraction_path(traj, 4, 500)
        m = np.arange(1, 501)
        counts = np.round(frac * m)
        assert np.all(np.diff(counts) >= 0)
        assert np.all(np.diff(counts) <= 1)
        live = m >= 4
        assert np.all(frac[live] >= 1 / m[live] - 1e-12)
        assert np.all(frac <= 1.0)
        assert anchor_fractions(traj.ancestors[None], 4, 500)[0] == frac[-1]

    def test_beta_limit_mini(self):
        reps, horizon, anchor = 800, 3000, 5
        finals = np.empty(reps)
        for block, anc in ancestor_blocks(horizon, 404, range(reps)):
            finals[block.start : block.stop] = anchor_fractions(anc, anchor, horizon)
        res = stats.kstest(finals, stats.beta(1, anchor - 1).cdf)
        assert res.pvalue > 0.001

    def test_validation(self):
        traj = simulate("kde", SCHED, GAUSS, 10, DrawStreams.from_seed(4, 0))
        with pytest.raises(ValueError):
            anchor_fractions(traj.ancestors[None], 1, 10)
        with pytest.raises(ValueError):
            anchor_fractions(traj.ancestors[None], 5, 4)
        with pytest.raises(TrajectoryTooShort):
            anchor_fractions(traj.ancestors[None], 5, 11)


class TestPrefixProperty:
    """The first m points of a replication's longer trajectory are its m-point
    trajectory, so one trajectory serves every urn window and horizon."""

    @staticmethod
    def kernel(family, d):
        return KernelSpec(family, dim=d, dof=5.0 if family == "student_t" else None)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_window_counts_read_off_longer_trajectory(self, flavor, d, family):
        kernel = self.kernel(family, d)
        for r in range(4):
            long = simulate(flavor, SCHED, kernel, 61, DrawStreams.from_seed(31, r))
            for n in (2, 5, 13, 30):
                short = simulate(flavor, SCHED, kernel, 2 * n, DrawStreams.from_seed(31, r))
                np.testing.assert_array_equal(long.points[: 2 * n], short.points)
                np.testing.assert_array_equal(
                    window_counts(long.ancestors, n), window_counts(short.ancestors, n)
                )

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_fraction_path_read_off_longer_trajectory(self, flavor, d, family):
        kernel = self.kernel(family, d)
        for r in range(4):
            long = simulate(flavor, SCHED, kernel, 90, DrawStreams.from_seed(32, r))
            for anchor, horizon in ((2, 2), (3, 17), (7, 40), (7, 90)):
                short = simulate(flavor, SCHED, kernel, horizon, DrawStreams.from_seed(32, r))
                np.testing.assert_array_equal(
                    fraction_path(long, anchor, horizon),
                    fraction_path(short, anchor, horizon),
                )


class TestUrnModeOracle:
    @pytest.mark.parametrize("horizon", [10, 40], ids=["windows-longest", "horizon-longest"])
    def test_matches_independent_simulations(self, tmp_path, horizon):
        cfg = ExperimentConfig(
            flavor="recursive",
            steps=30,
            replications=150,
            master_seed=19,
            urn_window_sizes=(2, 9, 5),
            urn_anchor=4,
            urn_fraction_horizon=horizon,
            base_dir=str(tmp_path),
        )
        payload = run(cfg, "urn")
        schedule, kernel, reps = cfg.schedule, cfg.kernel, cfg.replications
        with open(tmp_path / "out" / "urn.csv", newline="") as fh:
            fh.readline()
            rows = list(csv.DictReader(fh))
        # Reference: an independent 2n-point simulation per window and
        # replication, counted by walking each window point's chain, and a
        # horizon-length one for the fraction.
        for n in cfg.urn_window_sizes:
            counts = np.zeros(n + 1, dtype=np.int64)
            for r in range(reps):
                traj = simulate(cfg.flavor, schedule, kernel, 2 * n, DrawStreams.from_seed(19, r))
                counts[window_counts(traj.ancestors, n)[0]] += 1
            got = [float(row["empirical_freq"]) for row in rows if int(row["n"]) == n]
            assert got == (counts / reps).tolist()
        finals = np.empty(reps)
        for r in range(reps):
            traj = simulate(cfg.flavor, schedule, kernel, horizon, DrawStreams.from_seed(19, r))
            finals[r] = fraction_path(traj, 4, horizon)[-1]
        ks = stats.kstest(finals, stats.beta(1, 3).cdf)
        assert payload["fraction_limit"]["ks_statistic"] == float(ks.statistic)


def contrast_config(tmp_path, **overrides):
    settings = dict(
        kernel_family="half_normal",
        bandwidth_delta=0.2,
        steps=10,
        replications=8,
        master_seed=5,
        base_dir=str(tmp_path),
    )
    return ExperimentConfig(**{**settings, **overrides})


def record_stats(points):
    """(last strict-record index, final max, full/first-half max ratio) of
    the running maximum of |x|, one point at a time."""
    run_max, last_record, half_max = -1.0, 1, None
    for i, x in enumerate(points[:, 0], start=1):
        if abs(x) > run_max:
            if i > 1:
                last_record = i
            run_max = abs(x)
        if i == len(points) // 2:
            half_max = run_max
    return last_record, run_max, run_max / half_max


class TestSupportContrast:
    def test_short_runs_finite(self, tmp_path):
        payload = run(contrast_config(tmp_path), "contrast")
        assert np.isfinite(payload["kde"]["mean_final_max"])
        assert np.isfinite(payload["recursive"]["mean_final_max"])
        assert 0 <= payload["p_value"] <= 1

    def test_requires_half_normal(self, tmp_path):
        with pytest.raises(ConfigError, match="half_normal"):
            run(contrast_config(tmp_path, kernel_family="gaussian", replications=4), "contrast")

    def test_record_stats_fields(self, tmp_path):
        payload = run(contrast_config(tmp_path, steps=200, replications=30, master_seed=6), "contrast")
        for side in (payload["kde"], payload["recursive"]):
            assert 0.0 <= side["last_half_record_fraction"] <= 1.0
            assert 1 <= side["mean_last_record_index"] <= 200
            assert side["mean_support_ratio"] >= 1.0

    def test_matches_independent_simulations(self, tmp_path):
        cfg = contrast_config(tmp_path, bandwidth_delta=0.3, steps=200, replications=30)
        payload = run(cfg, "contrast")
        # Reference: each replication simulated alone from its own streams,
        # its running maximum followed one point at a time.
        late = {}
        for flavor in FLAVORS:
            rows = [
                record_stats(simulate(
                    flavor, cfg.schedule, cfg.kernel, 200, DrawStreams.from_seed(5, r)
                ).points)
                for r in range(30)
            ]
            last, final_max, ratio = (np.array(col, dtype=float) for col in zip(*rows))
            late[flavor] = int(np.sum(last > 100))
            assert payload[flavor] == {
                "flavor": flavor,
                "replications": 30,
                "last_half_record_count": late[flavor],
                "last_half_record_fraction": late[flavor] / 30,
                "mean_last_record_index": float(np.mean(last)),
                "mean_final_max": float(np.mean(final_max)),
                "mean_support_ratio": float(np.mean(ratio)),
            }
        # Pooled one-sided test of recursive > kde.
        p_rec, p_kde = late["recursive"] / 30, late["kde"] / 30
        pooled = (late["recursive"] + late["kde"]) / 60
        z = (p_rec - p_kde) / np.sqrt(pooled * (1.0 - pooled) * (1 / 30 + 1 / 30))
        assert payload["z_statistic"] == float(z)
        assert payload["p_value"] == float(stats.norm.sf(z))

    @pytest.mark.parametrize(
        "k1, n1, k2, n2, z_want",
        [
            (80, 100, 50, 100, 0.3 / np.sqrt(0.65 * 0.35 * 0.02)),
            (50, 100, 50, 100, 0.0),
            # Zero pooled variance: no late record on either side, or only
            # late ones; the test then reads no evidence either way.
            (0, 100, 0, 100, 0.0),
            (30, 30, 70, 70, 0.0),
        ],
        ids=["recursive-ahead", "equal", "none-late", "all-late"],
    )
    def test_two_proportion(self, k1, n1, k2, n2, z_want):
        z, p = _two_proportion_one_sided(k1, n1, k2, n2)
        # abs=0.0: the zero-variance rows must give exactly z = 0 and p = 1/2.
        assert z == pytest.approx(z_want, rel=1e-14, abs=0.0)
        assert p == pytest.approx(stats.norm.sf(z_want), rel=1e-14, abs=0.0)

    @settings(max_examples=300, deadline=None)
    @given(n1=st.integers(1, 10**6), n2=st.integers(1, 10**6), data=st.data())
    def test_two_proportion_p_value_is_scipy_stats_bit_for_bit(self, n1, n2, data):
        # The p-value is scipy.special.ndtr(-z), which the package calls
        # without scipy.stats' dispatch; it is the same float as norm.sf.
        k1 = data.draw(st.integers(0, n1))
        k2 = data.draw(st.integers(0, n2))
        z, p = _two_proportion_one_sided(k1, n1, k2, n2)
        assert np.float64(p).tobytes() == np.float64(stats.norm.sf(z)).tobytes()
