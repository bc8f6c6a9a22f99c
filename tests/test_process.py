"""Trajectory simulation, mixtures, genealogy reconstruction."""

import csv
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from kdeproc import (
    BandwidthSchedule,
    DrawStreams,
    KernelSpec,
    cf_path,
    dominating_path,
    predictive_mixture,
    reconstruct_all,
    reconstruct_from_genealogy,
    simulate,
    sup_norm_path,
)
from kdeproc.errors import NonFiniteInput, PrefixPointHasNoGenealogy
from kdeproc.process import write_csv

SCHED = BandwidthSchedule.power(1.0, 0.2)
GAUSS = KernelSpec("gaussian")


def forward_loop(flavor, schedule, prefix, ancestors, draws):
    """Scalar reference: x[n+1] = x[m] + h * y, one step at a time, with h the
    current bandwidth h_n (kde) or the ancestor's birth bandwidth h_m."""
    xs = [list(row) for row in np.asarray(prefix, dtype=float).tolist()]
    hs = []
    for m, y in zip(ancestors.tolist(), draws.tolist()):
        n = len(xs)
        h = schedule.at(n) if flavor == "kde" else schedule.at(m)
        xs.append([a + h * b for a, b in zip(xs[m - 1], y)])
        hs.append(h)
    return np.array(xs), np.array(hs)


class TestInit:
    def test_default_origin(self):
        traj = simulate("kde", SCHED, GAUSS, 1)
        assert len(traj) == 1
        assert traj.points[0, 0] == 0.0
        assert traj.seed_prefix_len == 0
        assert traj.steps_h.size == 0

    def test_data_prefix(self):
        traj = simulate("kde", SCHED, GAUSS, 2, data_prefix=[1.5, -2.0])
        assert len(traj) == 2
        assert traj.seed_prefix_len == 2
        np.testing.assert_allclose(traj.points[:, 0], [1.5, -2.0])
        assert np.all(traj.ancestors == 0)
        assert np.all(np.isnan(traj.steps_h))

    def test_recursive_default(self):
        traj = simulate("recursive", SCHED, GAUSS, 1)
        assert traj.points[0, 0] == 0.0
        assert traj.steps_h.size == 0

    def test_rejects_non_finite(self):
        with pytest.raises(NonFiniteInput):
            simulate("kde", SCHED, GAUSS, 2, data_prefix=[0.0, np.nan])
        with pytest.raises(NonFiniteInput):
            simulate("kde", SCHED, GAUSS, 1, data_prefix=[np.inf])

    def test_rejects_unknown_flavor(self):
        with pytest.raises(ValueError):
            simulate("adaptive", SCHED, GAUSS, 1)


class TestStep:
    def test_kde_single_step(self):
        out = simulate("kde", SCHED, GAUSS, 2, forced_ancestors=[1], forced_draws=[1.5])
        assert out.points[1, 0] == pytest.approx(1.5, abs=1e-15)
        assert out.ancestors[0] == 1
        assert out.steps_h[0] == 1.0

    def _second_step_from_origin(self, flavor):
        # Step 1 puts point 2 at 1; step 2 draws 2 from ancestor 1.
        return simulate(flavor, SCHED, GAUSS, 3, forced_ancestors=[1, 1], forced_draws=[1.0, 2.0])

    def test_recursive_uses_birth_bandwidth(self):
        out = self._second_step_from_origin("recursive")
        # ancestor 1 keeps h_1 = 1, not the current h_2
        assert out.points[2, 0] == pytest.approx(2.0, abs=1e-15)
        assert out.steps_h[1] == 1.0

    def test_kde_uses_current_bandwidth(self):
        out = self._second_step_from_origin("kde")
        assert out.points[2, 0] == pytest.approx(2.0 * 2.0**-0.2, rel=1e-14)
        assert out.steps_h[1] == pytest.approx(2.0**-0.2, rel=1e-15)

    def test_ancestor_validated(self):
        for ancestors in ([2], [0]):
            with pytest.raises(ValueError):
                simulate("kde", SCHED, GAUSS, 2, forced_ancestors=ancestors, forced_draws=[0.0])

    def test_random_step_consumes_streams(self):
        b = simulate("kde", SCHED, GAUSS, 3, DrawStreams.from_seed(3, 0))
        assert len(b) == 3
        assert b.points[1, 0] != b.points[2, 0]
        # Draws are consumed in step order: a shorter run is a prefix.
        a = simulate("kde", SCHED, GAUSS, 2, DrawStreams.from_seed(3, 0))
        np.testing.assert_array_equal(a.points, b.points[:2])


class TestSimulate:
    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    @pytest.mark.parametrize("dim", [1, 3], ids=["d1", "d3"])
    @pytest.mark.parametrize("prefix_len", [0, 3], ids=["origin", "data3"])
    def test_matches_forward_loop(self, flavor, dim, prefix_len):
        kernel = KernelSpec("gaussian", dim=dim)
        prefix = np.linspace(-1.0, 2.0, prefix_len * dim).reshape(prefix_len, dim)
        whole = simulate(flavor, SCHED, kernel, 40, DrawStreams.from_seed(11, 0),
                         data_prefix=prefix if prefix_len else None)
        slots = slice(whole.root_bound - 1, None)
        points, steps_h = forward_loop(
            flavor, SCHED, whole.points[: whole.root_bound],
            whole.ancestors[slots], whole.kernel_draws[slots],
        )
        if prefix_len:
            np.testing.assert_array_equal(whole.points[:prefix_len], prefix)
        np.testing.assert_allclose(points, whole.points, atol=1e-14)
        np.testing.assert_allclose(steps_h, whole.steps_h[slots], atol=1e-15)

    def test_deterministic_per_seed(self):
        a = simulate("kde", SCHED, GAUSS, 500, DrawStreams.from_seed(5, 2))
        b = simulate("kde", SCHED, GAUSS, 500, DrawStreams.from_seed(5, 2))
        c = simulate("kde", SCHED, GAUSS, 500, DrawStreams.from_seed(5, 3))
        np.testing.assert_array_equal(a.points, b.points)
        assert np.any(a.points != c.points)

    def test_prefix_simulation(self):
        streams = DrawStreams.from_seed(9, 0)
        traj = simulate("recursive", SCHED, GAUSS, 50, streams, data_prefix=[3.0, -1.0, 0.5])
        assert traj.seed_prefix_len == 3
        np.testing.assert_allclose(traj.points[:3, 0], [3.0, -1.0, 0.5])
        assert np.all(traj.ancestors[:2] == 0)
        assert np.all(traj.ancestors[2:] >= 1)

    def test_forced_arrays(self):
        traj = simulate(
            "kde", SCHED, GAUSS, 3,
            forced_ancestors=[1, 2], forced_draws=[1.0, 1.0],
        )
        assert traj.points[1, 0] == pytest.approx(1.0)
        assert traj.points[2, 0] == pytest.approx(1.0 + 2.0**-0.2, rel=1e-14)

    def test_multivariate(self):
        ker = KernelSpec("gaussian", dim=3)
        traj = simulate("kde", SCHED, ker, 100, DrawStreams.from_seed(1, 0))
        assert traj.points.shape == (100, 3)
        rec = reconstruct_all(traj)
        np.testing.assert_allclose(rec, traj.points, atol=1e-12)


class TestMixture:
    def test_single_component(self):
        traj = simulate("kde", SCHED, GAUSS, 1)
        mix = predictive_mixture(traj, SCHED, GAUSS)
        assert mix.n_components == 1
        assert mix.scales[0] == 1.0
        assert mix.prob(-np.inf, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert mix.prob(-np.inf, np.inf) == pytest.approx(1.0, abs=1e-15)

    def test_kde_scales_shared(self):
        traj = simulate("kde", SCHED, GAUSS, 2, forced_ancestors=[1], forced_draws=[1.0])
        mix = predictive_mixture(traj, SCHED, GAUSS)
        h2 = 2.0**-0.2
        np.testing.assert_allclose(mix.scales, [h2, h2], rtol=1e-15)
        np.testing.assert_allclose(mix.centers[:, 0], [0.0, 1.0])

    def test_recursive_scales_frozen(self):
        traj = simulate("recursive", SCHED, GAUSS, 2, forced_ancestors=[1], forced_draws=[1.0])
        mix = predictive_mixture(traj, SCHED, GAUSS)
        np.testing.assert_allclose(mix.scales, [1.0, 2.0**-0.2], rtol=1e-15)

    def test_recursive_components_never_rescaled(self):
        streams = DrawStreams.from_seed(17, 0)
        traj = simulate("recursive", SCHED, GAUSS, 200, streams)
        early = predictive_mixture(traj, SCHED, GAUSS, at_time=120)
        late = predictive_mixture(traj, SCHED, GAUSS, at_time=121)
        np.testing.assert_array_equal(early.centers[:119], late.centers[:119])
        np.testing.assert_array_equal(early.scales[:119], late.scales[:119])

    def test_box_probability_midpoint(self):
        mix = predictive_mixture(
            simulate("kde", BandwidthSchedule.from_table([1.0, 1.0]), GAUSS, 2,
                     forced_ancestors=[1], forced_draws=[2.0]),
            BandwidthSchedule.from_table([1.0, 1.0]),
            GAUSS,
        )
        # components (0,1) and (2,1): P(X <= 1) = (Phi(1) + Phi(-1))/2 = 1/2
        assert mix.prob(-np.inf, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_cf_values(self):
        traj = simulate("kde", SCHED, GAUSS, 1)
        mix = predictive_mixture(traj, SCHED, GAUSS)
        assert mix.cf(0.0) == pytest.approx(1.0, abs=0)
        assert mix.cf(1.0) == pytest.approx(np.exp(-0.5), abs=1e-15)

    def test_cf_two_components(self):
        sched = BandwidthSchedule.from_table([1.0, 1.0])
        traj = simulate("kde", sched, GAUSS, 2, forced_ancestors=[1], forced_draws=[1.0])
        mix = predictive_mixture(traj, sched, GAUSS)
        expected = 0.5 * (1.0 + np.exp(1j)) * np.exp(-0.5)
        assert mix.cf(1.0) == pytest.approx(expected, abs=1e-14)

    def test_cf_matches_empirical(self):
        streams = DrawStreams.from_seed(23, 0)
        traj = simulate("kde", SCHED, GAUSS, 30, streams)
        mix = predictive_mixture(traj, SCHED, GAUSS)
        rng = np.random.default_rng(4)
        n = 10**5
        draws = mix.sample(rng, n)[:, 0]
        for t in np.arange(-5, 5.5, 0.5):
            emp = np.exp(1j * t * draws).mean()
            assert abs(mix.cf(t) - emp) < 5 * (2 / np.sqrt(n))

    def test_mean(self):
        sched = BandwidthSchedule.from_table([1.0, 1.0])
        hn = KernelSpec("half_normal")
        traj = simulate("kde", sched, hn, 2, forced_ancestors=[1], forced_draws=[1.0])
        mix = predictive_mixture(traj, sched, hn)
        expected = 0.5 + 1.0 * np.sqrt(2 / np.pi)
        assert mix.mean()[0] == pytest.approx(expected, rel=1e-14)

    def test_quantile_roundtrip(self):
        streams = DrawStreams.from_seed(8, 0)
        traj = simulate("kde", SCHED, GAUSS, 25, streams)
        mix = predictive_mixture(traj, SCHED, GAUSS)
        for q in (0.1, 0.5, 0.9):
            x = mix.quantile(q)
            assert float(mix.cdf(x)) == pytest.approx(q, abs=1e-9)

    def test_invalid_box(self):
        mix = predictive_mixture(simulate("kde", SCHED, GAUSS, 1), SCHED, GAUSS)
        with pytest.raises(ValueError):
            mix.prob(1.0, -1.0)


class TestMeasureRecursion:
    def test_recursive_mixture_satisfies_one_step_recursion(self):
        # P_n(B) = (1 - 1/n) P_{n-1}(B) + (1/n) K((B - x_n)/h_n) for the
        # frozen-bandwidth flavor, checked on a spread of boxes.
        streams = DrawStreams.from_seed(61, 0)
        traj = simulate("recursive", SCHED, GAUSS, 80, streams)
        boxes = [(-np.inf, 0.3), (-1.0, 1.0), (0.0, np.inf), (-0.2, 0.1)]
        for n in (2, 17, 80):
            cur = predictive_mixture(traj, SCHED, GAUSS, at_time=n)
            prev = predictive_mixture(traj, SCHED, GAUSS, at_time=n - 1)
            h_n = SCHED.at(n)
            x_n = traj.points[n - 1, 0]
            for lo, hi in boxes:
                fresh = float(
                    GAUSS.cdf1((hi - x_n) / h_n) - GAUSS.cdf1((lo - x_n) / h_n)
                )
                expected = (1 - 1 / n) * prev.prob(lo, hi) + fresh / n
                assert cur.prob(lo, hi) == pytest.approx(expected, abs=1e-14)

    def test_kde_mixture_rescales_every_component(self):
        streams = DrawStreams.from_seed(62, 0)
        traj = simulate("kde", SCHED, GAUSS, 30, streams)
        for n in (5, 30):
            mix = predictive_mixture(traj, SCHED, GAUSS, at_time=n)
            direct = np.mean(
                GAUSS.cdf1((0.5 - traj.points[:n, 0]) / SCHED.at(n))
            )
            assert mix.prob(-np.inf, 0.5) == pytest.approx(float(direct), abs=1e-14)


class TestCfPath:
    def test_matches_mixture_cf(self):
        for flavor in ("kde", "recursive"):
            streams = DrawStreams.from_seed(29, 0)
            traj = simulate(flavor, SCHED, GAUSS, 60, streams)
            for t in (0.5, 2.0):
                path = cf_path(traj, SCHED, GAUSS, t)
                for n in (1, 7, 33, 60):
                    mix = predictive_mixture(traj, SCHED, GAUSS, at_time=n)
                    assert path[n - 1] == pytest.approx(mix.cf(t), abs=1e-12)


class TestReconstruction:
    def test_root(self):
        traj = simulate("kde", SCHED, GAUSS, 1)
        assert reconstruct_from_genealogy(traj, 1)[0] == 0.0

    def test_hand_chain(self):
        traj = simulate("kde", SCHED, GAUSS, 3, forced_ancestors=[1, 2], forced_draws=[1.0, 1.0])
        got = reconstruct_from_genealogy(traj, 3)
        assert got[0] == pytest.approx(1.0 + 2.0**-0.2, rel=1e-14)

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    def test_identity_long_run(self, flavor):
        streams = DrawStreams.from_seed(31, 0)
        traj = simulate(flavor, SCHED, GAUSS, 10**4, streams)
        rec = reconstruct_all(traj)
        assert np.max(np.abs(rec - traj.points)) <= 1e-12
        for n in (1, 2, 137, 9999, 10**4):
            np.testing.assert_allclose(
                reconstruct_from_genealogy(traj, n), traj.points[n - 1], atol=1e-12
            )

    def test_prefix_has_no_genealogy(self):
        streams = DrawStreams.from_seed(2, 0)
        traj = simulate("kde", SCHED, GAUSS, 10, streams, data_prefix=[1.0, 2.0])
        with pytest.raises(PrefixPointHasNoGenealogy):
            reconstruct_from_genealogy(traj, 2)
        # the first point and generated points are fine
        assert reconstruct_from_genealogy(traj, 1)[0] == 1.0
        np.testing.assert_allclose(reconstruct_from_genealogy(traj, 7), traj.points[6], atol=1e-12)

    def test_reconstruct_all_with_prefix(self):
        streams = DrawStreams.from_seed(2, 1)
        traj = simulate("recursive", SCHED, GAUSS, 50, streams, data_prefix=[1.0, 2.0, 3.0])
        rec = reconstruct_all(traj)
        np.testing.assert_allclose(rec, traj.points, atol=1e-12)


class TestPaths:
    def test_sup_norm_examples(self):
        traj = simulate("kde", SCHED, GAUSS, 1)
        np.testing.assert_allclose(sup_norm_path(traj), [0.0])
        t2 = simulate(
            "kde", BandwidthSchedule.from_table([1.0, 1.0]), GAUSS, 3,
            forced_ancestors=[1, 1], forced_draws=[2.0, -1.0],
        )
        np.testing.assert_allclose(sup_norm_path(t2), [0.0, 2.0, 2.0])

    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    def test_dominating_path_bounds_norms(self, flavor):
        streams = DrawStreams.from_seed(37, 0)
        traj = simulate(flavor, SCHED, KernelSpec("laplace"), 5000, streams)
        u = dominating_path(traj)
        assert np.all(np.linalg.norm(traj.points, axis=1) <= u + 1e-12)
        assert u[0] == 0.0


class TestDistributionalConsistency:
    def test_next_point_law_matches_mixture(self):
        streams = DrawStreams.from_seed(41, 0)
        traj = simulate("kde", SCHED, GAUSS, 50, streams)
        mix = predictive_mixture(traj, SCHED, GAUSS)
        n = 10**5
        # Each call takes one step from the 50-point state, consuming one
        # uniform and one kernel variate of the shared streams.
        fresh = DrawStreams.from_seed(43, 0)
        draws = np.empty(n)
        for i in range(n):
            draws[i] = simulate("kde", SCHED, GAUSS, 51, fresh, data_prefix=traj.points).points[50, 0]
        res = stats.kstest(draws, lambda x: mix.cdf(x))
        assert res.pvalue > 0.001


class TestCsvDump:
    def test_roundtrip_fields(self, tmp_path):
        from kdeproc.process import write_trajectory_csv

        streams = DrawStreams.from_seed(47, 0)
        traj = simulate("kde", SCHED, GAUSS, 5, streams, data_prefix=[1.0, 2.0])
        path = tmp_path / "traj.csv"
        write_trajectory_csv(traj, path, "0.1.0", "deadbeef")
        lines = path.read_text().splitlines()
        assert lines[0] == "# kdeproc 0.1.0 config=deadbeef"
        assert lines[1] == "step,ancestor,h_used,y_1,x_1"
        assert len(lines) == 2 + 5
        # prefix rows carry empty ancestor/h/y fields
        assert lines[2].split(",")[1:4] == ["", "", ""]
        assert lines[3].split(",")[1:4] == ["", "", ""]
        assert lines[4].split(",")[1] != ""
        # points column reproduces exactly through repr
        assert float(lines[4].split(",")[4]) == traj.points[2, 0]


def csv_module_reference(version, config_hash, columns) -> bytes:
    """The artifact as the csv module writes it from repr cells."""
    buf = io.StringIO()
    buf.write(f"# kdeproc {version} config={config_hash}\n")
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in zip(*columns.values()):
        writer.writerow(["" if v is None else repr(v) for v in row])
    return buf.getvalue().encode()


SPECIAL_FLOATS = st.sampled_from([-0.0, float("inf"), float("-inf"), float("nan")])
CSV_CELLS = st.one_of(st.none(), st.integers(), st.floats(), SPECIAL_FLOATS)


@st.composite
def csv_tables(draw):
    names = draw(st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True),
                          min_size=2, max_size=6, unique=True))
    rows = draw(st.integers(0, 30))
    return {name: draw(st.lists(CSV_CELLS, min_size=rows, max_size=rows)) for name in names}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(columns=csv_tables())
def test_write_csv_matches_csv_module(tmp_path, columns):
    path = tmp_path / "table.csv"
    write_csv(path, "9.9.9", "cafe", columns)
    assert path.read_bytes() == csv_module_reference("9.9.9", "cafe", columns)
