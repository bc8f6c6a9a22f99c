"""Trajectory simulation, mixtures, genealogy reconstruction."""

import dataclasses
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from kdeproc import (
    BandwidthSchedule,
    DrawStreams,
    KernelSpec,
    cf_path,
    dominating_path,
    predictive_mixture,
    simulate,
)
from kdeproc import process
from kdeproc.config import ExperimentConfig
from kdeproc.errors import NonFiniteInput
from kdeproc.kernels import FAMILIES
from kdeproc.process import (
    FLAVORS,
    PredictiveMixture,
    ancestor_blocks,
    chain_sum,
    simulate_batch,
)
from oracles import (
    PrefixPointHasNoGenealogy,
    mixture_sample,
    reconstruct_all,
    reconstruct_from_genealogy,
)

SCHED = BandwidthSchedule.power(1.0, 0.2)
# One read of SCHED, sliced by every test as a run slices its own.
H = SCHED.values(5000)
GAUSS = KernelSpec("gaussian")
HALF = KernelSpec("half_normal")


def forward_loop(flavor, schedule, prefix, ancestors, draws):
    """Scalar reference: x[n+1] = x[m] + h * y, one step at a time, with h the
    current bandwidth h_n (kde) or the ancestor's birth bandwidth h_m."""
    xs = [list(row) for row in np.asarray(prefix, dtype=float).tolist()]
    hs = []
    for m, y in zip(ancestors.tolist(), draws.tolist()):
        n = len(xs)
        h = schedule.values(n)[-1] if flavor == "kde" else schedule.values(m)[-1]
        xs.append([a + h * b for a, b in zip(xs[m - 1], y)])
        hs.append(h)
    return np.array(xs), np.array(hs)


def dominating_walk(traj):
    """Reference U: walk each point's chain back to its root, as
    reconstruct_from_genealogy does, then add h * ||y|| to the root's norm
    from the root down."""
    b = traj.root_bound
    terms = (traj.steps_h * np.linalg.norm(traj.kernel_draws, axis=1)).tolist()
    ancestors = traj.ancestors.tolist()
    u = []
    for n in range(1, len(traj) + 1):
        chain = []
        while n > b:
            chain.append(terms[n - b - 1])
            n = ancestors[n - b - 1]
        acc = math.sqrt(sum(v * v for v in traj.points[n - 1].tolist()))
        for term in reversed(chain):
            acc += term
        u.append(acc)
    return np.array(u)


def bisection_quantile(mix, q, tol=1e-10):
    """Reference quantile: plain bisection on the mixture CDF inside the
    same span-doubling bracket, until it is narrower than tol(1 + |mid|)."""
    span = 10.0 * float(np.max(mix.scales)) + 1.0
    lo = float(np.min(mix.centers)) - span
    hi = float(np.max(mix.centers)) + span
    while mix.cdf(lo) > q:
        lo -= span
        span *= 2.0
    while mix.cdf(hi) < q:
        hi += span
        span *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo < tol * (1.0 + abs(mid)):
            break
        if float(mix.cdf(mid)) < q:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def assert_certified_quantile(mix, q, x, tol=1e-10):
    """x is within tol(1 + |x|) of the bisection oracle, and cdf crosses q
    within that distance of x on both sides."""
    ref = bisection_quantile(mix, q, tol)
    width = tol * (1.0 + max(abs(x), abs(ref)))
    assert abs(x - ref) <= width, (q, x, ref)
    assert mix.cdf(x - width) < q <= mix.cdf(x + width), (q, x)


class TestInit:
    def test_default_origin(self):
        traj = simulate("kde", SCHED, GAUSS, 1)
        assert len(traj) == 1
        assert traj.points[0, 0] == 0.0
        assert traj.root_bound == 1
        assert traj.steps_h.size == 0

    def test_data_prefix(self):
        traj = simulate("kde", SCHED, GAUSS, 2, data_prefix=[1.5, -2.0])
        assert len(traj) == 2
        assert traj.root_bound == 2
        np.testing.assert_allclose(traj.points[:, 0], [1.5, -2.0])
        # Both points are data: the genealogy has no rows.
        assert traj.ancestors.shape == traj.steps_h.shape == (0,)
        assert traj.kernel_draws.shape == (0, 1)

    def test_recursive_default(self):
        traj = simulate("recursive", SCHED, GAUSS, 1)
        assert traj.points[0, 0] == 0.0
        assert traj.steps_h.size == 0

    @pytest.mark.parametrize("dim", [1, 3], ids=["d1", "d3"])
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_origin_is_the_one_point_base_at_zero(self, flavor, dim):
        # The origin is the data prefix of one row of zeros, field for field.
        kernel = KernelSpec("laplace", dim=dim)
        zero = np.zeros((1, dim))
        assert_same_trajectory(
            simulate(flavor, SCHED, kernel, 40, DrawStreams.from_seed(3, 1)),
            simulate(flavor, SCHED, kernel, 40, DrawStreams.from_seed(3, 1), zero),
        )
        origin, based = (list(simulate_batch(flavor, H, kernel, 40, 3, range(1, 4), data))
                         for data in (None, zero))
        assert len(origin) == len(based) == 3
        for got, want in zip(origin, based):
            assert_same_trajectory(got, want)

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
        assert out.points[2, 0] == pytest.approx(2.0 * 2.0**-0.2, rel=1e-14, abs=0.0)
        assert out.steps_h[1] == pytest.approx(2.0**-0.2, rel=1e-15, abs=0.0)

    def test_ancestor_validated(self):
        for ancestors in ([2], [0]):
            with pytest.raises(ValueError):
                simulate("kde", SCHED, GAUSS, 2, forced_ancestors=ancestors, forced_draws=[0.0])

    @pytest.mark.parametrize(
        "forced",
        [{}, {"forced_ancestors": [1, 2]}, {"forced_draws": [0.5, 1.0]}],
        ids=["nothing", "ancestors", "draws"],
    )
    def test_drawing_needs_streams(self, forced):
        # With nothing to draw (the origin alone, all data, or both arrays
        # forced) no streams are needed: TestInit, test_forced_arrays and
        # TestSimulateBatch.test_no_generated_points run those.
        with pytest.raises(ValueError, match="streams is None, but 2 steps need draws"):
            simulate("kde", SCHED, GAUSS, 3, **forced)

    def test_forced_array_errors_come_before_streams(self):
        # A bad forced array is named even when no streams are given.
        with pytest.raises(ValueError, match="need 2 forced ancestors"):
            simulate("kde", SCHED, GAUSS, 3, forced_ancestors=[1])
        with pytest.raises(ValueError, match="forced ancestor out of range"):
            simulate("kde", SCHED, GAUSS, 3, forced_ancestors=[1, 3])
        with pytest.raises(ValueError, match=r"need forced draws of shape \(2, 1\)"):
            simulate("kde", SCHED, GAUSS, 3, forced_ancestors=[1, 2], forced_draws=[0.5])
        # Forced draws alone, of the wrong shape: their defect, not the
        # missing streams for the ancestors, is what the error names.
        with pytest.raises(ValueError, match=r"need forced draws of shape \(4, 1\), got \(3, 1\)"):
            simulate("kde", SCHED, GAUSS, 5, forced_draws=np.zeros((3, 1)))

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
        points, steps_h = forward_loop(
            flavor, SCHED, whole.points[: whole.root_bound],
            whole.ancestors, whole.kernel_draws,
        )
        if prefix_len:
            np.testing.assert_array_equal(whole.points[:prefix_len], prefix)
        np.testing.assert_allclose(points, whole.points, atol=1e-14)
        np.testing.assert_allclose(steps_h, whole.steps_h, atol=1e-15)

    def test_deterministic_per_seed(self):
        a = simulate("kde", SCHED, GAUSS, 500, DrawStreams.from_seed(5, 2))
        b = simulate("kde", SCHED, GAUSS, 500, DrawStreams.from_seed(5, 2))
        c = simulate("kde", SCHED, GAUSS, 500, DrawStreams.from_seed(5, 3))
        np.testing.assert_array_equal(a.points, b.points)
        assert np.any(a.points != c.points)

    def test_prefix_simulation(self):
        streams = DrawStreams.from_seed(9, 0)
        traj = simulate("recursive", SCHED, GAUSS, 50, streams, data_prefix=[3.0, -1.0, 0.5])
        assert traj.root_bound == 3
        np.testing.assert_allclose(traj.points[:3, 0], [3.0, -1.0, 0.5])
        # One row per generated point 4..50; row i is point 4 + i.
        assert traj.ancestors.shape == traj.steps_h.shape == (47,)
        assert traj.kernel_draws.shape == (47, 1)
        assert np.all((traj.ancestors >= 1) & (traj.ancestors <= np.arange(3, 50)))

    def test_forced_arrays(self):
        traj = simulate(
            "kde", SCHED, GAUSS, 3,
            forced_ancestors=[1, 2], forced_draws=[1.0, 1.0],
        )
        assert traj.points[1, 0] == pytest.approx(1.0)
        assert traj.points[2, 0] == pytest.approx(1.0 + 2.0**-0.2, rel=1e-14, abs=0.0)

    def test_multivariate(self):
        ker = KernelSpec("gaussian", dim=3)
        traj = simulate("kde", SCHED, ker, 100, DrawStreams.from_seed(1, 0))
        assert traj.points.shape == (100, 3)
        rec = reconstruct_all(traj)
        np.testing.assert_allclose(rec, traj.points, atol=1e-12)


class TestGenealogyRecord:
    """A trajectory's record is one row per generated point, row i belonging
    to point b + 1 + i after the b = root_bound base points; replay and
    chain_sum read those rows as they are."""

    @settings(max_examples=80, deadline=None)
    @given(
        flavor=st.sampled_from(FLAVORS),
        family=st.sampled_from(FAMILIES),
        dim=st.sampled_from([1, 3]),
        prefix_len=st.sampled_from([0, 1, 3]),
        extra=st.integers(0, 30),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_record_replays(self, flavor, family, dim, prefix_len, extra, seed, data):
        kernel = KernelSpec(family, dim=dim, dof=5.0 if family == "student_t" else None)
        size = prefix_len * dim
        coords = data.draw(st.lists(st.floats(-5.0, 5.0), min_size=size, max_size=size))
        prefix = np.reshape(coords, (prefix_len, dim)) if prefix_len else None
        length = max(prefix_len, 1) + extra
        traj = simulate(flavor, SCHED, kernel, length, DrawStreams.from_seed(seed, 0), prefix)
        b = traj.root_bound
        assert b == max(prefix_len, 1)
        assert traj.ancestors.shape == traj.steps_h.shape == (length - b,)
        assert traj.kernel_draws.shape == (length - b, dim)
        assert not np.isnan(traj.steps_h).any() and not np.isnan(traj.kernel_draws).any()

        anc, draws = traj.ancestors.copy(), traj.kernel_draws.copy()
        again = simulate(flavor, SCHED, kernel, length, data_prefix=prefix,
                         forced_ancestors=anc, forced_draws=draws)
        assert_same_trajectory(again, traj)
        summed = chain_sum(traj.points[:b], traj.ancestors - 1,
                           traj.steps_h[:, None] * traj.kernel_draws)
        np.testing.assert_array_equal(summed, traj.points)
        # The replay owns its record: writing to the caller's arrays
        # afterwards changes nothing in it.
        anc[:] = 1
        draws[:] = np.nan
        assert_same_trajectory(again, traj)

    def test_records_compare_by_identity(self):
        # An array has no truth value, so a trajectory, its level order and a
        # mixture compare and hash as objects: equal only to themselves.
        traj = simulate("kde", SCHED, GAUSS, 40, DrawStreams.from_seed(5, 0))
        twin = simulate("kde", SCHED, GAUSS, 40, DrawStreams.from_seed(5, 0))
        assert_same_trajectory(twin, traj)
        pairs = [
            (traj, twin),
            (traj.levels, twin.levels),
            (predictive_mixture(traj, H, GAUSS), predictive_mixture(twin, H, GAUSS)),
        ]
        for record, other in pairs:
            assert record == record
            assert record != other
            assert len({record, other, record}) == 2


def assert_same_trajectory(got, want):
    """Field for field, into the level order (so root_bound too): arrays bit
    for bit and by dtype."""
    for f in dataclasses.fields(want):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if dataclasses.is_dataclass(b):
            assert_same_trajectory(a, b)
        elif isinstance(b, np.ndarray):
            np.testing.assert_array_equal(a, b, err_msg=f.name)
            assert a.dtype == b.dtype, f.name
        else:
            assert a == b, f.name


class TestSimulateBatch:
    """Every row of the block engine is the replication's own ``simulate``."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("dim", [1, 3], ids=["d1", "d3"])
    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("prefix_len", [0, 3], ids=["origin", "data3"])
    @settings(max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        start=st.integers(1, 2**32),
        size=st.integers(2, 7),
        length=st.integers(3, 30),
    )
    def test_rows_match_simulate(self, prefix_len, flavor, dim, family, seed, start, size, length):
        kernel = KernelSpec(family, dim=dim, dof=5.0 if family == "student_t" else None)
        prefix = np.linspace(-1.0, 2.0, prefix_len * dim).reshape(prefix_len, dim)
        data = prefix if prefix_len else None
        reps = range(start, start + size)
        got = list(simulate_batch(flavor, H, kernel, length, seed, reps, data))
        assert len(got) == size
        for r, traj in zip(reps, got):
            want = simulate(flavor, SCHED, kernel, length, DrawStreams.from_seed(seed, r), data)
            assert_same_trajectory(traj, want)

    @pytest.mark.parametrize("length", [1, 3])
    def test_no_generated_points(self, length):
        # Only the origin, or a prefix as long as the run: nothing is drawn.
        data = [0.5, 1.0, 1.5] if length == 3 else None
        (traj,) = simulate_batch("recursive", H, GAUSS, length, 8, range(5, 6), data)
        assert_same_trajectory(traj, simulate("recursive", SCHED, GAUSS, length, None, data))

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("prefix_len", [0, 3], ids=["origin", "data3"])
    def test_rows_match_simulate_across_blocks(self, monkeypatch, flavor, prefix_len):
        # A cap of 60 elements on 20-point runs gives blocks of 3 rows, so
        # the 8 replications span 3 blocks, the last one short.
        monkeypatch.setattr(process, "BLOCK_ELEMENTS", 60)
        kernel = KernelSpec("laplace", dim=2)
        data = np.linspace(-1.0, 2.0, 2 * prefix_len).reshape(prefix_len, 2) if prefix_len else None
        reps = range(40, 48)
        assert [len(b) for b, _ in ancestor_blocks(20, 13, reps)] == [3, 3, 2]
        got = list(simulate_batch(flavor, H, kernel, 20, 13, reps, data))
        assert len(got) == len(reps)
        for r, traj in zip(reps, got):
            want = simulate(flavor, SCHED, kernel, 20, DrawStreams.from_seed(13, r), data)
            assert_same_trajectory(traj, want)
        # Every trajectory owns its record, not a view of the block's rows.
        for i, a in enumerate(got):
            assert a.ancestors.flags.owndata
            for b in got[i + 1 :]:
                assert not np.shares_memory(a.ancestors, b.ancestors)

    def test_ancestor_block_matches_trajectories(self):
        ((reps, block),) = ancestor_blocks(30, 6, range(3, 9))
        assert reps == range(3, 9) and block.shape == (6, 29) and block.dtype == np.int64
        for r, row in zip(reps, block):
            traj = simulate("kde", SCHED, GAUSS, 30, DrawStreams.from_seed(6, r))
            np.testing.assert_array_equal(row, traj.ancestors)

    def test_validation(self):
        with pytest.raises(ValueError):
            next(simulate_batch("other", H, GAUSS, 5, 0, range(1)))
        with pytest.raises(ValueError):
            next(simulate_batch("kde", H, GAUSS, 2, 0, range(1), data_prefix=[1.0, 2.0, 3.0]))
        # The steps of a 6-point run read h_1..h_5.
        with pytest.raises(ValueError, match=r"h_1..h_5, got 4"):
            next(simulate_batch("kde", H[:4], GAUSS, 6, 0, range(1)))
        assert len(next(simulate_batch("kde", H[:5], GAUSS, 6, 0, range(1)))) == 6


class TestAncestorBlocks:
    """``ancestor_blocks`` splits a range by the block cap, and each row is
    the replication's own ``simulate`` genealogy."""

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        length=st.integers(1, 60),
        seed=st.integers(0, 2**64 - 1),
        start=st.integers(0, 2**40),
        count=st.integers(0, 12),
        cap=st.sampled_from([1, 7, 60, 2**17]),
    )
    def test_blocks_match_simulate(self, data, length, seed, start, count, cap):
        s = data.draw(st.integers(1, min(3, length)), label="s")
        reps = range(start, start + count)
        # Patched here, not by a fixture, so each example sees its own cap.
        with patch.object(process, "BLOCK_ELEMENTS", cap):
            blocks = list(ancestor_blocks(length, seed, reps, s))
        size = max(1, cap // length)
        assert [b for b, _ in blocks] == [reps[i : i + size] for i in range(0, count, size)]
        assert all(len(b) == size for b, _ in blocks[:-1])
        assert sum(len(b) for b, _ in blocks) == count
        prefix = np.linspace(-1.0, 2.0, s)[:, None] if s > 1 else None
        for block, anc in blocks:
            assert anc.dtype == np.int64 and anc.shape == (len(block), length - s)
            for r, row in zip(block, anc):
                traj = simulate("kde", SCHED, GAUSS, length, DrawStreams.from_seed(seed, r), prefix)
                np.testing.assert_array_equal(row, traj.ancestors)

    @pytest.mark.parametrize("length, s", [(0, 1), (1, 2), (2, 3)])
    def test_length_below_base_points(self, length, s):
        # The generator is lazy: the check runs at the first next().
        blocks = ancestor_blocks(length, 0, range(4), s)
        with pytest.raises(ValueError, match="shorter than"):
            next(blocks)


class TestMixture:
    def test_single_component(self):
        traj = simulate("kde", SCHED, GAUSS, 1)
        mix = predictive_mixture(traj, H, GAUSS)
        assert mix.n_components == 1
        assert mix.scales[0] == 1.0
        assert mix.prob(-np.inf, 0.0) == pytest.approx(0.5, abs=1e-15)
        assert mix.prob(-np.inf, np.inf) == pytest.approx(1.0, abs=1e-15)

    def test_kde_scales_shared(self):
        traj = simulate("kde", SCHED, GAUSS, 2, forced_ancestors=[1], forced_draws=[1.0])
        mix = predictive_mixture(traj, H, GAUSS)
        h2 = 2.0**-0.2
        np.testing.assert_allclose(mix.scales, [h2, h2], rtol=1e-15)
        np.testing.assert_allclose(mix.centers[:, 0], [0.0, 1.0])

    def test_recursive_scales_frozen(self):
        traj = simulate("recursive", SCHED, GAUSS, 2, forced_ancestors=[1], forced_draws=[1.0])
        mix = predictive_mixture(traj, H, GAUSS)
        np.testing.assert_allclose(mix.scales, [1.0, 2.0**-0.2], rtol=1e-15)

    def test_recursive_components_never_rescaled(self):
        streams = DrawStreams.from_seed(17, 0)
        traj = simulate("recursive", SCHED, GAUSS, 200, streams)
        early = predictive_mixture(traj, H, GAUSS, at_time=120)
        late = predictive_mixture(traj, H, GAUSS, at_time=121)
        np.testing.assert_array_equal(early.centers[:119], late.centers[:119])
        np.testing.assert_array_equal(early.scales[:119], late.scales[:119])

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_reads_the_head_of_a_longer_read(self, flavor):
        # kde scales every component by h_n, recursive each by its own h_i:
        # the same floats from the run's longer read as from a read of h_1..h_n.
        traj = simulate(flavor, SCHED, GAUSS, 40, DrawStreams.from_seed(3, 0))
        for n in (1, 17, 40):
            own = SCHED.values(n)
            want = np.full(n, own[-1]) if flavor == "kde" else own
            assert predictive_mixture(traj, H, GAUSS, at_time=n).scales.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="h_1..h_40, got 39"):
            predictive_mixture(traj, H[:39], GAUSS)

    def test_box_probability_midpoint(self):
        mix = predictive_mixture(
            simulate("kde", BandwidthSchedule.from_table([1.0, 1.0]), GAUSS, 2,
                     forced_ancestors=[1], forced_draws=[2.0]),
            BandwidthSchedule.from_table([1.0, 1.0]).values(2),
            GAUSS,
        )
        # components (0,1) and (2,1): P(X <= 1) = (Phi(1) + Phi(-1))/2 = 1/2
        assert mix.prob(-np.inf, 1.0) == pytest.approx(0.5, abs=1e-15)

    def test_cf_values(self):
        traj = simulate("kde", SCHED, GAUSS, 1)
        mix = predictive_mixture(traj, H, GAUSS)
        assert mix.cf(0.0) == pytest.approx(1.0, abs=0)
        assert mix.cf(1.0) == pytest.approx(np.exp(-0.5), abs=1e-15)

    def test_cf_two_components(self):
        sched = BandwidthSchedule.from_table([1.0, 1.0])
        traj = simulate("kde", sched, GAUSS, 2, forced_ancestors=[1], forced_draws=[1.0])
        mix = predictive_mixture(traj, sched.values(len(traj)), GAUSS)
        expected = 0.5 * (1.0 + np.exp(1j)) * np.exp(-0.5)
        assert mix.cf(1.0) == pytest.approx(expected, abs=1e-14)

    def test_cf_matches_empirical(self):
        streams = DrawStreams.from_seed(23, 0)
        traj = simulate("kde", SCHED, GAUSS, 30, streams)
        mix = predictive_mixture(traj, H, GAUSS)
        rng = np.random.default_rng(4)
        n = 10**5
        draws = mixture_sample(mix, rng, n)[:, 0]
        for t in np.arange(-5, 5.5, 0.5):
            emp = np.exp(1j * t * draws).mean()
            assert abs(mix.cf(t) - emp) < 5 * (2 / np.sqrt(n))

    def test_mean(self):
        sched = BandwidthSchedule.from_table([1.0, 1.0])
        hn = KernelSpec("half_normal")
        traj = simulate("kde", sched, hn, 2, forced_ancestors=[1], forced_draws=[1.0])
        mix = predictive_mixture(traj, sched.values(len(traj)), hn)
        expected = 0.5 + 1.0 * np.sqrt(2 / np.pi)
        assert mix.mean()[0] == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_quantile_roundtrip(self):
        streams = DrawStreams.from_seed(8, 0)
        traj = simulate("kde", SCHED, GAUSS, 25, streams)
        mix = predictive_mixture(traj, H, GAUSS)
        for q in (0.1, 0.5, 0.9):
            x = mix.quantile(q)
            assert float(mix.cdf(x)) == pytest.approx(q, abs=1e-9)

    def test_invalid_box(self):
        mix = predictive_mixture(simulate("kde", SCHED, GAUSS, 1), H, GAUSS)
        with pytest.raises(ValueError):
            mix.prob(1.0, -1.0)

    def test_cdf_at_the_bandwidth_clamp(self):
        # Scales at the smallest normal float standardize a point a few units
        # from a centre to +-inf, where the CDF is exactly 0 or 1; under the
        # suite's error::RuntimeWarning filter an overflow warning would fail.
        tiny = np.finfo(float).tiny
        mix = process.PredictiveMixture(np.array([[0.0], [5.0]]), np.full(2, tiny), GAUSS)
        assert mix.cdf(1.0) == 0.5
        assert mix.cdf([-1.0, 1.0, 6.0]).tolist() == [0.0, 0.5, 1.0]


LEVELS_NEAR_EDGES = st.one_of(
    st.floats(1e-9, 1e-3), st.floats(1e-3, 1.0 - 1e-3), st.floats(1.0 - 1e-3, 1.0 - 1e-9)
)


class TestQuantile:
    """Lockstep safeguarded Newton against the bisection oracle."""

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("flavor", FLAVORS)
    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        length=st.integers(1, 300),
        prefix_len=st.integers(0, 5),
        levels=st.lists(LEVELS_NEAR_EDGES, min_size=1, max_size=6),
    )
    def test_matches_bisection(self, flavor, family, seed, length, prefix_len, levels):
        kernel = KernelSpec(family, dof=3.0 if family == "student_t" else None)
        prefix_len = min(prefix_len, length)
        data = np.random.default_rng(seed).normal(size=prefix_len) if prefix_len else None
        traj = simulate(flavor, SCHED, kernel, length, DrawStreams.from_seed(seed, 0), data)
        mix = predictive_mixture(traj, H, kernel)
        xs = mix.quantile(levels)
        assert xs.shape == (len(levels),)
        for q, x in zip(levels, xs):
            assert_certified_quantile(mix, q, x)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_single_component(self, family):
        kernel = KernelSpec(family, dof=3.0 if family == "student_t" else None)
        mix = predictive_mixture(simulate("kde", SCHED, kernel, 1), H, kernel)
        for q in (1e-6, 0.05, 0.5, 0.95, 1.0 - 1e-6):
            assert_certified_quantile(mix, q, mix.quantile(q))

    def test_zero_density_gap(self):
        # Two half-normal components 100 apart: the CDF is flat at 1/2
        # across the gap, where Newton has no slope and bisects instead.
        mix = PredictiveMixture(np.array([[0.0], [100.0]]), np.array([1.0, 1.0]), HALF)
        levels = [0.1, 0.3, 0.5, 0.7, 0.9]
        for q, x in zip(levels, mix.quantile(levels)):
            assert_certified_quantile(mix, q, x)

    def test_scalar_and_array_agree(self):
        traj = simulate("recursive", SCHED, GAUSS, 400, DrawStreams.from_seed(12, 0))
        mix = predictive_mixture(traj, H, GAUSS)
        levels = np.array([[1e-7, 0.05, 0.5], [0.75, 0.95, 1.0 - 1e-7]])
        xs = mix.quantile(levels)
        assert xs.shape == levels.shape
        for q, x in zip(levels.ravel(), xs.ravel()):
            one = mix.quantile(q)
            assert type(one) is float
            assert one == x

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, np.nan])
    def test_level_outside_unit_interval(self, bad):
        traj = simulate("kde", SCHED, GAUSS, 5, DrawStreams.from_seed(2, 0))
        mix = predictive_mixture(traj, H, GAUSS)
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            mix.quantile([0.5, bad])
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            mix.quantile(bad)

    def test_default_levels_in_few_evaluations(self, monkeypatch):
        # Two bracket checks and a handful of Newton rounds: a fall-back to
        # bisection would take ~40 evaluations.
        traj = simulate("recursive", SCHED, GAUSS, 5000, DrawStreams.from_seed(5, 0))
        mix = predictive_mixture(traj, H, GAUSS)
        calls = []
        cdf1 = KernelSpec.cdf1

        def counted(kernel, x):
            calls.append(np.shape(x))
            return cdf1(kernel, x)

        monkeypatch.setattr(KernelSpec, "cdf1", counted)
        mix.quantile(ExperimentConfig().posterior_quantiles)
        assert len(calls) <= 12


class TestMeasureRecursion:
    def test_recursive_mixture_satisfies_one_step_recursion(self):
        # P_n(B) = (1 - 1/n) P_{n-1}(B) + (1/n) K((B - x_n)/h_n) for the
        # frozen-bandwidth flavor, checked on a spread of boxes.
        streams = DrawStreams.from_seed(61, 0)
        traj = simulate("recursive", SCHED, GAUSS, 80, streams)
        boxes = [(-np.inf, 0.3), (-1.0, 1.0), (0.0, np.inf), (-0.2, 0.1)]
        for n in (2, 17, 80):
            cur = predictive_mixture(traj, H, GAUSS, at_time=n)
            prev = predictive_mixture(traj, H, GAUSS, at_time=n - 1)
            h_n = SCHED.values(n)[-1]
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
            mix = predictive_mixture(traj, H, GAUSS, at_time=n)
            direct = np.mean(
                GAUSS.cdf1((0.5 - traj.points[:n, 0]) / SCHED.values(n)[-1])
            )
            assert mix.prob(-np.inf, 0.5) == pytest.approx(float(direct), abs=1e-14)


def kernel_cf_row(schedule, kernel, t, n):
    """phi_K(h_k t) for k = 1..n, the row ``cf_path`` reads."""
    t = np.broadcast_to(np.asarray(t, dtype=float), (kernel.dim,))
    return kernel.cf_scaled(t, schedule.values(n))


def cf_path_out_of_place(traj, schedule, kernel, t):
    """Oracle for ``cf_path``: the same steps as plain numpy expressions, each
    writing a fresh array, with the kernel CF row read inside.  Returns
    (phi, path): the running mean, its parts divided apart, of the phases
    (times the row, recursive) and, for kde, phi = row * path + 0.0."""
    n_max = len(traj)
    t = np.broadcast_to(np.asarray(t, dtype=float), (traj.dim,))
    phases = np.exp(1j * (traj.points @ t))
    row = kernel.cf_scaled(t, schedule.values(n_max))
    counts = np.arange(1, n_max + 1, dtype=float)
    sums = np.cumsum(phases if traj.flavor == "kde" else phases * row)
    path = sums.real / counts + 1j * (sums.imag / counts)
    if traj.flavor == "recursive":
        return path, path
    return row * path + 0.0, path


# Keyword arguments of each kernel family beyond its dimension.
FAMILY_ARGS = {"gaussian": {}, "half_normal": {}, "laplace": {}, "student_t": {"dof": 3.0}}


class TestCfPath:
    def test_matches_mixture_cf(self):
        for flavor in ("kde", "recursive"):
            streams = DrawStreams.from_seed(29, 0)
            traj = simulate(flavor, SCHED, GAUSS, 60, streams)
            for t in (0.5, 2.0):
                phi, _ = cf_path(traj, t, kernel_cf_row(SCHED, GAUSS, t, 60))
                for n in (1, 7, 33, 60):
                    mix = predictive_mixture(traj, H, GAUSS, at_time=n)
                    assert phi[n - 1] == pytest.approx(mix.cf(t), abs=1e-12)

    @settings(max_examples=120, deadline=None)
    @given(
        family=st.sampled_from(sorted(FAMILY_ARGS)),
        d=st.integers(1, 3),
        flavor=st.sampled_from(FLAVORS),
        length=st.integers(1, 80),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_matches_mixture_cf_every_family(self, family, d, flavor, length, seed, data):
        # half_normal's complex kernel CF tells the kde order (multiply the
        # running mean by phi_K(h_n t)) from the recursive one (sum the
        # products), which a real CF would not.
        kernel = KernelSpec(family, dim=d, **FAMILY_ARGS[family])
        schedule = BandwidthSchedule.default(d)
        t = np.array(data.draw(st.lists(st.floats(-6.0, 6.0), min_size=d, max_size=d)))
        traj = simulate(flavor, schedule, kernel, length, DrawStreams.from_seed(seed, 0))
        phi, path = cf_path(traj, t, kernel_cf_row(schedule, kernel, t, length))
        for n in sorted({1, max(1, length // 3), length}):
            mix = predictive_mixture(traj, schedule.values(length), kernel, at_time=n)
            assert phi[n - 1] == pytest.approx(mix.cf(t), abs=1e-12)
            # The kde path is the phase mean psi_n, of which phi_n = phi_K(h_n t) psi_n.
            psi = np.mean(np.exp(1j * (traj.points[:n] @ t))) if flavor == "kde" else phi[n - 1]
            assert path[n - 1] == pytest.approx(psi, abs=1e-12)

    @pytest.mark.parametrize("family", sorted(FAMILY_ARGS))
    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("t", [0.0, -0.0, 0.7, -2.5, 40.0])
    def test_same_bits_as_out_of_place(self, family, flavor, d, t):
        # t = 40 underflows the gaussian kernel CF to 0 at early n, where the
        # in-place product and division would otherwise leave negative zeros.
        kernel = KernelSpec(family, dim=d, **FAMILY_ARGS[family])
        for r in range(2):
            traj = simulate(flavor, SCHED, kernel, 400, DrawStreams.from_seed(17, r))
            phi, path = cf_path(traj, t, kernel_cf_row(SCHED, kernel, t, 400))
            want_phi, want_path = cf_path_out_of_place(traj, SCHED, kernel, t)
            assert phi.tobytes() == want_phi.tobytes()
            assert path.tobytes() == want_path.tobytes()
            assert (path is phi) == (flavor == "recursive")

    def test_row_must_match_trajectory(self):
        traj = simulate("kde", SCHED, GAUSS, 30, DrawStreams.from_seed(3, 0))
        with pytest.raises(ValueError, match="kernel CF row"):
            cf_path(traj, 1.0, kernel_cf_row(SCHED, GAUSS, 1.0, 31))


class TestReconstruction:
    def test_root(self):
        traj = simulate("kde", SCHED, GAUSS, 1)
        assert reconstruct_from_genealogy(traj, 1)[0] == 0.0

    def test_hand_chain(self):
        traj = simulate("kde", SCHED, GAUSS, 3, forced_ancestors=[1, 2], forced_draws=[1.0, 1.0])
        got = reconstruct_from_genealogy(traj, 3)
        assert got[0] == pytest.approx(1.0 + 2.0**-0.2, rel=1e-14, abs=0.0)

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

    @pytest.mark.parametrize("prefix", [None, [[1.0, 0.0], [2.0, -1.0], [3.0, 0.5]]],
                             ids=["origin", "data3"])
    def test_oracles_need_no_level_order(self, monkeypatch, prefix):
        # The oracles walk the record alone: with the level order and its
        # sums unavailable they still rebuild every point.
        traj = simulate("recursive", SCHED, KernelSpec("gaussian", dim=2), 3000,
                        DrawStreams.from_seed(5, 0), prefix)

        def unavailable(*args, **kwargs):
            raise AssertionError("an oracle reached the level order")

        monkeypatch.setattr(process, "level_order", unavailable)
        monkeypatch.setattr(process, "_sum_levels", unavailable)
        assert np.max(np.abs(reconstruct_all(traj) - traj.points)) <= 1e-12
        for n in (1, 4, 1500, 3000):
            err = np.max(np.abs(reconstruct_from_genealogy(traj, n) - traj.points[n - 1]))
            assert err <= 1e-12

    def test_reconstruct_all_with_prefix(self):
        streams = DrawStreams.from_seed(2, 1)
        traj = simulate("recursive", SCHED, GAUSS, 50, streams, data_prefix=[1.0, 2.0, 3.0])
        rec = reconstruct_all(traj)
        np.testing.assert_allclose(rec, traj.points, atol=1e-12)


class TestPaths:
    @pytest.mark.parametrize("flavor", ["kde", "recursive"])
    def test_dominating_path_bounds_norms(self, flavor):
        streams = DrawStreams.from_seed(37, 0)
        traj = simulate(flavor, SCHED, KernelSpec("laplace"), 5000, streams)
        u = dominating_path(traj)
        assert np.all(np.linalg.norm(traj.points, axis=1) <= u + 1e-12)
        assert u[0] == 0.0

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("chain", [False, True], ids=["drawn", "forced-chain"])
    def test_dominating_path_matches_chain_walk(self, flavor, chain):
        n = 2000
        forced = np.arange(1, n) if chain else None
        traj = simulate(flavor, SCHED, KernelSpec("laplace"), n, DrawStreams.from_seed(38, 0),
                        forced_ancestors=forced)
        assert np.array_equal(dominating_path(traj), dominating_walk(traj))

    @pytest.mark.parametrize("prefix_len", [1, 3], ids=["data1", "data3"])
    @pytest.mark.parametrize("dim", [1, 3], ids=["d1", "d3"])
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_dominating_path_under_data_prefix(self, flavor, dim, prefix_len):
        # Each chain starts at its root's norm, so U_p still bounds ||x_p||
        # when the roots are data points away from the origin.
        kernel = KernelSpec("gaussian", dim=dim)
        prefix = np.random.default_rng(prefix_len * dim).normal(3.0, 2.0, (prefix_len, dim))
        traj = simulate(flavor, SCHED, kernel, 1500, DrawStreams.from_seed(39, 0), prefix)
        u = dominating_path(traj)
        assert np.array_equal(u, dominating_walk(traj))
        np.testing.assert_array_equal(u[:prefix_len], np.linalg.norm(prefix, axis=1))
        assert np.all(np.linalg.norm(traj.points, axis=1) <= u * (1 + 1e-12))


class TestDistributionalConsistency:
    def test_next_point_law_matches_mixture(self):
        streams = DrawStreams.from_seed(41, 0)
        traj = simulate("kde", SCHED, GAUSS, 50, streams)
        mix = predictive_mixture(traj, H, GAUSS)
        n = 10**5
        # Each call takes one step from the 50-point state, consuming one
        # uniform and one kernel variate of the shared streams.
        fresh = DrawStreams.from_seed(43, 0)
        draws = np.empty(n)
        for i in range(n):
            draws[i] = simulate("kde", SCHED, GAUSS, 51, fresh, data_prefix=traj.points).points[50, 0]
        res = stats.kstest(draws, lambda x: mix.cdf(x))
        assert res.pvalue > 0.001

