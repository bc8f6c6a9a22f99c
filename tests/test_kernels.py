"""Kernel distributions: sampling, characteristic functions, moments."""

import numpy as np
import pytest
from scipy import integrate, stats

from kdeproc import KernelSpec

T_GRID = np.arange(-5.0, 5.0 + 0.25, 0.5)

ALL_SPECS = [
    KernelSpec("gaussian"),
    KernelSpec("half_normal"),
    KernelSpec("laplace"),
    KernelSpec("student_t", dof=3.0),
    KernelSpec("student_t", dof=1.5),
]


class ForcedStream:
    """Stub generator returning preset variates."""

    def __init__(self, value=0.0):
        self.value = value

    def standard_normal(self, shape):
        return np.full(shape, self.value)

    def standard_t(self, dof, size):
        return np.full(size, self.value)

    def laplace(self, loc, scale, size):
        return np.full(size, self.value)


class TestValidation:
    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            KernelSpec("epanechnikov")

    def test_rejects_bad_dimension(self):
        with pytest.raises(ValueError):
            KernelSpec("gaussian", dim=0)

    def test_student_t_needs_dof_above_one(self):
        with pytest.raises(ValueError):
            KernelSpec("student_t", dof=1.0)
        with pytest.raises(ValueError):
            KernelSpec("student_t", dof=np.inf)
        with pytest.raises(ValueError):
            KernelSpec("student_t")

    def test_dof_rejected_for_other_families(self):
        with pytest.raises(ValueError):
            KernelSpec("gaussian", dof=3.0)


class TestSampling:
    def test_forced_zero_passes_through(self):
        out = KernelSpec("gaussian").sample(ForcedStream(0.0))
        assert out.shape == (1,)
        assert out[0] == 0.0

    def test_half_normal_non_negative(self):
        rng = np.random.default_rng(0)
        draws = KernelSpec("half_normal").sample(rng, size=10_000)
        assert np.all(draws >= 0.0)

    def test_gaussian_mean_within_monte_carlo_band(self):
        rng = np.random.default_rng(1)
        draws = KernelSpec("gaussian").sample(rng, size=10**6)
        # 3 sigma / sqrt(N) = 0.003; allow 0.004.
        assert abs(draws.mean()) < 0.004

    def test_shapes(self):
        rng = np.random.default_rng(2)
        spec = KernelSpec("laplace", dim=3)
        assert spec.sample(rng).shape == (3,)
        assert spec.sample(rng, size=7).shape == (7, 3)


class TestCharacteristicFunction:
    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_at_origin_exactly_one(self, spec):
        assert spec.cf(0.0) == 1.0 + 0.0j

    def test_gaussian_closed_form(self):
        assert KernelSpec("gaussian").cf(1.0) == pytest.approx(np.exp(-0.5), abs=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_modulus_bounded(self, spec):
        vals = np.array([spec.cf(t) for t in T_GRID])
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    @pytest.mark.parametrize(
        "spec", [s for s in ALL_SPECS if s.symmetric], ids=str
    )
    def test_symmetric_families_real(self, spec):
        vals = np.array([spec.cf(t) for t in T_GRID])
        assert np.max(np.abs(vals.imag)) <= 1e-12

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_matches_empirical_cf_on_grid(self, spec):
        rng = np.random.default_rng(42)
        n = 10**6
        y = spec.sample(rng, size=n)[:, 0]
        emp = np.exp(1j * np.outer(T_GRID, y)).mean(axis=1)
        exact = np.array([spec.cf(t) for t in T_GRID])
        assert np.max(np.abs(emp - exact)) < 5 * (2 / np.sqrt(n))

    def test_half_normal_empirical_modulus(self):
        rng = np.random.default_rng(7)
        y = np.abs(rng.standard_normal(10**6))
        emp = np.exp(1j * 1.0 * y).mean()
        assert abs(KernelSpec("half_normal").cf(1.0) - emp) < 0.005

    @pytest.mark.parametrize("dof", [1.5, 3.0, 7.0, 30.0, 250.0])
    def test_student_t_against_quadrature(self, dof):
        # The cosine-weighted oracle is only trustworthy away from zero
        # frequency; small arguments are covered by the mpmath oracle below.
        spec = KernelSpec("student_t", dof=dof)
        for u in (0.3, 1.0, 2.5, 8.0):
            val, _ = integrate.quad(
                lambda x: stats.t.pdf(x, dof),
                0,
                np.inf,
                weight="cos",
                wvar=u,
                limit=400,
                epsabs=1e-13,
                epsrel=1e-13,
            )
            assert spec.cf(u).real == pytest.approx(2 * val, abs=2e-9)
            assert spec.cf(u).imag == 0.0

    @pytest.mark.parametrize("dof", [1.5, 30.0, 250.0, 500.0])
    def test_student_t_small_arguments_against_mpmath(self, dof):
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 40
        spec = KernelSpec("student_t", dof=dof)
        a = mp.mpf(dof) / 2
        for u in (1e-8, 1e-3, 0.01, 0.05, 0.2):
            z = mp.sqrt(dof) * abs(mp.mpf(u))
            exact = float(z**a * mp.besselk(a, z) * 2 ** (1 - a) / mp.gamma(a))
            assert spec.cf(u).real == pytest.approx(exact, abs=1e-10)

    def test_product_structure_multivariate(self):
        spec = KernelSpec("half_normal", dim=3)
        t = np.array([0.5, -1.0, 2.0])
        expected = np.prod([KernelSpec("half_normal").cf(tj) for tj in t])
        assert spec.cf(t) == pytest.approx(expected, abs=1e-14)

    def test_cf_scaled_matches_pointwise(self):
        spec = KernelSpec("laplace", dim=2)
        t = np.array([1.0, -0.5])
        scales = np.array([0.1, 1.0, 3.0])
        got = spec.cf_scaled(t, scales)
        expected = [spec.cf(s * t) for s in scales]
        np.testing.assert_allclose(got, expected, atol=1e-14)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_minus_one_consistent(self, spec):
        scales = np.array([1e-9, 1e-4, 0.3, 2.0])
        m1 = spec.cf_scaled_minus_one(1.3, scales)
        direct = spec.cf_scaled(1.3, scales) - 1.0
        np.testing.assert_allclose(m1, direct, atol=1e-12)
        # small-scale deviation keeps full relative resolution
        tiny = spec.cf_scaled_minus_one(1.0, np.array([1e-9]))[0]
        assert 0 < abs(tiny) < 1e-8


class TestCdf:
    def test_gaussian_matches_scipy(self):
        x = np.linspace(-4, 4, 33)
        np.testing.assert_allclose(
            KernelSpec("gaussian").cdf1(x), stats.norm.cdf(x), atol=1e-12
        )

    def test_half_normal(self):
        spec = KernelSpec("half_normal")
        assert spec.cdf1(-0.5) == 0.0
        assert spec.cdf1(0.0) == 0.0
        x = np.linspace(0.01, 5, 40)
        np.testing.assert_allclose(spec.cdf1(x), 2 * stats.norm.cdf(x) - 1, atol=1e-12)

    def test_laplace_matches_scipy(self):
        x = np.linspace(-6, 6, 49)
        np.testing.assert_allclose(
            KernelSpec("laplace").cdf1(x), stats.laplace.cdf(x), atol=1e-12
        )

    def test_student_t_matches_scipy(self):
        x = np.linspace(-6, 6, 25)
        np.testing.assert_allclose(
            KernelSpec("student_t", dof=3.0).cdf1(x), stats.t.cdf(x, 3.0), atol=1e-12
        )

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: f"{s.family}-{s.dof}")
    def test_pdf_is_cdf_derivative(self, spec):
        # Central differences of cdf1, at points clear of half_normal's kink
        # at 0; the step balances truncation against cancellation.
        x = np.concatenate([np.linspace(-6.0, -0.05, 24), np.linspace(0.05, 6.0, 24)])
        step = 1e-5
        numeric = (spec.cdf1(x + step) - spec.cdf1(x - step)) / (2.0 * step)
        np.testing.assert_allclose(spec.pdf1(x), numeric, rtol=1e-6, atol=1e-10)

    def test_pdf_half_normal_support(self):
        spec = KernelSpec("half_normal")
        assert spec.pdf1(-1e-300) == 0.0
        assert spec.pdf1(0.0) == pytest.approx(2.0 * stats.norm.pdf(0.0), rel=1e-15)

    def test_norm_survival_chi(self):
        spec = KernelSpec("gaussian", dim=3)
        r = np.array([-1.0, 0.0, 1.0, 2.5])
        np.testing.assert_allclose(
            spec.norm_survival(r),
            np.where(r < 0, 1.0, stats.chi.sf(np.maximum(r, 0), 3)),
            atol=1e-12,
        )

    def test_norm_survival_unavailable(self):
        with pytest.raises(ValueError):
            KernelSpec("laplace", dim=2).norm_survival(1.0)


class TestMoments:
    def test_half_normal_first(self):
        assert KernelSpec("half_normal").norm_mean == pytest.approx(
            np.sqrt(2 / np.pi), abs=1e-12
        )

    def test_student_t_first_closed_form(self):
        # E|T_3| = 2 sqrt(3) / pi
        assert KernelSpec("student_t", dof=3.0).norm_mean == pytest.approx(
            2 * np.sqrt(3) / np.pi, rel=1e-12
        )

    def test_laplace(self):
        assert KernelSpec("laplace").norm_mean == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("spec", ALL_SPECS, ids=str)
    def test_first_moment_vs_sample_mean(self, spec):
        rng = np.random.default_rng(3)
        n = 10**6
        draws = np.linalg.norm(spec.sample(rng, size=n), axis=1)
        se = draws.std() / np.sqrt(n)
        assert abs(spec.norm_mean - draws.mean()) < 4 * se

    def test_chi_moment_multivariate(self):
        # E||Z_3|| = 2 sqrt(2/pi)
        assert KernelSpec("gaussian", dim=3).norm_mean == pytest.approx(
            2 * np.sqrt(2 / np.pi), rel=1e-12
        )
        # half-normal coordinates share the chi norm law
        assert KernelSpec("half_normal", dim=3).norm_mean == pytest.approx(
            KernelSpec("gaussian", dim=3).norm_mean, rel=1e-14
        )

    def test_multivariate_fractional_vs_monte_carlo(self):
        rng = np.random.default_rng(4)
        lap = KernelSpec("laplace", dim=2)
        r = np.linalg.norm(rng.laplace(size=(10**6, 2)), axis=1)
        se = r.std() / 1e3
        assert abs(lap.norm_mean - r.mean()) < 4 * se
        tsp = KernelSpec("student_t", dim=2, dof=5.0)
        rt = np.linalg.norm(rng.standard_t(5.0, size=(10**6, 2)), axis=1)
        se_t = rt.std() / 1e3
        assert abs(tsp.norm_mean - rt.mean()) < 4 * se_t

    @pytest.mark.parametrize(
        "dof, dim, expected",
        [(1.5, 2, 3.5636505611122589), (3.0, 2, 1.7898619573345059), (5.0, 3, 1.9491820946119101)],
    )
    def test_student_t_multivariate_norm_mean(self, dof, dim, expected):
        # Reference values from 30-digit mpmath quadrature.
        assert KernelSpec("student_t", dim=dim, dof=dof).norm_mean == pytest.approx(
            expected, rel=1e-8
        )

    @pytest.mark.parametrize("dof", [1.5, 3.0, 5.0])
    @pytest.mark.parametrize("s", [0.01, 0.5, 3.0])
    def test_student_t_laplace_transform_vs_quadrature(self, dof, s):
        # Oracle: E[exp(-s Y^2)] as a direct integral over the t density.
        # Against 30-digit mpmath the oracle itself is off by 2.2e-12 at
        # dof 1.5, s 0.5, and the closed form by at most 8.5e-13.
        val, _ = integrate.quad(
            lambda y: 2.0 * stats.t.pdf(y, dof) * np.exp(-s * y * y), 0.0, np.inf, limit=200
        )
        got = KernelSpec("student_t", dim=2, dof=dof)._squared_coord_laplace_transform(s)
        assert got == pytest.approx(val, abs=5e-12)

    def test_norm_mean_quadrature_runs_once_per_kernel(self, monkeypatch):
        calls = []
        lap_transform = KernelSpec._squared_coord_laplace_transform

        def counting(self, s):
            calls.append(s)
            return lap_transform(self, s)

        monkeypatch.setattr(KernelSpec, "_squared_coord_laplace_transform", counting)
        lap = KernelSpec("laplace", dim=2)
        first = lap.norm_mean
        evaluations = len(calls)
        assert evaluations > 0
        assert lap.norm_mean == first and len(calls) == evaluations
        # An equal kernel built afresh evaluates it again, to the same bits.
        assert KernelSpec("laplace", dim=2).norm_mean == first
        assert len(calls) == 2 * evaluations

    def test_mean_vector(self):
        np.testing.assert_allclose(
            KernelSpec("half_normal", dim=2).mean_vector(),
            np.full(2, np.sqrt(2 / np.pi)),
        )
        assert np.all(KernelSpec("gaussian", dim=2).mean_vector() == 0.0)
