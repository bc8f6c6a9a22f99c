"""Kernel distributions: sampling, characteristic functions, moments."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from kdeproc import KernelSpec
from kdeproc.kernels import frequency

T_GRID = np.arange(-5.0, 5.0 + 0.25, 0.5)

ALL_SPECS = [
    KernelSpec("gaussian"),
    KernelSpec("half_normal"),
    KernelSpec("laplace"),
    KernelSpec("student_t", dof=3.0),
    KernelSpec("student_t", dof=1.5),
]

# Every family, and student_t from heavy tails to nearly normal.
FINITE_SPECS = [
    KernelSpec("gaussian"),
    KernelSpec("half_normal"),
    KernelSpec("laplace"),
    *(KernelSpec("student_t", dof=dof) for dof in (1.01, 3.0, 30.0, 1e4)),
]


def phi_bound(spec) -> float:
    """Largest |phi| a coordinate CF may read: 1, except that at dof <= 6
    student_t's Bessel form rounds log phi at small u, up to ~2e-14 above 0
    (dof 6); past dof 6 the moment series serves there."""
    return 1.0 + 1e-12 if spec.family == "student_t" and spec.dof <= 6 else 1.0

# Keyword arguments of each kernel family beyond its dimension.
FAMILY_ARGS = {"gaussian": {}, "half_normal": {}, "laplace": {}, "student_t": {"dof": 3.0}}
# Largest |cf_scaled_minus_one - oracle| allowed for the closed-form
# families at d = 1..3: each form rounds a few times per coordinate on
# values of modulus <= 2.
MINUS_ONE_ATOL = 8 * np.finfo(float).eps
# The same for student_t, whose oracle is a quadrature: each coordinate is
# within 4.2e-10 of the Bessel form over |u| <= 1000, and d = 3 multiply.
MINUS_ONE_QUAD_ATOL = 2e-9


def coordinate_cf_oracle(spec, u: float) -> complex:
    """phi_1(u) of one coordinate, computed without the kernel's own code:
    closed forms for gaussian, laplace and half_normal, and the Fourier
    integral 2 int_0^inf f(x) cos(ux) dx of the density for student_t."""
    if spec.family == "gaussian":
        return complex(np.exp(-0.5 * u * u))
    if spec.family == "laplace":
        return complex(1.0 / (1.0 + u * u))
    if spec.family == "half_normal":
        return complex(np.exp(-0.5 * u * u), 2.0 / np.sqrt(np.pi) * special.dawsn(u / np.sqrt(2.0)))
    if u == 0.0:
        return 1.0 + 0.0j
    nu = spec.dof
    norm = np.exp(special.gammaln(0.5 * (nu + 1.0)) - special.gammaln(0.5 * nu)) / np.sqrt(nu * np.pi)

    def density(x):
        return norm * (1.0 + x * x / nu) ** (-0.5 * (nu + 1.0))

    if abs(u) < 0.1:
        # The Fourier weight needs oscillation; at low frequency the
        # deviation's integrand decays like the density itself.
        dev, _ = integrate.quad(lambda x: density(x) * (np.cos(u * x) - 1.0), 0.0, np.inf,
                                limit=400, epsabs=1e-13)
        return complex(1.0 + 2.0 * dev)
    val, _ = integrate.quad(density, 0.0, np.inf, weight="cos", wvar=abs(u), limlst=100)
    return complex(2.0 * val)


def student_t_cf_mpmath(dof: float, u: float):
    """The Student-t CF at u as a normal scale mixture, E[exp(-u^2 dof / (2V))]
    with V ~ chi^2_dof, integrated by mpmath at 30 digits in pieces around
    the integrand's peak; an mpf.  Uses no Bessel function."""
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    nu, u = mp.mpf(dof), mp.mpf(u)
    c, k = u * u * nu / 2, nu / 2 - 1

    def log_integrand(v):
        return -c / v + k * mp.log(v) - v / 2

    peak = k + mp.sqrt(k * k + 2 * c)  # the root of c/v^2 + k/v - 1/2
    width = mp.sqrt(2 * peak + 1)
    top = log_integrand(peak)
    cuts = {peak + j * width for j in (-60, -20, -6, -2, 0, 2, 6, 20, 60)}
    pieces = sorted({mp.mpf(0), mp.inf} | {v for v in cuts if v > 0})
    mass = mp.quad(lambda v: mp.exp(log_integrand(v) - top), pieces)
    return mp.exp(top - (nu / 2) * mp.log(2) - mp.loggamma(nu / 2)) * mass


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


class TestFrequency:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("t", [-1.5, 2, np.float32(0.25), [0.75], np.array([-0.0])],
                             ids=["float", "int", "float32", "list1", "array1"])
    def test_scalar_means_every_coordinate(self, dim, t):
        got = frequency(t, dim)
        value = float(np.asarray(t).ravel()[0])
        assert got.dtype == float and got.shape == (dim,)
        assert got.tobytes() == np.full(dim, value).tobytes()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_float_vector_is_returned_as_is(self, dim):
        t = np.linspace(-1.0, 2.0, dim)
        assert frequency(t, dim) is t
        # Any other (d,) sequence is the same point as floats.
        assert frequency(list(range(dim)), dim).tobytes() == np.arange(dim, dtype=float).tobytes()

    @pytest.mark.parametrize(
        "dim, t",
        [(3, [1.0, 2.0]), (2, [1.0, 2.0, 3.0]), (1, [1.0, 2.0]), (2, [[1.0]]), (2, np.ones((2, 2))),
         (3, [])],
    )
    def test_other_shapes_raise(self, dim, t):
        shape = np.shape(t)
        with pytest.raises(ValueError, match=rf"\({dim},\).*got shape {re.escape(str(shape))}"):
            frequency(t, dim)


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
        "spec", [s for s in ALL_SPECS if s.family != "half_normal"], ids=str
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

    @settings(max_examples=30, deadline=None)
    @given(dof=st.floats(30.0, 1e6), u=st.floats(1e-6, 10.0))
    def test_student_t_quadrature_matches_scipy_stats(self, dof, u):
        # The package's Gauss-Kronrod rule against QUADPACK's quad on
        # scipy.stats' density, both asked for 1e-12: at dof >= 30 and
        # u <= 10 both reach it.
        want, _ = integrate.quad(
            lambda x: 2.0 * stats.t.pdf(x, dof) * (np.cos(u * x) - 1.0),
            0.0, np.inf, limit=400, epsabs=1e-12, epsrel=1e-12,
        )
        got = KernelSpec("student_t", dof=dof)._cf1_m1_student_t_quad(u)
        assert got == pytest.approx(want, rel=0.0, abs=1e-12)

    @pytest.mark.parametrize("u", np.geomspace(0.028, 32.0, 9).tolist())
    def test_student_t_quadrature_at_dof_1e4_against_mpmath(self, u):
        # At dof 1e4 kve overflows over this whole range and the moment
        # series falls short of 1e-11, so the quadrature is the deviation
        # there; the normal scale mixture shares no code with it.
        got = KernelSpec("student_t", dof=1e4).cf_scaled_minus_one(1.0, [u])[0]
        assert got.imag == 0.0
        assert got.real == pytest.approx(float(student_t_cf_mpmath(1e4, u) - 1), rel=0.0, abs=5e-12)

    @pytest.mark.parametrize("dof", [3.0, 6.0, 6.5, 30.0, 1e4])
    def test_student_t_below_1e_12(self, dof):
        # Past dof 6 the exact moment series serves every z = sqrt(dof)|u| up
        # to its reach, below 1e-12 too: -m2 u^2/2 where that is not 0.  At
        # dof <= 6 no series is exact and the deviation there reads 0.
        u = np.array([1e-13, 1e-14, -1e-20, 1e-200])
        got = KernelSpec("student_t", dof=dof).cf_scaled_minus_one(1.0, u)
        want = -0.5 * dof / (dof - 2.0) * u**2 if dof > 6 else np.zeros(u.size)
        assert np.all(got.imag == 0.0)
        np.testing.assert_allclose(got.real, want, rtol=4e-16, atol=0.0)

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

    @pytest.mark.parametrize("dof", [6.5, 7.0, 12.0, 30.0, 100.0, 300.0])
    def test_student_t_small_deviations_against_mpmath(self, dof):
        # The Bessel form's log phi is a sum of terms of size |a log z| that
        # cancel to ~0 as u falls, so its deviation there is rounding noise
        # (+7.3e-14 at dof 30, u = 1e-9, against -5.4e-19).  Past dof 6 the
        # moment series takes over wherever it is exact to rounding, and
        # the deviation keeps its relative digits down to u = 1e-11; the
        # worst left is the Bessel form's just past the series' reach.
        mp = pytest.importorskip("mpmath")
        mp.mp.dps = 60
        a = mp.mpf(dof) / 2
        u = np.geomspace(1e-11, 0.1, 41)
        got = KernelSpec("student_t", dof=dof).cf_scaled_minus_one(1.0, u)
        assert np.all(got.imag == 0.0) and np.all(got.real < 0.0)
        for ui, dev in zip(u, got.real):
            z = mp.sqrt(dof) * mp.mpf(ui)
            want = z**a * mp.besselk(a, z) * 2 ** (1 - a) / mp.gamma(a) - 1
            assert abs(dev - want) <= 2.5e-7 * abs(want)

    @pytest.mark.parametrize("dof", [1.01, 3.0, 30.0, 1e4])
    def test_student_t_past_the_kve_range_against_mpmath(self, dof):
        # SciPy's kve is NaN past z = sqrt(dof)|u| = 2^30 - 1/2; on either
        # side of 2^30, phi < 2^-54, so the deviation is -1.0.
        spec = KernelSpec("student_t", dof=dof)
        for z in (2.0**30 - 1.0, 2.0**30 + 1.0):
            u = z / np.sqrt(dof)
            phi = student_t_cf_mpmath(dof, u)
            assert phi < 2.0**-54
            assert spec.cf_scaled_minus_one(1.0, [u, -u]).tolist() == [float(phi - 1)] * 2

    @pytest.mark.parametrize(
        "dof, u", [(500.0, 0.5183), (1000.0, 2.95), (1000.0, 3.2), (2000.0, 8.3), (1e4, 40.0)]
    )
    def test_student_t_where_kve_overflows_against_mpmath(self, dof, u):
        # From dof ~ 474 on, kve overflows at moderate z although its
        # small-z estimate reads it as representable; the deviation there
        # comes from the moment series or quadrature, which misses its
        # requested 1e-12 by up to 2.1e-12 at dof 1e4.
        a, z = dof / 2, np.sqrt(dof) * u
        assert special.gammaln(a) + a * np.log(2.0 / z) < 690.0
        assert np.isinf(special.kve(a, z))
        got = KernelSpec("student_t", dof=dof).cf_scaled_minus_one(1.0, [u])[0]
        assert got.imag == 0.0
        assert got.real == pytest.approx(float(student_t_cf_mpmath(dof, u) - 1), rel=0.0, abs=5e-12)

    @pytest.mark.parametrize("spec", FINITE_SPECS, ids=str)
    def test_minus_one_finite_over_the_float_range(self, spec):
        # Every order of magnitude of |u|, both signs: the deviation is
        # finite, warns nothing (RuntimeWarning is an error here) and
        # keeps |phi| <= 1 up to rounding.
        u = np.geomspace(1e-300, 1e308, 1500)
        dev = spec.cf_scaled_minus_one(1.0, np.concatenate((-u[::-1], [0.0], u)))
        assert np.all(np.isfinite(dev))
        assert np.all(np.abs(1.0 + dev) <= phi_bound(spec))

    @settings(max_examples=60, deadline=None)
    @given(
        spec=st.sampled_from(FINITE_SPECS),
        u=st.lists(st.floats(-1e308, 1e308), min_size=1, max_size=10),
    )
    def test_minus_one_finite_for_every_finite_u(self, spec, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dev = spec.cf_scaled_minus_one(1.0, np.array(u))
        assert np.all(np.isfinite(dev))
        assert np.all(np.abs(1.0 + dev) <= phi_bound(spec))

    @settings(max_examples=100, deadline=None)
    @given(
        family=st.sampled_from(["gaussian", "half_normal", "laplace"]),
        u=st.lists(st.floats(-1e308, 1e308), min_size=1, max_size=10),
    )
    def test_squares_clip_keeps_every_finite_deviation(self, family, u):
        # The square of u unclipped, overflow and all: wherever that
        # deviation is finite, the clipped one has its bits.
        u = np.array(u)
        with np.errstate(over="ignore", invalid="ignore"):
            if family == "laplace":
                want = -u * u / (1.0 + u * u) + 0j
            elif family == "gaussian":
                want = np.expm1(-0.5 * u * u) + 0j
            else:
                dawson = special.dawsn(u / np.sqrt(2.0))
                want = np.expm1(-0.5 * u * u) + 1j * (2.0 / np.sqrt(np.pi)) * dawson
        got = KernelSpec(family)._cf1_m1(u)
        finite = np.isfinite(want)
        assert got[finite].tobytes() == want[finite].tobytes()
        assert np.all(got.real[np.abs(u) > 1e150] == -1.0)

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

    @settings(max_examples=100, deadline=None)
    @given(
        family=st.sampled_from(sorted(FAMILY_ARGS)),
        data=st.data(),
        scales=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=30),
    )
    def test_minus_one_starts_from_first_coordinate(self, family, data, scales):
        # One coordinate: exactly its deviation, to the bit.
        spec = KernelSpec(family, **FAMILY_ARGS[family])
        t = data.draw(st.floats(-20.0, 20.0))
        scales = np.array(scales)
        got = spec.cf_scaled_minus_one(t, scales)
        assert got.tobytes() == spec._cf1_m1(scales * t).tobytes()

    @settings(max_examples=120, deadline=None)
    @given(
        family=st.sampled_from(sorted(FAMILY_ARGS)),
        d=st.integers(1, 3),
        data=st.data(),
        scales=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=8),
    )
    def test_minus_one_matches_coordinate_oracle(self, family, d, data, scales):
        spec = KernelSpec(family, dim=d, **FAMILY_ARGS[family])
        t = np.array(data.draw(st.lists(st.floats(-20.0, 20.0), min_size=d, max_size=d)))
        scales = np.array(scales)
        got = spec.cf_scaled_minus_one(t, scales)
        want = np.array(
            [np.prod([coordinate_cf_oracle(spec, s * tj) for tj in t]) - 1.0 for s in scales]
        )
        atol = MINUS_ONE_QUAD_ATOL if family == "student_t" else MINUS_ONE_ATOL
        np.testing.assert_allclose(got, want, rtol=0.0, atol=atol)
        # The CF is one plus the deviation, to the bit.
        assert spec.cf_scaled(t, scales).tobytes() == (1.0 + got).tobytes()


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
        assert spec.pdf1(0.0) == pytest.approx(2.0 * stats.norm.pdf(0.0), rel=1e-15, abs=0.0)

    def test_norm_survival_chi(self):
        # |(|Z_1|,...,|Z_d|)| = |Z|, so both normal-based families follow chi.
        r = np.array([-1.0, 0.0, 1.0, 2.5])
        for family in ("gaussian", "half_normal"):
            np.testing.assert_allclose(
                KernelSpec(family, dim=3).norm_survival(r),
                np.where(r < 0, 1.0, stats.chi.sf(np.maximum(r, 0), 3)),
                atol=1e-12,
            )

    @pytest.mark.parametrize(
        "spec",
        [
            KernelSpec("gaussian"),
            KernelSpec("half_normal"),
            KernelSpec("laplace"),
            KernelSpec("student_t", dof=3.0),
        ],
        ids=str,
    )
    def test_norm_survival_from_cdf(self, spec):
        # At d = 1 every family has the closed form: one tail of the
        # coordinate CDF for half_normal, both tails for the symmetric ones.
        r = np.array([-1.0, 0.0, 1.0, 2.5])
        tail = 1.0 - spec.cdf1(np.maximum(r, 0.0))
        want = tail if spec.family == "half_normal" else 2.0 * tail
        np.testing.assert_allclose(spec.norm_survival(r), np.where(r < 0, 1.0, want), atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        family=st.sampled_from(["gaussian", "half_normal", "student_t"]),
        d=st.integers(1, 8),
        dof=st.sampled_from([1.01, 1.5, 2.0, 3.0, 4.5, 7.5, 30.0]),
        r=st.lists(
            st.one_of(st.floats(-5.0, 40.0), st.just(0.0), st.just(np.inf)),
            min_size=1, max_size=50,
        ),
    )
    def test_norm_survival_is_scipy_stats_bit_for_bit(self, family, d, dof, r):
        # The chi and Student-t survival functions without scipy.stats'
        # dispatch are the same floats as through it.
        if family == "student_t":
            spec, d = KernelSpec("student_t", dof=dof), 1
        else:
            spec = KernelSpec(family, dim=d)
        r = np.array(r)
        rp = np.maximum(r, 0.0)
        if family == "student_t":
            stats_sf = 2.0 * stats.t.sf(rp, dof)
        else:
            stats_sf = stats.chi.sf(rp, df=d)
        want = np.where(r < 0.0, 1.0, stats_sf)
        assert spec.norm_survival(r).tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        dof=st.floats(1.0, 1e6, exclude_min=True),
        x=st.lists(
            # |x| <= 1e150 keeps x * x finite: past it both sides warn of
            # overflow, an error under the suite's warning filters.
            st.one_of(
                st.floats(-1e150, 1e150),
                st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]),
            ),
            min_size=1, max_size=50,
        ),
    )
    def test_student_t_cdf_and_pdf_are_scipy_stats_bit_for_bit(self, dof, x):
        # cdf1 and pdf1 call scipy.special without scipy.stats' dispatch,
        # which the package never imports for them; they are its floats.
        spec = KernelSpec("student_t", dof=dof)
        x = np.array(x)
        assert spec.cdf1(x).tobytes() == stats.t.cdf(x, dof).tobytes()
        assert spec.pdf1(x).tobytes() == stats.t.pdf(x, dof).tobytes()
        scalar = float(x[0])
        assert spec.cdf1(scalar).tobytes() == stats.t.cdf(scalar, dof).tobytes()
        assert spec.pdf1(scalar).tobytes() == stats.t.pdf(scalar, dof).tobytes()

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
            2 * np.sqrt(3) / np.pi, rel=1e-12, abs=0.0
        )

    def test_laplace(self):
        assert KernelSpec("laplace").norm_mean == pytest.approx(1.0, rel=1e-12, abs=0.0)

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
            2 * np.sqrt(2 / np.pi), rel=1e-12, abs=0.0
        )
        # half-normal coordinates share the chi norm law
        assert KernelSpec("half_normal", dim=3).norm_mean == pytest.approx(
            KernelSpec("gaussian", dim=3).norm_mean, rel=1e-14, abs=0.0
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
            expected, rel=1e-8, abs=0.0
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
