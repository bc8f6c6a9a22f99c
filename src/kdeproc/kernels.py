"""Kernel distributions: exact sampling, characteristic functions, moments.

A kernel is a probability measure on R^d used as the smoothing distribution
of the predictive processes.  Multivariate kernels are products of iid
univariate coordinates, so characteristic functions factor exactly and box
probabilities reduce to products of coordinate CDFs.  The CF is written once,
as its deviation from 1: :meth:`KernelSpec.cf_scaled_minus_one` multiplies
the coordinate deviations phi_1 - 1 in cancellation-free form, and the CF
itself is 1 plus that product.  Every CF in the package reads its frequency
t through :func:`frequency`, the one rule: a scalar or length-1 t means
(t, ..., t) in R^d, a (d,) array is used as it is, other shapes raise.

Supported families:

* ``gaussian``    -- standard normal coordinates.
* ``half_normal`` -- coordinate-wise absolute value of a standard normal.
* ``student_t``   -- Student-t coordinates with a finite ``dof > 1``, so the
  first absolute moment is finite.
* ``laplace``     -- standard Laplace coordinates (scale 1).

SciPy is imported as the bare package and each subpackage is named at its
call (``scipy.special.ndtr``), so a run loads ``scipy.special`` or
``scipy.integrate`` only when it first evaluates one of their functions, and
no call here needs ``scipy.stats``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import pi, sqrt

import numpy as np
import scipy

FAMILIES = ("gaussian", "half_normal", "student_t", "laplace")

_SQRT_2_OVER_PI = sqrt(2.0 / pi)
_SQRT_2PI = sqrt(2.0 * pi)
# |u| past which a square could overflow: the CF deviations square u clipped here.
_SQUARE_CLIP = 1e150
# z = sqrt(dof)|u| from which student_t's deviation reads -1.0: SciPy's kve
# is NaN past z = 2^30 - 1/2.
_KVE_Z_MAX = 2.0**30 - 1.0


def _student_t_pdf(x, dof: float):
    """Student-t density at ``x``: scipy.stats' t.pdf, written as its own
    t._logpdf so that the floats are the same without its dispatch."""
    return np.exp(
        np.log(scipy.special.poch(0.5 * dof, 0.5))
        - 0.5 * (np.log(dof) + np.log(np.pi))
        - (dof + 1) / 2 * np.log1p(x * x / dof)
    )


def frequency(t, dim: int) -> np.ndarray:
    """The point of R^dim that the frequency ``t`` names, by the rule above."""
    t = np.asarray(t, dtype=float)
    if t.shape != (dim,) and (t.size != 1 or t.ndim > 1):
        raise ValueError(f"t must be a scalar or of shape ({dim},), got shape {t.shape}")
    return t if t.shape == (dim,) else np.full(dim, t.item())


@dataclass(frozen=True)
class KernelSpec:
    """Immutable description of a kernel distribution on R^d."""

    family: str
    dim: int = 1
    dof: float | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}; expected one of {FAMILIES}")
        if self.dim < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dim}")
        if self.family == "student_t":
            if self.dof is None or not 1 < self.dof < np.inf:
                raise ValueError("student_t requires a finite dof > 1 (finite first moment)")
        elif self.dof is not None:
            raise ValueError(f"dof only applies to student_t, not {self.family}")

    # ---------------------------------------------------------------- sampling

    def sample(self, rng, size: int | None = None) -> np.ndarray:
        """Draw from the kernel: shape ``(dim,)`` or ``(size, dim)``.

        ``rng`` only needs the numpy ``Generator`` drawing methods, so tests
        may inject a stub producing forced variates.
        """
        shape = (self.dim,) if size is None else (size, self.dim)
        if self.family == "gaussian":
            return np.asarray(rng.standard_normal(shape), dtype=float)
        if self.family == "half_normal":
            return np.abs(np.asarray(rng.standard_normal(shape), dtype=float))
        if self.family == "student_t":
            return np.asarray(rng.standard_t(self.dof, size=shape), dtype=float)
        return np.asarray(rng.laplace(0.0, 1.0, size=shape), dtype=float)

    # ------------------------------------------------- characteristic function

    def cf(self, t) -> complex:
        """Characteristic function E[exp(i t'Y)] at a single point t."""
        return complex(self.cf_scaled(t, 1.0))

    def cf_scaled(self, t, scales) -> np.ndarray:
        """Vector of E[exp(i s t'Y)] over an array of scalar scales s: one
        plus :meth:`cf_scaled_minus_one`."""
        return 1.0 + self.cf_scaled_minus_one(t, scales)

    def cf_scaled_minus_one(self, t, scales) -> np.ndarray:
        """E[exp(i s t'Y)] - 1 without cancellation, vectorized over scales:
        the kernel's one coordinate product.

        Exploits the product structure, phi(s*t) = prod_j phi_1(s*t_j), in
        deviation form: the running product minus one is updated as
        (1 + p)(1 + m) - 1 = p + m + p*m, so a deviation far below the float
        resolution of the value itself keeps its digits.
        """
        t = frequency(t, self.dim)
        scales = np.asarray(scales, dtype=float)
        pm1 = self._cf1_m1(scales * t[0])
        for tj in t[1:]:
            m1 = self._cf1_m1(scales * tj)
            pm1 = pm1 + m1 + pm1 * m1
        return pm1

    def _cf1_m1(self, u: np.ndarray) -> np.ndarray:
        """Coordinate CF minus one, finite for every finite u; cancellation-free
        near zero, except that student_t's Bessel form rounds there (~1e-13)."""
        u = np.asarray(u, dtype=float)
        if self.family == "student_t":
            return self._cf1_m1_student_t(u)
        # The squares below read u clipped to +-1e150, so they cannot
        # overflow; past the clip every real part is -1.0 at u and at the
        # clip alike, so no finite deviation changes.
        c = np.clip(u, -_SQUARE_CLIP, _SQUARE_CLIP)
        if self.family == "gaussian":
            return np.expm1(-0.5 * c * c) + 0j
        if self.family == "laplace":
            return -c * c / (1.0 + c * c) + 0j
        # E[exp(iu|Z|)] = exp(-u^2/2) + i * (2/sqrt(pi)) * dawsn(u/sqrt(2));
        # the Dawson form keeps the imaginary part stable for large |u|.
        dawson = scipy.special.dawsn(u / sqrt(2.0))
        return np.expm1(-0.5 * c * c) + 1j * (2.0 / sqrt(pi)) * dawson

    def _cf1_m1_student_t(self, u: np.ndarray) -> np.ndarray:
        # Bessel-K representation in log space via the scaled kve.  Large
        # order with small argument overflows kve, so a moment series (and,
        # in the rare uncovered band, direct quadrature) takes over there.
        nu = float(self.dof)
        a = 0.5 * nu
        scalar = np.isscalar(u) or np.ndim(u) == 0
        # A z that overflows to inf lands in the far band below.
        with np.errstate(over="ignore"):
            z = np.atleast_1d(sqrt(nu) * np.abs(np.asarray(u, dtype=float)))
        out = np.zeros(z.shape, dtype=complex)

        live = z > 1e-12  # below this the deviation is < 1e-12 for any dof
        # kve representability: small-z magnitude estimate of log kv.
        with np.errstate(divide="ignore"):
            log_kv_est = scipy.special.gammaln(a) + a * np.log(2.0 / np.maximum(z, 1e-300))
        bessel = live & (log_kv_est < 690.0)
        # kve is NaN past z = 2^30 - 1/2.  At z = 2^30 - 1, phi < 2^-54 for
        # every order this branch admits there (a < 1.46e9), and |phi| falls
        # as z grows (the t law is a normal scale mixture), so from there on
        # the deviation is -1.0.
        far = bessel & (z >= _KVE_Z_MAX)
        out[far] = -1.0
        near = bessel & ~far
        zz = z[near]
        if zz.size:
            kve = scipy.special.kve(a, zz)
            log_phi = (
                np.log(kve)
                - zz
                + a * np.log(zz)
                - scipy.special.gammaln(a)
                - (a - 1.0) * np.log(2.0)
            )
            out[near] = np.expm1(log_phi)
            # From order a ~ 237 on, kve overflows at moderate z, where the
            # small-z estimate above reads it as representable; those points
            # take the series or quadrature below.
            bessel[np.flatnonzero(near)[np.isinf(kve)]] = False

        rest = live & ~bessel
        if np.any(rest):
            uu = z[rest] / sqrt(nu)
            m2 = nu / (nu - 2.0)
            m4 = 3.0 * nu * nu / ((nu - 2.0) * (nu - 4.0)) if nu > 4 else np.inf
            m6 = m4 * 5.0 * nu / (nu - 6.0) if nu > 6 else np.inf
            series_err = m6 * uu**6 / 720.0
            ok = series_err < 1e-11
            vals = np.empty(uu.shape, dtype=complex)
            vals[ok] = -0.5 * m2 * uu[ok] ** 2 + m4 * uu[ok] ** 4 / 24.0
            for i in np.flatnonzero(~ok):
                vals[i] = self._cf1_m1_student_t_quad(float(uu[i]))
            out[rest] = vals
        return out[0] if scalar else out

    def _cf1_m1_student_t_quad(self, u: float) -> float:
        val, _ = scipy.integrate.quad(
            lambda x: 2.0 * _student_t_pdf(x, self.dof) * (np.cos(u * x) - 1.0),
            0.0,
            np.inf,
            limit=400,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        return float(val)

    # -------------------------------------------------------------------- CDFs

    def cdf1(self, x) -> np.ndarray:
        """Coordinate CDF, vectorized; used for box probabilities of mixtures."""
        x = np.asarray(x, dtype=float)
        if self.family == "gaussian":
            return scipy.special.ndtr(x)
        if self.family == "half_normal":
            return np.where(x < 0.0, 0.0, scipy.special.erf(np.maximum(x, 0.0) / sqrt(2.0)))
        if self.family == "laplace":
            return np.where(x < 0.0, 0.5 * np.exp(np.minimum(x, 0.0)), 1.0 - 0.5 * np.exp(-np.maximum(x, 0.0)))
        return scipy.special.stdtr(self.dof, x)

    def pdf1(self, x) -> np.ndarray:
        """Coordinate density, vectorized; the derivative of :meth:`cdf1`
        (half_normal takes 2 phi(0) at its kink x = 0)."""
        x = np.asarray(x, dtype=float)
        if self.family == "gaussian":
            return np.exp(-0.5 * x * x) / _SQRT_2PI
        if self.family == "half_normal":
            return np.where(x < 0.0, 0.0, 2.0 * np.exp(-0.5 * x * x) / _SQRT_2PI)
        if self.family == "laplace":
            return 0.5 * np.exp(-np.abs(x))
        return _student_t_pdf(x, self.dof)

    @property
    def has_norm_survival(self) -> bool:
        """True when :meth:`norm_survival` has a closed form: every family in
        d = 1, and the normal-based families in any dimension."""
        return self.dim == 1 or self.family in ("gaussian", "half_normal")

    def norm_survival(self, r) -> np.ndarray:
        """P(||Y|| > r), for kernels with :attr:`has_norm_survival`."""
        if not self.has_norm_survival:
            raise ValueError(
                f"norm survival of {self.family} is only available in dimension 1"
            )
        r = np.asarray(r, dtype=float)
        rp = np.maximum(r, 0.0)
        if self.family in ("gaussian", "half_normal"):
            # |(|Z_1|,...,|Z_d|)| equals |Z|, so both families share the chi
            # law.  Here and in cdf1 and pdf1, scipy.stats' chi.sf, t.sf,
            # t.cdf and t.pdf are these calls plus dispatch.
            # rp**2 overflows to inf only where the survival is exactly 0.
            with np.errstate(over="ignore"):
                out = scipy.special.gammaincc(0.5 * self.dim, 0.5 * rp**2)
        elif self.family == "laplace":
            out = np.exp(-rp)
        else:
            out = 2.0 * scipy.special.stdtr(self.dof, -rp)
        return np.where(r < 0.0, 1.0, out)

    # ------------------------------------------------------------------ moments

    def mean_vector(self) -> np.ndarray:
        """E[Y]; zero for the symmetric families."""
        if self.family == "half_normal":
            return np.full(self.dim, _SQRT_2_OVER_PI)
        return np.zeros(self.dim)

    @cached_property
    def norm_mean(self) -> float:
        """E||Y||, the first absolute moment of the norm; computed once per
        kernel object, since the multivariate heavy-tailed families need
        quadrature."""
        if self.family in ("gaussian", "half_normal"):
            # ||Y|| follows the chi distribution with `dim` degrees of freedom.
            return float(
                np.exp(
                    0.5 * np.log(2.0)
                    + scipy.special.gammaln(0.5 * (self.dim + 1.0))
                    - scipy.special.gammaln(0.5 * self.dim)
                )
            )
        if self.dim == 1:
            # E|Y|^p at p = 1: Gamma(p + 1) for laplace; for student_t,
            # nu^(p/2) Gamma((p+1)/2) Gamma((nu-p)/2) / (sqrt(pi) Gamma(nu/2)).
            if self.family == "laplace":
                return float(scipy.special.gamma(2.0))
            nu = float(self.dof)
            return float(
                np.exp(
                    0.5 * np.log(nu)
                    + scipy.special.gammaln(1.0)
                    + scipy.special.gammaln(0.5 * (nu - 1.0))
                    - 0.5 * np.log(pi)
                    - scipy.special.gammaln(0.5 * nu)
                )
            )
        # Heavy-tailed multivariate norms by the Gamma representation
        # r = c * int_0^inf (1 - exp(-s r^2)) s^(-3/2) ds, c = 1 / (2 Gamma(1/2)).
        lap = self._squared_coord_laplace_transform

        def integrand(s):
            return (1.0 - lap(s) ** self.dim) * s ** (-1.5)

        i1, _ = scipy.integrate.quad(integrand, 0.0, 1.0, limit=200)
        i2, _ = scipy.integrate.quad(integrand, 1.0, np.inf, limit=200)
        return float(0.5 / scipy.special.gamma(0.5) * (i1 + i2))

    def _squared_coord_laplace_transform(self, s: float) -> float:
        """E[exp(-s Y_1^2)] for the heavy-tailed families, in closed form."""
        if s <= 0:
            return 1.0
        if self.family == "laplace":
            x = 1.0 / (2.0 * sqrt(s))
            return float(0.5 * sqrt(pi / s) * scipy.special.erfcx(x))
        # student_t: Gamma((nu+1)/2) / Gamma(nu/2) * U(1/2, 1 - nu/2, nu s),
        # with U Tricomi's confluent hypergeometric function.
        nu = float(self.dof)
        gammaln = scipy.special.gammaln
        ratio = np.exp(gammaln(0.5 * (nu + 1.0)) - gammaln(0.5 * nu))
        return float(ratio * scipy.special.hyperu(0.5, 1.0 - 0.5 * nu, nu * s))
