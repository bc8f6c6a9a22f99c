"""Kernel distributions: exact sampling, characteristic functions, moments.

A kernel is a probability measure on R^d used as the smoothing distribution
of the predictive processes.  Multivariate kernels are products of iid
univariate coordinates, so characteristic functions factor exactly and box
probabilities reduce to products of coordinate CDFs.

Supported families:

* ``gaussian``    -- standard normal coordinates.
* ``half_normal`` -- coordinate-wise absolute value of a standard normal.
* ``student_t``   -- Student-t coordinates with a finite ``dof > 1``, so the
  first absolute moment is finite.
* ``laplace``     -- standard Laplace coordinates (scale 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import pi, sqrt

import numpy as np
from scipy import integrate, special, stats

FAMILIES = ("gaussian", "half_normal", "student_t", "laplace")

_SQRT_2_OVER_PI = sqrt(2.0 / pi)
_SQRT_2PI = sqrt(2.0 * pi)


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
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if t.shape != (self.dim,):
            raise ValueError(f"t must have shape ({self.dim},), got {t.shape}")
        return complex(np.prod(self._cf1(t)))

    def cf_scaled(self, t, scales) -> np.ndarray:
        """Vector of E[exp(i s t'Y)] over an array of scalar scales s.

        Exploits the product structure: phi(s*t) = prod_j phi_1(s*t_j).
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        scales = np.asarray(scales, dtype=float)
        out = np.ones(scales.shape, dtype=complex)
        for tj in t:
            out *= self._cf1(scales * tj)
        return out

    def cf_scaled_minus_one(self, t, scales) -> np.ndarray:
        """E[exp(i s t'Y)] - 1 without cancellation, vectorized over scales.

        Needed by the product-correction tails, where the deviation from 1 can
        sit far below float resolution of the value itself.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        scales = np.asarray(scales, dtype=float)
        pm1 = np.zeros(scales.shape, dtype=complex)
        for tj in t:
            m1 = self._cf1_m1(scales * tj)
            pm1 = pm1 + m1 + pm1 * m1  # (1+pm1)(1+m1) - 1
        return pm1

    def _cf1(self, u: np.ndarray) -> np.ndarray:
        """Coordinate characteristic function, vectorized over real u."""
        return 1.0 + self._cf1_m1(u)

    def _cf1_m1(self, u: np.ndarray) -> np.ndarray:
        """Coordinate CF minus one, cancellation-free near zero."""
        u = np.asarray(u, dtype=float)
        if self.family == "gaussian":
            return np.expm1(-0.5 * u * u) + 0j
        if self.family == "laplace":
            return -u * u / (1.0 + u * u) + 0j
        if self.family == "half_normal":
            # E[exp(iu|Z|)] = exp(-u^2/2) + i * (2/sqrt(pi)) * dawsn(u/sqrt(2));
            # the Dawson form keeps the imaginary part stable for large |u|.
            return np.expm1(-0.5 * u * u) + 1j * (2.0 / sqrt(pi)) * special.dawsn(u / sqrt(2.0))
        return self._cf1_m1_student_t(u)

    def _cf1_m1_student_t(self, u: np.ndarray) -> np.ndarray:
        # Bessel-K representation in log space via the scaled kve.  Large
        # order with small argument overflows kve, so a moment series (and,
        # in the rare uncovered band, direct quadrature) takes over there.
        nu = float(self.dof)
        a = 0.5 * nu
        scalar = np.isscalar(u) or np.ndim(u) == 0
        z = np.atleast_1d(sqrt(nu) * np.abs(np.asarray(u, dtype=float)))
        out = np.zeros(z.shape, dtype=complex)

        live = z > 1e-12  # below this the deviation is < 1e-12 for any dof
        # kve representability: small-z magnitude estimate of log kv.
        with np.errstate(divide="ignore"):
            log_kv_est = special.gammaln(a) + a * np.log(2.0 / np.maximum(z, 1e-300))
        bessel = live & (log_kv_est < 690.0)
        zz = z[bessel]
        if zz.size:
            log_phi = (
                np.log(special.kve(a, zz))
                - zz
                + a * np.log(zz)
                - special.gammaln(a)
                - (a - 1.0) * np.log(2.0)
            )
            out[bessel] = np.expm1(log_phi)

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
        val, _ = integrate.quad(
            lambda x: 2.0 * stats.t.pdf(x, self.dof) * (np.cos(u * x) - 1.0),
            0.0,
            np.inf,
            limit=400,
            epsabs=1e-12,
            epsrel=1e-12,
        )
        return float(val)

    @property
    def symmetric(self) -> bool:
        """True when the kernel is symmetric about the origin (real CF)."""
        return self.family != "half_normal"

    # -------------------------------------------------------------------- CDFs

    def cdf1(self, x) -> np.ndarray:
        """Coordinate CDF, vectorized; used for box probabilities of mixtures."""
        x = np.asarray(x, dtype=float)
        if self.family == "gaussian":
            return special.ndtr(x)
        if self.family == "half_normal":
            return np.where(x < 0.0, 0.0, special.erf(np.maximum(x, 0.0) / sqrt(2.0)))
        if self.family == "laplace":
            return np.where(x < 0.0, 0.5 * np.exp(np.minimum(x, 0.0)), 1.0 - 0.5 * np.exp(-np.maximum(x, 0.0)))
        return stats.t.cdf(x, self.dof)

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
        return stats.t.pdf(x, self.dof)

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
            # |(|Z_1|,...,|Z_d|)| equals |Z|, so both families share the chi law.
            out = stats.chi.sf(rp, df=self.dim)
        elif self.family == "laplace":
            out = np.exp(-rp)
        else:
            out = 2.0 * stats.t.sf(rp, self.dof)
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
                    + special.gammaln(0.5 * (self.dim + 1.0))
                    - special.gammaln(0.5 * self.dim)
                )
            )
        if self.dim == 1:
            # E|Y|^p at p = 1: Gamma(p + 1) for laplace; for student_t,
            # nu^(p/2) Gamma((p+1)/2) Gamma((nu-p)/2) / (sqrt(pi) Gamma(nu/2)).
            if self.family == "laplace":
                return float(special.gamma(2.0))
            nu = float(self.dof)
            return float(
                np.exp(
                    0.5 * np.log(nu)
                    + special.gammaln(1.0)
                    + special.gammaln(0.5 * (nu - 1.0))
                    - 0.5 * np.log(pi)
                    - special.gammaln(0.5 * nu)
                )
            )
        # Heavy-tailed multivariate norms by the Gamma representation
        # r = c * int_0^inf (1 - exp(-s r^2)) s^(-3/2) ds, c = 1 / (2 Gamma(1/2)).
        lap = self._squared_coord_laplace_transform

        def integrand(s):
            return (1.0 - lap(s) ** self.dim) * s ** (-1.5)

        i1, _ = integrate.quad(integrand, 0.0, 1.0, limit=200)
        i2, _ = integrate.quad(integrand, 1.0, np.inf, limit=200)
        return float(0.5 / special.gamma(0.5) * (i1 + i2))

    def _squared_coord_laplace_transform(self, s: float) -> float:
        """E[exp(-s Y_1^2)] for the heavy-tailed families, in closed form."""
        if s <= 0:
            return 1.0
        if self.family == "laplace":
            x = 1.0 / (2.0 * sqrt(s))
            return float(0.5 * sqrt(pi / s) * special.erfcx(x))
        # student_t: Gamma((nu+1)/2) / Gamma(nu/2) * U(1/2, 1 - nu/2, nu s),
        # with U Tricomi's confluent hypergeometric function.
        nu = float(self.dof)
        ratio = np.exp(special.gammaln(0.5 * (nu + 1.0)) - special.gammaln(0.5 * nu))
        return float(ratio * special.hyperu(0.5, 1.0 - 0.5 * nu, nu * s))
