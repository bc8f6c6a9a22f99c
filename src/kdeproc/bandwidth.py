"""Bandwidth schedules h_n and the weighted tail sum the diagnostics need.

Three forms are supported:

* ``power``       -- h_n = C * n**(-delta), the regime both convergence
  results assume (with equality, so the envelope constants are exact).
* ``exponential`` -- h_n = exp(-rate * n), the fast-decay schedule kept for
  contrast experiments against prior work.
* ``table``       -- finite explicit sequence; querying past the end raises.

The power and exponential forms are one law h(x) at a real index x
(:meth:`BandwidthSchedule.law`); ``values`` reads it at the integers, once
per run, and each consumer takes its :func:`leading` head.  Past a horizon,
:meth:`BandwidthSchedule.tail_sum` is the one certified sum of terms that
decay with the law: the log-sum of the CF growth factors, and the weighted
tail feeding the martingale traces,

    W_s(n) = sum_{k>=n} h_{k+s} / (k+1),    s in {0, 1}.

A table ends, so it has no law past its end and no tail sum: both raise
NoEnvelope.

The integral past the cut is the package's own vectorised adaptive
Gauss-Kronrod rule, :func:`gauss_kronrod`; this module uses no SciPy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IndexBeyondTable, NoEnvelope, ToleranceNotReached

# Terms a tail sum adds one by one before its Euler-Maclaurin remainder.
TAIL_CUT = 4096
# Relative error the tail weight must reach.
TAIL_WEIGHT_REL_TOL = 1e-12
# Fastest exponential rate whose tail past the cut Euler-Maclaurin resolves.
_EM_MAX_RATE = 2.5e-4
# QUADPACK's 21-point Gauss-Kronrod rule qk21 (Piessens, de Doncker-Kapenga,
# Ueberhuber & Kahaner 1983) on [-1, 1], its tables as floats: the abscissae
# without the centre, the Kronrod weights (the centre's last), and the Gauss
# weights of the second, fourth, ..., tenth abscissa.
_QK21_XGK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
             0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
             0.2943928627014602, 0.14887433898163122)
_QK21_WGK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
             0.07503967481091996, 0.0931254545836976, 0.10938715880229764, 0.12349197626206584,
             0.13470921731147334, 0.14277593857706009, 0.14773910490133849, 0.1494455540029169)
_QK21_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
            0.26926671930999635, 0.29552422471475287)
# The 21 nodes in ascending order, the 10 Gauss nodes every other one from the second.
_GK_X = np.concatenate((np.negative(_QK21_XGK), [0.0], _QK21_XGK[::-1]))
_GK_W = np.array(_QK21_WGK + _QK21_WGK[-2::-1])
_GAUSS_W = np.zeros(21)
_GAUSS_W[1::2] = _QK21_WG + _QK21_WG[::-1]


def gauss_kronrod(g, epsabs: float, epsrel: float) -> tuple:
    """(int_0^1 g, an error estimate) for real or complex g, by adaptive qk21.

    Each round calls g once, on a flat float array of the 21 nodes of every
    new interval, and takes each interval's error by qk21's own formula.  It
    returns when the summed error meets tol = max(epsabs, epsrel |I|) or is
    not finite, or when bisecting every interval whose error passes tol/m (m
    intervals) would make more than 400; else it bisects those.
    Float warnings are silenced, g's too: a non-finite value of g makes a
    non-finite sum, and the caller judges what it returns.
    """
    lo, width, value, error = np.zeros(1), np.ones(1), np.zeros(0), np.zeros(0)
    while True:
        half = 0.5 * width[len(value):]
        nodes = (lo[len(value):] + half)[:, None] + half[:, None] * _GK_X
        with np.errstate(all="ignore"):
            fx = g(nodes.ravel()).reshape(nodes.shape)
            kronrod = fx @ _GK_W
            resabs = half * (np.abs(fx) @ _GK_W)
            resasc = half * (np.abs(fx - 0.5 * kronrod[:, None]) @ _GK_W)
            err = half * np.abs(kronrod - fx @ _GAUSS_W)
            # Where resasc = 0, g is flat to the bit and the 50 eps floor decides.
            err = resasc * np.fmin(1.0, (200.0 * err / resasc) ** 1.5)
            err = np.maximum(50.0 * 2.0**-52 * resabs, err)
            value, error = np.concatenate((value, half * kronrod)), np.concatenate((error, err))
            total, total_err = np.sum(value), np.sum(error)
            tol = max(epsabs, epsrel * abs(total))
        split = error > tol / len(error)
        if not tol < total_err < np.inf or not split.any() or len(error) + split.sum() > 400:
            return total, float(total_err)
        half = 0.5 * width[split]
        lo = np.concatenate((lo[~split], lo[split], lo[split] + half))
        width = np.concatenate((width[~split], half, half))
        value, error = value[~split], error[~split]


def _finite_positive(v) -> bool:
    return v is not None and 0 < v < np.inf


def default_delta(dim: int) -> float:
    """Out-of-box decay exponent 1/(dim+4)."""
    return 1.0 / (dim + 4)


@dataclass(frozen=True)
class BandwidthSchedule:
    """Deterministic positive bandwidth sequence, immutable and shareable."""

    form: str
    c: float | None = None
    delta: float | None = None
    rate: float | None = None
    table: tuple | None = None

    def __post_init__(self):
        if self.form == "power":
            if not (_finite_positive(self.c) and _finite_positive(self.delta)):
                raise ValueError("power schedule needs finite C > 0 and delta > 0")
        elif self.form == "exponential":
            if not _finite_positive(self.rate):
                raise ValueError("exponential schedule needs a finite rate > 0")
        elif self.form == "table":
            if not self.table:
                raise ValueError("table schedule needs at least one value")
            values = tuple(float(v) for v in self.table)
            if not all(map(_finite_positive, values)):
                raise ValueError("table values must be finite and strictly positive")
            object.__setattr__(self, "table", values)
        else:
            raise ValueError(f"unknown schedule form {self.form!r}")

    # ------------------------------------------------------------ constructors

    @classmethod
    def power(cls, c: float, delta: float) -> "BandwidthSchedule":
        return cls(form="power", c=float(c), delta=float(delta))

    @classmethod
    def exponential(cls, rate: float) -> "BandwidthSchedule":
        return cls(form="exponential", rate=float(rate))

    @classmethod
    def from_table(cls, values) -> "BandwidthSchedule":
        return cls(form="table", table=tuple(float(v) for v in values))

    @classmethod
    def default(cls, dim: int = 1) -> "BandwidthSchedule":
        return cls.power(1.0, default_delta(dim))

    # ------------------------------------------------------------------ values

    def law(self, x):
        """h(x) at a real index x >= 1, unclamped: exp underflows to 0.

        A table has no law past its end, so nothing summed beyond it can be
        certified; it raises NoEnvelope.
        """
        if self.form == "power":
            return self.c * x ** (-self.delta)
        if self.form == "exponential":
            return np.exp(-self.rate * x)
        raise NoEnvelope("tail certification needs a power-law bandwidth envelope")

    def values(self, n: int) -> np.ndarray:
        """Read-only array [h_1, ..., h_n] (empty for n = 0), clamped at the
        smallest positive normal so every value stays > 0; its head is
        ``values(m)``, m < n."""
        if n < 0:
            raise ValueError(f"need n >= 0, got {n}")
        if self.form != "table":
            h = np.maximum(self.law(np.arange(1, n + 1, dtype=float)), np.finfo(float).tiny)
        elif n > len(self.table):
            raise IndexBeyondTable(f"table has {len(self.table)} entries, asked for h_{n}")
        else:
            h = np.array(self.table[:n], dtype=float)
        h.flags.writeable = False
        return h

    # --------------------------------------------------------------- tail sums

    def tail_sum(self, f, n: int, epsabs: float, epsrel: float) -> tuple:
        """(sum_{k>=n} f(k), an error estimate) for terms f(x) at real x that
        decay with the law, such as h(x + s)/(x + 1) or log a_x(t).

        The terms before the cut max(n, TAIL_CUT) are summed directly, the rest
        by Euler-Maclaurin: int_cut^inf f + f(cut)/2 - f'(cut)/12, with f' a
        central difference and the third difference estimating what that
        leaves out.  The integral is mapped onto u in (0, 1] by x = cut u**(-p)
        and resolved to ``epsabs`` / ``epsrel`` by :func:`gauss_kronrod`: p =
        1/delta makes a power law's terms bounded in u, and p = 1 puts an
        exponential law's stretch below 1/rate, where h ~ 1 and the terms fall
        like 1/x, on a log-uniform scale and its decay past 1/rate into a
        vanishing corner.  f is called with float arrays only: the direct
        terms with the five difference points, then once per quadrature round.
        A map or sum leaving the float range raises ToleranceNotReached; on a
        table the law raises NoEnvelope.
        """
        if n < 1:
            raise ValueError(f"tail start must be >= 1, got {n}")
        cut = max(n, TAIL_CUT)
        if self.form == "exponential" and self.rate > _EM_MAX_RATE:
            # A faster law leaves ~rate**4/200 of the remainder to the
            # Euler-Maclaurin error, so the head runs on until it has
            # fallen by e**-37, below float resolution.
            cut = max(cut, n + int(np.ceil(37.0 / self.rate)))
        points = [cut, cut + 0.5, cut - 0.5, cut + 1.5, cut - 1.5]
        terms = f(np.concatenate((np.arange(n, cut, dtype=float), points)))
        direct = np.sum(terms[:-5])
        f0, up1, down1, up3, down3 = terms[-5:]
        p = 1.0 / self.delta if self.form == "power" else 1.0
        integral, err = gauss_kronrod(
            lambda u: f(cut * u ** (-p)) * (cut * p * u ** (-p - 1.0)), epsabs, epsrel
        )
        # x = cut u**(-1/delta) overflows for u < u* = (cut/1.8e308)**delta:
        # 0.496 at delta = 1e-3, 0.030 at 0.005 (cut = 4096), and the Jacobian
        # cut p u**(-p-1) can overflow where x does not (delta near 1/115).
        # The mapped tail-weight integrand is ~constant in u, so that stretch
        # holds ~u* of the integral (~u*^2 of a gaussian product tail): not a
        # zero term, and far above the 1e-12 and 1e-8 tolerances there.
        if not (np.isfinite(integral) and np.isfinite(err)):
            raise ToleranceNotReached(
                f"the tail quadrature from the cut n={cut} leaves the float range"
            )
        d1, d3 = up1 - down1, up3 - 3 * up1 + 3 * down1 - down3
        remainder = integral + 0.5 * f0 - d1 / 12.0
        # The omitted term f'''/720 and the f'''/24 that d1 adds to f' make
        # 7 f'''/1440 together.
        err += 7.0 * abs(d3) / 1440.0 + 1e-15 * (abs(direct) + abs(remainder))
        return direct + remainder, float(err)

    def tail_weight(self, n: int, shift: int) -> float:
        """W_s(n) = sum_{k>=n} h_{k+s} / (k+1) for the index shift s = ``shift``
        in {0, 1}, to TAIL_WEIGHT_REL_TOL relative by tail_sum's error estimate
        (ToleranceNotReached if not), asking the quadrature for 1/40 of that, since
        its estimate can fall short; on a table the law raises NoEnvelope."""
        if shift not in (0, 1):
            raise ValueError(f"tail shift must be 0 or 1, got {shift}")
        value, err = self.tail_sum(
            lambda x: self.law(x + shift) / (x + 1.0), n, 0.0, TAIL_WEIGHT_REL_TOL / 40
        )
        if err > TAIL_WEIGHT_REL_TOL * value:
            raise ToleranceNotReached(
                f"tail weight W_{shift}({n}): relative error {err / value:.3g} above "
                f"the tolerance {TAIL_WEIGHT_REL_TOL:g}"
            )
        return float(value)


def leading(h: np.ndarray, n: int) -> np.ndarray:
    """h_1..h_n, the head of a run's bandwidths h_1..h_M (ValueError if M < n)."""
    if len(h) < n:
        raise ValueError(f"need the bandwidths h_1..h_{n}, got {len(h)}")
    return h[:n]
