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

SciPy is imported as the bare package, so ``scipy.integrate`` loads at the
first tail quadrature, not when this module is imported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy

from .errors import IndexBeyondTable, NoEnvelope, ToleranceNotReached

# Terms a tail sum adds one by one before its Euler-Maclaurin remainder.
TAIL_CUT = 4096
# Relative error the tail weight must reach.
TAIL_WEIGHT_REL_TOL = 1e-12
# Fastest exponential rate whose tail past the cut Euler-Maclaurin resolves.
_EM_MAX_RATE = 2.5e-4
# quad's first interval is (0, 1), where QUADPACK's qk21 (Piessens, de
# Doncker-Kapenga, Ueberhuber & Kahaner 1983) asks for f at 0.5 and at
# 0.5 -+ 0.5 xgk, in these floats: xgk are its 21-point Gauss-Kronrod
# abscissae on [-1, 1] without the centre.
_QK21_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_FIRST_INTERVAL = (0.5, *(0.5 - 0.5 * x for x in _QK21_XGK), *(0.5 + 0.5 * x for x in _QK21_XGK))


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

        The terms before the cut max(n, TAIL_CUT) are summed directly, the
        rest by Euler-Maclaurin: int_cut^inf f + f(cut)/2 - f'(cut)/12, with
        f' a central difference and the third difference estimating what that
        leaves out (quad's error is an estimate too).  The integral is mapped
        onto u in (0, 1] by x = cut u**(-p), where quadrature resolves it to
        ``epsabs`` / ``epsrel``: p = 1/delta makes a power law's terms
        bounded in u, and p = 1 puts an exponential law's stretch below
        1/rate, where h ~ 1 and the terms fall like 1/x, on a log-uniform
        scale and its decay past 1/rate into a vanishing corner.  f is
        called with float arrays only, once per point: the direct terms, then
        one array of the five difference points and the 21 nodes of quad's
        first interval, mapped by the integrand's own arithmetic so that quad
        finds them in that table, then a length-1 array per node of each
        interval quad subdivides.  Real terms take no imaginary pass.  A map
        or sum leaving the float range raises ToleranceNotReached; on a table
        the law raises NoEnvelope.
        """
        if n < 1:
            raise ValueError(f"tail start must be >= 1, got {n}")
        cut = max(n, TAIL_CUT)
        if self.form == "exponential" and self.rate > _EM_MAX_RATE:
            # A faster law leaves ~rate**4/200 of the remainder to the
            # Euler-Maclaurin error, so the head runs on until it has
            # fallen by e**-37, below float resolution.
            cut = max(cut, n + int(np.ceil(37.0 / self.rate)))
        k = np.arange(n, cut, dtype=float)
        direct = np.sum(f(k)) if k.size else 0.0
        p = 1.0 / self.delta if self.form == "power" else 1.0
        # f at the difference points and at every node quad evaluates, kept
        # for this call only.
        points = [float(cut), cut + 0.5, cut - 0.5, cut + 1.5, cut - 1.5]

        def f_at(x):
            value = seen.get(x)
            if value is None:
                value = seen[x] = f(np.array([x]))[0]
            return value

        integral = err = 0.0
        try:
            nodes = [cut * u ** (-p) for u in _FIRST_INTERVAL]
            seen = dict(zip(points + nodes, f(np.array(points + nodes))))
            f0, up1, down1, up3, down3 = (seen[x] for x in points)
            for part, unit in ((np.real, 1.0), (np.imag, 1j))[: 1 + np.iscomplexobj(f0)]:
                value, part_err = scipy.integrate.quad(
                    lambda u: float(part(f_at(cut * u ** (-p)))) * (cut * p * u ** (-p - 1.0)),
                    0.0, 1.0, epsabs=epsabs, epsrel=epsrel, limit=400, full_output=1,
                )[:2]
                integral += unit * value
                err += part_err
        except OverflowError:
            # x = cut u**(-1/delta) overflows for u < u* = (cut/1.8e308)**delta:
            # 0.496 at delta = 1e-3, 0.030 at 0.005 (cut = 4096).  The mapped
            # tail-weight integrand is ~constant in u, so that stretch holds
            # ~u* of the integral (~u*^2 of a gaussian product tail): not a
            # zero term, and far above the 1e-12 and 1e-8 tolerances there.
            integral = np.inf
        # The Jacobian cut p u**(-p-1) can overflow where x does not, silently
        # (delta near 1/115): quad then returns inf, which no tolerance refuses.
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
        (ToleranceNotReached if not), asking quad for 1/40 of that, since
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
