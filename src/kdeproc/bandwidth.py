"""Bandwidth schedules h_n and the weighted tail sum the diagnostics need.

Three forms are supported:

* ``power``       -- h_n = C * n**(-delta), the regime both convergence
  results assume (with equality, so the envelope constants are exact).
* ``exponential`` -- h_n = exp(-rate * n), the fast-decay schedule kept for
  contrast experiments against prior work.
* ``table``       -- finite explicit sequence; querying past the end raises.

The power and exponential forms are one law h(x) at a real index x
(:meth:`BandwidthSchedule.law`); ``values`` reads it at the integers, once
per run, and each consumer takes its :func:`leading` head.  The module also
evaluates the schedule-weighted infinite sum feeding the martingale traces,

    W_s(n) = sum_{k>=n} h_{k+s} / (k+1),    s in {0, 1},

to ~1e-12 relative accuracy, using Hurwitz-zeta series for power schedules
and blockwise geometric summation for exponential ones.  A table ends, so it
has no law past its end and no tail sum: both raise NoEnvelope.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special

from .errors import IndexBeyondTable, NoEnvelope, ToleranceNotReached

_ZETA_SERIES_MIN_START = 64
_BLOCK = 65536  # terms per numpy block in _block_sum
# Blocks _block_sum reads at most: its ~36/rate terms exceed them below a
# rate of ~5e-7, which raises instead of summing for minutes to years.
_MAX_BLOCKS = 1024


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

    def tail_weight(self, n: int, shift: int) -> float:
        """W_s(n) = sum_{k>=n} h_{k+s} / (k+1) for the index shift s = ``shift``
        in {0, 1}.  The exponential form sums the law blockwise; on a table
        the law raises NoEnvelope at the first block."""
        if n < 1:
            raise ValueError(f"tail start must be >= 1, got {n}")
        if shift not in (0, 1):
            raise ValueError(f"tail shift must be 0 or 1, got {shift}")
        if self.form == "power" and shift:
            # h_{k+1}/(k+1) = C (k+1)**-(1+delta) exactly.
            return self.c * float(special.zeta(1.0 + self.delta, n + 1))
        if self.form == "power":
            start = max(n, _ZETA_SERIES_MIN_START)
            k = np.arange(n, start, dtype=float)
            head = float(np.sum(k ** (-self.delta) / (k + 1.0))) if len(k) else 0.0
            return self.c * (head + _alternating_zeta_tail(self.delta, start))
        return _block_sum(lambda k: self.law(k + shift) / (k + 1.0), n, self.rate)


def leading(h: np.ndarray, n: int) -> np.ndarray:
    """h_1..h_n, the head of a run's bandwidths h_1..h_M (ValueError if M < n)."""
    if len(h) < n:
        raise ValueError(f"need the bandwidths h_1..h_{n}, got {len(h)}")
    return h[:n]


def _alternating_zeta_tail(delta: float, start: int) -> float:
    """sum_{k>=start} k**(-delta) / (k+1) via 1/(k+1) = sum_j (-1)^(j-1) k^(-j).

    Valid for start >= 2; each extra term gains a factor ~1/start, so the
    series reaches ~1e-16 relative accuracy within a few dozen terms.
    """
    if start < 2:
        raise ValueError("series expansion needs start >= 2")
    total = 0.0
    sign = 1.0
    for j in range(1, 80):
        term = float(special.zeta(delta + j, start))
        total += sign * term
        if term <= 1e-17 * abs(total):
            break
        sign = -sign
    return total


def _block_sum(term_fn, start: int, rate: float) -> float:
    """Sum term_fn(k) for k >= start where terms decay at least like
    exp(-rate*k); ToleranceNotReached past _MAX_BLOCKS blocks."""
    total = 0.0
    for b in range(_MAX_BLOCKS):
        k = np.arange(start + b * _BLOCK, start + (b + 1) * _BLOCK, dtype=float)
        vals = term_fn(k)
        total += float(np.sum(vals))
        # Geometric bound on everything past this block.
        remainder = vals[-1] * np.exp(-rate) / max(1.0 - np.exp(-rate), 1e-300)
        if remainder <= 1e-16 * max(total, 1e-300) or remainder == 0.0:
            return total
    raise ToleranceNotReached(
        f"exponential bandwidth rate {rate:g}: the tail sum from n={start} does not "
        f"converge within {_MAX_BLOCKS * _BLOCK} terms"
    )
