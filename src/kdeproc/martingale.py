"""The deterministic parts of two martingales, and their drift statistics.

Each martingale is a path computed per trajectory (in ``process``) composed
with a deterministic part computed once per run here.  The functions return
plain numbers and arrays; whether a statistic passes is decided by the run
mode that compares it with its threshold.

**Tightness.**  The dominating chain sums U_n (``process.dominating_path``)
bound the point norms pathwise; their running mean J_n plus the
deterministic compensator tail sum_{k>=n} c_k (:func:`compensator_tails`) is
a non-negative martingale.  The compensators are

    c_n = h_n E[W] / (n+1)                         (shared bandwidth)
    c_n = (sum_{i<=n} h_i) E[W] / (n (n+1))        (frozen bandwidth)

with E[W] the kernel's exact first norm moment, never estimated from the
same path.  E[U_{n+1} | F_n] = J_n + (n+1) c_n, so Markov's inequality
bounds the exact one-step tail mass (:func:`dominating_tail_mass`) by that
over the threshold, from the same compensators.

**Characteristic function.**  The CF martingale along a trajectory is a
path X_n (``process.cf_path``) times the suffix product P_n(t) =
prod_{k>=n} a_k(t) (:func:`cf_corrections`) of the one-step growth factors

    a_n(t) = phi_K(h_n t)/(n+1) + n/(n+1)          (shared bandwidth)
    a~_n(t) = phi_K(h_{n+1} t)/(n+1) + n/(n+1)     (frozen bandwidth)

X_n is the predictive-mixture CF phi_n(t) for the frozen bandwidth, and the
phase mean psi_n(t) = (1/n) sum_{i<=n} exp(i t'x_i), of which phi_n =
phi_K(h_n t) psi_n, for the shared one.  E[X_{n+1} | F_n] = a_n X_n, so
P_n X_n is a martingale from n = 1, bounded by |P_n| <= 1.
Each t takes one pass over the traced range: the kernel CF's deviation
phi_K(h_n t) - 1 is evaluated once over the bandwidths h_1..h_{n_max+s}
(s = 0 shared, 1 frozen, :data:`BANDWIDTH_SHIFT`).  One plus its first
n_max entries is the kernel CF row that ``cf_path`` reads; the
growth-factor deviations are the slice shifted by s, times 1/(n+1).
Products over k > n_max follow the schedule's law: their log-sum is the
schedule's certified ``tail_sum`` (slow power-law decay makes naive
truncation hopeless), and every product carries both the summable bound
certifying it stays near 1 and a numerical error estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bandwidth import BandwidthSchedule, leading
from .errors import ToleranceNotReached, TooFewReplications
from .kernels import KernelSpec, frequency
from .process import check_flavor

DRIFT_FLAG_THRESHOLD = 4.0
# Fewest per-replication increments a drift test (and an urn law test) reads.
MIN_REPLICATIONS = 100
# Relative error the certified CF product tail must reach.
PRODUCT_TAIL_REL_TOL = 1e-8
# Largest excess of the dominating chain's tail mass over its Markov bound
# that still counts as rounding.
TAIL_BOUND_TOLERANCE = 1e-10


# --------------------------------------------------------------- tightness


def compensator_values(flavor: str, h: np.ndarray, ew1: float, n_max: int) -> np.ndarray:
    """c_n for n = 1..n_max from the bandwidths h_1..h_{n_max} (the head of
    ``h``); empty for n_max = 0."""
    check_flavor(flavor)
    h = leading(h, n_max)
    n = np.arange(1, n_max + 1, dtype=float)
    if flavor == "kde":
        return h * ew1 / (n + 1.0)
    return np.cumsum(h) * ew1 / (n * (n + 1.0))


def compensator_tails(
    flavor: str, schedule: BandwidthSchedule, h: np.ndarray, ew1: float, n_max: int
) -> np.ndarray:
    """sum_{k>=n} c_k for n = 1..n_max -- the deterministic part of the
    tightness martingale, reusable across replications.

    The martingale along a trajectory is J + tail, with J the running mean of
    ``process.dominating_path``.  The terms read h_1..h_{n_max} (the head of
    ``h``), the sum past n_max the schedule's certified tail weight.
    """
    check_flavor(flavor)
    if n_max < 1:
        raise ValueError(f"compensator tails need n_max >= 1, got {n_max}")
    h = leading(h, n_max)
    beyond = schedule.tail_weight(n_max, BANDWIDTH_SHIFT[flavor])
    if flavor == "recursive":
        # Abel: sum_{k>=N} H_k / (k(k+1)) = H_N / N + sum_{k>N} h_k / k.
        beyond += np.sum(h) / n_max
    terms = np.append(compensator_values(flavor, h, ew1, n_max - 1), ew1 * beyond)
    return np.cumsum(terms[::-1])[::-1]


def dominating_tail_mass(
    flavor: str,
    dominating: np.ndarray,
    h: np.ndarray,
    kernel: KernelSpec,
    threshold: float,
    times,
) -> np.ndarray:
    """The one-step predictive mass of the dominating chain beyond
    ``threshold`` at each time n in ``times``, given U (``dominating``) and
    the bandwidths h_1..h_{n} for the largest n.

    The mass is exact: the predictive law of U_{n+1} is a uniform mixture of
    U_i + h * W (h = h_n shared, h_i frozen), so its tail is an average of
    norm survival values.  Markov bounds it by (J_n + (n+1) c_n) / threshold.
    """
    check_flavor(flavor)
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    times = np.asarray(times, dtype=np.int64)
    if times.size and (times.min() < 1 or times.max() > min(len(dominating) - 1, len(h))):
        raise ValueError("check times must lie in [1, length - 1] and within the bandwidths")
    tail_mass = np.empty(times.size)
    for i, n in enumerate(times):
        scales = h[n - 1] if flavor == "kde" else h[:n]
        tail_mass[i] = float(np.mean(kernel.norm_survival((threshold - dominating[:n]) / scales)))
    return tail_mass


# ------------------------------------------------------------- CF factors

# The bandwidth index shift s of the growth factor a_n, which reads h_{n+s}:
# the shared bandwidth (kde) applies h_n, the frozen one (recursive) h_{n+1}.
BANDWIDTH_SHIFT = {"kde": 0, "recursive": 1}


def _factor_deviation(dev: np.ndarray, n: np.ndarray) -> np.ndarray:
    """a_n(t) - 1 = (phi_K(h_{n+s} t) - 1)/(n + 1) at the indices n, given
    the kernel CF deviations dev = phi_K(h_{n+s} t) - 1 (shift s from
    ``BANDWIDTH_SHIFT``), kept in cancellation-free form.  Scales ``dev``
    in place and returns it.

    The reciprocal multiply gives the same floats as numpy's complex-by-real
    division, which scales by 1/(n + 1) itself, without its complex divide.
    """
    dev *= 1.0 / (n + 1.0)
    return dev


# --------------------------------------------------------- infinite products


def lemma_constant(kernel: KernelSpec, t) -> float:
    """||t|| (||E[Y]|| + 2 E||Y||), the factor in the summable product bound."""
    norm_t = float(np.linalg.norm(frequency(t, kernel.dim)))
    return norm_t * (float(np.linalg.norm(kernel.mean_vector())) + 2.0 * kernel.norm_mean)


def product_tail_bound(
    schedule: BandwidthSchedule, kernel: KernelSpec, t, from_n: int, flavor: str
) -> float:
    """Summable bound on sum_{k>=from_n} |factor_k - 1|.

    |a_k - 1| <= h_{k+s} kappa / (k+1), with s from ``BANDWIDTH_SHIFT``: kappa
    times the schedule's tail weight.
    """
    check_flavor(flavor)
    return lemma_constant(kernel, t) * schedule.tail_weight(from_n, BANDWIDTH_SHIFT[flavor])


@dataclass(frozen=True)
class ProductTail:
    """Value of prod_{k>=from_n} factor_k with its certificates.

    ``lemma_bound`` bounds sum |factor_k - 1| from ``from_n`` on (so the value
    lies within exp(lemma_bound) - 1 of 1), and ``numerical_error`` estimates
    the truncation/quadrature error of the evaluation itself.
    """

    value: complex
    from_n: int
    lemma_bound: float
    numerical_error: float


def _log1p_complex(w: np.ndarray) -> np.ndarray:
    """log(1 + w) to a few ulp of |w| below |w| = 1/2, as log1p(2a + |w|^2)/2
    + i arg(1 + w) for w = a + ib: log(1 + w), and numpy's complex log1p,
    round 1 + w first, ~1e-16 per factor that 10^8 factors sum to ~1e-8."""
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < 0.5
    out = np.empty(w.shape, dtype=complex)
    a, b = w.real[small], w.imag[small]
    out[small] = 0.5 * np.log1p(2.0 * a + (a * a + b * b)) + 1j * np.arctan2(b, 1.0 + a)
    out[~small] = np.log(1.0 + w[~small])
    return out


def _log_factor_fn(schedule: BandwidthSchedule, kernel: KernelSpec, t, flavor: str):
    shift = BANDWIDTH_SHIFT[flavor]

    def log_factor(x):
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        # Past the horizon, at real x, h is the unclamped law.
        w = _factor_deviation(kernel.cf_scaled_minus_one(t, schedule.law(x + shift)), x)
        out = _log1p_complex(w)
        return out[0] if scalar else out

    return log_factor


def lemma_product_tail(
    schedule: BandwidthSchedule,
    kernel: KernelSpec,
    t,
    from_n: int,
    flavor: str,
) -> ProductTail:
    """prod_{k >= from_n} growth factor, certified.

    The product is exp of the log-sum of the factors, which the schedule's
    ``tail_sum`` evaluates: with decay exponents as low as 1.2 a term-by-term
    truncation could never reach ``PRODUCT_TAIL_REL_TOL``, its
    Euler-Maclaurin remainder can.
    """
    check_flavor(flavor)
    t = frequency(t, kernel.dim)
    f = _log_factor_fn(schedule, kernel, t, flavor)
    where = (f"CF product tail at t=({', '.join(f'{v:g}' for v in t)}), flavor {flavor}, "
             f"from n={from_n}")
    try:
        log_sum, log_err = schedule.tail_sum(f, from_n, PRODUCT_TAIL_REL_TOL / 4, 0.0)
    except ToleranceNotReached as exc:
        raise ToleranceNotReached(f"{where}: {exc}") from None
    value = np.exp(log_sum)
    # log_err estimates the error of the log-sum L, and exp(L + e) =
    # exp(L)(1 + e + ...), so it estimates the tail's relative error as well.
    if log_err > PRODUCT_TAIL_REL_TOL:
        raise ToleranceNotReached(
            f"{where}: relative error {log_err:.3g} (the log-sum error; |tail| "
            f"{abs(value):.3g}), above the tolerance {PRODUCT_TAIL_REL_TOL:g}"
        )
    return ProductTail(
        value=complex(value),
        from_n=from_n,
        lemma_bound=product_tail_bound(schedule, kernel, t, from_n, flavor),
        numerical_error=float(log_err * abs(value)),
    )


# -------------------------------------------------------- CF corrections


def cf_corrections(
    schedule: BandwidthSchedule,
    h: np.ndarray,
    kernel: KernelSpec,
    t,
    n_max: int,
    flavor: str,
) -> tuple[np.ndarray, np.ndarray]:
    """(correction, kernel_cf), both over n = 1..n_max -- the deterministic
    parts of the CF martingale, reusable across replications, from the head
    h_1..h_{n_max+s} of ``h`` and the schedule's law past it.

    The correction is the suffix product P_n = prod_{k>=n} a_k, and
    ``kernel_cf`` the kernel CF row phi_K(h_n t), for either flavor.  The
    martingale is ``correction * path``, with ``path`` the second result of
    ``process.cf_path(traj, t, kernel_cf)``.
    """
    check_flavor(flavor)
    t = frequency(t, kernel.dim)
    shift = BANDWIDTH_SHIFT[flavor]
    # phi_K(h_k t) - 1 for k = 1..n_max + s, the one kernel-CF evaluation;
    # the row is formed before the growth factors scale it in place.
    dev = kernel.cf_scaled_minus_one(t, leading(h, n_max + shift))
    kernel_cf = 1.0 + dev[:n_max]
    # The growth factors a_1..a_{n_max}; with the certified tail folded into
    # the last, the reversed cumulative product turns them in place into the
    # suffix products P_n, from the far end in.
    correction = 1.0 + _factor_deviation(dev[shift:], np.arange(1, n_max + 1, dtype=float))
    correction[-1] *= lemma_product_tail(schedule, kernel, t, n_max + 1, flavor).value
    np.cumprod(correction[::-1], out=correction[::-1])
    return correction, kernel_cf


# -------------------------------------------------------------- drift tests


def _component_z(values: np.ndarray) -> tuple[float, float, float]:
    mean = float(np.mean(values))
    se = float(np.std(values, ddof=1) / np.sqrt(len(values)))
    if se == 0.0:
        return mean, se, 0.0 if mean == 0.0 else np.inf
    return mean, se, mean / se


def drift_test(increments) -> dict:
    """z-statistics of the per-replication increments value(n+1) - value(n):
    ``statistic`` is the larger component |z|, to compare with
    DRIFT_FLAG_THRESHOLD.

    The tower property makes the unconditional mean increment exactly zero
    for a martingale, which is the testable consequence at a fixed time.
    """
    inc = np.asarray(increments)
    if inc.ndim != 1:
        raise ValueError("need a 1-d array of per-replication increments")
    if inc.size < MIN_REPLICATIONS:
        raise TooFewReplications(f"need >= {MIN_REPLICATIONS} replications, got {inc.size}")
    mean_re, se_re, z_re = _component_z(inc.real)
    if np.iscomplexobj(inc):
        mean_im, se_im, z_im = _component_z(inc.imag)
    else:
        mean_im, se_im, z_im = 0.0, 0.0, 0.0
    return {
        "statistic": max(abs(z_re), abs(z_im)),
        "replications": int(inc.size),
        "mean_re": mean_re,
        "se_re": se_re,
        "z_re": z_re,
        "mean_im": mean_im,
        "se_im": se_im,
        "z_im": z_im,
    }
