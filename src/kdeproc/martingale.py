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
same path.

**Characteristic function.**  The predictive-mixture CF phi_n(t)
(``process.cf_path``) times a correction (:func:`cf_corrections`) built
from the infinite product of the one-step growth factors

    a_n(t) = phi_K(h_n t)/(n+1) + n/(n+1)          (shared bandwidth)
    a~_n(t) = phi_K(h_{n+1} t)/(n+1) + n/(n+1)     (frozen bandwidth)

is a bounded martingale.  Products over k >= n are evaluated through their
log-sum with an Euler-Maclaurin tail (slow power-law decay makes naive
truncation hopeless), and every product carries both the summable bound
certifying it stays near 1 and a numerical remainder estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .bandwidth import BandwidthSchedule
from .errors import ToleranceNotReached, TooFewReplications, ZeroDenominator, ZeroFactor
from .kernels import KernelSpec

DRIFT_FLAG_THRESHOLD = 4.0
START_INDEX_FLOOR = 0.1
# Largest excess of the dominating chain's tail mass over its Markov bound
# that still counts as rounding.
TAIL_BOUND_TOLERANCE = 1e-10


# --------------------------------------------------------------- tightness


def compensator_values(
    flavor: str, schedule: BandwidthSchedule, ew1: float, n_max: int
) -> np.ndarray:
    """c_n for n = 1..n_max; empty for n_max = 0."""
    h = schedule.values(n_max) if n_max else np.empty(0)
    n = np.arange(1, n_max + 1, dtype=float)
    if flavor == "kde":
        return h * ew1 / (n + 1.0)
    return np.cumsum(h) * ew1 / (n * (n + 1.0))


def compensator_tails(
    flavor: str, schedule: BandwidthSchedule, ew1: float, n_max: int
) -> np.ndarray:
    """sum_{k>=n} c_k for n = 1..n_max -- the deterministic part of the
    tightness martingale, reusable across replications.

    The martingale along a trajectory is J + tail, with J the running mean of
    ``process.dominating_path``.  The sum past n_max comes from the
    schedule's closed-form tail weights (~1e-10 relative accuracy).
    """
    if n_max < 1:
        raise ValueError(f"compensator tails need n_max >= 1, got {n_max}")
    if flavor == "kde":
        beyond = schedule.tail_weight_kde(n_max)
    else:
        beyond = schedule.tail_weight_recursive(n_max)
    terms = np.append(compensator_values(flavor, schedule, ew1, n_max - 1), ew1 * beyond)
    return np.cumsum(terms[::-1])[::-1]


def tail_prob_bound_check(
    flavor: str,
    dominating: np.ndarray,
    running_mean: np.ndarray,
    schedule: BandwidthSchedule,
    kernel: KernelSpec,
    threshold: float,
    at_times=None,
) -> tuple[np.ndarray, np.ndarray]:
    """(tail mass, Markov bound) at each requested time n: the one-step
    predictive mass of the dominating chain beyond ``threshold``, and
    (J_n + compensator term) / threshold, which bounds it.

    The tail mass is exact: the predictive law of U_{n+1} is a uniform mixture
    of U_i + h * W, so its tail is an average of norm survival values.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    n_pts = len(dominating)
    times = np.arange(1, n_pts) if at_times is None else np.asarray(at_times, dtype=np.int64)
    if times.size and (times.min() < 1 or times.max() > n_pts - 1):
        raise ValueError("check times must lie in [1, length - 1]")
    h = schedule.values(n_pts - 1)
    ew1 = kernel.norm_mean
    tail_mass = np.empty(times.size)
    bound = np.empty(times.size)
    for i, n in enumerate(times):
        if flavor == "kde":
            scales = np.full(n, h[n - 1])
            comp = h[n - 1] * ew1
        else:
            scales = h[:n]
            comp = float(np.mean(scales)) * ew1
        tail_mass[i] = float(np.mean(kernel.norm_survival((threshold - dominating[:n]) / scales)))
        bound[i] = (running_mean[n - 1] + comp) / threshold
    return tail_mass, bound


# ------------------------------------------------------------- CF factors


def _factor_deviation(h_of, kernel: KernelSpec, t, n: np.ndarray, flavor: str) -> np.ndarray:
    """a_n(t) - 1 = (phi_K(h_{n+s} t) - 1)/(n + 1) at the indices n, with the
    flavor shift s (0 shared, 1 frozen) and h_{n+s} = h_of(n + s), kept in
    cancellation-free form."""
    shift = 0.0 if flavor == "kde" else 1.0
    return kernel.cf_scaled_minus_one(t, h_of(n + shift)) / (n + 1.0)


def factor_values(
    schedule: BandwidthSchedule, kernel: KernelSpec, t, n_lo: int, n_hi: int, flavor: str
) -> np.ndarray:
    """Growth factors for n = n_lo..n_hi, vectorized, on the bandwidths the
    trajectories apply (``schedule.values``)."""

    def applied(k):  # k runs over consecutive integers
        return schedule.values(int(k[-1]), start=int(k[0]))

    n = np.arange(n_lo, n_hi + 1, dtype=float)
    return 1.0 + _factor_deviation(applied, kernel, t, n, flavor)


def start_index(
    schedule: BandwidthSchedule,
    kernel: KernelSpec,
    t,
    max_scan: int = 10**7,
) -> int:
    """Smallest n <= max_scan with |phi_K(h_n t)| > START_INDEX_FLOOR.

    Exists for any t once the bandwidths have decayed enough (CF continuity
    at the origin); the floor keeps later divisions well conditioned.
    """
    t = np.asarray(t, dtype=float)
    lo, block = 1, 1024
    while lo <= max_scan:
        hi = min(lo + block - 1, max_scan)
        mod = np.abs(kernel.cf_scaled(t, schedule.values(hi, start=lo)))
        hits = np.flatnonzero(mod > START_INDEX_FLOOR)
        if hits.size:
            return lo + int(hits[0])
        lo = hi + 1
        block = min(block * 4, 1 << 20)
    raise ZeroDenominator(
        f"kernel CF stays below the conditioning floor for every n up to {max_scan}"
    )


# --------------------------------------------------------- infinite products


def lemma_constant(kernel: KernelSpec, t) -> float:
    """||t|| (||E[Y]|| + 2 E||Y||), the factor in the summable product bound."""
    t = np.asarray(t, dtype=float)
    norm_t = float(np.linalg.norm(t))
    return norm_t * (float(np.linalg.norm(kernel.mean_vector())) + 2.0 * kernel.norm_mean)


def product_tail_bound(
    schedule: BandwidthSchedule, kernel: KernelSpec, t, from_n: int, flavor: str = "kde"
) -> float:
    """Summable bound on sum_{k>=from_n} |factor_k - 1|.

    |a_k - 1| <= h_k kappa / (k+1) (shared) or h_{k+1} kappa / (k+1)
    (frozen); both sums have closed-to-1e-12 evaluations per bandwidth form.
    """
    kappa = lemma_constant(kernel, t)
    if flavor == "kde":
        return kappa * schedule.tail_weight_kde(from_n)
    return kappa * schedule.tail_weight_shifted(from_n)


@dataclass(frozen=True)
class ProductTail:
    """Value of prod_{k>=from_n} factor_k with its certificates.

    ``lemma_bound`` bounds sum |factor_k - 1| from ``from_n`` on (so the value
    lies within exp(lemma_bound) - 1 of 1), and ``numerical_error`` bounds the
    truncation/quadrature error of the evaluation itself.
    """

    value: complex
    from_n: int
    lemma_bound: float
    numerical_error: float


def _log1p_complex(w: np.ndarray) -> np.ndarray:
    """log(1 + w) accurate for |w| far below float epsilon."""
    w = np.asarray(w, dtype=complex)
    small = np.abs(w) < 1e-8
    out = np.empty(w.shape, dtype=complex)
    out[small] = w[small] * (1.0 - 0.5 * w[small])
    out[~small] = np.log(1.0 + w[~small])
    return out


def _log_factor_fn(schedule: BandwidthSchedule, kernel: KernelSpec, t, flavor: str):
    t = np.asarray(t, dtype=float)

    def log_factor(x):
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        # Past the horizon, at real x, h is the unclamped law.
        w = _factor_deviation(schedule.law, kernel, t, x, flavor)
        if np.any(w == -1.0):
            raise ZeroFactor("a growth factor vanished; start the product later")
        out = _log1p_complex(w)
        return out[0] if scalar else out

    return log_factor


def lemma_product_tail(
    schedule: BandwidthSchedule,
    kernel: KernelSpec,
    t,
    from_n: int,
    rel_tol: float = 1e-8,
    flavor: str = "kde",
) -> ProductTail:
    """prod_{k >= from_n} growth factor, certified.

    The log-sum is split into a direct part and an Euler-Maclaurin remainder
    (integral + endpoint corrections); with decay exponents as low as 1.2 a
    term-by-term truncation could never reach ``rel_tol``, the remainder
    integral can.
    """
    if from_n < 1:
        raise ValueError(f"start must be >= 1, got {from_n}")
    bound = product_tail_bound(schedule, kernel, t, from_n, flavor)  # NoEnvelope if none
    f = _log_factor_fn(schedule, kernel, t, flavor)

    cut = max(from_n, 4096)
    for _ in range(4):
        k = np.arange(from_n, cut, dtype=float)
        direct = complex(np.sum(f(k))) if k.size else 0.0 + 0.0j
        remainder, rem_err = _euler_maclaurin_tail(f, cut, schedule)
        value = np.exp(direct + remainder)
        if rem_err <= rel_tol * max(abs(value), 1e-300):
            return ProductTail(
                value=complex(value),
                from_n=from_n,
                lemma_bound=bound,
                numerical_error=float(rem_err * abs(value)),
            )
        cut *= 4
    raise ToleranceNotReached(
        f"CF product tail from n={from_n} did not reach relative tolerance {rel_tol:g}"
    )


def _euler_maclaurin_tail(f, start: int, schedule: BandwidthSchedule) -> tuple[complex, float]:
    """sum_{k>=start} f(k) ~ int_start^inf f + f(start)/2 - f'(start)/12.

    The tail integral is mapped onto u in (0, 1] with a substitution matched
    to the schedule's decay (x = start * u**(-1/delta), resp. a log map for
    exponential decay), which turns the slow algebraic tail into a bounded
    integrand that quadrature resolves to near machine accuracy.
    """
    if schedule.form == "power":
        inv = 1.0 / schedule.delta

        def x_of(u):
            return start * u ** (-inv)

        def jac(u):
            return start * inv * u ** (-inv - 1.0)

    else:
        rate = schedule.rate

        def x_of(u):
            return start - np.log(u) / rate

        def jac(u):
            return 1.0 / (rate * u)

    def quad_part(g):
        val, err = integrate.quad(lambda u: g(x_of(u)) * jac(u), 0.0, 1.0, limit=400)
        return val, err

    re_val, re_err = quad_part(lambda x: float(f(x).real))
    im_val, im_err = quad_part(lambda x: float(f(x).imag))
    f0 = complex(f(float(start)))
    d1 = complex(f(start + 0.5) - f(start - 0.5))
    # Third difference estimates the first omitted correction term f'''/720.
    d3 = complex(f(start + 1.5) - 3 * f(start + 0.5) + 3 * f(start - 0.5) - f(start - 1.5))
    remainder = re_val + 1j * im_val + 0.5 * f0 - d1 / 12.0
    err = re_err + im_err + abs(d3) / 720.0 + 1e-15 * (abs(remainder) + 1.0)
    return remainder, float(err)


# -------------------------------------------------------- CF corrections


def cf_corrections(
    schedule: BandwidthSchedule,
    kernel: KernelSpec,
    t,
    n_max: int,
    flavor: str,
) -> tuple[int, np.ndarray]:
    """(start_n, correction array for n = 1..n_max) -- the deterministic part
    of the CF martingale, reusable across replications.

    The martingale along a trajectory is ``correction * process.cf_path(traj,
    schedule, kernel, t)``.  Entries before ``start_n`` are NaN; a scalar t
    is broadcast to the kernel dimension, as in ``cf_path``.
    """
    t_arr = np.broadcast_to(np.asarray(t, dtype=float), (kernel.dim,))
    # The product past n_max follows the bandwidth law: a table, which has
    # none, raises NoEnvelope here, before any of its entries is read.
    schedule.law(n_max + 1.0)
    start_n = start_index(schedule, kernel, t_arr, max_scan=n_max)
    factors = factor_values(schedule, kernel, t_arr, start_n, n_max, flavor)
    if np.any(factors == 0):
        raise ZeroFactor("a growth factor vanished inside the traced range")
    beyond = lemma_product_tail(schedule, kernel, t_arr, n_max + 1, flavor=flavor)
    # suffix[i] = factors[i] * ... * factors[-1] * beyond, multiplied from
    # the far end inward as one reversed cumulative product.
    suffix = np.cumprod(np.append(factors, beyond.value)[::-1])[:0:-1]
    correction = np.full(n_max, np.nan, dtype=complex)
    correction[start_n - 1 :] = suffix
    if flavor == "kde":
        phi_h = kernel.cf_scaled(t_arr, schedule.values(n_max)[start_n - 1 :])
        if np.any(phi_h == 0):
            raise ZeroDenominator("kernel CF vanishes inside the traced range")
        correction[start_n - 1 :] /= phi_h
    return start_n, correction


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
    if inc.size < 100:
        raise TooFewReplications(f"need >= 100 replications, got {inc.size}")
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
