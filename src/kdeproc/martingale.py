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

**Characteristic function.**  The predictive-mixture CF phi_n(t)
(``process.cf_path``) times a correction (:func:`cf_corrections`) built
from the infinite product of the one-step growth factors

    a_n(t) = phi_K(h_n t)/(n+1) + n/(n+1)          (shared bandwidth)
    a~_n(t) = phi_K(h_{n+1} t)/(n+1) + n/(n+1)     (frozen bandwidth)

is a bounded martingale.  Each t takes one pass over the traced range: the
kernel CF's deviation phi_K(h_n t) - 1 is evaluated once over the bandwidths
h_1..h_{n_max+s} (s = 0 shared, 1 frozen, :data:`BANDWIDTH_SHIFT`).  One
plus its first n_max entries is the kernel CF row that ``cf_path`` reads;
the growth-factor deviations are the slice shifted by s, times 1/(n+1).
Only the shared-bandwidth correction divides, by that row, so only it has a
start index: the first n at which the row clears START_INDEX_FLOOR.  The
frozen-bandwidth correction starts at n = 1.
Products over k > n_max follow the schedule's law, through their log-sum
with an Euler-Maclaurin tail (slow power-law decay makes naive truncation
hopeless), and every product carries both the summable bound certifying it
stays near 1 and a numerical remainder estimate.  The tail's quadrature
evaluates the log-factor once at each node: the real and the imaginary
pass and the endpoint differences read one table of complex values that
lives for one call.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .bandwidth import BandwidthSchedule, leading
from .errors import ToleranceNotReached, TooFewReplications, ZeroDenominator, ZeroFactor
from .kernels import KernelSpec

DRIFT_FLAG_THRESHOLD = 4.0
# Fewest per-replication increments a drift test (and an urn law test) reads.
MIN_REPLICATIONS = 100
START_INDEX_FLOOR = 0.1
# Relative error the certified CF product tail must reach.
PRODUCT_TAIL_REL_TOL = 1e-8
# Largest excess of the dominating chain's tail mass over its Markov bound
# that still counts as rounding.
TAIL_BOUND_TOLERANCE = 1e-10


# --------------------------------------------------------------- tightness


def compensator_values(flavor: str, h: np.ndarray, ew1: float, n_max: int) -> np.ndarray:
    """c_n for n = 1..n_max from the bandwidths h_1..h_{n_max} (the head of
    ``h``); empty for n_max = 0."""
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
    ``h``), the sum past n_max the schedule's closed-form tail weights.
    """
    if n_max < 1:
        raise ValueError(f"compensator tails need n_max >= 1, got {n_max}")
    h = leading(h, n_max)
    if flavor == "kde":
        beyond = schedule.tail_weight_kde(n_max)
    else:
        beyond = schedule.tail_weight_recursive(n_max, np.sum(h))
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
    t = np.asarray(t, dtype=float)
    norm_t = float(np.linalg.norm(t))
    return norm_t * (float(np.linalg.norm(kernel.mean_vector())) + 2.0 * kernel.norm_mean)


def product_tail_bound(
    schedule: BandwidthSchedule, kernel: KernelSpec, t, from_n: int, flavor: str
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
    shift = BANDWIDTH_SHIFT[flavor]

    def log_factor(x):
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        # Past the horizon, at real x, h is the unclamped law.
        w = _factor_deviation(kernel.cf_scaled_minus_one(t, schedule.law(x + shift)), x)
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
    flavor: str,
) -> ProductTail:
    """prod_{k >= from_n} growth factor, certified.

    The log-sum is split into a direct part and an Euler-Maclaurin remainder
    (integral + endpoint corrections); with decay exponents as low as 1.2 a
    term-by-term truncation could never reach ``PRODUCT_TAIL_REL_TOL``, the
    remainder integral can.
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
        # rem_err bounds the error of the log-sum L, and exp(L + e) =
        # exp(L)(1 + e + ...), so it is the tail's relative error as it stands.
        if rem_err <= PRODUCT_TAIL_REL_TOL:
            return ProductTail(
                value=complex(value),
                from_n=from_n,
                lemma_bound=bound,
                numerical_error=float(rem_err * abs(value)),
            )
        cut *= 4
    t_text = ", ".join(f"{v:g}" for v in np.atleast_1d(np.asarray(t, dtype=float)))
    raise ToleranceNotReached(
        f"CF product tail at t=({t_text}), flavor {flavor}, from n={from_n}: relative "
        f"error {rem_err:.3g} (the log-sum error; |tail| {abs(value):.3g}) at the last "
        f"cut n={cut // 4}, above the tolerance {PRODUCT_TAIL_REL_TOL:g}"
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

    # f at each node, kept for this call only: the real and the imaginary
    # quadrature and the endpoint differences evaluate f once per node.
    seen = {}

    def f_at(x):
        value = seen.get(x)
        if value is None:
            value = seen[x] = f(x)
        return value

    def quad_part(part):
        return integrate.quad(lambda u: float(part(f_at(x_of(u)))) * jac(u), 0.0, 1.0, limit=400)

    re_val, re_err = quad_part(np.real)
    im_val, im_err = quad_part(np.imag)
    f0 = complex(f_at(float(start)))
    d1 = complex(f_at(start + 0.5) - f_at(start - 0.5))
    # Third difference estimates the first omitted correction term f'''/720.
    d3 = complex(
        f_at(start + 1.5) - 3 * f_at(start + 0.5) + 3 * f_at(start - 0.5) - f_at(start - 1.5)
    )
    remainder = re_val + 1j * im_val + 0.5 * f0 - d1 / 12.0
    err = re_err + im_err + abs(d3) / 720.0 + 1e-15 * (abs(remainder) + 1.0)
    return remainder, float(err)


# -------------------------------------------------------- CF corrections


def cf_corrections(
    schedule: BandwidthSchedule,
    h: np.ndarray,
    kernel: KernelSpec,
    t,
    n_max: int,
    flavor: str,
) -> tuple[int, np.ndarray, np.ndarray]:
    """(start_n, correction, kernel_cf), each array over n = 1..n_max -- the
    deterministic parts of the CF martingale, reusable across replications,
    from the head h_1..h_{n_max+s} of ``h`` and the schedule's law past it.

    The martingale along a trajectory is ``correction * process.cf_path(traj,
    t, kernel_cf)``, where ``kernel_cf`` is the kernel CF row phi_K(h_n t).
    The kde correction divides by that row, so its ``start_n`` is the first
    n with |phi_K(h_n t)| > START_INDEX_FLOOR, which keeps the division well
    conditioned, and its entries before it are NaN; the recursive correction
    divides by nothing and starts at 1.  A scalar t is broadcast to the
    kernel dimension, as in ``cf_path``.
    """
    t_arr = np.broadcast_to(np.asarray(t, dtype=float), (kernel.dim,))
    shift = BANDWIDTH_SHIFT[flavor]
    # phi_K(h_k t) - 1 for k = 1..n_max + s, the one kernel-CF evaluation;
    # the row is formed before the growth factors scale it in place.
    dev = kernel.cf_scaled_minus_one(t_arr, leading(h, n_max + shift))
    kernel_cf = 1.0 + dev[:n_max]
    start_n = 1
    if flavor == "kde":
        usable = np.flatnonzero(np.abs(kernel_cf) > START_INDEX_FLOOR)
        if not usable.size:
            raise ZeroDenominator(
                f"kernel CF stays below the conditioning floor for every n up to {n_max}"
            )
        start_n = int(usable[0]) + 1
    n = np.arange(start_n, n_max + 1, dtype=float)
    correction = np.empty(n_max, dtype=complex)
    correction[: start_n - 1] = np.nan
    # The growth factors go straight into the correction array, which the
    # reversed cumulative product then turns in place into the suffix
    # products factors[i] * ... * factors[-1] * beyond, from the far end in.
    factors = correction[start_n - 1 :]
    np.add(_factor_deviation(dev[start_n - 1 + shift :], n), 1.0, out=factors)
    if np.any(factors == 0):
        raise ZeroFactor("a growth factor vanished inside the traced range")
    factors[-1] *= lemma_product_tail(schedule, kernel, t_arr, n_max + 1, flavor).value
    np.cumprod(factors[::-1], out=factors[::-1])
    if flavor == "kde":
        if np.any(kernel_cf[start_n - 1 :] == 0):
            raise ZeroDenominator("kernel CF vanishes inside the traced range")
        factors /= kernel_cf[start_n - 1 :]
    return start_n, correction, kernel_cf


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
