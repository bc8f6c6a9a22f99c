"""Reinforced-urn descendant laws of the process genealogy.

Every new point attaches to a uniformly chosen existing point, so the
descendant count of a fixed point evolves exactly like the black-ball count
of a reinforced urn.  This module provides the exact beta-binomial law and
geometric tail bound for descendant counts over a doubling window, the
empirical counterparts read off blocks of simulated genealogies, the long-run
descendant fraction whose limit is a Beta law, and the support-contrast
experiment separating the two process flavors under a non-negative kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special, stats

from .bandwidth import BandwidthSchedule
from .errors import DomainError, TrajectoryTooShort
from .kernels import KernelSpec
from .process import Trajectory, simulate_batch


# ------------------------------------------------------------------ exact law


def betabinom_pmf(n: int, k: int) -> float:
    """P(descendant count = k) for a window of n steps over n starting points.

    The urn starts with 1 black ball (the tracked point) and n - 1 red balls
    and is reinforced for n draws:

        P(L = k) = C(n, k) * B(k + 1, 2n - k - 1) / B(1, n - 1)

    evaluated in log-gamma arithmetic.
    """
    if n < 2:
        raise DomainError(f"window parameter must be >= 2, got {n}")
    if not 0 <= k <= n:
        raise DomainError(f"count must be in [0, {n}], got {k}")
    log_binom = special.gammaln(n + 1) - special.gammaln(k + 1) - special.gammaln(n - k + 1)
    log_beta_num = (
        special.gammaln(k + 1.0) + special.gammaln(2.0 * n - k - 1.0) - special.gammaln(2.0 * n)
    )
    log_beta_den = special.gammaln(1.0) + special.gammaln(n - 1.0) - special.gammaln(float(n))
    return float(np.exp(log_binom + log_beta_num - log_beta_den))


def betabinom_pmf_vector(n: int) -> np.ndarray:
    """The full pmf over k = 0..n."""
    return np.array([betabinom_pmf(n, k) for k in range(n + 1)])


def descendant_tail_bound(n: int, k: int) -> float:
    """Closed-form bound on P(descendant count >= k): 3 (n-1) (2/3)^k."""
    if n < 2:
        raise DomainError(f"window parameter must be >= 2, got {n}")
    if k < 0:
        raise DomainError(f"threshold must be >= 0, got {k}")
    return 3.0 * (n - 1) * (2.0 / 3.0) ** k


# ------------------------------------------------------------ simulated counts


def block_roots(ancestors: np.ndarray, bound: int, upto: int) -> np.ndarray:
    """(R, upto) 0-based roots below ``bound`` of points 1..upto, for every
    row of an (R, m) block of 1-based ancestors (slot p - 2 belongs to point p,
    m >= upto - 1, every point above ``bound`` generated).

    Points up to ``bound`` are their own roots and point p > bound starts from
    its ancestor; ``roots = roots[roots]`` then doubles every chain's reach
    until nothing changes.  Integer indexing, so the result is exact.
    """
    rows = ancestors.shape[0]
    if ancestors.shape[1] < upto - 1:
        raise TrajectoryTooShort(
            f"need at least {upto} points, the ancestors cover {ancestors.shape[1] + 1}"
        )
    offsets = np.arange(rows, dtype=np.int64)[:, None] * upto
    roots = np.empty((rows, upto), dtype=np.int64)
    roots[:, :bound] = np.arange(bound)
    roots[:, bound:] = ancestors[:, bound - 1 : upto - 1] - 1
    flat = (roots + offsets).ravel()
    while True:
        jumped = flat[flat]
        if np.array_equal(jumped, flat):
            return flat.reshape(rows, upto) - offsets
        flat = jumped


def window_roots(ancestors: np.ndarray, n: int) -> np.ndarray:
    """(R, n) roots in 0..n-1 of the window points (n, 2n]: the first of the
    points 1..n each window point's ancestor chain reaches."""
    if n < 1:
        raise ValueError(f"window parameter must be >= 1, got {n}")
    return block_roots(ancestors, n, 2 * n)[:, n:]


def anchor_fractions(ancestors: np.ndarray, anchor: int, horizon: int) -> np.ndarray:
    """(R,) fraction of points 1..horizon in the anchor's subtree (anchor
    included): the last entry of :func:`descendant_fraction_path`."""
    if not 2 <= anchor <= horizon:
        raise ValueError(f"need 2 <= anchor <= horizon, got anchor={anchor}, horizon={horizon}")
    hits = np.count_nonzero(block_roots(ancestors, anchor, horizon) == anchor - 1, axis=1)
    return hits / float(horizon)


def descendant_fraction_path(traj: Trajectory, anchor: int, horizon: int | None = None) -> np.ndarray:
    """Running fraction of points descending from the anchor (anchor included).

    Entry m-1 holds |{j <= m : j in the anchor's subtree}| / m; it is zero
    before the anchor exists and 1/anchor at m = anchor.  The limit law of
    the fraction is Beta(1, anchor - 1).
    """
    if anchor < 2:
        raise ValueError(f"anchor must be >= 2, got {anchor}")
    m_max = len(traj) if horizon is None else int(horizon)
    if not anchor <= m_max <= len(traj):
        raise ValueError(f"horizon must be in [{anchor}, {len(traj)}], got {m_max}")
    # Injected data points have no ancestry: chains stop at the prefix, so
    # the roots are taken below max(anchor, prefix length).
    bound = min(max(anchor, traj.seed_prefix_len), m_max)
    roots = block_roots(traj.ancestors[None, : m_max - 1], bound, m_max)[0]
    running = np.cumsum(roots == anchor - 1)
    return running / np.arange(1, m_max + 1, dtype=float)


# --------------------------------------------------------- support contrast


@dataclass(frozen=True)
class FlavorRecordStats:
    """Running-max record statistics for one flavor, aggregated over runs."""

    flavor: str
    replications: int
    last_half_record_count: int
    last_half_record_fraction: float
    mean_last_record_index: float
    mean_final_max: float
    mean_support_ratio: float  # (max over full run) / (max over first half)


@dataclass(frozen=True)
class ContrastReport:
    """Record-occurrence contrast between the two flavors.

    ``p_value`` is the one-sided two-proportion test of the frozen-bandwidth
    flavor producing late records more often than the shared-bandwidth one.
    """

    kde: FlavorRecordStats
    recursive: FlavorRecordStats
    z_statistic: float
    p_value: float


def _record_stats(traj: Trajectory) -> tuple[int, float, float]:
    """(last strict-record index, final max, full/first-half max ratio)."""
    norms = np.linalg.norm(traj.points, axis=1)
    run_max = np.maximum.accumulate(norms)
    strict = np.flatnonzero(norms[1:] > run_max[:-1]) + 1
    last_record = int(strict[-1]) + 1 if strict.size else 1  # 1-based point index
    half = len(traj) // 2
    ratio = float(run_max[-1] / run_max[half - 1]) if run_max[half - 1] > 0 else np.inf
    return last_record, float(run_max[-1]), ratio


def two_proportion_one_sided(k1: int, n1: int, k2: int, n2: int) -> tuple[float, float]:
    """z and p-value for H1: proportion 1 > proportion 2 (pooled variance)."""
    p1, p2 = k1 / n1, k2 / n2
    pooled = (k1 + k2) / (n1 + n2)
    var = pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2)
    if var == 0.0:
        return 0.0, 0.5
    z = (p1 - p2) / np.sqrt(var)
    return float(z), float(stats.norm.sf(z))


def support_contrast_experiment(
    schedule: BandwidthSchedule,
    kernel: KernelSpec,
    n_steps: int,
    replications: int,
    master_seed: int,
) -> ContrastReport:
    """Run both flavors on the non-negative kernel and compare how often the
    running maximum still sets records in the second half of the run.

    The first half must reach past the origin, whose norm 0 would make the
    support ratio infinite, so the run needs at least 4 steps."""
    if kernel.family != "half_normal":
        raise DomainError("the support contrast is defined for the half_normal kernel")
    if n_steps < 4:
        raise DomainError(f"the support contrast needs run.steps >= 4, got {n_steps}")
    per_flavor = {}
    for flavor in ("kde", "recursive"):
        late = 0
        last_records = np.empty(replications)
        final_max = np.empty(replications)
        ratios = np.empty(replications)
        trajectories = simulate_batch(
            flavor, schedule, kernel, n_steps, master_seed, range(replications)
        )
        for r, traj in enumerate(trajectories):
            last_record, fmax, ratio = _record_stats(traj)
            last_records[r] = last_record
            final_max[r] = fmax
            ratios[r] = ratio
            if last_record > n_steps // 2:
                late += 1
        per_flavor[flavor] = FlavorRecordStats(
            flavor=flavor,
            replications=replications,
            last_half_record_count=late,
            last_half_record_fraction=late / replications,
            mean_last_record_index=float(last_records.mean()),
            mean_final_max=float(final_max.mean()),
            mean_support_ratio=float(ratios.mean()),
        )
    z, p = two_proportion_one_sided(
        per_flavor["recursive"].last_half_record_count,
        replications,
        per_flavor["kde"].last_half_record_count,
        replications,
    )
    return ContrastReport(
        kde=per_flavor["kde"],
        recursive=per_flavor["recursive"],
        z_statistic=z,
        p_value=p,
    )
