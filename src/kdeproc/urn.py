"""Reinforced-urn descendant laws of the process genealogy.

Every new point attaches to a uniformly chosen existing point, so the
descendant count of a fixed point evolves exactly like the black-ball count
of a reinforced urn.  This module provides the exact beta-binomial law and
geometric tail bound for descendant counts over a doubling window, the
empirical counterparts measured on simulated trajectories, the long-run
descendant fraction whose limit is a Beta law, and the support-contrast
experiment separating the two process flavors under a non-negative kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import special, stats

from .bandwidth import BandwidthSchedule
from .errors import DomainError, TrajectoryTooShort
from .kernels import KernelSpec
from .process import Trajectory, chain_root, simulate_seeded


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


def max_descendant_tail_bound(n: int, k: int) -> float:
    """Union bound over all n tracked points: 3 n (n-1) (2/3)^k."""
    return n * descendant_tail_bound(n, k)


# ------------------------------------------------------------ simulated counts


@dataclass(frozen=True)
class DescendantCounts:
    """Descendant counts L_j of the first n points over the window (n, 2n]."""

    n: int
    window: int
    counts: np.ndarray  # counts[j - 1] = number of window points rooted at j

    def total(self) -> int:
        return int(self.counts.sum())


def simulate_descendants(traj: Trajectory, n: int) -> DescendantCounts:
    """Count, for each of the first n points, the window points (n, 2n]
    whose ancestor chain first re-enters {1..n} at that point."""
    if n < 1:
        raise ValueError(f"window parameter must be >= 1, got {n}")
    if len(traj) < 2 * n:
        raise TrajectoryTooShort(f"need at least {2 * n} points, trajectory has {len(traj)}")
    if traj.seed_prefix_len > n:
        raise ValueError("window start lies inside the injected data prefix")
    roots = chain_root(traj.ancestors[n - 1 : 2 * n - 1] - 1, n)
    counts = np.bincount(roots[n:], minlength=n)
    return DescendantCounts(n=n, window=n, counts=counts)


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
    roots = chain_root(traj.ancestors[bound - 1 : m_max - 1] - 1, bound)
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

    n_steps: int
    replications: int
    kde: FlavorRecordStats
    recursive: FlavorRecordStats
    z_statistic: float
    p_value: float
    per_replication: dict = field(default_factory=dict, repr=False)


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
    running maximum still sets records in the second half of the run."""
    if kernel.family != "half_normal":
        raise ValueError("the support contrast is defined for the half_normal kernel")
    per_flavor = {}
    per_replication = {}
    for flavor in ("kde", "recursive"):
        late = 0
        last_records = np.empty(replications)
        final_max = np.empty(replications)
        ratios = np.empty(replications)
        for r in range(replications):
            traj = simulate_seeded(flavor, schedule, kernel, n_steps, master_seed, r)
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
        per_replication[flavor] = {
            "last_record_index": last_records.tolist(),
            "final_max": final_max.tolist(),
        }
    z, p = two_proportion_one_sided(
        per_flavor["recursive"].last_half_record_count,
        replications,
        per_flavor["kde"].last_half_record_count,
        replications,
    )
    return ContrastReport(
        n_steps=n_steps,
        replications=replications,
        kde=per_flavor["kde"],
        recursive=per_flavor["recursive"],
        z_statistic=z,
        p_value=p,
        per_replication=per_replication,
    )
