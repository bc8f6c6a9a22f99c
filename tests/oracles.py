"""Test oracles that walk the recorded genealogy chain by chain.

They read only a trajectory's record (ancestors, kernel draws, applied
bandwidths) and never its level order, so the points ``simulate`` sums
level by level are checked against an independent computation.
"""

import numpy as np

from kdeproc.errors import KdeprocError


class PrefixPointHasNoGenealogy(KdeprocError):
    """Reconstruction asked for an injected data point (no ancestry recorded)."""


def reconstruct_from_genealogy(traj, n: int) -> np.ndarray:
    """Rebuild point n by summing scaled kernel draws along its ancestry.

    Walks the recorded chain back to a root (the origin or an injected data
    point); never reads the stored value of any generated point.
    """
    if not 1 <= n <= len(traj):
        raise ValueError(f"index must be in [1, {len(traj)}], got {n}")
    if 1 < n <= traj.seed_prefix_len:
        raise PrefixPointHasNoGenealogy(f"point {n} was injected as observed data")
    b = traj.root_bound
    acc = np.zeros(traj.dim)
    p = n
    while p > b:
        row = p - b - 1
        acc += traj.steps_h[row] * traj.kernel_draws[row]
        p = int(traj.ancestors[row])
    return traj.points[p - 1] + acc


def reconstruct_all(traj) -> np.ndarray:
    """Genealogy reconstruction of every point at once (vectorized walk)."""
    n_pts, d = traj.points.shape
    b = traj.root_bound
    p = np.arange(1, n_pts + 1, dtype=np.int64)
    acc = np.zeros((n_pts, d))
    active = np.nonzero(p > b)[0]
    while active.size:
        rows = p[active] - b - 1
        acc[active] += traj.steps_h[rows, None] * traj.kernel_draws[rows]
        p[active] = traj.ancestors[rows]
        active = active[p[active] > b]
    return traj.points[p - 1] + acc


def mixture_sample(mix, rng, size: int) -> np.ndarray:
    """iid draws from a ``PredictiveMixture``, shape (size, d)."""
    idx = rng.integers(0, mix.n_components, size=size)
    y = mix.kernel.sample(rng, size=size)
    return mix.centers[idx] + mix.scales[idx, None] * y
