"""Reinforced-urn descendant laws of the process genealogy.

Every new point attaches to a uniformly chosen existing point, so the
descendant count of a fixed point evolves exactly like the black-ball count
of a reinforced urn.  This module provides the exact beta-binomial law and
geometric tail bound for descendant counts over a doubling window, the
empirical counterparts read off blocks of simulated genealogies, and the
long-run descendant fraction whose limit is a Beta law.

SciPy is imported as the bare package, so ``scipy.special`` loads when an
exact law is first evaluated, not when this module is imported.
"""

from __future__ import annotations

import numpy as np
import scipy

from .errors import DomainError, TrajectoryTooShort


# ------------------------------------------------------------------ exact law


def betabinom_pmf_vector(n: int) -> np.ndarray:
    """P(descendant count = k) for k = 0..n, for a window of n steps over n
    starting points.

    The urn starts with 1 black ball (the tracked point) and n - 1 red balls
    and is reinforced for n draws:

        P(L = k) = C(n, k) * B(k + 1, 2n - k - 1) / B(1, n - 1)

    evaluated in log-gamma arithmetic over the whole array of k.
    """
    if n < 2:
        raise DomainError(f"window parameter must be >= 2, got {n}")
    k = np.arange(n + 1)
    gammaln = scipy.special.gammaln
    log_binom = gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1)
    log_beta_num = gammaln(k + 1.0) + gammaln(2.0 * n - k - 1.0) - gammaln(2.0 * n)
    log_beta_den = gammaln(1.0) + gammaln(n - 1.0) - gammaln(float(n))
    return np.exp(log_binom + log_beta_num - log_beta_den)


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
    row of an (R, m) block of 1-based ancestors of the points after the origin
    (column j belongs to point j + 2, as in ``Trajectory.ancestors`` with no
    data prefix; m >= upto - 1, every point above ``bound`` generated).

    Laid out column-major, point j + 1 of row r at entry j R + r, the
    R bound base points come first, as their own roots, and every generated
    point starts from its ancestor; ``up = up[up]`` then doubles each chain's
    reach until it points at a base point, as in ``process.level_order``.
    """
    rows = ancestors.shape[0]
    if ancestors.shape[1] < upto - 1:
        raise TrajectoryTooShort(
            f"need at least {upto} points, the ancestors cover {ancestors.shape[1] + 1}"
        )
    generated = (ancestors[:, bound - 1 : upto - 1].T - 1) * rows + np.arange(rows)
    s = bound * rows
    up = np.concatenate((np.arange(s), generated.ravel()))
    while up[s:].max(initial=0) >= s:
        up = up[up]
    return up.reshape(upto, rows).T // rows


def window_roots(ancestors: np.ndarray, n: int) -> np.ndarray:
    """(R, n) roots in 0..n-1 of the window points (n, 2n]: the first of the
    points 1..n each window point's ancestor chain reaches."""
    if n < 1:
        raise ValueError(f"window parameter must be >= 1, got {n}")
    return block_roots(ancestors, n, 2 * n)[:, n:]


def anchor_fractions(ancestors: np.ndarray, anchor: int, horizon: int) -> np.ndarray:
    """(R,) fraction of points 1..horizon in the anchor's subtree (anchor
    included), whose limit law as the horizon grows is Beta(1, anchor - 1)."""
    if not 2 <= anchor <= horizon:
        raise ValueError(f"need 2 <= anchor <= horizon, got anchor={anchor}, horizon={horizon}")
    hits = np.count_nonzero(block_roots(ancestors, anchor, horizon) == anchor - 1, axis=1)
    return hits / float(horizon)
