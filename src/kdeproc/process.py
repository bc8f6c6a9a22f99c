"""Simulation of the two kernel predictive processes with full genealogy.

Both processes share the generative skeleton, which one generator alone
takes, behind :func:`simulate` and :func:`simulate_batch` (which steps every
replication with the bandwidths its run reads once): at step n an ancestor
index is drawn uniformly from {1..n}, a kernel variate is drawn, and the new
point is the ancestor plus a scaled variate.
They differ only in which bandwidth scales the variate:

* ``kde``        -- the current bandwidth h_n (every component of the
  predictive mixture is rescaled to h_n at every step);
* ``recursive``  -- the ancestor's birth bandwidth h_{M_n} (each point keeps
  the bandwidth it was born with, never updated).

Trajectories record ancestors, kernel draws and the bandwidth actually
applied, so any point can be reconstructed independently by walking its
ancestry, and the exact finite-mixture form of the predictive law is
available at every time index.

Every sum along one trajectory's ancestry (the points, the dominating
chain sums) is evaluated over its :class:`LevelOrder`: the generated points
grouped by depth below the roots, found once by :func:`level_order` and
carried by the trajectory, then summed one depth level at a time
(:func:`chain_sum` does both for any genealogy).  :func:`ancestor_blocks`
is the one loop over replication blocks: it draws each block's ancestors at
once for :func:`simulate_batch` and for the urn laws, whose chain roots
``urn.block_roots`` finds.  The chain-walking oracles of these sums live
with the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bandwidth import BandwidthSchedule, leading
from .errors import NonFiniteInput
from .kernels import KernelSpec, frequency
from .streams import DrawStreams, ancestor_uniforms, kernel_streams

FLAVORS = ("kde", "recursive")

# PredictiveMixture.quantile takes Newton steps for this many rounds and
# plain bisection after, so every level ends within _QUANTILE_ROUNDS rounds,
# in a bracket narrower than tol(1 + |x|), tol = _QUANTILE_TOL.
_NEWTON_ROUNDS = 100
_QUANTILE_ROUNDS = 200
_QUANTILE_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class LevelOrder:
    """The generated rows of a genealogy, stably sorted by depth below the
    base rows: the rows of depth k are s + ``order[bounds[k - 1]:bounds[k]]``
    (row s + i is generated at 0-based position i), with parents
    ``sources[...]``."""

    sources: np.ndarray  # (m,) int64, parents[order]
    order: np.ndarray    # (m,) int64, generation positions sorted by depth
    bounds: list[int]    # [0, end of depth 1, end of depth 2, ...]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A realized path with its complete generative record.

    Point index p and step index n are 1-based as in the recursions: step n
    consumes the state of length n and emits point p = n + 1.  The first
    b = ``root_bound`` points are the base rows, with no record; the
    genealogy arrays hold one row per generated point, row i belonging to
    point b + 1 + i.  That is the layout ``simulate`` takes as forced arrays
    and ``level_order(ancestors - 1, b)`` reads, so both replay the record.
    """

    flavor: str
    points: np.ndarray        # (N, d) float
    ancestors: np.ndarray     # (N-b,) int64, 1-based ancestor index
    kernel_draws: np.ndarray  # (N-b, d) float
    steps_h: np.ndarray       # (N-b,) float, bandwidth applied
    # Depth order of the generated points below the base rows, shared by
    # every chain sum over this genealogy.
    levels: LevelOrder = field(repr=False)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def root_bound(self) -> int:
        """Number b of base points, which have no generative record: 1 for
        the origin, s for an s-point data prefix."""
        return len(self.points) - len(self.ancestors)


@dataclass(frozen=True, eq=False)
class PredictiveMixture:
    """Exact uniform-weight mixture form of the predictive law at some time.

    Component k is the kernel translated to ``centers[k]`` and scaled by
    ``scales[k]``; every component has weight 1/n.
    """

    centers: np.ndarray  # (n, d)
    scales: np.ndarray   # (n,)
    kernel: KernelSpec

    @property
    def n_components(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def prob(self, lo, hi) -> float:
        """Probability of the axis-aligned box [lo, hi]; sides may be +-inf."""
        lo = np.broadcast_to(np.asarray(lo, dtype=float), (self.dim,))
        hi = np.broadcast_to(np.asarray(hi, dtype=float), (self.dim,))
        if np.any(lo > hi):
            raise ValueError("box must satisfy lo <= hi per coordinate")
        s = self.scales[:, None]
        # On a tiny scale a side standardizes to +-inf, where the CDF is 0 or 1.
        with np.errstate(over="ignore"):
            upper = self.kernel.cdf1((hi[None, :] - self.centers) / s)
            lower = self.kernel.cdf1((lo[None, :] - self.centers) / s)
        per_component = np.prod(upper - lower, axis=1)
        return float(np.mean(per_component))

    def cf(self, t) -> complex:
        """Mixture characteristic function at t."""
        t = frequency(t, self.dim)
        vals = np.exp(1j * _inner(self.centers, t)) * self.kernel.cf_scaled(t, self.scales)
        # Componentwise means: numpy's complex/real division can drop an ulp,
        # and the value at t = 0 must be exactly 1.
        return complex(np.mean(vals.real) + 1j * np.mean(vals.imag))

    def cdf(self, x) -> np.ndarray:
        """Univariate mixture CDF, vectorized over x (dimension 1 only)."""
        if self.dim != 1:
            raise ValueError("cdf is only defined for dimension 1")
        # On a tiny scale a point standardizes to +-inf, where the CDF is 0 or 1.
        with np.errstate(over="ignore"):
            return np.mean(self.kernel.cdf1(self._standardized(x)), axis=-1)

    def _standardized(self, x) -> np.ndarray:
        """z[..., k] = (x - centers[k]) / scales[k], for dimension 1."""
        x = np.asarray(x, dtype=float)
        return (x[..., None] - self.centers[:, 0]) / self.scales

    def mean(self) -> np.ndarray:
        """Exact mixture mean: average center plus average scale times E[Y]."""
        return self.centers.mean(axis=0) + self.scales.mean() * self.kernel.mean_vector()

    def quantile(self, q):
        """Univariate quantile: a float for a scalar level q, an array of the
        same shape for an array of levels.

        Every level keeps a bracket with cdf(lo) < q <= cdf(hi), found by
        span doubling outward from the extreme centers.  All levels then run
        in lockstep through Newton's iteration on the mixture CDF, started at
        the centers' own quantiles, one (levels x components) evaluation per
        round, each step checked against its bracket:

        * a step that leaves the bracket (or a zero density) falls back to
          the bracket midpoint;
        * a step shorter than tol(1 + |x|)/2 becomes a probe that far past x
          on the root's side, which closes the bracket even where Newton
          stalls at float resolution.

        The result is the midpoint of a bracket narrower than tol(1 + |mid|).
        Float overflow is ignored: on a tiny scale a point standardizes to
        +-inf, where the CDF is 0 or 1 and the density 0, and an infinite
        density gives a zero step, which becomes a probe.
        """
        if self.dim != 1:
            raise ValueError("quantile is only defined for dimension 1")
        levels = np.asarray(q, dtype=float)
        if not np.all((levels > 0.0) & (levels < 1.0)):
            raise ValueError(f"quantile levels must be in (0, 1), got {q}")
        qs = levels.ravel()
        with np.errstate(over="ignore"):
            span = np.full(qs.shape, 10.0 * float(np.max(self.scales)) + 1.0)
            lo = float(np.min(self.centers)) - span
            hi = float(np.max(self.centers)) + span
            while np.any(short := self._cdf_distinct(lo) >= qs):
                lo[short] -= span[short]
                span[short] *= 2.0
            while np.any(short := self._cdf_distinct(hi) < qs):
                hi[short] += span[short]
                span[short] *= 2.0

            x = np.clip(np.quantile(self.centers[:, 0], qs), lo, hi)
            live = np.arange(qs.size)
            for rounds in range(_QUANTILE_ROUNDS):
                xl, ql = x[live], qs[live]
                z = self._standardized(xl)
                cdf = np.mean(self.kernel.cdf1(z), axis=-1)
                density = np.mean(self.kernel.pdf1(z) / self.scales, axis=-1)
                below = cdf < ql
                lo[live] = np.where(below, xl, lo[live])
                hi[live] = np.where(below, hi[live], xl)
                lo_l, hi_l = lo[live], hi[live]
                mid = 0.5 * (lo_l + hi_l)
                probe = 0.5 * _QUANTILE_TOL * (1.0 + np.abs(xl))
                # A zero or subnormal density gives an infinite or NaN step,
                # which the bracket test below turns into the midpoint.
                with np.errstate(all="ignore"):
                    step = (ql - cdf) / density
                    step = np.where(np.abs(step) < probe, np.where(below, probe, -probe), step)
                    nxt = xl + step
                inside = (nxt > lo_l) & (nxt < hi_l) & (rounds < _NEWTON_ROUNDS)
                x[live] = np.where(inside, nxt, mid)
                live = live[hi_l - lo_l >= _QUANTILE_TOL * (1.0 + np.abs(mid))]
                if live.size == 0:
                    break
        out = (0.5 * (lo + hi)).reshape(levels.shape)
        return float(out) if out.ndim == 0 else out

    def _cdf_distinct(self, x: np.ndarray) -> np.ndarray:
        """cdf at each entry of x, evaluated once per distinct value."""
        points, inverse = np.unique(x, return_inverse=True)
        return self.cdf(points)[inverse]


# ------------------------------------------------------------------ building


def check_flavor(flavor: str) -> None:
    """ValueError unless ``flavor`` names one of the two processes."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {FLAVORS}")


def _start(flavor: str, data_prefix, dim: int, length: int) -> np.ndarray:
    """The base points of a trajectory of ``length`` points: the data prefix
    as an (s, d) array, or the origin as the one-point base at 0."""
    check_flavor(flavor)
    prefix = np.zeros((1, dim)) if data_prefix is None else np.asarray(data_prefix, dtype=float)
    if prefix.ndim == 1:
        prefix = prefix[:, None]
    if prefix.ndim != 2 or prefix.shape[0] == 0:
        raise ValueError("data prefix must be a non-empty sequence of points")
    if prefix.shape[1] != dim:
        raise ValueError(f"data prefix has dimension {prefix.shape[1]}, expected {dim}")
    if not np.all(np.isfinite(prefix)):
        raise NonFiniteInput("data prefix contains NaN or infinite coordinates")
    if length < len(prefix):
        raise ValueError(f"length {length} shorter than the prefix ({len(prefix)} points)")
    return prefix


def simulate(
    flavor: str,
    schedule: BandwidthSchedule,
    kernel: KernelSpec,
    length: int,
    streams: DrawStreams | None = None,
    data_prefix=None,
    forced_ancestors=None,
    forced_draws=None,
) -> Trajectory:
    """Build a trajectory of ``length`` points in one pass.

    Ancestor indices and kernel variates for all steps are drawn up front
    (they do not depend on realized values), then the points are accumulated
    through the sequential recurrence.  ``forced_ancestors`` / ``forced_draws``
    replace the corresponding random draws for deterministic replay;
    ``streams`` draws the rest, so it may be omitted only when both are
    forced or no step is drawn (ValueError otherwise).
    """
    prefix = _start(flavor, data_prefix, kernel.dim, length)
    s, d = prefix.shape
    count = length - s
    # Both forced arrays are checked before any draw, and copied, so a
    # trajectory never shares its record with its caller.
    if forced_ancestors is not None:
        anc = np.array(forced_ancestors, dtype=np.int64)
        if anc.shape != (count,):
            raise ValueError(f"need {count} forced ancestors, got {anc.shape}")
        if np.any(anc < 1) or np.any(anc > np.arange(s, length)):
            raise ValueError("forced ancestor out of range at some step")
    if forced_draws is not None:
        y = np.array(forced_draws, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        if y.shape != (count, d):
            raise ValueError(f"need forced draws of shape ({count}, {d}), got {y.shape}")
    if forced_ancestors is None and count:
        anc = _pick_ancestors(_stream(streams, "ancestors", count).random(count), s)
    elif forced_ancestors is None:
        anc = np.zeros(0, dtype=np.int64)
    if forced_draws is None and count:
        y = kernel.sample(_stream(streams, "kernel", count), size=count)
    elif forced_draws is None:
        y = np.zeros((0, d))
    return _generate(flavor, schedule.values(length - 1), prefix, anc, y)


def _generate(flavor, h, prefix, anc, y):
    """The one generator behind ``simulate`` and ``simulate_batch``, from the
    checked base points, the generated points' own record (1-based ancestors
    ``anc``, kernel draws ``y``) and bandwidths covering h_1..h_{length-1}."""
    s = prefix.shape[0]
    h_applied = h[s - 1 : s - 1 + anc.size].copy() if flavor == "kde" else h[anc - 1]
    levels = level_order(anc - 1, s)
    points = _sum_levels(prefix, h_applied[:, None] * y, levels)
    return Trajectory(
        flavor=flavor,
        points=points,
        ancestors=anc,
        kernel_draws=y,
        steps_h=h_applied,
        levels=levels,
    )


def _stream(streams: DrawStreams | None, name: str, count: int):
    """``streams.<name>`` for ``count`` unforced draws; ValueError without streams."""
    if streams is None:
        forced = "forced_ancestors" if name == "ancestors" else "forced_draws"
        raise ValueError(f"streams is None, but {count} steps need draws that {forced} "
                         "does not give")
    return getattr(streams, name)


def _pick_ancestors(u: np.ndarray, s: int) -> np.ndarray:
    """1-based ancestors floor(u * n) + 1 of steps n = s, s+1, ... from the
    uniforms u (last axis over the steps)."""
    return (u * np.arange(s, s + u.shape[-1], dtype=np.int64)).astype(np.int64) + 1


# ------------------------------------------------------- seeded replications

# Cap on replications x length per ancestor block, so the memory of a block
# does not grow with the replication count.
BLOCK_ELEMENTS = 1 << 17


def ancestor_blocks(length: int, master_seed: int, replications: range, s: int = 1):
    """Yield ``(block, ancestors)`` per consecutive range ``block`` of
    max(1, BLOCK_ELEMENTS // length) replications, the last maybe short: the
    one loop over replication blocks.  Row i of the int64 (len(block),
    length - s) ``ancestors`` is ``traj.ancestors`` of ``simulate(...,
    length, DrawStreams.from_seed(master_seed, block[i]), prefix)`` for an
    s-point prefix (s = 1: the origin), read off that replication's ancestor
    stream alone.  ValueError if length < s.
    """
    if length < s:
        raise ValueError(f"length {length} is shorter than the {s} base points")
    size = max(1, BLOCK_ELEMENTS // length)
    for i in range(0, len(replications), size):
        block = replications[i : i + size]
        yield block, _pick_ancestors(ancestor_uniforms(master_seed, block, length - s), s)


def simulate_batch(
    flavor: str,
    h: np.ndarray,
    kernel: KernelSpec,
    length: int,
    master_seed: int,
    replications: range,
    data_prefix=None,
):
    """Yield the trajectory of each replication, in order; every run mode
    that builds points simulates through it.

    The steps read the head h_1..h_{length-1} of the run's bandwidths ``h``.
    The trajectory of replication r is ``simulate(flavor, schedule, kernel,
    length, DrawStreams.from_seed(master_seed, r), data_prefix)``: its
    ancestors are its row of an ``ancestor_blocks`` block, and its kernel
    variates come from its own re-keyed kernel stream, keyed block by block
    so memory stays bounded by ``BLOCK_ELEMENTS``.  Draws are consumed in
    step order, so the first m points of a longer trajectory are the m-point
    trajectory of the same replication.
    """
    prefix = _start(flavor, data_prefix, kernel.dim, length)
    h = leading(h, length - 1)
    s = prefix.shape[0]
    for block, ancestors in ancestor_blocks(length, master_seed, replications, s):
        for row, gen in zip(ancestors, kernel_streams(master_seed, block)):
            # Draw before the generator is re-keyed for the next replication;
            # the copy gives every trajectory a record of its own.
            y = kernel.sample(gen, size=length - s)
            yield _generate(flavor, h, prefix, row.copy(), y)


def chain_sum(base: np.ndarray, parents: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """Forward sums along an ancestry: rows below s = len(base) are ``base``,
    row s + i is ``out[parents[i]] + increments[i]``, with 0-based
    0 <= parents[i] < s + i.  Shapes are (s,)/(m,) or (s, d)/(m, d).

    Evaluated over ``level_order(parents, s)``: a row's parent lies one
    level up, so each level is one gather-and-add.  Every row is the same
    IEEE addition of the same two doubles as in the recursion as written,
    so the sums are bit for bit those of a forward loop.
    """
    return _sum_levels(base, increments, level_order(parents, base.shape[0]))


def level_order(parents: np.ndarray, s: int) -> LevelOrder:
    """Depth order of the generated rows s + i of a genealogy whose rows
    below s are roots and whose row s + i has the 0-based parent
    ``parents[i]``, which must be an earlier row (ValueError otherwise).

    Depths come from pointer jumping with distance doubling: every row
    adds the distance its pointer has covered and jumps to its pointer's
    pointer, until each pointer reaches a root; ~log2(height) rounds of
    integer arithmetic, so the depths are exact.  The rows are then
    stable-sorted on the narrowest unsigned key that holds the height.
    """
    parents = np.asarray(parents, dtype=np.int64)
    m = parents.shape[0]
    # Read as unsigned, a negative parent is huge: one comparison catches it
    # and a parent at or past its own row alike.
    if (parents.view(np.uint64) >= np.arange(s, s + m, dtype=np.uint64)).any():
        raise ValueError("every parent must be an earlier row: 0 <= parents[i] < s + i")
    up = np.concatenate((np.arange(s), parents))
    depth = np.ones(s + m, dtype=np.int64)
    depth[:s] = 0
    while up[s:].max(initial=0) >= s:
        depth += depth[up]
        up = up[up]
    key = depth[s:]
    key = key.astype(np.min_scalar_type(key.max(initial=0)))
    order = key.argsort(kind="stable")
    return LevelOrder(
        sources=parents[order],
        order=order,
        bounds=np.bincount(key).cumsum().tolist(),
    )


def _sum_levels(base: np.ndarray, increments: np.ndarray, levels: LevelOrder) -> np.ndarray:
    """``chain_sum`` over a precomputed level order of the same genealogy."""
    s = base.shape[0]
    out = np.empty((s + levels.order.size,) + base.shape[1:])
    out[:s] = base
    # One coordinate is gathered as scalars, faster than rows one wide.
    flat = out.reshape(out.shape[0], -1)
    if flat.shape[1] == 1:
        flat = flat.reshape(-1)
    inc = increments.reshape((levels.order.size,) + flat.shape[1:])[levels.order]
    generated = flat[s:]  # a view: row s + i is generated[i]
    order, sources, bounds = levels.order, levels.sources, levels.bounds
    for a, b in zip(bounds[:-1], bounds[1:]):
        generated[order[a:b]] = flat[sources[a:b]] + inc[a:b]
    return out


# -------------------------------------------------------------- derived views


def predictive_mixture(
    traj: Trajectory,
    h: np.ndarray,
    kernel: KernelSpec,
    at_time: int | None = None,
) -> PredictiveMixture:
    """Exact mixture form of the predictive law given the first ``at_time``
    points (default: the full trajectory), from the head h_1..h_n of ``h``:
    every component scaled by h_n (kde) or by its own h_i (recursive)."""
    n = len(traj) if at_time is None else int(at_time)
    if not 1 <= n <= len(traj):
        raise ValueError(f"time must be in [1, {len(traj)}], got {n}")
    scales = leading(h, n)
    if traj.flavor == "kde":
        scales = np.full(n, scales[n - 1])
    return PredictiveMixture(centers=traj.points[:n].copy(), scales=scales, kernel=kernel)


def cf_path(traj: Trajectory, t, kernel_cf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(phi, path) at a fixed t over n = 1..len(traj): the predictive-mixture
    CF phi_n, and the path the CF correction (``martingale.cf_corrections``)
    multiplies -- phi itself (recursive), or the phase mean psi_n = (1/n)
    sum_{i<=n} exp(i t'x_i), of which phi_n = phi_K(h_n t) psi_n (kde).

    ``kernel_cf`` is the kernel CF row phi_K(h_n t), which depends on no
    trajectory, so a run builds it once per t (``cf_corrections`` returns
    it).  One complex buffer takes the phases (times the row, recursive),
    their cumulative sum and the division by n in place: that running mean
    is the path, and kde's phi is the row times it.
    """
    n_max = len(traj)
    if np.shape(kernel_cf) != (n_max,):
        raise ValueError(
            f"kernel CF row has shape {np.shape(kernel_cf)}, the trajectory {n_max} points"
        )
    # Componentwise division: complex/real drops an ulp and phi(0) must be 1.
    counts = np.arange(1, n_max + 1, dtype=float)
    path = 1j * _inner(traj.points, frequency(t, traj.dim))
    np.exp(path, out=path)
    if traj.flavor == "recursive":
        path *= kernel_cf
    np.cumsum(path, out=path)
    path.real /= counts
    path.imag /= counts
    # kernel_cf on the left: numpy's complex multiply need not commute bit
    # for bit (it may fuse one product into the sum).
    phi = kernel_cf * path if traj.flavor == "kde" else path
    phi += 0.0  # -0.0 parts (an underflowed kernel CF times a mean) read 0.0
    return phi, path


def _inner(points: np.ndarray, t: np.ndarray) -> np.ndarray:
    """t'x per row of ``points``, summed over coordinates in order: a matmul's
    bits depend on the layout of t (BLAS or numpy's own loop)."""
    return sum((points[:, j] * t[j] for j in range(1, len(t))), points[:, 0] * t[0])


def dominating_path(traj: Trajectory) -> np.ndarray:
    """Pathwise dominating process: chain sums of h * ||kernel draw||, each
    chain started at its root's norm ||x_root|| (0 at the origin).

    Entry p bounds ||point p|| from above (triangle inequality along the
    ancestry), for a data prefix as for the origin.  The sums run over the
    level order the trajectory carries.
    """
    base = np.linalg.norm(traj.points[: traj.root_bound], axis=1)
    norm_inc = traj.steps_h * np.linalg.norm(traj.kernel_draws, axis=1)
    return _sum_levels(base, norm_inc, traj.levels)
