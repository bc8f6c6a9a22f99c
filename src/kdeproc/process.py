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
(:func:`chain_sum` does both for any genealogy).  Chain roots for the urn
laws come from ``urn.block_roots``.  :func:`reconstruct_from_genealogy` and
:func:`reconstruct_all` walk the chains separately on purpose: they are the
independent oracles the simulated points are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bandwidth import BandwidthSchedule, leading
from .errors import MissingGenealogy, NonFiniteInput, PrefixPointHasNoGenealogy
from .kernels import KernelSpec
from .streams import DrawStreams, ancestor_uniforms, replication_streams

FLAVORS = ("kde", "recursive")

# PredictiveMixture.quantile takes Newton steps for this many rounds and
# plain bisection after, so every level ends within _QUANTILE_ROUNDS rounds.
_NEWTON_ROUNDS = 100
_QUANTILE_ROUNDS = 200


@dataclass(frozen=True)
class LevelOrder:
    """The generated rows of a genealogy, stably sorted by depth below the
    base rows: the rows of depth k are ``rows[bounds[k - 1]:bounds[k]]``,
    with parents ``sources[...]`` and 0-based generation positions
    ``order[...]`` (row s + i is generated at position i)."""

    rows: np.ndarray     # (m,) int64, s + order
    sources: np.ndarray  # (m,) int64, parents[order]
    order: np.ndarray    # (m,) int64, generation positions sorted by depth
    bounds: list[int]    # [0, end of depth 1, end of depth 2, ...]


@dataclass(frozen=True)
class Trajectory:
    """A realized path with its complete generative record.

    Point index p and step index n are 1-based as in the recursions: step n
    consumes the state of length n and emits point p = n + 1.  Array slot
    ``n - 1`` of the genealogy arrays belongs to step n; slots covering
    injected data points hold 0 / NaN sentinels.
    """

    flavor: str
    points: np.ndarray        # (N, d) float
    ancestors: np.ndarray     # (N-1,) int64, 1-based ancestor index, 0 = no record
    kernel_draws: np.ndarray  # (N-1, d) float, NaN rows where no record
    steps_h: np.ndarray       # (N-1,) float, bandwidth applied, NaN where no record
    seed_prefix_len: int      # number of leading points injected as observed data
    # Depth order of the generated points below the prefix rows, shared by
    # every chain sum over this genealogy.
    levels: LevelOrder = field(compare=False, repr=False)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def root_bound(self) -> int:
        """Largest 1-based index with no generative record."""
        return max(1, self.seed_prefix_len)


@dataclass(frozen=True)
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
        upper = self.kernel.cdf1((hi[None, :] - self.centers) / s)
        lower = self.kernel.cdf1((lo[None, :] - self.centers) / s)
        per_component = np.prod(upper - lower, axis=1)
        return float(np.mean(per_component))

    def cf(self, t) -> complex:
        """Mixture characteristic function at t."""
        t = np.broadcast_to(np.asarray(t, dtype=float), (self.dim,))
        vals = np.exp(1j * (self.centers @ t)) * self.kernel.cf_scaled(t, self.scales)
        # Componentwise means: numpy's complex/real division can drop an ulp,
        # and the value at t = 0 must be exactly 1.
        return complex(np.mean(vals.real) + 1j * np.mean(vals.imag))

    def cdf(self, x) -> np.ndarray:
        """Univariate mixture CDF, vectorized over x (dimension 1 only)."""
        if self.dim != 1:
            raise ValueError("cdf is only defined for dimension 1")
        return np.mean(self.kernel.cdf1(self._standardized(x)), axis=-1)

    def _standardized(self, x) -> np.ndarray:
        """z[..., k] = (x - centers[k]) / scales[k], for dimension 1."""
        x = np.asarray(x, dtype=float)
        return (x[..., None] - self.centers[:, 0]) / self.scales

    def mean(self) -> np.ndarray:
        """Exact mixture mean: average center plus average scale times E[Y]."""
        return self.centers.mean(axis=0) + self.scales.mean() * self.kernel.mean_vector()

    def sample(self, rng, size: int) -> np.ndarray:
        """iid draws from the mixture, shape (size, d)."""
        idx = rng.integers(0, self.n_components, size=size)
        y = self.kernel.sample(rng, size=size)
        return self.centers[idx] + self.scales[idx, None] * y

    def quantile(self, q, tol: float = 1e-10):
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
        """
        if self.dim != 1:
            raise ValueError("quantile is only defined for dimension 1")
        levels = np.asarray(q, dtype=float)
        if not np.all((levels > 0.0) & (levels < 1.0)):
            raise ValueError(f"quantile levels must be in (0, 1), got {q}")
        qs = levels.ravel()
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
            probe = 0.5 * tol * (1.0 + np.abs(xl))
            # A zero or subnormal density gives an infinite or NaN step,
            # which the bracket test below turns into the midpoint.
            with np.errstate(all="ignore"):
                step = (ql - cdf) / density
                step = np.where(np.abs(step) < probe, np.where(below, probe, -probe), step)
                nxt = xl + step
            inside = (nxt > lo_l) & (nxt < hi_l) & (rounds < _NEWTON_ROUNDS)
            x[live] = np.where(inside, nxt, mid)
            live = live[hi_l - lo_l >= tol * (1.0 + np.abs(mid))]
            if live.size == 0:
                break
        out = (0.5 * (lo + hi)).reshape(levels.shape)
        return float(out) if out.ndim == 0 else out

    def _cdf_distinct(self, x: np.ndarray) -> np.ndarray:
        """cdf at each entry of x, evaluated once per distinct value."""
        points, inverse = np.unique(x, return_inverse=True)
        return self.cdf(points)[inverse]


# ------------------------------------------------------------------ building


def _start(flavor: str, data_prefix, dim: int, length: int) -> tuple[np.ndarray, int]:
    """(base points, seed_prefix_len) of a trajectory of ``length`` points:
    the data prefix as an (s, d) array, or the origin alone with length 0."""
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {FLAVORS}")
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
    return prefix, 0 if data_prefix is None else len(prefix)


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
    replace the corresponding random draws for deterministic replay.
    """
    prefix, seed_len = _start(flavor, data_prefix, kernel.dim, length)
    h = schedule.values(length - 1) if length > 1 else np.empty(0)
    return _generate(flavor, h, kernel, length, streams, prefix, seed_len,
                     forced_ancestors, forced_draws)


def _generate(flavor, h, kernel, length, streams, prefix, seed_len, forced_anc, forced_y):
    """The one generator behind ``simulate`` and ``simulate_batch``, from the
    checked base points and bandwidths covering h_1..h_{length-1}."""
    d = kernel.dim
    s = prefix.shape[0]
    count = length - s
    step_idx = np.arange(s, length, dtype=np.int64)  # 1-based step indices

    if forced_anc is not None:
        anc = np.asarray(forced_anc, dtype=np.int64)
        if anc.shape != (count,):
            raise ValueError(f"need {count} forced ancestors, got {anc.shape}")
        if np.any(anc < 1) or np.any(anc > step_idx):
            raise ValueError("forced ancestor out of range at some step")
    elif count:
        anc = _pick_ancestors(streams.ancestors.random(count), s)
    else:
        anc = np.zeros(0, dtype=np.int64)

    if forced_y is not None:
        y = np.asarray(forced_y, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        if y.shape != (count, d):
            raise ValueError(f"need forced draws of shape ({count}, {d}), got {y.shape}")
    elif count:
        y = kernel.sample(streams.kernel, size=count)
    else:
        y = np.zeros((0, d))

    h_applied = h[step_idx - 1] if flavor == "kde" else h[anc - 1]
    increments = h_applied[:, None] * y

    levels = level_order(anc - 1, s)
    points = _sum_levels(prefix, increments, levels)

    ancestors = np.zeros(length - 1, dtype=np.int64)
    draws = np.full((length - 1, d), np.nan)
    steps_h = np.full(length - 1, np.nan)
    ancestors[s - 1 :] = anc
    draws[s - 1 :] = y
    steps_h[s - 1 :] = h_applied

    return Trajectory(
        flavor=flavor,
        points=points,
        ancestors=ancestors,
        kernel_draws=draws,
        steps_h=steps_h,
        seed_prefix_len=seed_len,
        levels=levels,
    )


def _pick_ancestors(u: np.ndarray, s: int) -> np.ndarray:
    """1-based ancestors floor(u * n) + 1 of steps n = s, s+1, ... from the
    uniforms u (last axis over the steps)."""
    return (u * np.arange(s, s + u.shape[-1], dtype=np.int64)).astype(np.int64) + 1


# ------------------------------------------------------- seeded replications

# Cap on replications x length per ancestor block, so the memory of a block
# does not grow with the replication count.
BLOCK_ELEMENTS = 1 << 17


def replication_blocks(replications: range, length: int):
    """Split ``replications`` into consecutive ranges of at most
    max(1, BLOCK_ELEMENTS // length) replications."""
    size = max(1, BLOCK_ELEMENTS // max(length, 1))
    for i in range(0, len(replications), size):
        yield replications[i : i + size]


def ancestor_block(length: int, master_seed: int, replications: range) -> np.ndarray:
    """(R, length - 1) int64 1-based ancestors of steps 1..length-1, drawn
    from each replication's ancestor substream alone.

    Row i is ``traj.ancestors`` of ``simulate(..., length,
    DrawStreams.from_seed(master_seed, replications[i]))``.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    return _pick_ancestors(ancestor_uniforms(master_seed, replications, length - 1), 1)


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
    length, DrawStreams.from_seed(master_seed, r), data_prefix)``, drawn from
    re-keyed streams instead of two freshly seeded generators.  Draws are
    consumed in step order, so the first m points of a longer trajectory are
    the m-point trajectory of the same replication.
    """
    prefix, seed_len = _start(flavor, data_prefix, kernel.dim, length)
    h = leading(h, length - 1)
    for streams in replication_streams(master_seed, replications):
        yield _generate(flavor, h, kernel, length, streams, prefix, seed_len, None, None)


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
        rows=order + s,
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
    rows, sources, bounds = levels.rows, levels.sources, levels.bounds
    for a, b in zip(bounds[:-1], bounds[1:]):
        flat[rows[a:b]] = flat[sources[a:b]] + inc[a:b]
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


def cf_path(traj: Trajectory, t, kernel_cf: np.ndarray) -> np.ndarray:
    """Predictive-mixture CF at a fixed t for every time 1..len(traj).

    ``kernel_cf`` is the kernel CF row phi_K(h_n t), n = 1..len(traj).  It
    depends on no trajectory, so a run builds it once per t (the third
    result of ``martingale.cf_corrections``).  The path is one complex
    buffer: the phases, their cumulative sum and the division by n are
    written in place, so a whole path costs the same as one evaluation at
    the final time.
    """
    n_max = len(traj)
    if np.shape(kernel_cf) != (n_max,):
        raise ValueError(
            f"kernel CF row has shape {np.shape(kernel_cf)}, the trajectory {n_max} points"
        )
    t = np.broadcast_to(np.asarray(t, dtype=float), (traj.dim,))
    # At d = 1 the product is the matmul's one term, without its BLAS call.
    x = traj.points[:, 0] * t[0] if traj.dim == 1 else traj.points @ t
    phi = 1j * x
    np.exp(phi, out=phi)
    if traj.flavor == "kde":
        np.cumsum(phi, out=phi)
        # kernel_cf on the left: numpy's complex multiply need not commute
        # bit for bit (it may fuse one product into the sum).
        np.multiply(kernel_cf, phi, out=phi)
    else:
        phi *= kernel_cf
        np.cumsum(phi, out=phi)
    # Componentwise division: complex/real drops an ulp and phi(0) must be 1.
    counts = np.arange(1, n_max + 1, dtype=float)
    phi.real /= counts
    phi.imag /= counts
    phi += 0.0  # -0.0 parts (an underflowed kernel CF times a sum) read 0.0
    return phi


def reconstruct_from_genealogy(traj: Trajectory, n: int) -> np.ndarray:
    """Rebuild point n by summing scaled kernel draws along its ancestry.

    Walks the recorded chain back to a root (the origin or an injected data
    point); never reads the stored value of any generated point.
    """
    if not 1 <= n <= len(traj):
        raise ValueError(f"index must be in [1, {len(traj)}], got {n}")
    if 1 < n <= traj.seed_prefix_len:
        raise PrefixPointHasNoGenealogy(f"point {n} was injected as observed data")
    root = traj.root_bound
    acc = np.zeros(traj.dim)
    p = n
    while p > root:
        slot = p - 2
        acc += traj.steps_h[slot] * traj.kernel_draws[slot]
        p = int(traj.ancestors[slot])
    return traj.points[p - 1] + acc


def reconstruct_all(traj: Trajectory) -> np.ndarray:
    """Genealogy reconstruction of every point at once (vectorized walk)."""
    n_pts, d = traj.points.shape
    root = traj.root_bound
    p = np.arange(1, n_pts + 1, dtype=np.int64)
    acc = np.zeros((n_pts, d))
    active = np.nonzero(p > root)[0]
    while active.size:
        slots = p[active] - 2
        acc[active] += traj.steps_h[slots, None] * traj.kernel_draws[slots]
        p[active] = traj.ancestors[slots]
        active = active[p[active] > root]
    return traj.points[p - 1] + acc


def sup_norm_path(traj: Trajectory) -> np.ndarray:
    """Running maximum of the point norms; non-decreasing by construction."""
    return np.maximum.accumulate(np.linalg.norm(traj.points, axis=1))


def dominating_path(traj: Trajectory) -> np.ndarray:
    """Pathwise dominating process: chain sums of h * ||kernel draw||.

    Entry p bounds ||point p|| from above (triangle inequality along the
    ancestry).  Requires full genealogy, so any trajectory with injected
    data points is rejected: even one data point roots the chains away from
    the origin.  The sums run over the level order the trajectory carries.
    """
    if traj.seed_prefix_len:
        raise MissingGenealogy("dominating path needs ancestry for every point")
    norm_inc = traj.steps_h * np.linalg.norm(traj.kernel_draws, axis=1)
    return _sum_levels(np.zeros(1), norm_inc, traj.levels)


def write_csv(path, version: str, config_hash: str, columns) -> None:
    """Write one CSV artifact: the banner ``# kdeproc <version> config=<hash>``,
    then the header row and the data rows, each ending in ``\\r\\n``.

    ``columns`` maps each header name, in order, to an equal-length sequence
    of Python scalars (the ``.tolist()`` of an array); every cell is written
    as its ``repr``, and ``None`` as an empty cell.  Rows are streamed.
    """
    cells = [map(_csv_cell, col) for col in columns.values()]
    with open(path, "w", newline="") as fh:
        fh.write(f"# kdeproc {version} config={config_hash}\n")
        fh.write(",".join(columns) + "\r\n")
        fh.writelines(map("{}\r\n".format, map(",".join, zip(*cells, strict=True))))


def _csv_cell(v) -> str:
    return "" if v is None else repr(v)


def write_trajectory_csv(traj: Trajectory, path, version: str, config_hash: str) -> None:
    """Dump a trajectory: step, ancestor, h_used, y_1..y_d, x_1..x_d.

    Rows for the origin / injected data carry empty ancestor, h and y fields.
    The first line records the tool version and configuration hash.
    """
    # Slot p - 2 of the genealogy arrays belongs to point p; points up to
    # root_bound have no record.
    gap = [None] * traj.root_bound
    slots = slice(traj.root_bound - 1, None)
    columns = {
        "step": range(1, len(traj) + 1),
        "ancestor": gap + traj.ancestors[slots].tolist(),
        "h_used": gap + traj.steps_h[slots].tolist(),
    }
    for j, col in enumerate(traj.kernel_draws[slots].T.tolist(), start=1):
        columns[f"y_{j}"] = gap + col
    for j, col in enumerate(traj.points.T.tolist(), start=1):
        columns[f"x_{j}"] = col
    write_csv(path, version, config_hash, columns)
