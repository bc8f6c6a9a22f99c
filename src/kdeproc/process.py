"""Simulation of the two kernel predictive processes with full genealogy.

Both processes share the generative skeleton, which :func:`simulate` alone
takes: at step n an ancestor index is drawn uniformly from {1..n}, a kernel
variate is drawn, and the new point is the ancestor plus a scaled variate.
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
chain sums) goes through :func:`chain_sum`; chain roots for the urn laws
come from ``urn.block_roots``.  :func:`reconstruct_from_genealogy` and
:func:`reconstruct_all` walk the chains separately on purpose: they are the
independent oracles :func:`chain_sum` is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bandwidth import BandwidthSchedule
from .errors import MissingGenealogy, NonFiniteInput, PrefixPointHasNoGenealogy
from .kernels import KernelSpec
from .streams import DrawStreams, ancestor_uniforms, replication_streams

FLAVORS = ("kde", "recursive")

# PredictiveMixture.quantile takes Newton steps for this many rounds and
# plain bisection after, so every level ends within _QUANTILE_ROUNDS rounds.
_NEWTON_ROUNDS = 100
_QUANTILE_ROUNDS = 200


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


def _as_prefix(data_prefix, dim: int) -> np.ndarray:
    pts = np.asarray(data_prefix, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("data prefix must be a non-empty sequence of points")
    if pts.shape[1] != dim:
        raise ValueError(f"data prefix has dimension {pts.shape[1]}, expected {dim}")
    if not np.all(np.isfinite(pts)):
        raise NonFiniteInput("data prefix contains NaN or infinite coordinates")
    return pts


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
    if flavor not in FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}; expected one of {FLAVORS}")
    d = kernel.dim
    if data_prefix is None:
        prefix = np.zeros((1, d))
        seed_len = 0
    else:
        prefix = _as_prefix(data_prefix, d)
        seed_len = prefix.shape[0]
    s = prefix.shape[0]
    if length < s:
        raise ValueError(f"length {length} shorter than the prefix ({s} points)")
    count = length - s
    step_idx = np.arange(s, length, dtype=np.int64)  # 1-based step indices

    if forced_ancestors is not None:
        anc = np.asarray(forced_ancestors, dtype=np.int64)
        if anc.shape != (count,):
            raise ValueError(f"need {count} forced ancestors, got {anc.shape}")
        if np.any(anc < 1) or np.any(anc > step_idx):
            raise ValueError("forced ancestor out of range at some step")
    elif count:
        anc = _pick_ancestors(streams.ancestors.random(count), s)
    else:
        anc = np.zeros(0, dtype=np.int64)

    if forced_draws is not None:
        y = np.asarray(forced_draws, dtype=float)
        if y.ndim == 1:
            y = y[:, None]
        if y.shape != (count, d):
            raise ValueError(f"need forced draws of shape ({count}, {d}), got {y.shape}")
    elif count:
        y = kernel.sample(streams.kernel, size=count)
    else:
        y = np.zeros((0, d))

    if length > 1:
        h_all = schedule.values(length - 1)
    else:
        h_all = np.zeros(0)
    if count:
        h_applied = h_all[step_idx - 1] if flavor == "kde" else h_all[anc - 1]
    else:
        h_applied = np.zeros(0)
    increments = h_applied[:, None] * y

    points = chain_sum(prefix, anc - 1, increments)

    ancestors = np.zeros(length - 1, dtype=np.int64)
    draws = np.full((length - 1, d), np.nan)
    steps_h = np.full(length - 1, np.nan)
    if count:
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
    schedule: BandwidthSchedule,
    kernel: KernelSpec,
    length: int,
    master_seed: int,
    replications: range,
    data_prefix=None,
):
    """Yield the trajectory of each replication, in order; every run mode
    that builds points simulates through it.

    The trajectory of replication r is ``simulate(flavor, schedule, kernel,
    length, DrawStreams.from_seed(master_seed, r), data_prefix)``, drawn from
    re-keyed streams instead of two freshly seeded generators.  Draws are
    consumed in step order, so the first m points of a longer trajectory are
    the m-point trajectory of the same replication.
    """
    for streams in replication_streams(master_seed, replications):
        yield simulate(flavor, schedule, kernel, length, streams, data_prefix)


def chain_sum(base: np.ndarray, parents: np.ndarray, increments: np.ndarray) -> np.ndarray:
    """Forward sums along an ancestry: rows below s = len(base) are ``base``,
    row s + i is ``out[parents[i]] + increments[i]``, with 0-based
    0 <= parents[i] < s + i.  Shapes are (s,)/(m,) or (s, d)/(m, d).

    One forward loop over plain lists per coordinate: several times faster
    than ndarray scalar indexing, and every sum runs root to leaf.
    """
    s = base.shape[0]
    rows = parents.tolist()
    cols = base.reshape(s, -1).T.tolist()
    for buf, inc in zip(cols, increments.reshape(len(rows), len(cols)).T.tolist()):
        append = buf.append
        for p, v in zip(rows, inc):
            append(buf[p] + v)
    # The copy turns the transposed columns back into C-ordered rows.
    return np.array(cols).T.copy().reshape((-1,) + base.shape[1:])


# -------------------------------------------------------------- derived views


def predictive_mixture(
    traj: Trajectory,
    schedule: BandwidthSchedule,
    kernel: KernelSpec,
    at_time: int | None = None,
) -> PredictiveMixture:
    """Exact mixture form of the predictive law given the first ``at_time``
    points (default: the full trajectory)."""
    n = len(traj) if at_time is None else int(at_time)
    if not 1 <= n <= len(traj):
        raise ValueError(f"time must be in [1, {len(traj)}], got {n}")
    centers = traj.points[:n].copy()
    if traj.flavor == "kde":
        scales = np.full(n, schedule.at(n))
    else:
        scales = schedule.values(n)
    return PredictiveMixture(centers=centers, scales=scales, kernel=kernel)


def cf_path(
    traj: Trajectory,
    schedule: BandwidthSchedule,
    kernel: KernelSpec,
    t,
    upto: int | None = None,
) -> np.ndarray:
    """Predictive-mixture CF at a fixed t for every time 1..upto.

    Uses cumulative phase sums, so a whole path costs the same as one
    evaluation at the final time.
    """
    n_max = len(traj) if upto is None else int(upto)
    if not 1 <= n_max <= len(traj):
        raise ValueError(f"horizon must be in [1, {len(traj)}], got {n_max}")
    t = np.broadcast_to(np.asarray(t, dtype=float), (traj.dim,))
    phases = np.exp(1j * (traj.points[:n_max] @ t))
    h = schedule.values(n_max)
    counts = np.arange(1, n_max + 1, dtype=float)
    if traj.flavor == "kde":
        sums = kernel.cf_scaled(t, h) * np.cumsum(phases)
    else:
        sums = np.cumsum(phases * kernel.cf_scaled(t, h))
    # Componentwise division: complex/real drops an ulp and phi(0) must be 1.
    return sums.real / counts + 1j * (sums.imag / counts)


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
    the origin.
    """
    if traj.seed_prefix_len:
        raise MissingGenealogy("dominating path needs ancestry for every point")
    norm_inc = traj.steps_h * np.linalg.norm(traj.kernel_draws, axis=1)
    return chain_sum(np.zeros(1), traj.ancestors - 1, norm_inc)


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
