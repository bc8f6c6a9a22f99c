"""Experiment orchestration: seeded runs, diagnostics reports, artifacts.

Every run mode is a pure function of the configuration: replication r draws
its two streams from (master_seed, r), and re-running any subset of
replications reproduces their outputs byte for byte.  Every artifact is
written here, by ``_write_csv`` (trajectories through
``_write_trajectory_csv``) or ``_write_json``, which stamp it with the tool
version and the configuration hash and put it under the run's output
directory: a run mode takes the configuration alone.

SciPy is imported as the bare package and each subpackage is named at its
call, so a mode loads only the subpackages it evaluates: ``simulate`` none,
and only an anchored urn run loads ``scipy.stats``, for its KS test.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import scipy

from . import __version__ as _VERSION
from . import martingale as mg
from .config import ExperimentConfig, artifact_label
from .errors import ConfigError
from .process import (
    FLAVORS,
    Trajectory,
    ancestor_blocks,
    cf_path,
    dominating_path,
    predictive_mixture,
    simulate_batch,
)
from .urn import (
    anchor_fractions,
    betabinom_pmf_vector,
    descendant_tail_bound,
    window_roots,
)


# ------------------------------------------------------------------ reports


def _open_artifact(config: ExperimentConfig, name: str):
    """Artifact ``name`` under ``Path(config.base_dir) / config.output_dir``,
    opened for writing; the directory is made at the first write.  A
    directory that cannot be made or a file that cannot be opened is a
    ConfigError naming the path."""
    path = Path(config.base_dir) / config.output_dir / name
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        return open(path, "w", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}: {exc.filename}") from None


def _write_json(config: ExperimentConfig, name: str, body: dict) -> dict:
    """Write the JSON artifact ``name``: the provenance keys (tool, version,
    config hash and the echoed config), then ``body``.  Returns the payload."""
    payload = {
        "tool": "kdeproc",
        "version": _VERSION,
        "config_hash": config.config_hash(),
        "config": config.to_echo(),
        **body,
    }
    with _open_artifact(config, name) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def _write_csv(config: ExperimentConfig, name: str, columns) -> None:
    """Write the CSV artifact ``name``: the banner ``# kdeproc <version>
    config=<hash>``, then the header row and the data rows, each ending in
    ``\\r\\n``.

    ``columns`` maps each header name, in order, to an equal-length sequence
    of numbers (the ``.tolist()`` of an array) or ``""`` for an empty cell;
    every cell is written as its ``str``.  Rows are streamed.
    """
    cells = [map(str, col) for col in columns.values()]
    with _open_artifact(config, name) as fh:
        fh.write(f"# kdeproc {_VERSION} config={config.config_hash()}\n")
        fh.write(",".join(columns) + "\r\n")
        fh.writelines(map("{}\r\n".format, map(",".join, zip(*cells, strict=True))))


def _write_trajectory_csv(config: ExperimentConfig, name: str, traj: Trajectory) -> None:
    """Dump a trajectory: step, ancestor, h_used, y_1..y_d, x_1..x_d.

    Rows for the origin / injected data carry empty ancestor, h and y fields.
    """
    gap = [""] * traj.root_bound
    columns = {
        "step": range(1, len(traj) + 1),
        "ancestor": gap + traj.ancestors.tolist(),
        "h_used": gap + traj.steps_h.tolist(),
    }
    for j, col in enumerate(traj.kernel_draws.T.tolist(), start=1):
        columns[f"y_{j}"] = gap + col
    for j, col in enumerate(traj.points.T.tolist(), start=1):
        columns[f"x_{j}"] = col
    _write_csv(config, name, columns)


def _bound_entry(name: str, statistic: float, threshold: float, **details) -> dict:
    """A check entry: it passes when its statistic is at most its threshold,
    so a NaN statistic fails."""
    return {
        "name": name,
        "statistic": float(statistic),
        "threshold": float(threshold),
        "passed": bool(statistic <= threshold),
        **details,
    }


# ---------------------------------------------------------------- run modes


def run_simulate(config: ExperimentConfig) -> dict:
    radii = []
    finals = []
    files = []
    data = config.data
    # h_1..h_{N-1}, the bandwidths of the steps: one read per run.
    h = config.schedule.values(config.steps - 1)
    trajectories = simulate_batch(
        config.flavor, h, config.kernel, config.steps, config.master_seed,
        range(config.replications), data,
    )
    for r, traj in enumerate(trajectories):
        name = f"trajectory_{r:05d}.csv"
        _write_trajectory_csv(config, name, traj)
        files.append(name)
        radii.append(float(np.max(np.linalg.norm(traj.points, axis=1))))
        finals.append([float(v) for v in traj.points[-1]])
    return _write_json(config, "run_summary.json", {
        "trajectory_files": files,
        "support_radius_per_replication": radii,
        "support_radius_estimate": max(radii),
        "final_points": finals,
    })


def _refuse_data(config: ExperimentConfig, mode: str, reason: str) -> None:
    """Modes that run from the origin alone end with a config error on
    ``data.path`` rather than ignore it."""
    if config.data_path is not None:
        raise ConfigError(f"{mode} mode takes no data.path: {reason}")


def _require_t_grid(config: ExperimentConfig, mode: str) -> None:
    """Modes that read the CF at each t of diagnostics.t_grid need one."""
    if not config.t_grid:
        raise ConfigError(f"{mode} mode needs a non-empty diagnostics.t_grid")


def _cf_gap(phis, a: int, b: int) -> float:
    """max over t of |phi_a(t) - phi_b(t)|, given each t's ``cf_path``."""
    return max(abs(phi[a - 1] - phi[b - 1]) for phi in phis)


def _martingale_setup(config: ExperimentConfig, mode: str):
    """The schedule's one read h_1..h_{N+s} and each t's ``cf_corrections``
    for the martingale modes, after the guards both share."""
    _require_t_grid(config, mode)
    _refuse_data(config, mode, "its compensators and CF corrections are written from n = 1")
    if config.steps < 2:
        raise ConfigError(f"{mode} mode needs run.steps >= 2, got {config.steps}")
    # The CF product past N follows the bandwidth law: a table, which has
    # none, raises NoEnvelope here, before any of its entries is read.
    config.schedule.law(config.steps + 1.0)
    h = config.schedule.values(config.steps + mg.BANDWIDTH_SHIFT[config.flavor])
    corrections = [
        mg.cf_corrections(config.schedule, h, config.kernel, t, config.steps, config.flavor)
        for t in config.t_grid
    ]
    return h, corrections


def _dominating_mean(traj: Trajectory) -> tuple[np.ndarray, np.ndarray]:
    """U, the dominating chain sums of a trajectory, and J, their running mean."""
    u = dominating_path(traj)
    return u, np.cumsum(u) / np.arange(1, len(u) + 1, dtype=float)


def run_diagnose(config: ExperimentConfig) -> dict:
    kernel = config.kernel
    if not kernel.has_norm_survival:
        raise ConfigError(
            "diagnose mode needs the norm law of the kernel for its tail bound check; "
            f"{config.kernel_family} has one only at kernel.dimension = 1"
        )
    flavor = config.flavor
    n_pts = config.steps
    reps = config.replications
    drift_times = [n for n in config.drift_times if n < n_pts]
    dropped = ", ".join(str(n) for n in config.drift_times if n >= n_pts)
    if config.drift_times and not drift_times:
        raise ConfigError("all diagnostics.drift_times lie beyond run.steps - 1")
    h, corrections = _martingale_setup(config, "diagnose")
    checkpoints = list(config.checkpoints) or [
        max(1, n_pts // 10), max(1, n_pts // 4), max(1, n_pts // 2)
    ]
    can_drift = reps >= mg.MIN_REPLICATIONS
    comp = mg.compensator_values(flavor, h, kernel.norm_mean, n_pts - 1)
    # |S_n| = |P_n| |path_n| <= |P_n| for either flavor.
    cf_bound = max(float(np.max(np.abs(corr))) for corr, _ in corrections)

    # Per-replication martingale increments S_{n+1} - S_n and Markov tail
    # excesses at each drift time, indexed [drift time, replication] and
    # [t, drift time, replication].
    times = np.array(drift_times, dtype=np.int64)
    # (n+1) c_n = E[U_{n+1} | F_n] - J_n, so (J_n + (n+1) c_n) / threshold
    # is the Markov bound on the tail mass.
    mean_gain = (times + 1) * comp[times - 1]
    tight_inc = np.empty((times.size, reps))
    cf_inc = np.empty((len(config.t_grid), times.size, reps), dtype=complex)
    cf_dist = np.empty((len(checkpoints), reps))
    radii = np.empty(reps)
    tail_excess = np.empty((times.size, reps))
    dominance_violation = -np.inf
    cf_bound_worst = -np.inf

    trajectories = simulate_batch(flavor, h, kernel, n_pts, config.master_seed, range(reps))
    for r, traj in enumerate(trajectories):
        u, j = _dominating_mean(traj)
        norms = np.linalg.norm(traj.points, axis=1)
        radii[r] = float(np.max(norms))
        dominance_violation = max(dominance_violation, float(np.max(norms - u)))
        # S_{n+1} - S_n = J_{n+1} - J_n - c_n; the common tail cancels.
        tight_inc[:, r] = j[times] - j[times - 1] - comp[times - 1]
        paths = [cf_path(traj, t, row) for t, (_, row) in zip(config.t_grid, corrections)]
        for k, n in enumerate(checkpoints):
            cf_dist[k, r] = _cf_gap([phi for phi, _ in paths], n, n_pts)
        for i, ((corr, _), (_, path)) in enumerate(zip(corrections, paths)):
            s_vals = corr * path
            cf_bound_worst = max(cf_bound_worst, float(np.max(np.abs(s_vals))))
            cf_inc[i, :, r] = s_vals[times] - s_vals[times - 1]
        threshold = config.tail_threshold_factor * max(j[-1], 1e-12)
        tail_mass = mg.dominating_tail_mass(flavor, u, h, kernel, threshold, times)
        tail_excess[:, r] = tail_mass - (j[times - 1] + mean_gain) / threshold

    drift_tests = []
    urn_tests = []
    notes = {}
    if dropped:
        notes["drift_times"] = f"skipped: {dropped} beyond run.steps - 1 = {n_pts - 1}"
    if can_drift:
        for k, n in enumerate(drift_times):
            tested = [(f"drift:tightness:n={n}", tight_inc[k])]
            tested += [(f"drift:cf:n={n}:t={artifact_label(t)}", cf_inc[i, k])
                       for i, t in enumerate(config.t_grid)]
            drift_tests += [
                _bound_entry(name, threshold=mg.DRIFT_FLAG_THRESHOLD, **mg.drift_test(inc))
                for name, inc in tested
            ]
        # R >= 100 expects R/3 to R/2 at k = 0 and the rest past it, so
        # bins >= 2 and the critical value is finite.
        for size, hist in _urn_tallies(config, config.urn_window_sizes)[0]:
            chi = _chi_square_merged(hist, betabinom_pmf_vector(size) * reps)
            threshold = scipy.special.chdtri(chi["bins"] - 1, 0.001)
            urn_tests.append(_bound_entry(
                f"urn_descendant_law:n={size}", chi["statistic"], threshold,
                p_value=chi["p_value"], bins=chi["bins"],
            ))
    else:
        skipped = f"skipped: replications={reps} below the minimum of {mg.MIN_REPLICATIONS}"
        notes["drift_tests"] = skipped
        if config.urn_window_sizes:
            notes["urn_tests"] = skipped
    means = [float(np.mean(dist)) for dist in cf_dist]
    increases = [b - a for a, b in zip(means, means[1:])]
    return _write_json(config, "diagnostics.json", {
        "drift_tests": drift_tests,
        "bound_checks": [
            _bound_entry("pathwise_dominance", dominance_violation, 1e-12),
            _bound_entry(
                "cf_martingale_modulus",
                cf_bound_worst - cf_bound,
                1e-10,
                modulus_sup=cf_bound_worst,
                allowed=cf_bound,
            ),
            _bound_entry(
                "dominating_tail_markov",
                float(np.max(tail_excess)) if times.size else 0.0,
                mg.TAIL_BOUND_TOLERANCE,
            ),
        ],
        "cf_convergence": _bound_entry(
            "cf_distance_to_final",
            max(increases) if increases else 0.0,
            0.0,
            checkpoints=checkpoints,
            mean_distance=means,
        ),
        "urn_tests": urn_tests,
        "support_radius_estimate": float(np.max(radii)),
        "support_radius_mean": float(np.mean(radii)),
        "notes": notes,
    })


def _urn_tallies(config: ExperimentConfig, windows, anchor=None, horizon=None):
    """Point 1's descendant-count histogram over k = 0..n per window n, as
    (n, counts) pairs, and, given an anchor, each replication's anchor
    fraction at the horizon.

    Read off the ancestor streams alone, one ``ancestor_blocks`` block of
    replications at a time, so memory stays bounded by ``BLOCK_ELEMENTS``.
    One genealogy per replication serves every window and the fraction.
    """
    reps = config.replications
    length = max([2 * n for n in windows] + [1 if anchor is None else horizon])
    counts = [(n, np.zeros(n + 1, dtype=np.int64)) for n in windows]
    finals = np.empty(reps)
    for block, anc in ancestor_blocks(length, config.master_seed, range(reps)):
        for n, hist in counts:
            hist += np.bincount((window_roots(anc, n) == 0).sum(axis=1), minlength=n + 1)
        if anchor is not None:
            finals[block.start : block.stop] = anchor_fractions(anc, anchor, horizon)
    return counts, finals


def run_urn(config: ExperimentConfig) -> dict:
    _refuse_data(config, "urn", "the descendant laws hold for a fully generated genealogy")
    reps = config.replications
    anchor = config.urn_anchor
    if not config.urn_window_sizes and anchor is None:
        raise ConfigError("urn mode needs urn.window_sizes or urn.anchor")
    horizon = config.steps if config.urn_fraction_horizon is None else config.urn_fraction_horizon
    # The urn laws read no point, so no kernel variate is drawn.
    counts, finals = _urn_tallies(config, config.urn_window_sizes, anchor, horizon)
    names = ("n", "k", "exact_pmf", "empirical_freq", "tail_exact", "tail_bound")
    table = {name: [] for name in names}
    chi_results = {}
    for n, hist in counts:
        pmf = betabinom_pmf_vector(n)
        table["n"] += [n] * (n + 1)
        table["k"] += range(n + 1)
        table["exact_pmf"] += pmf.tolist()
        table["empirical_freq"] += (hist / reps).tolist()
        table["tail_exact"] += np.cumsum(pmf[::-1])[::-1].tolist()
        table["tail_bound"] += [descendant_tail_bound(n, k) for k in range(n + 1)]
        chi_results[str(n)] = _chi_square_merged(hist, pmf * reps)
    body = {"chi_square": chi_results}
    if anchor is not None:
        ks = scipy.stats.kstest(finals, scipy.stats.beta(1, anchor - 1).cdf)
        body["fraction_limit"] = {
            "anchor": anchor,
            "horizon": horizon,
            "ks_statistic": float(ks.statistic),
            "p_value": float(ks.pvalue),
        }
    _write_csv(config, "urn.csv", table)
    return _write_json(config, "urn_summary.json", body)


def _chi_square_merged(counts: np.ndarray, expected: np.ndarray) -> dict:
    """Chi-square with tail bins merged until every expected count is at least 5."""
    obs = [0.0]
    exp = [0.0]
    for o, e in zip(counts, expected):
        obs[-1] += o
        exp[-1] += e
        if exp[-1] >= 5.0:
            obs.append(0.0)
            exp.append(0.0)
    if exp[-1] < 5.0 and len(exp) > 1:
        obs[-2] += obs[-1]
        exp[-2] += exp[-1]
        obs.pop()
        exp.pop()
    if len(obs) < 2:
        return {"statistic": 0.0, "p_value": 1.0, "bins": len(obs)}
    statistic, p_value = _chi_square(np.array(obs), np.array(exp))
    return {"statistic": statistic, "p_value": p_value, "bins": len(obs)}


def _chi_square(observed: np.ndarray, expected: np.ndarray) -> tuple[float, float]:
    """Pearson's statistic and upper-tail p-value on len - 1 degrees of
    freedom: the same floats as ``scipy.stats.chisquare``, including its
    check that both tables sum alike, without its argument handling."""
    total_obs, total_exp = observed.sum(), expected.sum()
    rtol = np.sqrt(np.finfo(float).eps)
    if abs(total_obs - total_exp) / min(total_obs, total_exp) > rtol:
        raise ValueError(
            f"observed and expected counts sum to {total_obs!r} and {total_exp!r}, "
            f"which differ by more than {rtol:.3g} relative"
        )
    statistic = np.sum((observed - expected) ** 2 / expected)
    return float(statistic), float(scipy.special.chdtrc(len(observed) - 1, statistic))


def _record_stats(traj: Trajectory) -> tuple[int, float, float]:
    """(last strict-record index, final max, full/first-half max ratio) of
    the running maximum of the point norms."""
    norms = np.linalg.norm(traj.points, axis=1)
    run_max = np.maximum.accumulate(norms)
    strict = np.flatnonzero(norms[1:] > run_max[:-1]) + 1
    last_record = int(strict[-1]) + 1 if strict.size else 1  # 1-based point index
    half = len(traj) // 2
    ratio = float(run_max[-1] / run_max[half - 1]) if run_max[half - 1] > 0 else np.inf
    return last_record, float(run_max[-1]), ratio


def _two_proportion_one_sided(k1: int, n1: int, k2: int, n2: int) -> tuple[float, float]:
    """z and p-value for H1: proportion 1 > proportion 2 (pooled variance)."""
    p1, p2 = k1 / n1, k2 / n2
    pooled = (k1 + k2) / (n1 + n2)
    var = pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2)
    if var == 0.0:
        return 0.0, 0.5
    z = (p1 - p2) / np.sqrt(var)
    # The upper normal tail: scipy.stats' norm.sf is this call plus dispatch.
    return float(z), float(scipy.special.ndtr(-z))


def run_contrast(config: ExperimentConfig) -> dict:
    """Run both flavors on the non-negative kernel and compare how often the
    running maximum still sets records in the second half of the run.

    ``p_value`` is the one-sided two-proportion test of the frozen-bandwidth
    flavor producing late records more often than the shared-bandwidth one.
    Replication r of both flavors shares its ancestors and kernel draws, so
    (Y >= 0, h_A >= h_n) each recursive point is at least its kde twin: the
    maxima are ordered by construction, no evidence about the supports.
    The first half must reach past the origin, whose norm 0 would make the
    support ratio infinite, so the run needs at least 4 steps.
    """
    _refuse_data(config, "contrast", "both flavors run from the origin alone")
    kernel = config.kernel
    if kernel.family != "half_normal":
        raise ConfigError("the support contrast is defined for the half_normal kernel")
    if config.steps < 4:
        raise ConfigError(f"the support contrast needs run.steps >= 4, got {config.steps}")
    h = config.schedule.values(config.steps - 1)  # both flavors step with h_1..h_{N-1}
    reps = config.replications
    sides = {}
    for flavor in FLAVORS:
        trajectories = simulate_batch(
            flavor, h, kernel, config.steps, config.master_seed, range(reps)
        )
        records = [_record_stats(traj) for traj in trajectories]
        last_records, final_max, ratios = (np.array(col, dtype=float) for col in zip(*records))
        late = int(np.count_nonzero(last_records > config.steps // 2))
        sides[flavor] = {
            "flavor": flavor,
            "replications": reps,
            "last_half_record_count": late,
            "last_half_record_fraction": late / reps,
            "mean_last_record_index": float(last_records.mean()),
            "mean_final_max": float(final_max.mean()),
            "mean_support_ratio": float(ratios.mean()),
        }
    z, p = _two_proportion_one_sided(
        sides["recursive"]["last_half_record_count"], reps,
        sides["kde"]["last_half_record_count"], reps,
    )
    return _write_json(config, "contrast.json", {**sides, "z_statistic": z, "p_value": p})


def _spreads(values: np.ndarray) -> list:
    """Column std (ddof 1), taken on each column scaled by an exact power of
    two to a largest |value| in [1/2, 1), so no square overflows and every
    finite spread keeps its bytes."""
    _, exponent = np.frexp(np.abs(values).max(axis=0))
    return [float(v) for v in np.ldexp(np.ldexp(values, -exponent).std(axis=0, ddof=1), exponent)]


def run_posterior(config: ExperimentConfig) -> dict:
    if config.data_path is None:
        raise ConfigError("posterior mode needs data.path")
    _require_t_grid(config, "posterior")
    data = config.data
    kernel = config.kernel
    d = config.kernel_dimension
    has_box = config.posterior_box_lo is not None and config.posterior_box_hi is not None
    if len(config.checkpoints) >= 2:
        conv_pair = (config.checkpoints[-2], config.checkpoints[-1])
    else:
        conv_pair = (max(1, config.steps // 2), config.steps)

    means = np.empty((config.replications, d))
    conv = np.empty(config.replications)
    quantiles = np.empty((config.replications, len(config.posterior_quantiles)))
    box_probs = np.empty(config.replications)
    # One read of h_1..h_N for the steps, the kernel CF rows and the mixtures.
    h = config.schedule.values(config.steps)
    kernel_cfs = [kernel.cf_scaled(t, h) for t in config.t_grid]
    trajectories = simulate_batch(
        config.flavor, h, kernel, config.steps, config.master_seed,
        range(config.replications), data,
    )
    for r, traj in enumerate(trajectories):
        mix = predictive_mixture(traj, h, kernel)
        means[r] = mix.mean()
        if d == 1:
            quantiles[r] = mix.quantile(config.posterior_quantiles)
        if has_box:
            box_probs[r] = mix.prob(config.posterior_box_lo, config.posterior_box_hi)
        phis = [cf_path(traj, t, row)[0] for t, row in zip(config.t_grid, kernel_cfs)]
        conv[r] = _cf_gap(phis, *conv_pair)

    columns = {"replication": range(config.replications)}
    for jdx, col in enumerate(means.T.tolist(), start=1):
        columns[f"mean_{jdx}"] = col
    if d == 1:
        for q, col in zip(config.posterior_quantiles, quantiles.T.tolist()):
            columns[f"q{artifact_label(q)}"] = col
    if has_box:
        columns["box_prob"] = box_probs.tolist()
    columns["cf_convergence_gap"] = conv.tolist()
    _write_csv(config, "posterior.csv", columns)

    body = {
        "data_points": len(data),
        "posterior_mean": [float(v) for v in means.mean(axis=0)],
        "posterior_mean_spread": _spreads(means) if config.replications > 1 else [0.0] * d,
        "cf_convergence_gap_mean": float(conv.mean()),
        "convergence_checkpoints": list(conv_pair),
    }
    if d == 1:
        body["quantile_levels"] = list(config.posterior_quantiles)
        body["quantile_means"] = [float(v) for v in quantiles.mean(axis=0)]
        if config.replications > 1:
            body["quantile_spreads"] = _spreads(quantiles)
    return _write_json(config, "posterior_summary.json", body)


def run_cf_trace(config: ExperimentConfig) -> dict:
    h, corrections = _martingale_setup(config, "cf-trace")
    n_pts = config.steps
    kernel = config.kernel
    traj = next(simulate_batch(config.flavor, h, kernel, n_pts, config.master_seed, range(1)))
    u, j = _dominating_mean(traj)
    tight = j + mg.compensator_tails(config.flavor, config.schedule, h, kernel.norm_mean, n_pts)
    summary_traces = {}
    for t, (corr, row) in zip(config.t_grid, corrections):
        phi, path = cf_path(traj, t, row)
        s_vals = corr * path
        name = f"cf_trace_t{artifact_label(t)}.csv"
        columns = {
            "step": range(1, n_pts + 1),
            "U": u.tolist(),
            "J": j.tolist(),
            "S": tight.tolist(),
            "phi_re": phi.real.tolist(),
            "phi_im": phi.imag.tolist(),
            "S_re": s_vals.real.tolist(),
            "S_im": s_vals.imag.tolist(),
        }
        _write_csv(config, name, columns)
        summary_traces[artifact_label(t)] = {
            "file": name,
            "correction_sup": float(np.max(np.abs(corr))),
            "martingale_modulus_sup": float(np.max(np.abs(s_vals))),
        }
    return _write_json(config, "cf_trace_summary.json", {"traces": summary_traces})


_RUNNERS = {
    "simulate": run_simulate,
    "diagnose": run_diagnose,
    "urn": run_urn,
    "contrast": run_contrast,
    "posterior": run_posterior,
    "cf-trace": run_cf_trace,
}
MODES = tuple(_RUNNERS)


def run(config: ExperimentConfig, mode: str):
    """Execute one mode and return its summary payload.  Its artifacts go
    under ``Path(config.base_dir) / config.output_dir``, which the first
    artifact write makes, so a refused run leaves none.  An output directory
    that is or lies under a file, or whose nearest existing directory this
    process cannot write into, is refused before any work; one that cannot be
    written for another reason fails at the first write."""
    if mode not in _RUNNERS:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    out = Path(config.base_dir) / config.output_dir
    existing = next(path for path in (out, *out.parents) if path.exists())
    if not existing.is_dir():
        raise ConfigError(f"cannot write {out}: Not a directory: {existing}")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise ConfigError(f"cannot write {out}: Permission denied: {existing}")
    return _RUNNERS[mode](config)
