"""Experiment orchestration: seeded runs, diagnostics reports, artifacts.

Every run mode is a pure function of the configuration: replication r draws
its two substreams from (master_seed, r), artifacts carry the tool version
and the configuration hash, and re-running any subset of replications
reproduces their outputs byte for byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import stats

from . import __version__ as _VERSION
from . import martingale as mg
from .config import ExperimentConfig, load_data_points
from .errors import ConfigError
from .process import (
    Trajectory,
    ancestor_block,
    cf_path,
    predictive_mixture,
    replication_blocks,
    simulate_batch,
    sup_norm_path,
    write_csv,
    write_trajectory_csv,
)
from .urn import (
    anchor_fractions,
    betabinom_pmf_vector,
    descendant_tail_bound,
    support_contrast_experiment,
    window_roots,
)


def _load_data(config: ExperimentConfig) -> np.ndarray | None:
    if config.data_path is None:
        return None
    return load_data_points(config.resolved_data_path(), config.kernel_dimension)


def simulate_replication(config: ExperimentConfig, replication: int) -> Trajectory:
    """The trajectory of one replication; a pure function of (config, r)."""
    trajectories = simulate_batch(
        config.flavor, config.schedule(), config.kernel(), config.steps,
        config.master_seed, range(replication, replication + 1), _load_data(config),
    )
    return next(trajectories)


# ------------------------------------------------------------------ reports


@dataclass
class DiagnosticsReport:
    """Aggregated diagnostics: every entry carries name/statistic/threshold/pass."""

    header: dict
    drift_tests: list = field(default_factory=list)
    bound_checks: list = field(default_factory=list)
    cf_convergence: dict = field(default_factory=dict)
    urn_tests: list = field(default_factory=list)
    support_radius_estimate: float = 0.0
    support_radius_mean: float = 0.0
    notes: dict = field(default_factory=dict)

    def all_passed(self) -> bool:
        entries = self.drift_tests + self.bound_checks + self.urn_tests
        if self.cf_convergence:
            entries = entries + [self.cf_convergence]
        return all(e["passed"] for e in entries)

    def to_dict(self) -> dict:
        return {
            **self.header,
            "drift_tests": self.drift_tests,
            "bound_checks": self.bound_checks,
            "cf_convergence": self.cf_convergence,
            "urn_tests": self.urn_tests,
            "support_radius_estimate": self.support_radius_estimate,
            "support_radius_mean": self.support_radius_mean,
            "notes": self.notes,
        }


def _artifact_header(config: ExperimentConfig) -> dict:
    """The provenance keys every JSON artifact starts from."""
    return {
        "tool": "kdeproc",
        "version": _VERSION,
        "config_hash": config.config_hash(),
        "config": config.to_echo(),
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _drift_entry(kind: str, t, result: mg.DriftTestResult) -> dict:
    name = f"drift:{kind}:n={result.time}"
    if t is not None:
        name += f":t={t:g}"
    return {
        "name": name,
        "statistic": result.max_abs_z,
        "threshold": mg.DRIFT_FLAG_THRESHOLD,
        "passed": result.passed,
        "replications": result.replications,
        "mean_re": result.mean_re,
        "se_re": result.se_re,
        "z_re": result.z_re,
        "mean_im": result.mean_im,
        "se_im": result.se_im,
        "z_im": result.z_im,
    }


def _bound_entry(name: str, statistic: float, threshold: float, **details) -> dict:
    return {
        "name": name,
        "statistic": float(statistic),
        "threshold": float(threshold),
        "passed": bool(statistic <= threshold),
        **details,
    }


# ---------------------------------------------------------------- run modes


def run_simulate(config: ExperimentConfig, out_dir: Path) -> dict:
    radii = []
    finals = []
    files = []
    h = config.config_hash()
    trajectories = simulate_batch(
        config.flavor, config.schedule(), config.kernel(), config.steps,
        config.master_seed, range(config.replications), _load_data(config),
    )
    for r, traj in enumerate(trajectories):
        name = f"trajectory_{r:05d}.csv"
        write_trajectory_csv(traj, out_dir / name, _VERSION, h)
        files.append(name)
        radii.append(float(sup_norm_path(traj)[-1]))
        finals.append([float(v) for v in traj.points[-1]])
    payload = {
        **_artifact_header(config),
        "trajectory_files": files,
        "support_radius_per_replication": radii,
        "support_radius_estimate": max(radii),
        "final_points": finals,
    }
    _write_json(out_dir / "run_summary.json", payload)
    return payload


def run_diagnose(config: ExperimentConfig, out_dir: Path) -> DiagnosticsReport:
    if not config.t_grid:
        raise ConfigError("CF diagnostics need a non-empty diagnostics.t_grid")
    if config.data_path is not None:
        raise ConfigError(
            "diagnose mode needs fully generated trajectories; injected data "
            "points carry no ancestry for the dominating-chain traces"
        )
    schedule = config.schedule()
    kernel = config.kernel()
    flavor = config.flavor
    n_pts = config.steps
    reps = config.replications
    drift_times = [n for n in config.drift_times if n < n_pts]
    if config.drift_times and not drift_times:
        raise ConfigError("all diagnostics.drift_times lie beyond run.steps - 1")
    checkpoints = list(config.checkpoints) or [
        max(1, n_pts // 10), max(1, n_pts // 4), max(1, n_pts // 2)
    ]
    can_drift = reps >= 100
    if can_drift and any(2 * n > n_pts for n in config.urn_window_sizes):
        raise ConfigError(
            f"urn.window_sizes: each window n needs 2n <= run.steps={n_pts}, "
            "since the urn checks count descendants on the run's own trajectories"
        )
    ew1 = kernel.abs_moment(1.0)
    corrections = {t: mg.cf_corrections(schedule, kernel, t, n_pts, flavor) for t in config.t_grid}
    cf_bound = (
        1.0
        if flavor == "recursive"
        else max(float(np.nanmax(np.abs(c))) for _, c in corrections.values())
    )

    tight_at = {n: np.zeros(reps) for n in drift_times}
    tight_next = {n: np.empty(reps) for n in drift_times}
    cf_at = {(t, n): np.empty(reps, dtype=complex) for t in config.t_grid for n in drift_times}
    cf_next = {(t, n): np.empty(reps, dtype=complex) for t in config.t_grid for n in drift_times}
    cf_dist = {n: np.empty(reps) for n in checkpoints}
    # The urn windows read only the genealogy of points 1..2n; it is kept
    # for one block of replications at a time and tallied per block.
    windows = config.urn_window_sizes if can_drift else ()
    urn_width = 2 * max(windows) - 1 if windows else 0
    urn_counts = {n: np.zeros(n + 1, dtype=np.int64) for n in windows}
    radii = np.empty(reps)
    dominance_violation = -np.inf
    cf_bound_worst = -np.inf
    tail_violation = -np.inf

    trajectories = simulate_batch(flavor, schedule, kernel, n_pts, config.master_seed, range(reps))
    for block in replication_blocks(range(reps), urn_width + 1):
        urn_ancestors = np.empty((len(block), urn_width), dtype=np.int64)
        for r in block:
            traj = next(trajectories)
            urn_ancestors[r - block.start] = traj.ancestors[:urn_width]
            radii[r] = float(sup_norm_path(traj)[-1])
            trace = mg.tightness_trace(traj, schedule, ew1)
            norms = np.linalg.norm(traj.points, axis=1)
            dominance_violation = max(dominance_violation, float(np.max(norms - trace.dominating)))
            j, comp = trace.running_mean, trace.compensators
            for n in drift_times:
                # S_{n+1} - S_n = J_{n+1} - J_n - c_n; the common tail cancels.
                tight_next[n][r] = j[n] - j[n - 1] - comp[n - 1]
            phis = {t: cf_path(traj, schedule, kernel, t) for t in config.t_grid}
            for t in config.t_grid:
                start_n, corr = corrections[t]
                s_vals = corr * phis[t]
                cf_bound_worst = max(cf_bound_worst, float(np.nanmax(np.abs(s_vals))))
                for n in drift_times:
                    cf_at[(t, n)][r] = s_vals[n - 1]
                    cf_next[(t, n)][r] = s_vals[n]
            for n in checkpoints:
                cf_dist[n][r] = max(
                    abs(phis[t][n - 1] - phis[t][n_pts - 1]) for t in config.t_grid
                )
            threshold = config.tail_threshold_factor * max(trace.running_mean[-1], 1e-12)
            tail_report = mg.tail_prob_bound_check(
                trace, traj, schedule, kernel, threshold, at_times=drift_times
            )
            tail_violation = max(tail_violation, tail_report.max_violation)
        for n, hist in urn_counts.items():
            hist += _point_one_histogram(urn_ancestors, n)

    report = DiagnosticsReport(header=_artifact_header(config))
    for n in drift_times:
        if can_drift:
            report.drift_tests.append(
                _drift_entry("tightness", None, mg.drift_test(tight_at[n], tight_next[n], time=n))
            )
        for t in config.t_grid:
            if can_drift:
                report.drift_tests.append(
                    _drift_entry("cf", t, mg.drift_test(cf_at[(t, n)], cf_next[(t, n)], time=n))
                )
    if not can_drift:
        report.notes["drift_tests"] = (
            f"skipped: replications={reps} below the minimum of 100"
        )
    report.bound_checks.append(
        _bound_entry("pathwise_dominance", dominance_violation, 1e-12)
    )
    report.bound_checks.append(
        _bound_entry(
            "cf_martingale_modulus",
            cf_bound_worst - cf_bound,
            1e-10,
            modulus_sup=cf_bound_worst,
            allowed=cf_bound,
        )
    )
    report.bound_checks.append(
        _bound_entry("dominating_tail_markov", tail_violation, 1e-10)
    )
    means = [float(np.mean(cf_dist[n])) for n in checkpoints]
    increases = [b - a for a, b in zip(means, means[1:])]
    report.cf_convergence = {
        "name": "cf_distance_to_final",
        "checkpoints": checkpoints,
        "mean_distance": means,
        "statistic": max(increases) if increases else 0.0,
        "threshold": 0.0,
        "passed": all(inc <= 0 for inc in increases),
    }
    if can_drift:
        for size in config.urn_window_sizes:
            chi = _chi_square_merged(urn_counts[size], betabinom_pmf_vector(size) * reps)
            report.urn_tests.append(
                {
                    "name": f"urn_descendant_law:n={size}",
                    "statistic": chi["p_value"],
                    "threshold": 0.001,
                    "passed": chi["p_value"] > 0.001,
                    "chi_square": chi["statistic"],
                    "bins": chi["bins"],
                }
            )
    elif config.urn_window_sizes:
        report.notes["urn_tests"] = (
            f"skipped: replications={reps} below the minimum of 100"
        )
    report.support_radius_estimate = float(np.max(radii))
    report.support_radius_mean = float(np.mean(radii))
    _write_json(out_dir / "diagnostics.json", report.to_dict())
    return report


def _point_one_histogram(ancestors: np.ndarray, n: int) -> np.ndarray:
    """Histogram over k = 0..n of point 1's descendant count in the window
    (n, 2n], one count per row of an ancestor block."""
    counts = np.count_nonzero(window_roots(ancestors, n) == 0, axis=1)
    return np.bincount(counts, minlength=n + 1)


def run_urn(config: ExperimentConfig, out_dir: Path) -> dict:
    # Built only so that malformed kernel or bandwidth keys stay config errors.
    config.schedule(), config.kernel()
    reps = config.replications
    anchor = config.urn_anchor
    horizon = config.steps if config.urn_fraction_horizon is None else config.urn_fraction_horizon
    # One genealogy per replication serves every window and the fraction.
    # The urn laws read no point, so no kernel variate is drawn.
    length = max([2 * n for n in config.urn_window_sizes] + [1 if anchor is None else horizon])
    counts = [(n, np.zeros(n + 1, dtype=np.int64)) for n in config.urn_window_sizes]
    finals = np.empty(reps)
    for block in replication_blocks(range(reps), length):
        anc = ancestor_block(length, config.master_seed, block)
        for n, hist in counts:
            hist += _point_one_histogram(anc, n)
        if anchor is not None:
            finals[block.start : block.stop] = anchor_fractions(anc, anchor, horizon)
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
    payload = {**_artifact_header(config), "chi_square": chi_results}
    if anchor is not None:
        ks = stats.kstest(finals, stats.beta(1, anchor - 1).cdf)
        payload["fraction_limit"] = {
            "anchor": anchor,
            "horizon": horizon,
            "ks_statistic": float(ks.statistic),
            "p_value": float(ks.pvalue),
        }
    write_csv(out_dir / "urn.csv", _VERSION, config.config_hash(), table)
    _write_json(out_dir / "urn_summary.json", payload)
    return payload


def _chi_square_merged(counts: np.ndarray, expected: np.ndarray, min_expected: float = 5.0) -> dict:
    """Chi-square with tail bins merged until every expected count is adequate."""
    obs = [0.0]
    exp = [0.0]
    for o, e in zip(counts, expected):
        obs[-1] += o
        exp[-1] += e
        if exp[-1] >= min_expected:
            obs.append(0.0)
            exp.append(0.0)
    if exp[-1] < min_expected and len(exp) > 1:
        obs[-2] += obs[-1]
        exp[-2] += exp[-1]
        obs.pop()
        exp.pop()
    if len(obs) < 2:
        return {"statistic": 0.0, "p_value": 1.0, "bins": len(obs)}
    res = stats.chisquare(obs, exp)
    return {"statistic": float(res.statistic), "p_value": float(res.pvalue), "bins": len(obs)}


def run_contrast(config: ExperimentConfig, out_dir: Path) -> dict:
    report = support_contrast_experiment(
        config.schedule(),
        config.kernel(),
        config.steps,
        config.replications,
        config.master_seed,
    )
    payload = {
        **_artifact_header(config),
        "kde": vars(report.kde),
        "recursive": vars(report.recursive),
        "z_statistic": report.z_statistic,
        "p_value": report.p_value,
    }
    _write_json(out_dir / "contrast.json", payload)
    return payload


def run_posterior(config: ExperimentConfig, out_dir: Path) -> dict:
    if config.data_path is None:
        raise ConfigError("posterior mode needs data.path")
    data = _load_data(config)
    if config.steps < len(data):
        raise ConfigError(
            f"run.steps={config.steps} is shorter than the data ({len(data)} points)"
        )
    schedule = config.schedule()
    kernel = config.kernel()
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
    trajectories = simulate_batch(
        config.flavor, schedule, kernel, config.steps, config.master_seed,
        range(config.replications), data,
    )
    for r, traj in enumerate(trajectories):
        mix = predictive_mixture(traj, schedule, kernel)
        means[r] = mix.mean()
        if d == 1:
            quantiles[r] = [mix.quantile(q) for q in config.posterior_quantiles]
        if has_box:
            box_probs[r] = mix.prob(config.posterior_box_lo, config.posterior_box_hi)
        phis_a = [cf_path(traj, schedule, kernel, t, upto=conv_pair[1]) for t in config.t_grid]
        conv[r] = max(abs(p[conv_pair[0] - 1] - p[conv_pair[1] - 1]) for p in phis_a)

    columns = {"replication": range(config.replications)}
    for jdx, col in enumerate(means.T.tolist(), start=1):
        columns[f"mean_{jdx}"] = col
    if d == 1:
        for q, col in zip(config.posterior_quantiles, quantiles.T.tolist()):
            columns[f"q{q:g}"] = col
    if has_box:
        columns["box_prob"] = box_probs.tolist()
    columns["cf_convergence_gap"] = conv.tolist()
    write_csv(out_dir / "posterior.csv", _VERSION, config.config_hash(), columns)

    payload = {
        **_artifact_header(config),
        "data_points": len(data),
        "posterior_mean": [float(v) for v in means.mean(axis=0)],
        "posterior_mean_spread": [float(v) for v in means.std(axis=0, ddof=1)]
        if config.replications > 1
        else [0.0] * d,
        "cf_convergence_gap_mean": float(conv.mean()),
        "convergence_checkpoints": list(conv_pair),
    }
    if d == 1:
        payload["quantile_levels"] = list(config.posterior_quantiles)
        payload["quantile_means"] = [float(v) for v in quantiles.mean(axis=0)]
        if config.replications > 1:
            payload["quantile_spreads"] = [float(v) for v in quantiles.std(axis=0, ddof=1)]
    _write_json(out_dir / "posterior_summary.json", payload)
    return payload


def run_cf_trace(config: ExperimentConfig, out_dir: Path) -> dict:
    if not config.t_grid:
        raise ConfigError("cf-trace mode needs a non-empty diagnostics.t_grid")
    if config.data_path is not None:
        raise ConfigError(
            "cf-trace mode needs a fully generated trajectory; injected data "
            "points carry no ancestry for the dominating-chain columns"
        )
    schedule = config.schedule()
    kernel = config.kernel()
    traj = next(simulate_batch(
        config.flavor, schedule, kernel, config.steps, config.master_seed, range(1)
    ))
    ew1 = kernel.abs_moment(1.0)
    tight = mg.tightness_trace(traj, schedule, ew1)
    summary_traces = {}
    h = config.config_hash()
    for t in config.t_grid:
        trace = mg.cf_martingale_trace(traj, schedule, kernel, t)
        name = f"cf_trace_t{t:g}.csv"
        columns = {
            "step": range(1, len(traj) + 1),
            "U": tight.dominating.tolist(),
            "J": tight.running_mean.tolist(),
            "S": tight.martingale.tolist(),
            "phi_re": trace.phi.real.tolist(),
            "phi_im": trace.phi.imag.tolist(),
            "S_re": trace.martingale.real.tolist(),
            "S_im": trace.martingale.imag.tolist(),
        }
        write_csv(out_dir / name, _VERSION, h, columns)
        summary_traces[f"{t:g}"] = {
            "file": name,
            "start_index": trace.start_n,
            "correction_sup": trace.correction_sup(),
            "martingale_modulus_sup": float(np.nanmax(np.abs(trace.martingale))),
        }
    payload = {**_artifact_header(config), "traces": summary_traces}
    _write_json(out_dir / "cf_trace_summary.json", payload)
    return payload


_RUNNERS = {
    "simulate": run_simulate,
    "diagnose": run_diagnose,
    "urn": run_urn,
    "contrast": run_contrast,
    "posterior": run_posterior,
    "cf-trace": run_cf_trace,
}
MODES = tuple(_RUNNERS)


def run(config: ExperimentConfig, mode: str = "diagnose"):
    """Execute one mode, writing its artifacts under the configured directory."""
    if mode not in _RUNNERS:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    out_dir = Path(config.base_dir) / config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    return _RUNNERS[mode](config, out_dir)
