"""Experiment orchestration: seeded runs, diagnostics reports, artifacts.

Every run mode is a pure function of the configuration: replication r draws
its two substreams from (master_seed, r), artifacts carry the tool version
and the configuration hash, and re-running any subset of replications
reproduces their outputs byte for byte.
"""

from __future__ import annotations

import csv
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
    PredictiveMixture,
    Trajectory,
    cf_path,
    dominating_path,
    predictive_mixture,
    simulate,
    sup_norm_path,
    write_csv_banner,
    write_trajectory_csv,
)
from .streams import DrawStreams
from .urn import (
    betabinom_pmf_vector,
    descendant_fraction_path,
    descendant_tail_bound,
    replicated_descendant_counts,
    support_contrast_experiment,
)

MODES = ("simulate", "diagnose", "urn", "contrast", "posterior", "cf-trace")


def cf_distance(mix_a: PredictiveMixture, mix_b: PredictiveMixture, t_grid) -> float:
    """sup over the grid of |phi_A(t) - phi_B(t)| between two mixtures."""
    if mix_a.dim != mix_b.dim:
        raise ValueError("mixtures must share their dimension")
    return max(abs(mix_a.cf(t) - mix_b.cf(t)) for t in t_grid)


def _load_data(config: ExperimentConfig) -> np.ndarray | None:
    if config.data_path is None:
        return None
    return load_data_points(config.resolved_data_path(), config.kernel_dimension)


def _sampler(config: ExperimentConfig, data: np.ndarray | None):
    """replication -> trajectory, with the data and components built once."""
    schedule = config.schedule()
    kernel = config.kernel()

    def sample(replication: int) -> Trajectory:
        streams = DrawStreams.from_seed(config.master_seed, replication)
        return simulate(config.flavor, schedule, kernel, config.steps, streams, data_prefix=data)

    return sample


def simulate_replication(config: ExperimentConfig, replication: int) -> Trajectory:
    """The trajectory of one replication; a pure function of (config, r)."""
    return _sampler(config, _load_data(config))(replication)


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


def _csv_value(v):
    """Exact, plain-text float cells (numpy scalar reprs are not portable)."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return v


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
    sample = _sampler(config, _load_data(config))
    for r in range(config.replications):
        traj = sample(r)
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
    ew1 = kernel.abs_moment(1.0)
    comp = mg.compensator_values(flavor, schedule, ew1, n_pts - 1)
    corrections = {t: mg.cf_corrections(schedule, kernel, t, n_pts, flavor) for t in config.t_grid}
    cf_bound = (
        1.0
        if flavor == "recursive"
        else max(float(np.nanmax(np.abs(c))) for _, c in corrections.values())
    )

    tight_at = {n: np.empty(reps) for n in drift_times}
    tight_next = {n: np.empty(reps) for n in drift_times}
    cf_at = {(t, n): np.empty(reps, dtype=complex) for t in config.t_grid for n in drift_times}
    cf_next = {(t, n): np.empty(reps, dtype=complex) for t in config.t_grid for n in drift_times}
    cf_dist = {n: np.empty(reps) for n in checkpoints}
    radii = np.empty(reps)
    dominance_violation = -np.inf
    cf_bound_worst = -np.inf
    tail_violation = -np.inf

    sample = _sampler(config, None)
    for r in range(reps):
        traj = sample(r)
        radii[r] = float(sup_norm_path(traj)[-1])
        u = dominating_path(traj)
        norms = np.linalg.norm(traj.points, axis=1)
        dominance_violation = max(dominance_violation, float(np.max(norms - u)))
        j = np.cumsum(u) / np.arange(1, n_pts + 1, dtype=float)
        for n in drift_times:
            tight_at[n][r] = 0.0
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
        trace = mg.tightness_trace(traj, schedule, ew1)
        threshold = config.tail_threshold_factor * max(trace.running_mean[-1], 1e-12)
        tail_report = mg.tail_prob_bound_check(
            trace, traj, schedule, kernel, threshold, at_times=drift_times
        )
        tail_violation = max(tail_violation, tail_report.max_violation)

    report = DiagnosticsReport(header=_artifact_header(config))
    can_drift = reps >= 100
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
            counts = replicated_descendant_counts(
                flavor, schedule, kernel, size, reps, config.master_seed
            )
            chi = _chi_square_merged(counts, betabinom_pmf_vector(size) * reps)
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


def run_urn(config: ExperimentConfig, out_dir: Path) -> dict:
    schedule = config.schedule()
    kernel = config.kernel()
    reps = config.replications
    rows = []
    chi_results = {}
    for n in config.urn_window_sizes:
        counts = replicated_descendant_counts(
            config.flavor, schedule, kernel, n, reps, config.master_seed
        )
        pmf = betabinom_pmf_vector(n)
        tails_exact = np.cumsum(pmf[::-1])[::-1]
        for k in range(n + 1):
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "exact_pmf": pmf[k],
                    "empirical_freq": counts[k] / reps,
                    "tail_exact": tails_exact[k],
                    "tail_bound": descendant_tail_bound(n, k),
                }
            )
        chi_results[str(n)] = _chi_square_merged(counts, pmf * reps)
    payload = {**_artifact_header(config), "chi_square": chi_results}
    if config.urn_anchor is not None:
        horizon = config.urn_fraction_horizon or config.steps
        finals = np.empty(reps)
        for r in range(reps):
            streams = DrawStreams.from_seed(config.master_seed, r)
            traj = simulate(config.flavor, schedule, kernel, horizon, streams)
            finals[r] = descendant_fraction_path(traj, config.urn_anchor, horizon)[-1]
        ks = stats.kstest(finals, stats.beta(1, config.urn_anchor - 1).cdf)
        payload["fraction_limit"] = {
            "anchor": config.urn_anchor,
            "horizon": horizon,
            "ks_statistic": float(ks.statistic),
            "p_value": float(ks.pvalue),
        }
    with open(out_dir / "urn.csv", "w", newline="") as fh:
        write_csv_banner(fh, _VERSION, config.config_hash())
        writer = csv.DictWriter(
            fh, fieldnames=["n", "k", "exact_pmf", "empirical_freq", "tail_exact", "tail_bound"]
        )
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_value(v) for k, v in row.items()})
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

    rows = []
    means = np.empty((config.replications, d))
    conv = np.empty(config.replications)
    quantiles = np.empty((config.replications, len(config.posterior_quantiles)))
    sample = _sampler(config, data)
    for r in range(config.replications):
        traj = sample(r)
        mix = predictive_mixture(traj, schedule, kernel)
        mix_mean = mix.mean()
        means[r] = mix_mean
        row = {"replication": r}
        for jdx in range(d):
            row[f"mean_{jdx + 1}"] = float(mix_mean[jdx])
        if d == 1:
            for qi, q in enumerate(config.posterior_quantiles):
                quantiles[r, qi] = mix.quantile(q)
                row[f"q{q:g}"] = quantiles[r, qi]
        if has_box:
            row["box_prob"] = mix.prob(config.posterior_box_lo, config.posterior_box_hi)
        phis_a = [cf_path(traj, schedule, kernel, t, upto=conv_pair[1]) for t in config.t_grid]
        conv[r] = max(abs(p[conv_pair[0] - 1] - p[conv_pair[1] - 1]) for p in phis_a)
        row["cf_convergence_gap"] = float(conv[r])
        rows.append(row)

    fieldnames = list(rows[0].keys())
    with open(out_dir / "posterior.csv", "w", newline="") as fh:
        write_csv_banner(fh, _VERSION, config.config_hash())
        writer = csv.DictWriter(fh, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _csv_value(v) for k, v in row.items()})

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
    traj = _sampler(config, None)(0)
    ew1 = kernel.abs_moment(1.0)
    tight = mg.tightness_trace(traj, schedule, ew1)
    summary_traces = {}
    h = config.config_hash()
    for t in config.t_grid:
        trace = mg.cf_martingale_trace(traj, schedule, kernel, t)
        name = f"cf_trace_t{t:g}.csv"
        with open(out_dir / name, "w", newline="") as fh:
            write_csv_banner(fh, _VERSION, h)
            writer = csv.writer(fh)
            writer.writerow(["step", "U", "J", "S", "phi_re", "phi_im", "S_re", "S_im"])
            for i in range(len(traj)):
                writer.writerow(
                    [
                        i + 1,
                        repr(float(tight.dominating[i])),
                        repr(float(tight.running_mean[i])),
                        repr(float(tight.martingale[i])),
                        repr(float(trace.phi[i].real)),
                        repr(float(trace.phi[i].imag)),
                        repr(float(trace.martingale[i].real)),
                        repr(float(trace.martingale[i].imag)),
                    ]
                )
        summary_traces[f"{t:g}"] = {
            "file": name,
            "start_index": trace.start_n,
            "correction_sup": trace.correction_sup(),
            "martingale_modulus_sup": float(np.nanmax(np.abs(trace.martingale))),
        }
    payload = {**_artifact_header(config), "traces": summary_traces}
    _write_json(out_dir / "cf_trace_summary.json", payload)
    return payload


def run(config: ExperimentConfig, mode: str = "diagnose"):
    """Execute one mode, writing its artifacts under the configured directory."""
    if mode not in MODES:
        raise ConfigError(f"unknown mode {mode!r}; expected one of {MODES}")
    out_dir = Path(config.base_dir) / config.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    if mode == "simulate":
        return run_simulate(config, out_dir)
    if mode == "diagnose":
        return run_diagnose(config, out_dir)
    if mode == "urn":
        return run_urn(config, out_dir)
    if mode == "contrast":
        return run_contrast(config, out_dir)
    if mode == "posterior":
        return run_posterior(config, out_dir)
    return run_cf_trace(config, out_dir)
