"""The benchmark's workloads: seeded inputs, point counts and output checks.

Each workload is one ``kdeproc <mode>`` run at a fixed size.  ``inputs(seed)``
gives the files the program sees (the config, plus an observation file for
``posterior-data``); ``check(out_dir)`` re-derives what the artifacts
must satisfy from the workload parameters alone, never from kdeproc code;
``corrupt`` damages parsed artifacts so the self-test can confirm that
``check`` notices.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy import stats

# Relative tolerance for identities whose summation order a later change may
# legitimately alter (x_p = x_ancestor + h * y).
REL_TOL = 1e-9
# Relative tolerance for closed forms recomputed here (bandwidths, pmf, bounds).
EXACT_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str
    why: str
    replications: int
    steps: int
    extra_config: tuple
    points: int
    parse: Callable[[Path], dict]
    verify: Callable[[dict, "Workload"], list]
    corrupt: Callable[[dict], dict]
    data_points: int = 0

    def config_text(self, seed: int) -> str:
        lines = [
            f"run.steps = {self.steps}",
            f"run.replications = {self.replications}",
            f"run.master_seed = {seed}",
            "run.output_dir = out",
            *self.extra_config,
        ]
        return "\n".join(lines) + "\n"

    def inputs(self, seed: int) -> dict:
        """File name -> text of every input the program reads."""
        files = {"experiment.cfg": self.config_text(seed)}
        if self.data_points:
            files["data.txt"] = observations(seed, self.data_points)
        return files

    def check(self, out_dir: Path) -> list:
        """Problems found in the artifacts under ``out_dir`` (empty if none)."""
        try:
            return self.verify(self.parse(out_dir), self)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"malformed artifacts: {exc!r}"]

    def self_test(self, out_dir: Path) -> list:
        """Problems with the verifier: it must reject corrupted artifacts."""
        if not self.verify(self.corrupt(self.parse(out_dir)), self):
            return [f"{self.name} verifier accepted corrupted artifacts"]
        return []


def observations(seed: int, count: int) -> str:
    """Observed data for the posterior workload: a two-component normal mixture."""
    rng = np.random.default_rng([seed, 0xDA7A])
    left = rng.random(count) < 0.6
    x = np.where(left, rng.normal(-1.0, 0.5, count), rng.normal(1.5, 0.8, count))
    return "".join(f"{v!r}\n" for v in x.tolist())


def _csv_rows(path: Path) -> list:
    """CSV rows of a kdeproc artifact, without its '# kdeproc' header line."""
    with open(path, newline="") as fh:
        first = fh.readline()
        if not first.startswith("# kdeproc "):
            raise ValueError(f"{path.name}: missing '# kdeproc' header line")
        return list(csv.reader(fh))


def _close(a, b, tol) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


# ------------------------------------------------------------------- urn-short

URN_WINDOWS = (2, 5, 10)


def _parse_urn(out_dir: Path) -> dict:
    rows = _csv_rows(out_dir / "urn.csv")
    header, body = rows[0], rows[1:]
    table = [dict(zip(header, r)) for r in body]
    return {
        "rows": [{k: (int(v) if k in ("n", "k") else float(v)) for k, v in r.items()} for r in table],
        "summary": json.loads((out_dir / "urn_summary.json").read_text()),
    }


def _verify_urn(parsed: dict, wl: Workload) -> list:
    problems = []
    rows = parsed["rows"]
    expected_keys = [(n, k) for n in URN_WINDOWS for k in range(n + 1)]
    if [(r["n"], r["k"]) for r in rows] != expected_keys:
        return ["urn.csv does not list k = 0..n for every window n"]
    reps = wl.replications
    for n in URN_WINDOWS:
        window = [r for r in rows if r["n"] == n]
        pmf = stats.betabinom(n, 1, n - 1).pmf(np.arange(n + 1))
        for r in window:
            k = r["k"]
            if not abs(r["exact_pmf"] - pmf[k]) <= EXACT_TOL:
                problems.append(f"exact_pmf n={n} k={k}: {r['exact_pmf']!r} != {pmf[k]!r}")
            bound = 3.0 * (n - 1) * (2.0 / 3.0) ** k
            if not _close(r["tail_bound"], bound, EXACT_TOL):
                problems.append(f"tail_bound n={n} k={k}: {r['tail_bound']!r} != {bound!r}")
            scaled = r["empirical_freq"] * reps
            if not abs(scaled - round(scaled)) <= 1e-6:
                problems.append(f"empirical_freq n={n} k={k} is not a multiple of 1/R")
        total = math.fsum(r["empirical_freq"] for r in window)
        if not abs(total - 1.0) <= 1e-9:
            problems.append(f"empirical frequencies for n={n} sum to {total!r}")
    if sorted(parsed["summary"]["chi_square"]) != sorted(str(n) for n in URN_WINDOWS):
        problems.append("urn_summary.json lacks a chi-square entry per window")
    return problems


def _corrupt_urn(parsed: dict) -> dict:
    parsed["rows"][3]["exact_pmf"] += 1e-6
    return parsed


# --------------------------------------------------------------- diagnose-long

BOUND_CHECKS = ("pathwise_dominance", "cf_martingale_modulus", "dominating_tail_markov")


def _parse_diagnose(out_dir: Path) -> dict:
    return json.loads((out_dir / "diagnostics.json").read_text())


def _non_finite(node, path="") -> list:
    if isinstance(node, dict):
        return [p for k, v in node.items() for p in _non_finite(v, f"{path}.{k}")]
    if isinstance(node, list):
        return [p for i, v in enumerate(node) for p in _non_finite(v, f"{path}[{i}]")]
    if isinstance(node, float) and not math.isfinite(node):
        return [path]
    return []


def _verify_diagnose(parsed: dict, wl: Workload) -> list:
    problems = []
    checks = {c["name"]: c for c in parsed["bound_checks"]}
    for name in BOUND_CHECKS:
        if name not in checks:
            problems.append(f"bound check {name} missing")
        elif checks[name]["passed"] is not True:
            problems.append(f"bound check {name} failed: {checks[name]['statistic']!r}")
    problems += [f"non-finite value at {p}" for p in _non_finite(parsed)]
    return problems


def _corrupt_diagnose(parsed: dict) -> dict:
    parsed["bound_checks"][0]["passed"] = False
    return parsed


# ----------------------------------------------------------------- simulate-d3

D3 = 3


def _parse_simulate(out_dir: Path) -> dict:
    summary = json.loads((out_dir / "run_summary.json").read_text())
    trajectories = []
    for name in summary["trajectory_files"]:
        with open(out_dir / name) as fh:
            banner, _columns, origin_row = fh.readline(), fh.readline(), fh.readline()
            if not banner.startswith("# kdeproc "):
                raise ValueError(f"{name}: missing '# kdeproc' header line")
            body = np.loadtxt(fh, delimiter=",", ndmin=2)
        origin = [float(v) for v in origin_row.split(",")[-D3:]]
        trajectories.append({"origin": origin, "body": body})
    return {"summary": summary, "trajectories": trajectories}


def _verify_simulate(parsed: dict, wl: Workload) -> list:
    problems = []
    if len(parsed["trajectories"]) != wl.replications:
        return [f"{len(parsed['trajectories'])} trajectory files, expected {wl.replications}"]
    for r, traj in enumerate(parsed["trajectories"]):
        body = traj["body"]
        if body.shape != (wl.steps - 1, 3 + 2 * D3):
            problems.append(f"trajectory {r}: table shape {body.shape}")
            continue
        p = body[:, 0]
        anc = body[:, 1]
        h = body[:, 2]
        y = body[:, 3 : 3 + D3]
        x = np.vstack([traj["origin"], body[:, 3 + D3 :]])
        if not np.array_equal(p, np.arange(2, wl.steps + 1)):
            problems.append(f"trajectory {r}: step column is not 2..N")
            continue
        if not (np.all(anc == np.floor(anc)) and np.all(anc >= 1) and np.all(anc < p)):
            problems.append(f"trajectory {r}: ancestor outside [1, p)")
            continue
        # Point p is made at step n = p - 1 with the kde bandwidth h_n = n^(-1/(d+4)).
        h_expected = (p - 1.0) ** (-1.0 / (D3 + 4))
        if not np.all(np.abs(h - h_expected) <= EXACT_TOL * h_expected):
            problems.append(f"trajectory {r}: h_used differs from (step - 1)^(-1/7)")
        rebuilt = x[anc.astype(np.int64) - 1] + h[:, None] * y
        bad = np.abs(x[1:] - rebuilt) > REL_TOL * np.maximum(1.0, np.abs(rebuilt))
        if bad.any():
            row = int(np.flatnonzero(bad.any(axis=1))[0])
            problems.append(f"trajectory {r}: x_p != x_ancestor + h*y at point {row + 2}")
        if parsed["summary"]["final_points"][r] != x[-1].tolist():
            problems.append(f"trajectory {r}: final point differs from run_summary.json")
    return problems


def _corrupt_simulate(parsed: dict) -> dict:
    parsed["trajectories"][0]["body"][len(parsed["trajectories"][0]["body"]) // 2, -1] += 1e-3
    return parsed


# -------------------------------------------------------------- posterior-data

QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


def _parse_posterior(out_dir: Path) -> dict:
    rows = _csv_rows(out_dir / "posterior.csv")
    header = rows[0]
    return {
        "header": header,
        "table": np.array(rows[1:], dtype=float),
        "summary": json.loads((out_dir / "posterior_summary.json").read_text()),
    }


def _verify_posterior(parsed: dict, wl: Workload) -> list:
    problems = []
    header, table, summary = parsed["header"], parsed["table"], parsed["summary"]
    qcols = [f"q{q:g}" for q in QUANTILES]
    if table.shape[0] != wl.replications:
        return [f"posterior.csv has {table.shape[0]} rows, expected {wl.replications}"]
    col = {name: table[:, i] for i, name in enumerate(header)}
    if not np.array_equal(col["replication"], np.arange(wl.replications)):
        problems.append("replication column is not 0..R-1")
    q = np.column_stack([col[c] for c in qcols])
    if np.any(np.diff(q, axis=1) < 0):
        problems.append("quantiles decrease with level in some row")
    if np.any(col["box_prob"] < 0) or np.any(col["box_prob"] > 1):
        problems.append("box_prob outside [0, 1]")
    if summary["data_points"] != wl.data_points:
        problems.append(f"data_points {summary['data_points']} != {wl.data_points}")
    for key, columns in (("posterior_mean", [col["mean_1"]]),
                         ("quantile_means", [col[c] for c in qcols])):
        if len(summary[key]) != len(columns):
            problems.append(f"{key} has {len(summary[key])} entries, expected {len(columns)}")
        for got, column in zip(summary[key], columns):
            if not _close(got, float(np.mean(column)), EXACT_TOL):
                problems.append(f"{key} {got!r} != column mean {float(np.mean(column))!r}")
    return problems


def _corrupt_posterior(parsed: dict) -> dict:
    first = parsed["header"].index("q0.05")
    row = parsed["table"][0]
    row[first], row[first + len(QUANTILES) - 1] = row[first + len(QUANTILES) - 1], row[first]
    return parsed


# ------------------------------------------------------------------- registry

_URN_REPS = 200
_DIAG_STEPS, _DIAG_REPS = 25_000, 2
_D3_STEPS, _D3_REPS = 5_000, 1
_POST_STEPS, _POST_REPS, _POST_DATA = 5_000, 2, 200

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="urn-short",
            mode="urn",
            why=(
                "many 4-20 point genealogies: fixed per-replication cost (stream "
                "construction, simulate set-up, descendant loop) dominates"
            ),
            replications=_URN_REPS,
            steps=2 * max(URN_WINDOWS),
            extra_config=(
                "flavor = kde",
                "kernel.family = gaussian",
                "kernel.dimension = 1",
                "urn.window_sizes = " + ", ".join(map(str, URN_WINDOWS)),
            ),
            points=_URN_REPS * sum(2 * n for n in URN_WINDOWS),
            parse=_parse_urn,
            verify=_verify_urn,
            corrupt=_corrupt_urn,
        ),
        Workload(
            name="diagnose-long",
            mode="diagnose",
            why=(
                "few 2.5x10^4-point genealogies: per-step ancestry work (_accumulate, "
                "dominating_path, cf_path, CF corrections) dominates"
            ),
            replications=_DIAG_REPS,
            steps=_DIAG_STEPS,
            extra_config=(
                "flavor = recursive",
                "kernel.family = gaussian",
                "kernel.dimension = 1",
                "diagnostics.t_grid = 0.5, 1, 2",
                "diagnostics.drift_times = 10, 100, 1000",
            ),
            points=_DIAG_REPS * _DIAG_STEPS,
            parse=_parse_diagnose,
            verify=_verify_diagnose,
            corrupt=_corrupt_diagnose,
        ),
        Workload(
            name="simulate-d3",
            mode="simulate",
            why=(
                "d = 3 trajectories written as CSV: the write side of process and "
                "the only d > 1 accumulation loop"
            ),
            replications=_D3_REPS,
            steps=_D3_STEPS,
            extra_config=(
                "flavor = kde",
                "kernel.family = gaussian",
                f"kernel.dimension = {D3}",
            ),
            points=_D3_REPS * _D3_STEPS,
            parse=_parse_simulate,
            verify=_verify_simulate,
            corrupt=_corrupt_simulate,
        ),
        Workload(
            name="posterior-data",
            mode="posterior",
            why=(
                "observed-data prefix: data loading, mixture quantile bisection "
                "over kernel CDFs, the only mixture/kernel-CDF workload"
            ),
            replications=_POST_REPS,
            steps=_POST_STEPS,
            extra_config=(
                "flavor = recursive",
                "kernel.family = gaussian",
                "kernel.dimension = 1",
                "data.path = data.txt",
                "posterior.quantiles = " + ", ".join(f"{q:g}" for q in QUANTILES),
                "posterior.box_lo = -1",
                "posterior.box_hi = 1",
            ),
            points=_POST_REPS * _POST_STEPS,
            parse=_parse_posterior,
            verify=_verify_posterior,
            corrupt=_corrupt_posterior,
            data_points=_POST_DATA,
        ),
    )
}
