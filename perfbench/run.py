"""kdeproc benchmark: one ``harness.run`` workload, timed in fresh interpreters.

Run from the repository root (no build step; the package is imported from
``src/``):

    python3 perfbench/run.py --workload urn-short --seed 1 --seconds 30 --trace 0

Each run writes the workload's inputs, drawn from ``--seed``, into a fresh
directory under ``.perfbench_work/`` and splits ``--seconds`` between
``--seconds / 6`` fresh interpreters (two at least), started one after the
other.  Each interpreter (``child.py``) measures its own set-up, warms up,
then times ``harness.run`` sample after sample.  Every sample's artifacts are
checked outside the timed region, hashed and compared with the first
sample's (same seed, so they must be byte identical) and deleted; the first
interpreter also corrupts its first artifacts in memory to confirm that the
checker rejects them.

``--trace 0`` reports the end-to-end metrics: ``run_rel``, the median over
the samples of ``harness.run``'s wall time as a multiple of a fixed reference
computation timed just before and after it (``child.reference``; the host
slows a thread by up to 2x for seconds at a time, which moves both terms),
the throughput ``points_per_ref`` it gives, and the median set-up time and
peak memory of the interpreters.  ``--trace 1`` alternates untraced and
traced interpreters (``spans.py`` wraps kdeproc's functions from outside)
and reports per-layer self times (medians over the traced samples), exact
counts, which must repeat in every traced sample, and the tracing overhead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
sample distribution, the error rate and the provenance.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy
import scipy

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
CHILD_TIMEOUT_S = 120
# Wall time given to each child interpreter; a run starts --seconds / CHILD_SECONDS.
CHILD_SECONDS = 6

END_TO_END = {
    "run_rel": "ref",
    "points_per_ref": "points/ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "streams.from_seed.calls": "count",
    "streams.from_seed.self_s": "s",
    "process.simulate.calls": "count",
    "process.simulate.points": "count",
    "process.simulate.self_s": "s",
    "kernels.sample.self_s": "s",
    "bandwidth.values.self_s": "s",
    "process.dominating_path.calls": "count",
    "process.dominating_path.self_s": "s",
    "process.cf_path.calls": "count",
    "process.cf_path.self_s": "s",
    "martingale.cf_corrections.self_s": "s",
    "martingale.lemma_product_tail.self_s": "s",
    "martingale.start_index.self_s": "s",
    "martingale.tightness_trace.self_s": "s",
    "martingale.tail_prob_bound_check.self_s": "s",
    "urn.simulate_descendants.calls": "count",
    "urn.simulate_descendants.self_s": "s",
    "urn.betabinom_pmf_vector.self_s": "s",
    "process.write_trajectory_csv.calls": "count",
    "process.write_trajectory_csv.bytes": "bytes",
    "process.write_trajectory_csv.self_s": "s",
    "process.PredictiveMixture.quantile.self_s": "s",
    "process.PredictiveMixture.cdf.calls": "count",
    "process.PredictiveMixture.cdf.self_s": "s",
    "kernels.cdf1.calls": "count",
    "kernels.cdf1.self_s": "s",
    "config.load_data_points.calls": "count",
    "config.load_data_points.self_s": "s",
    "config.ExperimentConfig.from_file.self_s": "s",
    "harness.run.self_s": "s",
    "harness.artifact_bytes": "bytes",
    "trace.overhead_frac": "fraction",
}
EXACT = [name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(root: Path, wl, run_dir: Path, deadline: float, traced: bool,
              self_test: bool) -> dict:
    """Start one child interpreter that times ``harness.run`` until ``deadline``."""
    spawned = time.monotonic()
    args = [sys.executable, str(HERE / "child.py"), wl.name, wl.mode, repr(spawned),
            repr(deadline), "1" if traced else "0", "1" if self_test else "0"]
    try:
        proc = subprocess.run(args, cwd=run_dir, env=child_env(root), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"problems": [f"timed out after {CHILD_TIMEOUT_S} s"]}
    finally:
        shutil.rmtree(run_dir / "out", ignore_errors=True)
    if proc.returncode != 0:
        return {"problems": [f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"]}
    try:
        child = json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        return {"problems": [f"no result line from the child: {proc.stdout[-2000:]!r}"]}
    if not Path(child["kdeproc_file"]).resolve().is_relative_to(root / "src"):
        child["problems"].append(f"imported kdeproc from {child['kdeproc_file']}")
        child["failed"] += 1
    child["traced"] = traced
    return child


def summarize(values: list) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "p90": med, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    p90 = statistics.quantiles(values, n=10)[-1]
    return {"median": med, "q1": q1, "q3": q3, "p90": p90, "n": len(values)}

def provenance(root: Path, seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    sha, dirty = "unknown", None
    if (root / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=30).stdout.strip() or sha
            dirty = bool(subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                        cwd=root, capture_output=True, text=True,
                                        timeout=30).stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so subprocess.run kills and reaps the
    # running child and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    root = Path.cwd().resolve()
    if not (root / "src" / "kdeproc" / "harness.py").is_file():
        print(f"error: no kdeproc sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    traced = bool(args.trace)
    n_children = max(2, round(args.seconds / CHILD_SECONDS))

    work = root / ".perfbench_work"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=work))
    children = []
    try:
        for name, text in wl.inputs(args.seed).items():
            (run_dir / name).write_text(text)
        started = time.monotonic()
        for i in range(n_children):
            # Child i times samples until its share of --seconds is over.
            # Trace mode alternates untraced and traced children.
            deadline = started + args.seconds * (i + 1) / n_children
            children.append(run_child(root, wl, run_dir, deadline,
                                      traced=traced and i % 2 == 1, self_test=i == 0))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            work.rmdir()
        except OSError:
            pass

    done = [c for c in children if "run_s" in c]
    reference = done[0]["digest"] if done else None
    counts_ref = None
    for c in done:
        if c["digest"] != reference:
            c["problems"].append("artifacts differ between interpreters")
            c["failed"] += 1
        for layers in c["layers"]:
            counts = {k: layers.get(k, 0) for k in EXACT if k != "harness.artifact_bytes"}
            counts_ref = counts_ref or counts
            if counts != counts_ref:
                c["problems"].append(f"traced counts differ between runs: {counts} != {counts_ref}")
                c["failed"] += 1
                break
    # A child that crashed counts as one failed run.
    attempted = sum(c.get("runs", 1) for c in children)
    failed = sum(c.get("failed", 1) for c in children)
    for i, c in enumerate(children):
        for problem in c["problems"]:
            print(f"interpreter {i}: {problem}", file=sys.stderr)

    plain = [c for c in done if not c["traced"]]
    if not plain:
        print("error: no completed untraced run", file=sys.stderr)
        return 1
    wall = summarize([t for c in plain for t in c["run_s"]])
    rel = summarize([r for c in plain for r in c["run_rel"]])
    if traced:
        samples = [layers for c in done if c["traced"] for layers in c["layers"]]
        if not samples:
            print("error: no completed traced run", file=sys.stderr)
            return 1
        values = {name: statistics.median(s[name] for s in samples)
                  for name in PER_LAYER if name.endswith(".self_s")}
        values.update(counts_ref)
        values["harness.artifact_bytes"] = sum(size for _, size in reference.values())
        traced_rel = [r for c in done if c["traced"] for r in c["run_rel"]]
        values["trace.overhead_frac"] = statistics.median(traced_rel) / rel["median"] - 1.0
        units = PER_LAYER
    else:
        values = {
            "run_rel": rel["median"],
            "points_per_ref": wl.points / rel["median"],
            "setup_s": statistics.median(c["setup_s"] for c in done),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in done),
        }
        units = END_TO_END

    print("provenance " + json.dumps(provenance(root, args.seed), sort_keys=True))
    print(f"workload {wl.name}: kdeproc {wl.mode}, {wl.points} points per run, "
          f"{len(children)} interpreters")
    print(f"harness.run over {wall['n']} untraced samples: wall time median {wall['median']!r} s "
          f"(q1 {wall['q1']!r}, q3 {wall['q3']!r}, p90 {wall['p90']!r}); in reference times "
          f"median {rel['median']!r} (q1 {rel['q1']!r}, q3 {rel['q3']!r}, p90 {rel['p90']!r})")
    if not traced:
        setups = summarize([c["setup_s"] for c in done])
        print(f"setup_s over {setups['n']} interpreters: median {setups['median']!r} s "
              f"(q1 {setups['q1']!r}, q3 {setups['q3']!r})")
    for name, unit in units.items():
        print(f"{name} = {values[name]!r} {unit}")
    print(f"error_rate = {failed / attempted!r} fraction ({failed} of {attempted} runs failed)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
