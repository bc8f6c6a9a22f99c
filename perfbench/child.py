"""One fresh interpreter: set up, then time ``harness.run`` until a deadline.

Usage: python3 child.py WORKLOAD MODE SPAWN_TIME DEADLINE TRACE SELF_TEST

Run in the directory that holds the workload's inputs.  SPAWN_TIME is the
parent's ``time.monotonic()`` just before it started this process (the
clock is shared by all processes), so ``setup_s`` covers interpreter
start-up, ``import kdeproc.harness`` and ``ExperimentConfig.from_file``, as a
CLI invocation pays them.  After ``WARMUP`` untimed runs, ``harness.run``
is timed again and again while the next sample should still end before
DEADLINE (also ``time.monotonic()``).

The host this runs on slows a single thread by up to 2x for seconds at a
time.  So each sample is bracketed by two runs of ``reference()``, a fixed
computation that no kdeproc change touches, and the sample's wall time is
also reported as a multiple of their mean.  A change to kdeproc moves that
ratio; a slow phase of the host slows both of its terms and leaves it
nearly unchanged.

Outside the timed region, every run's artifacts are checked, hashed,
compared with the first run's (same inputs, so byte identical) and deleted.
With SELF_TEST = 1 the first run's artifacts are also corrupted in memory and
the checker must reject them.  With TRACE = 1 the kdeproc functions are
wrapped by ``spans`` first, and every timed sample's per-layer summary is
kept.  One JSON line is printed.

``peak_rss_mb`` is the VmHWM of this process's own address space, not
``ru_maxrss``: across fork and exec the latter also keeps the parent's peak.
"""

import csv
import hashlib
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

WARMUP = 2
CONFIG = "experiment.cfg"
OUT = Path("out")
SETUP_LAYER = "config.ExperimentConfig.from_file."
REFERENCE_INPUT = np.random.default_rng(0).random(50_000)


def reference() -> float:
    """Wall time of a fixed mix of the kinds of work kdeproc does: bulk numpy
    (sorts and cumulative sums), a scalar Python loop, small Philox generator
    constructions, dicts sorted and dumped as JSON, and rows formatted as CSV.
    About 10 ms on an idle 2-vCPU Xeon."""
    start = time.perf_counter()
    x = REFERENCE_INPUT
    for _ in range(2):
        x = np.cumsum(np.sort(x)) % 1.0
    values = x[:3000].tolist()
    total = 0.0
    for v in values[:2000]:
        total += v * v
    for i in range(50):
        gen = np.random.Generator(np.random.Philox(np.random.SeedSequence([7, i])))
        ",".join(f"{v:.17g}" for v in gen.standard_normal(5).tolist())
    records = [{"i": i, "v": v, "key": (i, str(i))} for i, v in enumerate(values)]
    records.sort(key=lambda r: r["v"])
    json.dumps(records[:1000])
    buf = io.StringIO()
    writer = csv.writer(buf)
    for row in x[:3000].reshape(-1, 6).tolist():
        writer.writerow([repr(v) for v in row])
    return time.perf_counter() - start


def peak_rss_mb() -> float:
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def digest(out_dir: Path) -> dict:
    """Artifact path -> [sha256, size in bytes]."""
    return {
        str(p.relative_to(out_dir)): [hashlib.sha256(p.read_bytes()).hexdigest(), p.stat().st_size]
        for p in sorted(out_dir.rglob("*"))
        if p.is_file()
    }


def main() -> None:
    name, mode = sys.argv[1], sys.argv[2]
    spawned, deadline = float(sys.argv[3]), float(sys.argv[4])
    traced, self_test = sys.argv[5] == "1", sys.argv[6] == "1"
    import kdeproc
    from kdeproc import harness
    from kdeproc.config import ExperimentConfig

    tracer = None
    if traced:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    config = ExperimentConfig.from_file(CONFIG)
    setup_s = time.monotonic() - spawned
    # Set-up spans happen once; every traced sample's summary repeats them.
    setup_layers = {}
    if tracer is not None:
        setup_layers = {k: v for k, v in tracer.summary().items() if k.startswith(SETUP_LAYER)}

    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    result = {
        "setup_s": setup_s,
        "kdeproc_file": kdeproc.__file__,
        "run_s": [],
        "run_rel": [],
        "layers": [],
        "runs": 0,
        "failed": 0,
        "problems": [],
        "digest": None,
    }

    def record(problems: list) -> None:
        result["runs"] += 1
        if problems:
            result["failed"] += 1
            result["problems"] += problems[:5]

    last = 0.0
    while result["runs"] < WARMUP + 1 or time.monotonic() + last < deadline:
        began = time.monotonic()
        timed = result["runs"] >= WARMUP
        if tracer is not None:
            tracer.reset()
        before = reference()
        start = time.perf_counter()
        harness.run(config, mode)
        run_s = time.perf_counter() - start
        after = reference()
        if timed:
            result["run_s"].append(run_s)
            result["run_rel"].append(run_s / (0.5 * (before + after)))
            if tracer is not None:
                result["layers"].append({**tracer.summary(), **setup_layers})
        try:
            problems = wl.check(OUT)
            artifacts = digest(OUT)
            if result["digest"] is None:
                result["digest"] = artifacts
                if self_test and not problems:
                    problems += wl.self_test(OUT)
            elif artifacts != result["digest"]:
                problems.append("artifacts differ from the first run of these inputs")
        finally:
            shutil.rmtree(OUT, ignore_errors=True)
        record(problems)
        last = time.monotonic() - began
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
