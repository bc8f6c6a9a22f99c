"""Harness orchestration: determinism, run modes, posterior resampling, CLI."""

import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import special, stats

import kdeproc
from kdeproc import (
    BandwidthSchedule,
    DrawStreams,
    KernelSpec,
    dominating_path,
    harness,
    predictive_mixture,
    process,
    simulate,
)
from kdeproc import martingale as mg
from kdeproc.cli import main as cli_main
from kdeproc.config import ExperimentConfig
from kdeproc.errors import ConfigError
from kdeproc.harness import (
    MODES,
    _bound_entry,
    _chi_square,
    _write_csv,
    _write_trajectory_csv,
    run,
)
from kdeproc.process import FLAVORS, simulate_batch


def cf_distance(mix_a, mix_b, t_grid) -> float:
    """sup over the grid of |phi_A(t) - phi_B(t)| between two mixtures."""
    return max(abs(mix_a.cf(t) - mix_b.cf(t)) for t in t_grid)


def _reject_nan(constant: str) -> float:
    if constant == "NaN":
        raise ValueError("a bare NaN is not JSON")
    return float(constant)


def read_json(path: Path):
    """Parse a JSON artifact, rejecting NaN.  -Infinity stays legal: an
    infinite posterior.box_lo is echoed that way."""
    return json.loads(path.read_text(), parse_constant=_reject_nan)


def json_artifacts(root: Path) -> dict:
    """Every JSON artifact under root, by relative path, parsed by read_json."""
    return {p.relative_to(root).as_posix(): read_json(p) for p in sorted(root.rglob("*.json"))}


def hash_tree(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestCfDistance:
    def test_identical_mixtures(self):
        cfg = ExperimentConfig(steps=20, master_seed=5)
        streams = DrawStreams.from_seed(cfg.master_seed, 0)
        traj = simulate(cfg.flavor, cfg.schedule, cfg.kernel, cfg.steps, streams)
        mix = predictive_mixture(traj, cfg.schedule.values(cfg.steps), cfg.kernel)
        assert cf_distance(mix, mix, [0.5, 1.0, 2.0]) == 0.0

    def test_kernel_families_closed_form(self):
        from kdeproc.process import PredictiveMixture

        g = PredictiveMixture(np.zeros((1, 1)), np.ones(1), KernelSpec("gaussian"))
        l = PredictiveMixture(np.zeros((1, 1)), np.ones(1), KernelSpec("laplace"))
        expected = abs(np.exp(-0.5) - 0.5)
        assert cf_distance(g, l, [1.0]) == pytest.approx(expected, abs=1e-14)
        assert cf_distance(g, l, [1.0]) == cf_distance(l, g, [1.0])


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = ExperimentConfig(
            steps=200,
            replications=100,
            master_seed=11,
            checkpoints=(20, 50, 100),
            drift_times=(10, 50),
            base_dir=str(tmp_path),
        )
        run(cfg.with_overrides(output_dir="a"), "diagnose")
        run(cfg.with_overrides(output_dir="b"), "diagnose")
        assert hash_tree(tmp_path / "a") == hash_tree(tmp_path / "b")
        assert set(json_artifacts(tmp_path)) == {"a/diagnostics.json", "b/diagnostics.json"}

    def test_subset_rerun_reproduces(self, tmp_path):
        cfg = ExperimentConfig(
            steps=50, replications=4, master_seed=3, base_dir=str(tmp_path), output_dir="sim"
        )
        run(cfg, "simulate")
        assert set(json_artifacts(tmp_path)) == {"sim/run_summary.json"}
        # The reference path: replication 2's streams built by numpy's own
        # Philox constructor, not re-keyed by the batch engine that wrote the run.
        streams = DrawStreams.from_seed(cfg.master_seed, 2)
        traj = simulate(cfg.flavor, cfg.schedule, cfg.kernel, cfg.steps, streams)
        _write_trajectory_csv(cfg.with_overrides(output_dir="solo"), "solo.csv", traj)
        expected = (tmp_path / "sim" / "trajectory_00002.csv").read_bytes()
        assert (tmp_path / "solo" / "solo.csv").read_bytes() == expected


class TestCheckEntries:
    @pytest.mark.parametrize(
        "statistic, passed",
        [(3.9, True), (4.0, True), (4.1, False), (np.inf, False), (np.nan, False)],
    )
    def test_pass_rule(self, statistic, passed):
        # One rule for every bound and drift entry: statistic <= threshold,
        # which no NaN satisfies.
        entry = _bound_entry("check", statistic, 4.0, replications=100)
        assert entry["passed"] is passed
        assert entry["threshold"] == 4.0 and entry["replications"] == 100


class TestChiSquare:
    @settings(max_examples=200, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 500), min_size=2, max_size=30).filter(any),
        weights=st.data(),
    )
    def test_matches_scipy_exactly(self, counts, weights):
        w = np.array(weights.draw(st.lists(
            st.floats(0.01, 100.0), min_size=len(counts), max_size=len(counts),
        )))
        observed = np.array(counts, dtype=float)
        expected = w / w.sum() * observed.sum()
        ref = stats.chisquare(observed, expected)
        assert _chi_square(observed, expected) == (float(ref.statistic), float(ref.pvalue))

    def test_mismatched_sums_raise(self):
        with pytest.raises(ValueError, match="differ"):
            _chi_square(np.array([50.0, 50.0]), np.array([50.0, 51.0]))


class TestRunModes:
    def test_minimal_simulate(self, tmp_path):
        cfg = ExperimentConfig(
            steps=1, replications=1, master_seed=0, base_dir=str(tmp_path), output_dir="o"
        )
        payload = run(cfg, "simulate")
        assert payload["config"]["run.steps"] == 1
        assert payload["support_radius_estimate"] == 0.0
        assert json_artifacts(tmp_path) == {"o/run_summary.json": payload}
        lines = (tmp_path / "o" / "trajectory_00000.csv").read_text().splitlines()
        assert len(lines) == 3  # header comment + column row + single point

    @pytest.mark.parametrize("dim", [1, 3])
    def test_simulate_radius_is_max_norm(self, tmp_path, dim):
        # Each replication's radius is its trajectory CSV's largest row norm,
        # read back from the x_1..x_d columns.
        cfg = ExperimentConfig(
            steps=60, replications=4, master_seed=9, kernel_dimension=dim,
            base_dir=str(tmp_path), output_dir="o",
        )
        payload = run(cfg, "simulate")
        radii = []
        for name in payload["trajectory_files"]:
            header, *rows = (tmp_path / "o" / name).read_text().splitlines()[1:]
            cols = [i for i, c in enumerate(header.split(",")) if c.startswith("x_")]
            points = np.array([[float(row.split(",")[i]) for i in cols] for row in rows])
            assert points.shape == (60, dim)
            radii.append(float(np.max(np.linalg.norm(points, axis=1))))
        assert payload["support_radius_per_replication"] == radii
        assert payload["support_radius_estimate"] == max(radii)
        assert min(radii) > 0.0

    def test_diagnose_report_structure(self, tmp_path):
        cfg = ExperimentConfig(
            steps=120,
            replications=100,
            master_seed=21,
            drift_times=(10, 60),
            checkpoints=(12, 30, 60),
            base_dir=str(tmp_path),
        )
        payload = run(cfg, "diagnose")
        entries = payload["drift_tests"] + payload["bound_checks"] + payload["urn_tests"]
        assert all(e["passed"] for e in entries + [payload["cf_convergence"]])
        names = {e["name"] for e in payload["drift_tests"]}
        assert "drift:tightness:n=10" in names
        assert any(n.startswith("drift:cf:n=60:t=") for n in names)
        for entry in entries:
            assert {"name", "statistic", "threshold", "passed"} <= set(entry)
        data = read_json(tmp_path / "out" / "diagnostics.json")
        assert data == payload
        assert data["version"] == kdeproc.__version__
        assert data["config_hash"] == cfg.config_hash()

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_diagnose_modulus_bound_is_correction_sup(self, tmp_path, flavor):
        # |S_n| = |P_n| |path_n| <= |P_n|: either flavor allows max |P_n|
        # over the t grid.
        cfg = ExperimentConfig(
            flavor=flavor, steps=300, replications=3, master_seed=4,
            t_grid=(0.5, 2.0, 5.0), drift_times=(10,), base_dir=str(tmp_path),
        )
        checks = {e["name"]: e for e in run(cfg, "diagnose")["bound_checks"]}
        entry = checks["cf_martingale_modulus"]
        schedule = cfg.schedule
        h = schedule.values(cfg.steps + 1)
        sups = [
            float(np.max(np.abs(mg.cf_corrections(schedule, h, cfg.kernel, t,
                                                  cfg.steps, flavor)[0])))
            for t in cfg.t_grid
        ]
        assert entry["allowed"] == max(sups)
        assert entry["statistic"] == entry["modulus_sup"] - max(sups)
        assert entry["passed"]

    def test_diagnose_skips_drift_below_minimum_replications(self, tmp_path):
        cfg = ExperimentConfig(
            steps=60, replications=5, master_seed=2, drift_times=(10,), base_dir=str(tmp_path)
        )
        payload = run(cfg, "diagnose")
        assert payload["drift_tests"] == []
        assert payload["notes"]["drift_tests"] == (
            f"skipped: replications=5 below the minimum of {mg.MIN_REPLICATIONS}"
        )
        assert json_artifacts(tmp_path) == {"out/diagnostics.json": payload}

    def test_diagnose_names_dropped_drift_times(self, tmp_path):
        # A drift time at or past run.steps has no increment to test: the
        # notes name each one dropped (with none dropped they stay empty, as
        # test_diagnose_tests_kde_cf_drift_from_n_1 checks).
        cfg = ExperimentConfig(
            steps=60, replications=5, master_seed=2, drift_times=(10, 60, 100),
            base_dir=str(tmp_path),
        )
        notes = run(cfg, "diagnose")["notes"]
        assert notes["drift_times"] == "skipped: 60, 100 beyond run.steps - 1 = 59"

    def test_diagnose_tests_kde_cf_drift_from_n_1(self, tmp_path):
        # At t = 5, phi_K(h_n t) <= 0.1 up to n = 68, but the kde martingale
        # P_n psi_n divides by nothing: the drift at n = 10 is tested too.
        cfg = ExperimentConfig(
            flavor="kde", steps=200, replications=100, t_grid=(5.0,),
            drift_times=(10, 100), base_dir=str(tmp_path),
        )
        payload = run(cfg, "diagnose")
        data = read_json(tmp_path / "out" / "diagnostics.json")
        assert data == payload
        tests = {e["name"]: e for e in data["drift_tests"]}
        assert set(tests) == {
            "drift:tightness:n=10", "drift:tightness:n=100",
            "drift:cf:n=10:t=5", "drift:cf:n=100:t=5",
        }
        assert all(np.isfinite(e["statistic"]) for e in tests.values())
        assert data["notes"] == {}

    def test_diagnose_needs_t_grid(self, tmp_path):
        cfg = ExperimentConfig(steps=60, replications=5, t_grid=(), base_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            run(cfg, "diagnose")

    def test_diagnose_rejects_data_prefix(self, tmp_path):
        np.savetxt(tmp_path / "obs.txt", [1.0, 2.0])
        cfg = ExperimentConfig(
            steps=60, replications=5, data_path="obs.txt", base_dir=str(tmp_path)
        )
        # Their compensators and CF corrections start at n = 1, not at the
        # data prefix's n = s.
        for mode in ("diagnose", "cf-trace"):
            with pytest.raises(ConfigError, match=f"^{mode} mode takes no data.path: its "
                               "compensators and CF corrections are written from n = 1$"):
                run(cfg, mode)

    def test_diagnose_urn_statistics_match_urn_mode(self, tmp_path):
        # Both modes count windows on the ancestor streams alone, so a window
        # (n, 2n] past run.steps is counted, and counted the same way.
        cfg = ExperimentConfig(
            steps=20, replications=100, master_seed=9, drift_times=(10,),
            urn_window_sizes=(2, 11), base_dir=str(tmp_path),
        )
        diag = run(cfg.with_overrides(output_dir="diag"), "diagnose")
        urn = run(cfg.with_overrides(output_dir="urn"), "urn")
        assert json_artifacts(tmp_path) == {
            "diag/diagnostics.json": diag, "urn/urn_summary.json": urn
        }
        assert [e["name"] for e in diag["urn_tests"]] == [
            "urn_descendant_law:n=2", "urn_descendant_law:n=11"
        ]
        for entry, n in zip(diag["urn_tests"], (2, 11)):
            chi = urn["chi_square"][str(n)]
            assert entry["statistic"] == chi["statistic"]
            assert entry["p_value"] == chi["p_value"]
            assert entry["bins"] == chi["bins"]
            # chi-square at most its 0.001 critical value: p above 0.001.
            assert entry["threshold"] == special.chdtri(chi["bins"] - 1, 0.001)
            assert entry["passed"] == (chi["p_value"] > 0.001)

    @pytest.mark.parametrize("mode", ["diagnose", "cf-trace"])
    def test_first_moment_evaluated_once_per_run(self, tmp_path, monkeypatch, mode):
        # E||Y|| feeds every replication's tail check and every t's lemma
        # constant; at d = 2 a laplace kernel needs quadrature for it.
        calls = []
        norm_mean = KernelSpec.norm_mean.func
        monkeypatch.setattr(
            KernelSpec.norm_mean, "func", lambda kernel: calls.append(1) or norm_mean(kernel)
        )
        family, dim = ("gaussian", 1) if mode == "diagnose" else ("laplace", 2)
        cfg = ExperimentConfig(
            kernel_family=family, kernel_dimension=dim, steps=40, replications=100,
            drift_times=(10,), urn_window_sizes=(2,), base_dir=str(tmp_path),
        )
        run(cfg, mode)
        assert len(calls) == 1
        assert json_artifacts(tmp_path)

    def test_diagnose_builds_one_kernel(self, tmp_path, monkeypatch):
        # The config builds its kernel when it is made; no mode builds another.
        built = []
        post_init = KernelSpec.__post_init__
        monkeypatch.setattr(
            KernelSpec, "__post_init__", lambda kernel: built.append(kernel) or post_init(kernel)
        )
        cfg = ExperimentConfig(
            steps=40, replications=100, drift_times=(10,), urn_window_sizes=(2,),
            base_dir=str(tmp_path),
        )
        run(cfg, "diagnose")
        assert len(built) == 1

    def test_table_read_once_per_config(self, tmp_path, monkeypatch):
        # The schedule is built when the config is made, so the table is read
        # then; an override makes one more config, and no run reads it again.
        reads = []
        load = kdeproc.config.load_bandwidth_table
        monkeypatch.setattr(
            kdeproc.config, "load_bandwidth_table", lambda path: reads.append(path) or load(path)
        )
        (tmp_path / "h.txt").write_text("# h_n\n0.5\n\n0.25\n0.125\n0.0625\n")
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "bandwidth.form = table\nbandwidth.table_path = h.txt\nrun.steps = 4\n"
            "run.output_dir = base\n"
        )
        # The command line reads it once for the file and once for both
        # overrides, and writes under --out only; steps 2..4 use h_1..h_3.
        assert cli_main(["simulate", "--config", str(cfgfile), "--seed", "3", "--out", "cli"]) == 0
        assert len(reads) == 2
        assert not (tmp_path / "base").exists()
        rows = (tmp_path / "cli" / "trajectory_00000.csv").read_text().splitlines()[3:]
        assert [float(row.split(",")[2]) for row in rows] == [0.5, 0.25, 0.125]
        cfg = ExperimentConfig.from_file(cfgfile)
        assert len(reads) == 3
        run(cfg, "simulate")
        assert len(reads) == 3
        moved = cfg.with_overrides(master_seed=3, output_dir="alt")
        assert len(reads) == 4
        run(moved, "simulate")
        assert len(reads) == 4
        assert (tmp_path / "cli" / "trajectory_00000.csv").read_bytes() == (
            tmp_path / "alt" / "trajectory_00000.csv"
        ).read_bytes()

    def test_config_that_ran_equals_a_fresh_one(self, tmp_path):
        # The kernel, schedule and data a config holds are no fields of it:
        # they take no part in its equality, hash or config hash.
        (tmp_path / "obs.txt").write_text("0.3\n-1.2\n")
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("data.path = obs.txt\nrun.steps = 20\nrun.replications = 2\n")
        ran = ExperimentConfig.from_file(cfgfile)
        run(ran, "posterior")
        fresh = ExperimentConfig.from_file(cfgfile)
        assert "data" in vars(ran) and "data" not in vars(fresh)
        assert ran == fresh and hash(ran) == hash(fresh)
        assert ran.config_hash() == fresh.config_hash()

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize(
        "mode, read",
        [("simulate", 39), ("contrast", 39), ("posterior", 40), ("diagnose", 40),
         ("cf-trace", 40), ("urn", None)],
    )
    def test_one_bandwidth_read_per_run(self, tmp_path, monkeypatch, mode, read, flavor):
        # Every consumer slices one read h_1..h_M per run, M = N - 1 for the
        # steps alone, N for posterior's mixtures, N + s for the CF
        # corrections (s = 1 recursive); urn reads no bandwidth at all.
        asked = []
        values = BandwidthSchedule.values

        def counted(schedule, n):
            asked.append(n)
            return values(schedule, n)

        monkeypatch.setattr(BandwidthSchedule, "values", counted)
        np.savetxt(tmp_path / "obs.txt", [0.3, -1.2, 0.8])
        cfg = ExperimentConfig(
            flavor=flavor, steps=40, replications=3, t_grid=(0.5, 2.0), drift_times=(10,),
            urn_window_sizes=(2,), base_dir=str(tmp_path),
            kernel_family="half_normal" if mode == "contrast" else "gaussian",
            data_path="obs.txt" if mode in ("simulate", "posterior") else None,
        )
        run(cfg, mode)
        shift = 1 if flavor == "recursive" and mode in ("diagnose", "cf-trace") else 0
        assert asked == ([] if read is None else [read + shift])

    def test_diagnose_urn_counts_across_blocks(self, tmp_path, monkeypatch):
        # Windows 2 and 5 keep 9 ancestors per replication; a cap of 70
        # elements splits the 100 replications into blocks of 7 rows.
        cfg = ExperimentConfig(
            steps=40, replications=100, master_seed=4, drift_times=(10,),
            urn_window_sizes=(2, 5), base_dir=str(tmp_path),
        )
        whole = run(cfg.with_overrides(output_dir="whole"), "diagnose")
        monkeypatch.setattr(process, "BLOCK_ELEMENTS", 70)
        assert [len(b) for b, _ in process.ancestor_blocks(10, 4, range(100))][-2:] == [7, 2]
        blocked = run(cfg.with_overrides(output_dir="blocked"), "diagnose")
        assert blocked["urn_tests"] == whole["urn_tests"]
        assert len(whole["urn_tests"]) == 2
        assert (tmp_path / "blocked" / "diagnostics.json").read_bytes() == (
            tmp_path / "whole" / "diagnostics.json"
        ).read_bytes()
        assert json_artifacts(tmp_path)["whole/diagnostics.json"] == whole

    def test_urn_mode(self, tmp_path):
        cfg = ExperimentConfig(
            steps=100,
            replications=4000,
            master_seed=13,
            urn_window_sizes=(2, 3),
            urn_anchor=3,
            urn_fraction_horizon=100,
            base_dir=str(tmp_path),
        )
        payload = run(cfg, "urn")
        assert json_artifacts(tmp_path) == {"out/urn_summary.json": payload}
        assert payload["chi_square"]["2"]["p_value"] > 0.001
        assert payload["fraction_limit"]["p_value"] > 0.001
        rows = (tmp_path / "out" / "urn.csv").read_text().splitlines()
        assert rows[1] == "n,k,exact_pmf,empirical_freq,tail_exact,tail_bound"
        assert len(rows) == 2 + 3 + 4

    def test_contrast_mode(self, tmp_path):
        cfg = ExperimentConfig(
            kernel_family="half_normal",
            bandwidth_delta=0.3,
            steps=400,
            replications=20,
            master_seed=17,
            base_dir=str(tmp_path),
        )
        payload = run(cfg, "contrast")
        assert set(payload) >= {"kde", "recursive", "z_statistic", "p_value"}
        assert json_artifacts(tmp_path) == {"out/contrast.json": payload}

    @pytest.mark.parametrize(
        "schedule",
        [BandwidthSchedule.power(1.0, 0.3), BandwidthSchedule.exponential(0.01)],
        ids=["power", "exponential"],
    )
    def test_contrast_flavors_are_coupled_and_ordered(self, schedule):
        # The contrast runs both flavors from one master seed, so replication
        # r of each shares its ancestors and kernel draws.  With Y >= 0 and
        # h_A >= h_n for every ancestor A <= n, every recursive point is at
        # least its kde twin (rounding is monotone too): the flavors' maxima
        # are ordered by construction, whatever the support.
        kernel = KernelSpec("half_normal")
        h = schedule.values(299)
        kde_runs, rec_runs = (
            simulate_batch(flavor, h, kernel, 300, 20260810, range(40)) for flavor in FLAVORS
        )
        for kde, rec in zip(kde_runs, rec_runs, strict=True):
            np.testing.assert_array_equal(rec.ancestors, kde.ancestors)
            np.testing.assert_array_equal(rec.kernel_draws, kde.kernel_draws)
            assert np.all(rec.points >= kde.points)

    def test_cf_trace_mode(self, tmp_path):
        cfg = ExperimentConfig(
            flavor="recursive",
            steps=150,
            replications=1,
            master_seed=19,
            t_grid=(0.5, 2.0),
            base_dir=str(tmp_path),
        )
        payload = run(cfg, "cf-trace")
        assert json_artifacts(tmp_path) == {"out/cf_trace_summary.json": payload}
        assert payload["traces"]["0.5"]["martingale_modulus_sup"] <= 1.0 + 1e-10
        lines = (tmp_path / "out" / "cf_trace_t0.5.csv").read_text().splitlines()
        assert lines[1] == "step,U,J,S,phi_re,phi_im,S_re,S_im"
        assert len(lines) == 2 + 150
        # The tightness columns: S is the running mean J of the dominating
        # path U plus the deterministic compensator tail.
        u, j, s = np.array([[float(c) for c in line.split(",")[1:4]] for line in lines[2:]]).T
        streams = DrawStreams.from_seed(cfg.master_seed, 0)
        traj = simulate(cfg.flavor, cfg.schedule, cfg.kernel, cfg.steps, streams)
        np.testing.assert_array_equal(u, dominating_path(traj))
        np.testing.assert_array_equal(j, np.cumsum(u) / np.arange(1, 151))
        schedule = cfg.schedule
        tail = mg.compensator_tails(
            "recursive", schedule, schedule.values(150), cfg.kernel.norm_mean, 150
        )
        np.testing.assert_array_equal(s, j + tail)

    def test_unknown_mode(self, tmp_path):
        with pytest.raises(ConfigError):
            run(ExperimentConfig(base_dir=str(tmp_path)), "train")

    def test_csv_cells_are_plain_floats(self, tmp_path):
        cfg = ExperimentConfig(
            steps=50,
            replications=500,
            master_seed=31,
            urn_window_sizes=(2,),
            base_dir=str(tmp_path),
        )
        run(cfg, "urn")
        assert set(json_artifacts(tmp_path)) == {"out/urn_summary.json"}
        text = (tmp_path / "out" / "urn.csv").read_text()
        assert "np.float64" not in text
        for line in text.splitlines()[2:]:
            for cell in line.split(",")[2:]:
                float(cell)  # must parse

    @pytest.mark.parametrize(
        "family, dof", [("gaussian", None), ("half_normal", None), ("laplace", None),
                        ("student_t", 3.0)],
    )
    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize(
        "mode, diagnostics",
        [
            ("diagnose", {}),
            ("diagnose", {"tail_threshold_factor": 1000.0, "drift_times": (10, 200)}),
            ("posterior", {}),
            ("posterior", {"bandwidth_form": "power", "bandwidth_c": 1e160,
                           "bandwidth_rate": None, "replications": 3}),
            ("cf-trace", {"t_grid": (1e155,)}),
        ],
        ids=["diagnose", "diagnose-far-threshold", "posterior", "posterior-wide",
             "cf-trace-far-t"],
    )
    def test_clamped_bandwidths_run_without_overflow_warnings(
        self, tmp_path, mode, diagnostics, flavor, family, dof
    ):
        # h_n = exp(-5 n) reaches the clamp at the smallest normal float by
        # n = 142.  Dividing by it, or squaring a distance over it, overflows
        # to inf, where each survival, CDF and density is at its exact
        # limit; the run must say nothing about it.  A far tail threshold
        # puts a distance > 4 over the clamp at drift time 200.  At t = 1e155
        # each kernel CF deviation squares h t ~ 1e152 and ||t|| squares t;
        # on these bandwidths that tail certifies (on a power law it ends as
        # an error, test_bad_input_files_exit_code).  Bandwidths of 1e160
        # put the posterior's points past 1e154, where their squares, and
        # so the spreads' variances, overflow.
        np.savetxt(tmp_path / "obs.txt", [0.1, -3.3, 0.7, 5.2, -0.8])
        settings = {"bandwidth_form": "exponential", "bandwidth_rate": 5.0, **diagnostics}
        cfg = ExperimentConfig(
            flavor=flavor, kernel_family=family, kernel_dof=dof, steps=300,
            data_path="obs.txt" if mode == "posterior" else None,
            posterior_box_lo=-1.0, posterior_box_hi=1.0, base_dir=str(tmp_path),
            **settings,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            payload = run(cfg, mode)
        summary = {"diagnose": "diagnostics.json", "posterior": "posterior_summary.json",
                   "cf-trace": "cf_trace_summary.json"}
        assert json_artifacts(tmp_path) == {f"out/{summary[mode]}": payload}
        if mode == "posterior":
            quantiles = payload["quantile_means"]
            assert np.all(np.isfinite(quantiles)) and quantiles == sorted(quantiles)
            spreads = payload["posterior_mean_spread"] + payload.get("quantile_spreads", [])
            assert np.all(np.isfinite(spreads))
            rows = (tmp_path / "out" / "posterior.csv").read_text().splitlines()
            box = rows[1].split(",").index("box_prob")
            assert 0.0 <= float(rows[2].split(",")[box]) <= 1.0


class TestCsvDump:
    def test_roundtrip_fields(self, tmp_path):
        cfg = ExperimentConfig(base_dir=str(tmp_path), output_dir="o")
        streams = DrawStreams.from_seed(47, 0)
        traj = simulate("kde", cfg.schedule, KernelSpec("gaussian"), 5, streams,
                        data_prefix=[1.0, 2.0])
        _write_trajectory_csv(cfg, "traj.csv", traj)
        lines = (tmp_path / "o" / "traj.csv").read_text().splitlines()
        assert lines[0] == f"# kdeproc {kdeproc.__version__} config={cfg.config_hash()}"
        assert lines[1] == "step,ancestor,h_used,y_1,x_1"
        assert len(lines) == 2 + 5
        # prefix rows carry empty ancestor/h/y fields
        assert lines[2].split(",")[1:4] == ["", "", ""]
        assert lines[3].split(",")[1:4] == ["", "", ""]
        assert lines[4].split(",")[1] != ""
        # points column reproduces exactly through repr
        assert float(lines[4].split(",")[4]) == traj.points[2, 0]

    def test_numpy_scalars_are_plain_numbers(self, tmp_path):
        # str of a NumPy 2 scalar is its plain number, where repr would
        # write np.float64(0.1).
        cfg = ExperimentConfig(base_dir=str(tmp_path))
        _write_csv(cfg, "np.csv", {"a": [np.float64(0.1)], "b": [np.int64(3)]})
        assert (tmp_path / "out" / "np.csv").read_bytes().split(b"\n", 1)[1] == b"a,b\r\n0.1,3\r\n"


def csv_module_reference(version, config_hash, columns) -> bytes:
    """The artifact as the csv module writes it from repr cells."""
    buf = io.StringIO()
    buf.write(f"# kdeproc {version} config={config_hash}\n")
    writer = csv.writer(buf)
    writer.writerow(columns)
    for row in zip(*columns.values()):
        writer.writerow([v if isinstance(v, str) else repr(v) for v in row])
    return buf.getvalue().encode()


SPECIAL_FLOATS = st.sampled_from([-0.0, float("inf"), float("-inf"), float("nan")])
CSV_CELLS = st.one_of(st.just(""), st.integers(), st.floats(), SPECIAL_FLOATS)


@st.composite
def csv_tables(draw):
    names = draw(st.lists(st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True),
                          min_size=2, max_size=6, unique=True))
    rows = draw(st.integers(0, 30))
    return {name: draw(st.lists(CSV_CELLS, min_size=rows, max_size=rows)) for name in names}


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(columns=csv_tables())
def test_write_csv_matches_csv_module(tmp_path, columns):
    cfg = ExperimentConfig(base_dir=str(tmp_path))
    _write_csv(cfg, "table.csv", columns)
    expected = csv_module_reference(kdeproc.__version__, cfg.config_hash(), columns)
    assert (tmp_path / "out" / "table.csv").read_bytes() == expected


# Each mode at a small size, with the number of CSV artifacts it writes.
_PROVENANCE_RUNS = {
    "simulate": (dict(steps=30, replications=2), 2),
    "diagnose": (dict(steps=120, replications=3, drift_times=(10,)), 0),
    "urn": (dict(steps=20, replications=50, urn_window_sizes=(2,)), 1),
    "contrast": (dict(kernel_family="half_normal", steps=20, replications=4), 0),
    "posterior": (dict(steps=20, replications=2, data_path="obs.txt"), 1),
    "cf-trace": (dict(steps=30, t_grid=(0.5, 2.0)), 2),
}


@pytest.mark.parametrize("mode", MODES)
def test_artifact_provenance(tmp_path, mode):
    # Every artifact is stamped from the run's config: the JSON one is the
    # returned payload with its provenance keys, every CSV opens with the
    # banner.
    kwargs, csv_count = _PROVENANCE_RUNS[mode]
    (tmp_path / "obs.txt").write_text("0.1\n-0.4\n0.7\n")
    cfg = ExperimentConfig(master_seed=3, base_dir=str(tmp_path), **kwargs)
    payload = run(cfg, mode)
    assert list(json_artifacts(tmp_path / "out").values()) == [payload]
    assert payload["tool"] == "kdeproc"
    assert payload["version"] == kdeproc.__version__
    assert payload["config_hash"] == cfg.config_hash()
    assert payload["config"] == cfg.to_echo()
    csvs = sorted((tmp_path / "out").glob("*.csv"))
    assert len(csvs) == csv_count
    banner = f"# kdeproc {kdeproc.__version__} config={cfg.config_hash()}\n".encode()
    for path in csvs:
        assert path.read_bytes().split(b"\n", 1)[0] + b"\n" == banner


class TestMultivariate:
    def test_d2_pipeline(self, tmp_path):
        import numpy as np

        from kdeproc import DrawStreams, simulate
        from kdeproc.process import cf_path, predictive_mixture

        cfg = ExperimentConfig(
            kernel_dimension=2, steps=400, replications=2, master_seed=37, base_dir=str(tmp_path)
        )
        kernel, schedule = cfg.kernel, cfg.schedule
        traj = simulate(cfg.flavor, schedule, kernel, cfg.steps, DrawStreams.from_seed(37, 0))
        assert traj.points.shape == (400, 2)
        h = schedule.values(cfg.steps + 1)
        mix = predictive_mixture(traj, h, kernel)
        assert mix.prob([-np.inf, -np.inf], [np.inf, np.inf]) == pytest.approx(1.0)
        t = np.array([0.8, -0.4])
        assert abs(mix.cf(t)) <= 1.0
        corr, kernel_cf = mg.cf_corrections(schedule, h, kernel, t, cfg.steps, cfg.flavor)
        assert np.isfinite((corr * cf_path(traj, t, kernel_cf)[1])[-1].real)
        u = dominating_path(traj)
        j = np.cumsum(u) / np.arange(1, cfg.steps + 1)
        tail = mg.compensator_tails(cfg.flavor, schedule, h, kernel.norm_mean, cfg.steps)
        assert np.all(j + tail >= j)
        tail_mass = mg.dominating_tail_mass(cfg.flavor, u, h, kernel, 10 * j[-1], [100])
        comp = mg.compensator_values(cfg.flavor, h, kernel.norm_mean, cfg.steps - 1)
        bound = (j[99] + 101 * comp[99]) / (10 * j[-1])
        assert np.max(tail_mass - bound) <= mg.TAIL_BOUND_TOLERANCE


class TestPosterior:
    def _cfg(self, tmp_path, data, **kw):
        np.savetxt(tmp_path / "obs.txt", np.asarray(data))
        defaults = dict(
            steps=max(2, len(np.atleast_1d(data))),
            replications=3,
            master_seed=23,
            data_path="obs.txt",
            base_dir=str(tmp_path),
        )
        defaults.update(kw)
        return ExperimentConfig(**defaults)

    def test_single_point_horizon_one(self, tmp_path):
        cfg = self._cfg(tmp_path, [0.0], steps=1, replications=1)
        payload = run(cfg, "posterior")
        assert payload["posterior_mean"][0] == pytest.approx(0.0, abs=1e-15)
        assert json_artifacts(tmp_path) == {"out/posterior_summary.json": payload}

    def test_symmetric_two_points(self, tmp_path):
        cfg = self._cfg(tmp_path, [-1.0, 1.0], steps=2, replications=1)
        payload = run(cfg, "posterior")
        assert payload["posterior_mean"][0] == pytest.approx(0.0, abs=1e-15)
        assert json_artifacts(tmp_path) == {"out/posterior_summary.json": payload}

    def test_infinite_box_side(self, tmp_path):
        # A half-line box is legal and its infinite side is echoed as
        # -Infinity; the mixture of N(-1, h^2) and N(1, h^2) puts half its
        # mass below 0.
        cfg = self._cfg(
            tmp_path, [-1.0, 1.0], steps=2, replications=1,
            posterior_box_lo=-np.inf, posterior_box_hi=0.0,
        )
        payload = run(cfg, "posterior")
        assert json_artifacts(tmp_path) == {"out/posterior_summary.json": payload}
        assert "-Infinity" in (tmp_path / "out" / "posterior_summary.json").read_text()
        rows = (tmp_path / "out" / "posterior.csv").read_text().splitlines()
        box = rows[1].split(",").index("box_prob")
        assert float(rows[2].split(",")[box]) == pytest.approx(0.5, abs=1e-12)

    def test_resampling_run(self, tmp_path):
        rng = np.random.default_rng(1)
        cfg = self._cfg(
            tmp_path,
            rng.standard_normal(50),
            steps=2000,
            replications=8,
            posterior_quantiles=(0.25, 0.5, 0.75),
            posterior_box_lo=-1.0,
            posterior_box_hi=1.0,
        )
        payload = run(cfg, "posterior")
        assert json_artifacts(tmp_path) == {"out/posterior_summary.json": payload}
        assert len(payload["quantile_means"]) == 3
        assert payload["cf_convergence_gap_mean"] >= 0.0
        rows = (tmp_path / "out" / "posterior.csv").read_text().splitlines()
        assert len(rows) == 2 + 8
        assert "box_prob" in rows[1]
        assert "np.float64" not in rows[2]

    def test_posterior_means_center_on_data_mean(self, tmp_path):
        # Symmetric kernel: the mixture mean is a martingale started at the
        # data mean, so replication means scatter around it.
        rng = np.random.default_rng(9)
        data = rng.standard_normal(80) + 0.7
        cfg = self._cfg(tmp_path, data, steps=3000, replications=50, master_seed=71)
        payload = run(cfg, "posterior")
        assert json_artifacts(tmp_path) == {"out/posterior_summary.json": payload}
        spread = payload["posterior_mean_spread"][0]
        gap = abs(payload["posterior_mean"][0] - data.mean())
        assert gap < 4 * spread / np.sqrt(50)

    def test_posterior_spread_shrinks_with_data(self, tmp_path):
        rng = np.random.default_rng(42)
        spreads = []
        for size in (50, 200, 800):
            cfg = self._cfg(
                tmp_path,
                rng.standard_normal(size),
                steps=4000,
                replications=60,
                master_seed=29,
            )
            payload = run(cfg, "posterior")
            assert json_artifacts(tmp_path) == {"out/posterior_summary.json": payload}
            spreads.append(payload["posterior_mean_spread"][0])
        assert spreads[0] > spreads[1] > spreads[2]

    @pytest.mark.parametrize(
        "checkpoints, pair",
        [((), (10, 20)), ((7,), (10, 20)), ((4, 12, 17), (12, 17))],
        ids=["default", "one-checkpoint", "last-two-checkpoints"],
    )
    def test_convergence_pair(self, tmp_path, checkpoints, pair):
        # The gap is read between the last two checkpoints when there are
        # two, else between N/2 and N.
        t_grid = (0.5, 2.0)
        cfg = self._cfg(tmp_path, [-1.0, 0.5, 2.0], steps=20, checkpoints=checkpoints,
                        t_grid=t_grid)
        payload = run(cfg, "posterior")
        assert payload["convergence_checkpoints"] == list(pair)
        h = cfg.schedule.values(cfg.steps)
        gaps = []
        for r in range(cfg.replications):
            traj = simulate(cfg.flavor, cfg.schedule, cfg.kernel, cfg.steps,
                            DrawStreams.from_seed(cfg.master_seed, r), [-1.0, 0.5, 2.0])
            mixes = [predictive_mixture(traj, h, cfg.kernel, at_time=n) for n in pair]
            gaps.append(cf_distance(*mixes, t_grid))
        assert payload["cf_convergence_gap_mean"] == pytest.approx(np.mean(gaps), abs=1e-14)

    def test_needs_data(self, tmp_path):
        cfg = ExperimentConfig(base_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            run(cfg, "posterior")

    def test_steps_must_cover_data(self, tmp_path):
        cfg = self._cfg(tmp_path, [1.0, 2.0, 3.0], steps=2)
        with pytest.raises(ConfigError):
            run(cfg, "posterior")


_TABLE = "bandwidth.form = table\nbandwidth.table_path = obs.txt\n"
_NO_ENVELOPE = "error: tail certification needs a power-law bandwidth envelope"
_FOUR_POINTS = "0.1 0.2\n0.3 0.4\n0.5 0.6\n0.7 0.8\n"


class TestCli:
    def test_end_to_end(self, tmp_path, capsys):
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "flavor = kde\nrun.steps = 30\nrun.replications = 2\n"
            "run.master_seed = 1\nrun.output_dir = out\n"
        )
        assert cli_main(["simulate", "--config", str(cfgfile)]) == 0
        assert (tmp_path / "out" / "run_summary.json").exists()
        assert cli_main(["simulate", "--config", str(cfgfile), "--out", "alt", "--seed", "7"]) == 0
        summary = read_json(tmp_path / "alt" / "run_summary.json")
        assert summary["config"]["run.master_seed"] == 7

    @pytest.mark.parametrize(
        "mode, config_text, data_text, needle",
        [
            ("posterior", "data.path = obs.txt\n", "1.0 2.0\n3.0\n", "different numbers"),
            ("posterior", "data.path = obs.txt\n", "1.0\nabc\n", "obs.txt:2"),
            ("posterior", None, None, "config file"),
            ("posterior", "data.path = missing.txt\n", None, "data file"),
            ("urn", "urn.window_sizes = 0\n", None, "urn.window_sizes"),
            ("urn", "urn.anchor = 1\n", None, "urn.anchor"),
            ("urn", "urn.anchor = 5\nurn.fraction_horizon = 3\n", None, "urn.fraction_horizon"),
            ("urn", "urn.anchor = 50\n", None, "run.steps"),
            ("urn", "urn.anchor = 5\nurn.fraction_horizon = 0\n", None, "urn.fraction_horizon"),
            ("simulate", "bandwidth.C = nan\n", None, "power schedule"),
            ("simulate", "bandwidth.delta = inf\n", None, "power schedule"),
            ("simulate", "bandwidth.form = exponential\nbandwidth.rate = nan\n", None, "rate"),
            ("simulate", "kernel.family = student_t\nkernel.dof = inf\n", None, "dof"),
            ("diagnose", "diagnostics.tail_threshold_factor = -1\n", None, "tail_threshold_factor"),
            ("diagnose", "kernel.family = laplace\n", None, "kernel.dimension"),
            ("posterior", "posterior.box_lo = nan\nposterior.box_hi = 1\n", None,
             "posterior.box_lo"),
            ("diagnose", "diagnostics.t_grid = 1, nan\n", None, "diagnostics.t_grid"),
            ("diagnose", _TABLE, "0.5\n" * 30, _NO_ENVELOPE),
            ("cf-trace", _TABLE, "0.5\n" * 30, _NO_ENVELOPE),
            ("simulate", _TABLE, "0.5\n0.25\nabc\n", "obs.txt:3: could not convert"),
            ("simulate", _TABLE, "0.5\n0.25\nnan\n",
             "obs.txt:3: table values must be finite and strictly positive, got 'nan'"),
            ("simulate", _TABLE, "0.5\n-1\n0.25\n",
             "obs.txt:2: table values must be finite and strictly positive, got '-1'"),
            ("cf-trace", "run.steps = 1\n", None, "run.steps >= 2"),
            ("diagnose", "run.steps = 1\ndiagnostics.drift_times =\n", None, "run.steps >= 2"),
            ("contrast", "kernel.family = gaussian\n", None, "half_normal"),
            ("contrast", "kernel.family = half_normal\nrun.steps = 2\n", None, "run.steps >= 4"),
            ("contrast", "kernel.family = half_normal\nrun.steps = 3\n", None, "run.steps >= 4"),
            ("urn", "data.path = missing.txt\n", None, "urn mode takes no data.path"),
            ("contrast", "kernel.family = half_normal\ndata.path = missing.txt\n", None,
             "contrast mode takes no data.path"),
            ("posterior",
             "data.path = obs.txt\ndiagnostics.t_grid =\nrun.steps = 50\nrun.replications = 2\n",
             _FOUR_POINTS, "posterior mode needs a non-empty diagnostics.t_grid"),
            ("simulate", "data.path = obs.txt\nrun.steps = 3\n", _FOUR_POINTS,
             "run.steps=3 is shorter than the data (4 points)"),
            ("diagnose", "diagnostics.drift_times = 20, 25\n", None,
             "all diagnostics.drift_times lie beyond run.steps - 1"),
            ("simulate", "run.steps = 0\n", None, "run.steps must be >= 1, got 0"),
            ("simulate", "run.replications = 0\n", None, "run.replications must be >= 1, got 0"),
            ("diagnose", "diagnostics.drift_times = 5, 0\n", None,
             "diagnostics.drift_times must be >= 1"),
            ("posterior", "posterior.quantiles = 0.5, 1\n", None,
             "posterior.quantiles must lie in (0, 1)"),
            ("posterior", "posterior.quantiles = 0\n", None,
             "posterior.quantiles must lie in (0, 1)"),
            ("cf-trace", "diagnostics.t_grid = 1, 1.0000001\n", None,
             "diagnostics.t_grid values 1.0 and 1.0000001 share the artifact label '1'"),
            ("diagnose", "diagnostics.t_grid = 1, 1.0000001\ndiagnostics.drift_times = 10\n", None,
             "diagnostics.t_grid values 1.0 and 1.0000001"),
            ("diagnose", "diagnostics.drift_times = 10, 10\n", None,
             "diagnostics.drift_times values 10 and 10 share the artifact label '10'"),
            ("posterior", "data.path = obs.txt\nposterior.quantiles = 0.5, 0.5000001\n",
             _FOUR_POINTS, "posterior.quantiles values 0.5 and 0.5000001"),
            ("urn", "urn.window_sizes = 2, 2, 5\n", None, "urn.window_sizes values 2 and 2"),
            ("simulate", "data.path = obs.txt\n", "0.1 0.2\n0.3\n",
             "obs.txt:2: rows with different numbers of coordinates"),
            ("urn", "urn.window_sizes =\n", None, "urn mode needs urn.window_sizes or urn.anchor"),
            ("simulate", "run.steps = many\n", None, "run.steps"),
            ("cf-trace", "kernel.family = laplace\ndiagnostics.t_grid = 1e155\n", None,
             "CF product tail at t=(1e+155, 1e+155), flavor kde, from n=21: the tail "
             "quadrature from the cut n=4096 leaves the float range"),
            ("cf-trace", "kernel.family = gaussian\ndiagnostics.t_grid = 1e155\n", None,
             "leaves the float range"),
        ],
        ids=[
            "ragged-data", "non-numeric-data", "missing-config", "missing-data",
            "urn-window-0", "urn-anchor-1", "urn-horizon-below-anchor", "urn-anchor-beyond-steps",
            "urn-horizon-0", "bandwidth-C-nan",
            "bandwidth-delta-inf", "bandwidth-rate-nan", "student-t-dof-inf",
            "negative-tail-factor", "diagnose-laplace-d2", "box-lo-nan", "t-grid-nan",
            "diagnose-table", "cf-trace-table", "table-non-numeric", "table-nan", "table-negative",
            "cf-trace-one-step", "diagnose-one-step",
            "contrast-gaussian", "contrast-two-steps", "contrast-three-steps",
            "urn-data-path", "contrast-data-path", "posterior-empty-t-grid",
            "simulate-steps-below-data", "drift-times-past-steps", "steps-0",
            "replications-0", "drift-time-0", "quantile-1", "quantile-0",
            "cf-trace-t-label-collision", "diagnose-t-label-collision", "drift-time-repeated",
            "quantile-label-collision", "urn-window-repeated", "ragged-data-line",
            "urn-nothing-to-test", "steps-not-a-number", "laplace-far-t", "gaussian-far-t",
        ],
    )
    def test_bad_input_files_exit_code(self, tmp_path, capsys, mode, config_text, data_text, needle):
        cfgfile = tmp_path / "exp.cfg"
        if config_text is not None:
            # A key the case sets replaces the default.
            defaults = [
                line for line in ("run.steps = 20\n", "kernel.dimension = 2\n")
                if line.split(" = ")[0] not in config_text
            ]
            cfgfile.write_text("".join(defaults) + config_text)
        if data_text is not None:
            (tmp_path / "obs.txt").write_text(data_text)
        assert cli_main([mode, "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        first = err.splitlines()[0]
        assert first.startswith("error: ")
        assert needle in first
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "mode, entries, err",
        [
            ("simulate", 19, ""),
            ("simulate", 18, "error: table has 18 entries, asked for h_19\n"),
            ("contrast", 19, ""),
            ("contrast", 18, "error: table has 18 entries, asked for h_19\n"),
            ("posterior", 20, ""),
            ("posterior", 19, "error: table has 19 entries, asked for h_20\n"),
        ],
    )
    def test_table_length_boundaries(self, tmp_path, capsys, mode, entries, err):
        # run.steps = 20: the steps read h_1..h_19, posterior's mixtures and
        # kernel CF rows h_1..h_20; a table that long runs, one entry
        # shorter ends as an error before anything is written.
        (tmp_path / "obs.txt").write_text("0.5\n" * entries)
        (tmp_path / "data.txt").write_text("0.1\n-0.4\n")
        extra = {
            "simulate": "",
            "contrast": "kernel.family = half_normal\n",
            "posterior": "data.path = data.txt\n",
        }[mode]
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text("run.steps = 20\nrun.replications = 2\n" + extra + _TABLE)
        assert cli_main([mode, "--config", str(cfgfile)]) == (2 if err else 0)
        assert capsys.readouterr().err == err
        assert any(tmp_path.glob("out/*")) == (tmp_path / "out").exists() == (not err)

    @pytest.mark.parametrize("mode", ["diagnose", "cf-trace"])
    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("entries", [19, 20, 21])
    def test_table_schedule_has_no_envelope(self, tmp_path, capsys, mode, flavor, entries):
        # A table one entry short of run.steps = 20, exactly as long, or one
        # longer: each fails the same way, before any entry is read.
        (tmp_path / "obs.txt").write_text("0.5\n" * entries)
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(f"flavor = {flavor}\nrun.steps = 20\n" + _TABLE)
        assert cli_main([mode, "--config", str(cfgfile)]) == 2
        assert capsys.readouterr().err == _NO_ENVELOPE + "\n"

    @pytest.mark.parametrize("rate", ["1e-9", "1e-12"])
    @pytest.mark.parametrize("mode", ["diagnose", "cf-trace"])
    def test_tiny_exponential_rate_certifies(self, tmp_path, capsys, mode, rate):
        # h_n = exp(-rate n) stays ~1 for 1/rate steps, so a direct tail sum
        # would need ~36/rate terms; the tail quadrature certifies it within
        # 120 s.
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            f"bandwidth.form = exponential\nbandwidth.rate = {rate}\nrun.steps = 50\n"
            "run.replications = 2\ndiagnostics.t_grid = 1\ndiagnostics.drift_times = 10\n"
            "run.output_dir = out\n"
        )
        start = time.perf_counter()
        assert cli_main([mode, "--config", str(cfgfile)]) == 0
        assert time.perf_counter() - start < 120.0
        assert capsys.readouterr().err == ""
        artifact = {"diagnose": "diagnostics.json", "cf-trace": "cf_trace_summary.json"}[mode]
        assert read_json(tmp_path / "out" / artifact)

    @pytest.mark.parametrize(
        "mode, extra",
        [("posterior", "bandwidth.C = 1e10\ndata.path = obs.txt\nrun.steps = 50\n"
                       "run.replications = 3\ndiagnostics.t_grid = 0.5\n"),
         ("cf-trace", "run.steps = 200\ndiagnostics.t_grid = 1e10\n")],
        ids=["posterior", "cf-trace"],
    )
    def test_student_t_past_the_kve_range(self, tmp_path, capsys, mode, extra):
        # sqrt(3) h t passes 2^30, where SciPy's kve is NaN: the posterior
        # writes no NaN, and the kde tail from n = 201 certifies.
        (tmp_path / "obs.txt").write_text("0.1\n-3.3\n0.7\n5.2\n-0.8\n")
        (tmp_path / "exp.cfg").write_text("kernel.family = student_t\nkernel.dof = 3\n" + extra)
        assert cli_main([mode, "--config", str(tmp_path / "exp.cfg")]) == 0
        assert capsys.readouterr().err == ""
        assert json_artifacts(tmp_path)  # read_json rejects NaN
        for csv in (tmp_path / "out").glob("*.csv"):
            assert "nan" not in csv.read_text(), csv.name

    def test_product_tail_tolerance_exit_code(self, tmp_path, capsys, monkeypatch):
        # student_t with dof 1.5 at d = 3, t = 20 on h_n = n^(-0.05): the
        # product tail from n = 1000, whose quadrature subdivides past its
        # first interval, certifies within 120 s.  Under a tolerance no tail
        # at t = 20 can reach, the run ends as an error, not a traceback.
        text = (
            "flavor = recursive\nkernel.family = student_t\nkernel.dof = 1.5\n"
            "kernel.dimension = 3\nbandwidth.delta = 0.05\nrun.steps = 999\n"
            "diagnostics.t_grid = {}\nrun.output_dir = out\n"
        )
        (tmp_path / "exp.cfg").write_text(text.format("1, 20"))
        start = time.perf_counter()
        assert cli_main(["cf-trace", "--config", str(tmp_path / "exp.cfg")]) == 0
        assert time.perf_counter() - start < 120.0
        assert capsys.readouterr().err == ""
        assert read_json(tmp_path / "out" / "cf_trace_summary.json")
        (tmp_path / "refused.cfg").write_text(text.format("20"))
        monkeypatch.setattr(mg, "PRODUCT_TAIL_REL_TOL", 1e-16)
        assert cli_main(["cf-trace", "--config", str(tmp_path / "refused.cfg")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "tolerance" in err

    @pytest.mark.parametrize("mode", ["diagnose", "cf-trace"])
    def test_product_tail_error_names_why(self, tmp_path, capsys, monkeypatch, mode):
        # student_t with dof 1.5 at t = 20 on h_n = n^(-0.05): the tail past
        # run.steps = 999 certifies.  Under a tolerance no tail can reach,
        # the error says where and by how much before anything is written.
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "flavor = recursive\nkernel.family = student_t\nkernel.dof = 1.5\n"
            "bandwidth.delta = 0.05\nrun.steps = 999\nrun.replications = 2\n"
            "diagnostics.t_grid = 20\nrun.output_dir = out\n"
        )
        assert cli_main([mode, "--config", str(cfgfile)]) == 0
        assert capsys.readouterr().err == ""
        assert any((tmp_path / "out").iterdir())
        monkeypatch.setattr(mg, "PRODUCT_TAIL_REL_TOL", 1e-16)
        assert cli_main([mode, "--config", str(cfgfile), "--out", "refused"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: CF product tail at t=(20), flavor recursive, from n=1000")
        assert "relative error" in err and "above the tolerance 1e-16" in err
        assert not (tmp_path / "refused").exists()

    @pytest.mark.parametrize("mode", ["diagnose", "cf-trace"])
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_tiny_power_delta_ends_as_error(self, tmp_path, capsys, mode, flavor):
        # h_n = n^(-0.001): the tail quadrature's substitution x = n u^(-1000)
        # leaves the float range; the run ends as an error, not a traceback.
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            f"flavor = {flavor}\nkernel.family = gaussian\nbandwidth.delta = 1e-3\n"
            "run.steps = 50\nrun.replications = 2\ndiagnostics.t_grid = 1\n"
            "run.output_dir = out\n"
        )
        assert cli_main([mode, "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: CF product tail at t=(1), flavor {flavor}, from n=51: the tail "
            "quadrature from the cut n=4096 leaves the float range\n"
        )
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("d, t", [(1, 10), (3, 3)])
    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_cf_trace_past_the_kde_floor(self, tmp_path, capsys, flavor, d, t):
        # gaussian at t = 10: phi_K(h_n t) stays below 0.1 up to n = 1000,
        # where the kde correction used to divide by it; neither correction
        # divides now.  half_normal at d = 3, t = 3: the tail from n = 1001
        # certifies.
        family = "gaussian" if d == 1 else "half_normal"
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            f"flavor = {flavor}\nkernel.family = {family}\nkernel.dimension = {d}\n"
            f"run.steps = 1000\ndiagnostics.t_grid = {t}\nrun.output_dir = out\n"
        )
        assert cli_main(["cf-trace", "--config", str(cfgfile)]) == 0
        assert capsys.readouterr().err == ""
        summary = read_json(tmp_path / "out" / "cf_trace_summary.json")
        assert set(summary["traces"][f"{t}"]) == {
            "file", "correction_sup", "martingale_modulus_sup"
        }
        rows = (tmp_path / "out" / f"cf_trace_t{t}.csv").read_text().splitlines()[2:]
        assert len(rows) == 1000
        assert all("nan" not in row for row in rows)

    @pytest.mark.parametrize(
        "mode, config_text",
        [("simulate", ""), ("contrast", "kernel.family = half_normal\n")],
    )
    @pytest.mark.parametrize("output_dir", ["out", "out/sub"])
    @pytest.mark.parametrize("blocker_kind", ["file", "read-only-dir"])
    def test_unwritable_output_dir(
        self, tmp_path, capsys, monkeypatch, mode, config_text, output_dir, blocker_kind
    ):
        # An output directory that is, or lies under, an existing file, or
        # whose nearest existing directory is read-only, ends as a config
        # error naming that path before any replication runs, whether a CSV
        # (simulate) or the JSON summary (contrast) is the first artifact the
        # run would write.
        if blocker_kind == "read-only-dir" and os.geteuid() == 0:
            pytest.skip("permission bits do not bind the superuser")

        def no_replications(*args, **kwargs):
            raise AssertionError("a replication ran before the refusal")

        monkeypatch.setattr(harness, "simulate_batch", no_replications)
        blocker = tmp_path / "out"
        if blocker_kind == "file":
            blocker.write_text("not a directory\n")
        else:
            blocker.mkdir()
            blocker.chmod(0o500)
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            f"run.steps = 20\nrun.replications = 2\n{config_text}run.output_dir = {output_dir}\n"
        )
        try:
            assert cli_main([mode, "--config", str(cfgfile)]) == 2
            unchanged = blocker.read_text() if blocker.is_file() else sorted(blocker.iterdir())
        finally:
            blocker.chmod(0o700)
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write ")
        assert str(blocker) in err.splitlines()[0]
        assert "Traceback" not in err
        assert unchanged == ("not a directory\n" if blocker_kind == "file" else [])


# Runs the CLI in this interpreter, then prints its exit status and which of
# SciPy's heavy subpackages it left loaded.
_IMPORT_PROBE = """
import json, sys
from kdeproc.cli import main
try:
    status = main(sys.argv[1:]) if sys.argv[1:] else 0
except SystemExit as exc:
    status = exc.code
loaded = [m for m in ("scipy.special", "scipy.integrate", "scipy.stats") if m in sys.modules]
print(json.dumps([status, loaded]))
"""
_SMALL = "run.steps = 30\nrun.replications = 2\n"


class TestImportBudget:
    """A run loads only the SciPy subpackages its mode evaluates: none to
    simulate, scipy.integrate only for the norm mean of a heavy-tailed kernel
    at d >= 2, and scipy.stats only for an anchored urn run's KS test.  Each
    case starts a fresh interpreter, which inherits PYTHONPATH, so a
    subpackage imported at module level anywhere in the package fails every
    case."""

    # The directory this suite imported kdeproc from goes first, so the child
    # imports the same package although it runs in tmp_path.
    ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(Path(kdeproc.__file__).parents[1]), os.environ.get("PYTHONPATH")])
    )}

    @pytest.mark.parametrize(
        "argv, config_text, loaded",
        [
            ([], None, []),
            (["--version"], None, []),
            (["simulate"], _SMALL, []),
            (["urn"], _SMALL + "urn.window_sizes = 2, 5\n", ["scipy.special"]),
            (["posterior"], _SMALL + "data.path = obs.txt\n", ["scipy.special"]),
            (["contrast"], _SMALL + "kernel.family = half_normal\n", ["scipy.special"]),
            (["diagnose"], _SMALL, ["scipy.special"]),
            (["cf-trace"], _SMALL, ["scipy.special"]),
            (["cf-trace"], _SMALL + "kernel.family = laplace\nkernel.dimension = 2\n",
             ["scipy.special", "scipy.integrate"]),
            (["urn"], _SMALL + "urn.window_sizes = 2\nurn.anchor = 5\n",
             ["scipy.special", "scipy.integrate", "scipy.stats"]),
        ],
        ids=[
            "import-only", "version", "simulate", "urn-windows", "posterior", "contrast",
            "diagnose", "cf-trace", "cf-trace-laplace-d2", "urn-anchor",
        ],
    )
    def test_mode_loads_only_what_it_uses(self, tmp_path, argv, config_text, loaded):
        if config_text is not None:
            (tmp_path / "exp.cfg").write_text(config_text)
            (tmp_path / "obs.txt").write_text("0.1\n-0.4\n0.7\n")
            argv = argv + ["--config", str(tmp_path / "exp.cfg")]
        probe = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, *argv],
            cwd=tmp_path, env=self.ENV, capture_output=True, text=True, check=True,
        )
        status, got = json.loads(probe.stdout.splitlines()[-1])
        assert status == 0, probe.stderr
        assert got == loaded
