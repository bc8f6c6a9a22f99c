"""Harness orchestration: determinism, run modes, posterior resampling, CLI."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from kdeproc import KernelSpec, predictive_mixture, process
from kdeproc.cli import main as cli_main
from kdeproc.config import ExperimentConfig
from kdeproc.errors import ConfigError
from kdeproc.harness import run, simulate_replication


def cf_distance(mix_a, mix_b, t_grid) -> float:
    """sup over the grid of |phi_A(t) - phi_B(t)| between two mixtures."""
    return max(abs(mix_a.cf(t) - mix_b.cf(t)) for t in t_grid)


def hash_tree(root: Path) -> dict:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class TestCfDistance:
    def test_identical_mixtures(self):
        cfg = ExperimentConfig(steps=20, master_seed=5)
        traj = simulate_replication(cfg, 0)
        mix = predictive_mixture(traj, cfg.schedule(), cfg.kernel())
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

    def test_subset_rerun_reproduces(self, tmp_path):
        cfg = ExperimentConfig(
            steps=50, replications=4, master_seed=3, base_dir=str(tmp_path), output_dir="sim"
        )
        run(cfg, "simulate")
        traj = simulate_replication(cfg, 2)
        from kdeproc.process import write_trajectory_csv

        write_trajectory_csv(traj, tmp_path / "solo.csv", "0.1.1", cfg.config_hash())
        expected = (tmp_path / "sim" / "trajectory_00002.csv").read_bytes()
        assert (tmp_path / "solo.csv").read_bytes() == expected


class TestRunModes:
    def test_minimal_simulate(self, tmp_path):
        cfg = ExperimentConfig(
            steps=1, replications=1, master_seed=0, base_dir=str(tmp_path), output_dir="o"
        )
        payload = run(cfg, "simulate")
        assert payload["config"]["run.steps"] == 1
        assert payload["support_radius_estimate"] == 0.0
        lines = (tmp_path / "o" / "trajectory_00000.csv").read_text().splitlines()
        assert len(lines) == 3  # header comment + column row + single point

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
        data = json.loads((tmp_path / "out" / "diagnostics.json").read_text())
        assert data == payload
        assert data["version"] == "0.1.1"
        assert data["config_hash"] == cfg.config_hash()

    def test_diagnose_skips_drift_below_minimum_replications(self, tmp_path):
        cfg = ExperimentConfig(
            steps=60, replications=5, master_seed=2, drift_times=(10,), base_dir=str(tmp_path)
        )
        payload = run(cfg, "diagnose")
        assert payload["drift_tests"] == []
        assert "drift_tests" in payload["notes"]

    def test_diagnose_needs_t_grid(self, tmp_path):
        cfg = ExperimentConfig(steps=60, replications=5, t_grid=(), base_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            run(cfg, "diagnose")

    def test_diagnose_rejects_data_prefix(self, tmp_path):
        np.savetxt(tmp_path / "obs.txt", [1.0, 2.0])
        cfg = ExperimentConfig(
            steps=60, replications=5, data_path="obs.txt", base_dir=str(tmp_path)
        )
        with pytest.raises(ConfigError, match="ancestry"):
            run(cfg, "diagnose")
        with pytest.raises(ConfigError, match="ancestry"):
            run(cfg, "cf-trace")

    def test_diagnose_rejects_window_beyond_run(self, tmp_path):
        # The urn checks count descendants on the run's own trajectories,
        # which cannot hold a window (n, 2n] with 2n > run.steps.
        cfg = ExperimentConfig(
            steps=20, replications=100, drift_times=(10,), urn_window_sizes=(2, 11),
            base_dir=str(tmp_path),
        )
        with pytest.raises(ConfigError, match="urn.window_sizes"):
            run(cfg, "diagnose")

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

    def test_diagnose_urn_counts_across_blocks(self, tmp_path, monkeypatch):
        # Windows 2 and 5 keep 9 ancestors per replication; a cap of 70
        # elements splits the 100 replications into blocks of 7 rows.
        cfg = ExperimentConfig(
            steps=40, replications=100, master_seed=4, drift_times=(10,),
            urn_window_sizes=(2, 5), base_dir=str(tmp_path),
        )
        whole = run(cfg.with_overrides(output_dir="whole"), "diagnose")
        monkeypatch.setattr(process, "BLOCK_ELEMENTS", 70)
        assert [len(b) for b in process.replication_blocks(range(100), 10)][-2:] == [7, 2]
        blocked = run(cfg.with_overrides(output_dir="blocked"), "diagnose")
        assert blocked["urn_tests"] == whole["urn_tests"]
        assert len(whole["urn_tests"]) == 2
        assert (tmp_path / "blocked" / "diagnostics.json").read_bytes() == (
            tmp_path / "whole" / "diagnostics.json"
        ).read_bytes()

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
        assert (tmp_path / "out" / "contrast.json").exists()

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
        assert payload["traces"]["0.5"]["martingale_modulus_sup"] <= 1.0 + 1e-10
        lines = (tmp_path / "out" / "cf_trace_t0.5.csv").read_text().splitlines()
        assert lines[1] == "step,U,J,S,phi_re,phi_im,S_re,S_im"
        assert len(lines) == 2 + 150

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
        text = (tmp_path / "out" / "urn.csv").read_text()
        assert "np.float64" not in text
        for line in text.splitlines()[2:]:
            for cell in line.split(",")[2:]:
                float(cell)  # must parse


class TestMultivariate:
    def test_d2_pipeline(self, tmp_path):
        import numpy as np

        from kdeproc import DrawStreams, simulate
        from kdeproc import martingale as mg
        from kdeproc.process import predictive_mixture

        cfg = ExperimentConfig(
            kernel_dimension=2, steps=400, replications=2, master_seed=37, base_dir=str(tmp_path)
        )
        kernel, schedule = cfg.kernel(), cfg.schedule()
        traj = simulate(cfg.flavor, schedule, kernel, cfg.steps, DrawStreams.from_seed(37, 0))
        assert traj.points.shape == (400, 2)
        mix = predictive_mixture(traj, schedule, kernel)
        assert mix.prob([-np.inf, -np.inf], [np.inf, np.inf]) == pytest.approx(1.0)
        t = np.array([0.8, -0.4])
        assert abs(mix.cf(t)) <= 1.0
        trace = mg.cf_martingale_trace(traj, schedule, kernel, t)
        assert np.isfinite(trace.martingale[-1].real)
        tight = mg.tightness_trace(traj, schedule, kernel.norm_mean)
        assert np.all(tight.martingale >= tight.running_mean)
        report = mg.tail_prob_bound_check(
            tight, traj, schedule, kernel, threshold=10 * tight.running_mean[-1], at_times=[100]
        )
        assert report.passed


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

    def test_symmetric_two_points(self, tmp_path):
        cfg = self._cfg(tmp_path, [-1.0, 1.0], steps=2, replications=1)
        payload = run(cfg, "posterior")
        assert payload["posterior_mean"][0] == pytest.approx(0.0, abs=1e-15)

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
            spreads.append(payload["posterior_mean_spread"][0])
        assert spreads[0] > spreads[1] > spreads[2]

    def test_needs_data(self, tmp_path):
        cfg = ExperimentConfig(base_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            run(cfg, "posterior")

    def test_steps_must_cover_data(self, tmp_path):
        cfg = self._cfg(tmp_path, [1.0, 2.0, 3.0], steps=2)
        with pytest.raises(ConfigError):
            run(cfg, "posterior")


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
        summary = json.loads((tmp_path / "alt" / "run_summary.json").read_text())
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
            ("cf-trace", "diagnostics.t_grid = 1000\n", None, "conditioning floor"),
            ("simulate", "bandwidth.C = nan\n", None, "power schedule"),
            ("simulate", "bandwidth.delta = inf\n", None, "power schedule"),
            ("simulate", "bandwidth.form = exponential\nbandwidth.rate = nan\n", None, "rate"),
            ("simulate", "kernel.family = student_t\nkernel.dof = inf\n", None, "dof"),
            ("diagnose", "diagnostics.tail_threshold_factor = -1\n", None, "tail_threshold_factor"),
            ("diagnose", "kernel.family = laplace\n", None, "kernel.dimension"),
        ],
        ids=[
            "ragged-data", "non-numeric-data", "missing-config", "missing-data",
            "urn-window-0", "urn-anchor-1", "urn-horizon-below-anchor", "urn-anchor-beyond-steps",
            "urn-horizon-0", "cf-start-index-out-of-scan", "bandwidth-C-nan",
            "bandwidth-delta-inf", "bandwidth-rate-nan", "student-t-dof-inf",
            "negative-tail-factor", "diagnose-laplace-d2",
        ],
    )
    def test_bad_input_files_exit_code(self, tmp_path, capsys, mode, config_text, data_text, needle):
        cfgfile = tmp_path / "exp.cfg"
        if config_text is not None:
            cfgfile.write_text("run.steps = 20\nkernel.dimension = 2\n" + config_text)
        if data_text is not None:
            (tmp_path / "obs.txt").write_text(data_text)
        assert cli_main([mode, "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert needle in err

    def test_product_tail_tolerance_exit_code(self, tmp_path, capsys):
        # At t = 20 the half-normal product tail from n = 2001 cannot reach
        # its tolerance; the run must end as an error, not a traceback.
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "flavor = kde\nkernel.family = half_normal\nrun.steps = 2000\n"
            "diagnostics.t_grid = 1, 20\n"
        )
        assert cli_main(["cf-trace", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "tolerance" in err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("run.steps = many\n")
        assert cli_main(["simulate", "--config", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err
