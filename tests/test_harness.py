"""Harness orchestration: determinism, run modes, posterior resampling, CLI."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from kdeproc import (
    BandwidthSchedule,
    DrawStreams,
    KernelSpec,
    dominating_path,
    predictive_mixture,
    process,
    simulate,
)
from kdeproc import martingale as mg
from kdeproc.cli import main as cli_main
from kdeproc.config import ExperimentConfig
from kdeproc.errors import ConfigError
from kdeproc.harness import _bound_entry, _chi_square, run
from kdeproc.process import FLAVORS


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
        traj = simulate(cfg.flavor, cfg.schedule(), cfg.kernel(), cfg.steps, streams)
        mix = predictive_mixture(traj, cfg.schedule().values(cfg.steps), cfg.kernel())
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
        # The reference path: replication 2's streams built from its own
        # SeedSequence, not by the batch engine that wrote the run.
        streams = DrawStreams.from_seed(cfg.master_seed, 2)
        traj = simulate(cfg.flavor, cfg.schedule(), cfg.kernel(), cfg.steps, streams)
        from kdeproc.process import write_trajectory_csv

        write_trajectory_csv(traj, tmp_path / "solo.csv", "0.1.4", cfg.config_hash())
        expected = (tmp_path / "sim" / "trajectory_00002.csv").read_bytes()
        assert (tmp_path / "solo.csv").read_bytes() == expected


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
        assert data["version"] == "0.1.4"
        assert data["config_hash"] == cfg.config_hash()

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_diagnose_modulus_bound_is_correction_sup(self, tmp_path, flavor):
        # |S_n| = |c_n| |phi_n| <= |c_n|: either flavor allows max |c_n| over
        # the t grid, and the recursive one no longer allows 1.
        cfg = ExperimentConfig(
            flavor=flavor, steps=300, replications=3, master_seed=4,
            t_grid=(0.5, 2.0, 5.0), drift_times=(10,), base_dir=str(tmp_path),
        )
        checks = {e["name"]: e for e in run(cfg, "diagnose")["bound_checks"]}
        entry = checks["cf_martingale_modulus"]
        schedule = cfg.schedule()
        h = schedule.values(cfg.steps + 1)
        sups = [
            float(np.nanmax(np.abs(mg.cf_corrections(schedule, h, cfg.kernel(), t,
                                                     cfg.steps, flavor)[1])))
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

    def test_diagnose_skips_cf_drift_before_start_index(self, tmp_path):
        # At t = 5 the kde correction starts at n = 69, so S is NaN at n = 10:
        # that drift test is named in notes instead of reported as NaN.
        cfg = ExperimentConfig(
            flavor="kde", steps=200, replications=100, t_grid=(5.0,),
            drift_times=(10, 100), base_dir=str(tmp_path),
        )
        payload = run(cfg, "diagnose")
        data = read_json(tmp_path / "out" / "diagnostics.json")
        assert data == payload
        tests = {e["name"]: e for e in data["drift_tests"]}
        assert "drift:cf:n=10:t=5" not in tests
        assert "start index 69" in data["notes"]["drift:cf:n=10:t=5"]
        assert np.isfinite(tests["drift:cf:n=100:t=5"]["statistic"])
        assert set(tests) == {
            "drift:tightness:n=10", "drift:tightness:n=100", "drift:cf:n=100:t=5"
        }

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
            assert entry["chi_square"] == urn["chi_square"][str(n)]["statistic"]
            assert entry["statistic"] == urn["chi_square"][str(n)]["p_value"]
            assert entry["bins"] == urn["chi_square"][str(n)]["bins"]

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
        assert [len(b) for b in process.replication_blocks(range(100), 10)][-2:] == [7, 2]
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
        traj = simulate(cfg.flavor, cfg.schedule(), cfg.kernel(), cfg.steps, streams)
        np.testing.assert_array_equal(u, dominating_path(traj))
        np.testing.assert_array_equal(j, np.cumsum(u) / np.arange(1, 151))
        schedule = cfg.schedule()
        tail = mg.compensator_tails(
            "recursive", schedule, schedule.values(150), cfg.kernel().norm_mean, 150
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


class TestMultivariate:
    def test_d2_pipeline(self, tmp_path):
        import numpy as np

        from kdeproc import DrawStreams, simulate
        from kdeproc.process import cf_path, predictive_mixture

        cfg = ExperimentConfig(
            kernel_dimension=2, steps=400, replications=2, master_seed=37, base_dir=str(tmp_path)
        )
        kernel, schedule = cfg.kernel(), cfg.schedule()
        traj = simulate(cfg.flavor, schedule, kernel, cfg.steps, DrawStreams.from_seed(37, 0))
        assert traj.points.shape == (400, 2)
        h = schedule.values(cfg.steps + 1)
        mix = predictive_mixture(traj, h, kernel)
        assert mix.prob([-np.inf, -np.inf], [np.inf, np.inf]) == pytest.approx(1.0)
        t = np.array([0.8, -0.4])
        assert abs(mix.cf(t)) <= 1.0
        _, corr, kernel_cf = mg.cf_corrections(schedule, h, kernel, t, cfg.steps, cfg.flavor)
        assert np.isfinite((corr * cf_path(traj, t, kernel_cf))[-1].real)
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
            ("cf-trace", "diagnostics.t_grid = 1000\n", None, "conditioning floor"),
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
        ],
        ids=[
            "ragged-data", "non-numeric-data", "missing-config", "missing-data",
            "urn-window-0", "urn-anchor-1", "urn-horizon-below-anchor", "urn-anchor-beyond-steps",
            "urn-horizon-0", "cf-start-index-out-of-scan", "bandwidth-C-nan",
            "bandwidth-delta-inf", "bandwidth-rate-nan", "student-t-dof-inf",
            "negative-tail-factor", "diagnose-laplace-d2", "box-lo-nan", "t-grid-nan",
            "diagnose-table", "cf-trace-table", "cf-trace-one-step", "diagnose-one-step",
            "contrast-gaussian", "contrast-two-steps", "contrast-three-steps",
            "urn-data-path", "contrast-data-path", "posterior-empty-t-grid",
            "simulate-steps-below-data",
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
        assert err.startswith("error: ")
        assert needle in err

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
        assert any((tmp_path / "out").iterdir()) == (not err)

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

    def test_product_tail_tolerance_exit_code(self, tmp_path, capsys):
        # student_t with dof 1.5 at d = 3, t = 20 on h_n = n^(-0.05): the
        # product tail from n = 1000 cannot reach its tolerance; the run must
        # end as an error, not a traceback.
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "flavor = recursive\nkernel.family = student_t\nkernel.dof = 1.5\n"
            "kernel.dimension = 3\nbandwidth.delta = 0.05\nrun.steps = 999\n"
            "diagnostics.t_grid = 1, 20\n"
        )
        assert cli_main(["cf-trace", "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "tolerance" in err

    @pytest.mark.parametrize("mode", ["diagnose", "cf-trace"])
    def test_product_tail_error_names_why(self, tmp_path, capsys, mode):
        # student_t with dof 1.5 at t = 20 on h_n = n^(-0.05): the tail past
        # run.steps = 999 misses its tolerance, and the error says where and
        # by how much before anything is written.
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            "flavor = recursive\nkernel.family = student_t\nkernel.dof = 1.5\n"
            "bandwidth.delta = 0.05\nrun.steps = 999\nrun.replications = 2\n"
            "diagnostics.t_grid = 20\nrun.output_dir = out\n"
        )
        assert cli_main([mode, "--config", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: CF product tail at t=(20), flavor recursive, from n=1000")
        assert "relative error" in err and "above the tolerance 1e-08" in err
        assert not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("d, t", [(1, 10), (3, 3)])
    def test_cf_trace_past_the_kde_floor(self, tmp_path, capsys, d, t):
        # gaussian at t = 10: the kde correction has no usable start index up
        # to n = 1000, but the recursive one divides by nothing and starts at
        # 1.  half_normal at d = 3, t = 3: the tail from n = 1001 certifies.
        family = "gaussian" if d == 1 else "half_normal"
        cfgfile = tmp_path / "exp.cfg"
        cfgfile.write_text(
            f"flavor = recursive\nkernel.family = {family}\nkernel.dimension = {d}\n"
            f"run.steps = 1000\ndiagnostics.t_grid = {t}\nrun.output_dir = out\n"
        )
        assert cli_main(["cf-trace", "--config", str(cfgfile)]) == 0
        assert capsys.readouterr().err == ""
        summary = read_json(tmp_path / "out" / "cf_trace_summary.json")
        assert summary["traces"][f"{t}"]["start_index"] == 1
        rows = (tmp_path / "out" / f"cf_trace_t{t}.csv").read_text().splitlines()[2:]
        assert len(rows) == 1000
        assert all("nan" not in row for row in rows)

    def test_bad_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("run.steps = many\n")
        assert cli_main(["simulate", "--config", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err
