"""Configuration parsing, validation and hashing."""

import re

import pytest

from kdeproc import config
from kdeproc.config import (
    ExperimentConfig,
    artifact_label,
    load_bandwidth_table,
    load_data_points,
)
from kdeproc.errors import ConfigError, EmptyData, NonFiniteInput


def write_cfg(tmp_path, body, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(body)
    return path


FULL = """
# full experiment
flavor = recursive
kernel.family = student_t
kernel.dimension = 1
kernel.dof = 7
bandwidth.form = power
bandwidth.C = 2.0
bandwidth.delta = 0.25
run.steps = 400
run.replications = 12
run.master_seed = 0xdeadbeef
run.output_dir = artifacts
run.checkpoints = 40, 100, 200
diagnostics.t_grid = 0.5, 1.0
diagnostics.drift_times = 10, 50
data.path = obs.txt
posterior.quantiles = 0.1, 0.9
urn.window_sizes = 2, 5
"""


class TestParsing:
    def test_full_file(self, tmp_path):
        (tmp_path / "obs.txt").write_text("0.0\n")
        cfg = ExperimentConfig.from_file(write_cfg(tmp_path, FULL))
        assert cfg.flavor == "recursive"
        assert cfg.kernel_dof == 7.0
        assert cfg.master_seed == 0xDEADBEEF
        assert cfg.checkpoints == (40, 100, 200)
        assert cfg.kernel.family == "student_t"
        assert cfg.schedule.values(1)[-1] == 2.0
        assert cfg.data.tolist() == [[0.0]]

    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.flavor == "kde"
        assert cfg.t_grid == (0.5, 1.0, 2.0)
        assert cfg.schedule.delta == pytest.approx(0.2)

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key"):
            ExperimentConfig.from_file(write_cfg(tmp_path, "bandwith.form = power\n"))

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            ExperimentConfig.from_file(write_cfg(tmp_path, "flavor = kde\nflavor = kde\n"))

    def test_bad_value(self, tmp_path):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_file(write_cfg(tmp_path, "run.steps = soon\n"))

    def test_missing_equals(self, tmp_path):
        with pytest.raises(ConfigError, match="expected"):
            ExperimentConfig.from_file(write_cfg(tmp_path, "flavor kde\n"))

    def test_checkpoints_must_increase(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(checkpoints=(10, 10), steps=100)
        with pytest.raises(ConfigError):
            ExperimentConfig(checkpoints=(5, 200), steps=100)

    def test_seed_range(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(master_seed=-1)
        with pytest.raises(ConfigError):
            ExperimentConfig(master_seed=2**64)

    def test_flavor_and_kernel_validated(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(flavor="smooth")
        with pytest.raises(ConfigError):
            ExperimentConfig(kernel_family="box")
        with pytest.raises(ConfigError, match="unknown bandwidth.form 'cubic'"):
            ExperimentConfig(bandwidth_form="cubic")

    def test_posterior_box_pairing(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(posterior_box_lo=-1.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(posterior_box_lo=1.0, posterior_box_hi=-1.0)
        cfg = ExperimentConfig(posterior_box_lo=-1.0, posterior_box_hi=1.0)
        assert cfg.posterior_box_hi == 1.0

    def test_exponential_needs_rate(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(bandwidth_form="exponential")
        cfg = ExperimentConfig(bandwidth_form="exponential", bandwidth_rate=0.5)
        assert cfg.schedule.rate == 0.5

    def test_table_from_file(self, tmp_path):
        (tmp_path / "h.txt").write_text("# widths\n1.0\n0.5\n0.25\n")
        cfg = ExperimentConfig(
            bandwidth_form="table",
            bandwidth_table_path="h.txt",
            base_dir=str(tmp_path),
            steps=3,
        )
        assert cfg.schedule.values(3)[-1] == 0.25
        with pytest.raises(ConfigError, match="bandwidth.table_path required"):
            ExperimentConfig(bandwidth_form="table", base_dir=str(tmp_path), steps=3)

    def test_overrides(self):
        base = ExperimentConfig(master_seed=1)
        cfg = base.with_overrides(master_seed=9, output_dir="x")
        assert cfg.master_seed == 9 and cfg.output_dir == "x"
        assert base.with_overrides() is base

    @pytest.mark.parametrize(
        "field, values, message",
        [
            ("t_grid", (1.0, 1.0000001),
             "diagnostics.t_grid values 1.0 and 1.0000001 share the artifact label '1'"),
            ("t_grid", (0.5, 2.0, 0.5), "diagnostics.t_grid values 0.5 and 0.5"),
            ("posterior_quantiles", (0.25, 0.5, 0.5000001),
             "posterior.quantiles values 0.5 and 0.5000001 share the artifact label '0.5'"),
            ("drift_times", (10, 100, 10), "diagnostics.drift_times values 10 and 10"),
            ("urn_window_sizes", (2, 2, 5), "urn.window_sizes values 2 and 2"),
        ],
        ids=["t-grid-7-digits", "t-grid-repeat", "quantile-7-digits", "drift-time-repeat",
             "urn-window-repeat"],
    )
    def test_artifact_label_collisions_refused(self, field, values, message):
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig(**{field: values})

    def test_distinct_labels_accepted(self):
        # Values 6 significant digits apart keep their own labels; integers
        # are compared whole, however many digits they have.
        cfg = ExperimentConfig(
            t_grid=(1.0, 1.00001, -1.0), posterior_quantiles=(0.5, 0.500001),
            drift_times=(1234567, 1234568), urn_window_sizes=(2, 3),
        )
        assert [artifact_label(t) for t in cfg.t_grid] == ["1", "1.00001", "-1"]
        assert [artifact_label(q) for q in cfg.posterior_quantiles] == ["0.5", "0.500001"]


class TestHash:
    def test_stable_and_sensitive(self):
        a = ExperimentConfig(master_seed=1)
        b = ExperimentConfig(master_seed=1)
        c = ExperimentConfig(master_seed=2)
        assert a.config_hash() == b.config_hash()
        assert a.config_hash() != c.config_hash()

    def test_echo_roundtrip_keys(self):
        echo = ExperimentConfig().to_echo()
        assert echo["flavor"] == "kde"
        assert echo["bandwidth.delta"] == pytest.approx(0.2)
        assert "kernel.dof" not in echo

    # Echoes and hashes recorded from the hand-written echo of kdeproc 0.1.1.
    DEFAULT_ECHO = {
        "flavor": "kde",
        "kernel.family": "gaussian",
        "kernel.dimension": 1,
        "bandwidth.form": "power",
        "bandwidth.C": 1.0,
        "bandwidth.delta": 0.2,
        "run.steps": 1000,
        "run.replications": 1,
        "run.master_seed": 0,
        "run.checkpoints": [],
        "diagnostics.t_grid": [0.5, 1.0, 2.0],
        "diagnostics.drift_times": [10, 100],
        "diagnostics.tail_threshold_factor": 10.0,
        "posterior.quantiles": [0.05, 0.25, 0.5, 0.75, 0.95],
        "urn.window_sizes": [2, 5, 10],
    }
    NOT_POWER = ("bandwidth.C", "bandwidth.delta")

    @pytest.mark.parametrize(
        "raw, changed, dropped, digest",
        [
            ({}, {}, (), "f575aa172edf43ea"),
            (
                {"bandwidth.form": "exponential", "bandwidth.rate": "0.05"},
                {"bandwidth.form": "exponential", "bandwidth.rate": 0.05},
                NOT_POWER,
                "bd253ba02c2e2d41",
            ),
            (
                {"bandwidth.form": "table", "bandwidth.table_path": "h.txt", "run.steps": "2"},
                {"bandwidth.form": "table", "bandwidth.table_path": "h.txt", "run.steps": 2},
                NOT_POWER,
                "e1288ac4dc2c68af",
            ),
            (
                {"kernel.family": "student_t", "kernel.dof": "5", "kernel.dimension": "2"},
                {
                    "kernel.family": "student_t",
                    "kernel.dof": 5.0,
                    "kernel.dimension": 2,
                    "bandwidth.delta": 0.16666666666666666,
                },
                (),
                "06e99d3b0b37c537",
            ),
            (
                {"bandwidth.rate": "0.3", "bandwidth.C": "2", "kernel.dimension": "3"},
                {"bandwidth.C": 2.0, "kernel.dimension": 3, "bandwidth.delta": 0.14285714285714285},
                (),
                "d272ae0df67eb090",
            ),
            (
                {
                    "data.path": "obs.txt",
                    "posterior.box_lo": "-1",
                    "posterior.box_hi": "2.5",
                    "run.output_dir": "elsewhere",
                },
                {"data.path": "obs.txt", "posterior.box_lo": -1.0, "posterior.box_hi": 2.5},
                (),
                "235e7c55a7cce203",
            ),
            (
                {
                    "urn.anchor": "4",
                    "urn.fraction_horizon": "500",
                    "urn.window_sizes": "3, 6",
                    "run.checkpoints": "10, 20",
                },
                {
                    "urn.anchor": 4,
                    "urn.fraction_horizon": 500,
                    "urn.window_sizes": [3, 6],
                    "run.checkpoints": [10, 20],
                },
                (),
                "02201f2a84f14a75",
            ),
        ],
        ids=[
            "defaults", "exponential", "table", "student_t-dof", "power-stray-rate",
            "data-box", "urn-anchor-horizon",
        ],
    )
    def test_echo_pinned(self, tmp_path, raw, changed, dropped, digest):
        (tmp_path / "h.txt").write_text("0.5\n0.25\n")
        cfg = ExperimentConfig.from_mapping(raw, base_dir=str(tmp_path))
        expected = {k: v for k, v in self.DEFAULT_ECHO.items() if k not in dropped}
        expected.update(changed)
        echo = cfg.to_echo()
        assert echo == expected
        assert {k: type(v) for k, v in echo.items()} == {k: type(v) for k, v in expected.items()}
        assert cfg.config_hash() == digest


class TestLoaders:
    @pytest.mark.parametrize(
        "read, good, bad",
        [
            (ExperimentConfig.from_file, "flavor = kde", "flavor kde"),
            (load_bandwidth_table, "0.5", "abc"),
            (lambda path: load_data_points(path, 1), "0.5", "abc"),
        ],
        ids=["config", "table", "data"],
    )
    def test_bad_line_named_after_skipped_lines(self, tmp_path, read, good, bad):
        # Lines 2-5 are blank or comments: the reader skips them, yet still
        # names the bad line by its number in the file.
        path = tmp_path / "input.txt"
        path.write_text(f"{good}\n\n# a comment\n   \n  # indented\n{bad}\n")
        with pytest.raises(ConfigError, match=re.escape(f"{path}:6: ")):
            read(path)

    def test_data_read_once_at_first_use(self, tmp_path, monkeypatch):
        reads = []
        load = config.load_data_points
        monkeypatch.setattr(
            config, "load_data_points", lambda *args: reads.append(args) or load(*args)
        )
        (tmp_path / "obs.txt").write_text("0.1\n-0.4\n")
        cfg = ExperimentConfig(data_path="obs.txt", base_dir=str(tmp_path), steps=10)
        assert reads == []
        data = cfg.data
        assert data.tolist() == [[0.1], [-0.4]]
        assert cfg.data is data
        assert len(reads) == 1
        assert not data.flags.writeable

    def test_bandwidth_table_rejects_empty(self, tmp_path):
        p = tmp_path / "h.txt"
        p.write_text("# nothing\n")
        with pytest.raises(ConfigError):
            load_bandwidth_table(p)

    def test_data_points(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("# obs\n1.0\n-2.5\n")
        pts = load_data_points(p, 1)
        assert pts.shape == (2, 1)

    def test_data_points_multidim(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("1.0, 2.0\n3.0 4.0\n")
        assert load_data_points(p, 2).shape == (2, 2)

    def test_data_errors(self, tmp_path):
        empty = tmp_path / "e.txt"
        empty.write_text("\n")
        with pytest.raises(EmptyData):
            load_data_points(empty, 1)
        nf = tmp_path / "n.txt"
        nf.write_text("nan\n")
        with pytest.raises(NonFiniteInput):
            load_data_points(nf, 1)
        ragged = tmp_path / "r.txt"
        ragged.write_text("1.0 2.0\n# note\n\n3.0, 4.0\n5.0\n6.0 7.0 8.0\n")
        with pytest.raises(ConfigError, match=r"r\.txt:5: rows with different numbers of coord"):
            load_data_points(ragged, 2)
        wrongdim = tmp_path / "w.txt"
        wrongdim.write_text("1.0 2.0\n")
        with pytest.raises(ConfigError):
            load_data_points(wrongdim, 1)
