"""Experiment configuration: flat dotted-key files, validation, hashing.

The config format is one ``key = value`` per line, ``#`` comment lines and
blank lines allowed, list values comma-separated.  Unknown keys are errors
(typo safety).  The configuration hash covers the fully resolved values, so
identical effective configs always produce identical artifact headers.

A config builds its kernel and schedule once, when it is made, and reads
``data.path`` at its first use; the config, table and data files share one
line reader, ``_content_lines``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .bandwidth import BandwidthSchedule, default_delta
from .errors import ConfigError, EmptyData, NonFiniteInput
from .kernels import KernelSpec
from .process import FLAVORS


def _parse_int(v: str) -> int:
    return int(v, 0)


def _parse_float(v: str) -> float:
    return float(v)


def _parse_str(v: str) -> str:
    return v


def _parse_int_list(v: str) -> tuple:
    return tuple(int(x.strip(), 0) for x in v.split(",") if x.strip())


def _parse_float_list(v: str) -> tuple:
    return tuple(float(x.strip()) for x in v.split(",") if x.strip())


def artifact_label(value: float) -> str:
    """The name of a t value or quantile level in artifact files, columns and keys."""
    return f"{value:g}"


# config key -> (ExperimentConfig field, value parser)
_KEY_PARSERS = {
    "flavor": ("flavor", _parse_str),
    "kernel.family": ("kernel_family", _parse_str),
    "kernel.dimension": ("kernel_dimension", _parse_int),
    "kernel.dof": ("kernel_dof", _parse_float),
    "bandwidth.form": ("bandwidth_form", _parse_str),
    "bandwidth.C": ("bandwidth_c", _parse_float),
    "bandwidth.delta": ("bandwidth_delta", _parse_float),
    "bandwidth.rate": ("bandwidth_rate", _parse_float),
    "bandwidth.table_path": ("bandwidth_table_path", _parse_str),
    "run.steps": ("steps", _parse_int),
    "run.replications": ("replications", _parse_int),
    "run.master_seed": ("master_seed", _parse_int),
    "run.output_dir": ("output_dir", _parse_str),
    "run.checkpoints": ("checkpoints", _parse_int_list),
    "diagnostics.t_grid": ("t_grid", _parse_float_list),
    "diagnostics.drift_times": ("drift_times", _parse_int_list),
    "diagnostics.tail_threshold_factor": ("tail_threshold_factor", _parse_float),
    "data.path": ("data_path", _parse_str),
    "posterior.quantiles": ("posterior_quantiles", _parse_float_list),
    "posterior.box_lo": ("posterior_box_lo", _parse_float),
    "posterior.box_hi": ("posterior_box_hi", _parse_float),
    "urn.window_sizes": ("urn_window_sizes", _parse_int_list),
    "urn.anchor": ("urn_anchor", _parse_int),
    "urn.fraction_horizon": ("urn_fraction_horizon", _parse_int),
}

# bandwidth.form -> the bandwidth keys it reads; the echo drops other forms' keys.
_FORM_KEYS = {
    "power": ("bandwidth.C", "bandwidth.delta"),
    "exponential": ("bandwidth.rate",),
    "table": ("bandwidth.table_path",),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """Resolved experiment settings; immutable and hashable into artifacts."""

    flavor: str = "kde"
    kernel_family: str = "gaussian"
    kernel_dimension: int = 1
    kernel_dof: float | None = None
    bandwidth_form: str = "power"
    bandwidth_c: float = 1.0
    bandwidth_delta: float | None = None
    bandwidth_rate: float | None = None
    bandwidth_table_path: str | None = None
    steps: int = 1000
    replications: int = 1
    master_seed: int = 0
    output_dir: str = "out"
    checkpoints: tuple = ()
    t_grid: tuple = (0.5, 1.0, 2.0)
    drift_times: tuple = (10, 100)
    tail_threshold_factor: float = 10.0
    data_path: str | None = None
    posterior_quantiles: tuple = (0.05, 0.25, 0.5, 0.75, 0.95)
    posterior_box_lo: float | None = None
    posterior_box_hi: float | None = None
    urn_window_sizes: tuple = (2, 5, 10)
    urn_anchor: int | None = None
    urn_fraction_horizon: int | None = None
    base_dir: str = "."

    def __post_init__(self):
        if self.flavor not in FLAVORS:
            raise ConfigError(f"flavor must be one of {FLAVORS}, got {self.flavor!r}")
        if self.steps < 1:
            raise ConfigError(f"run.steps must be >= 1, got {self.steps}")
        if self.replications < 1:
            raise ConfigError(f"run.replications must be >= 1, got {self.replications}")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("run.master_seed must fit in an unsigned 64-bit integer")
        if any(n < 1 or n > self.steps for n in self.checkpoints):
            raise ConfigError("run.checkpoints must lie in [1, run.steps]")
        if any(b <= a for a, b in zip(self.checkpoints, self.checkpoints[1:])):
            raise ConfigError("run.checkpoints must be strictly increasing")
        if any(n < 1 for n in self.drift_times):
            raise ConfigError("diagnostics.drift_times must be >= 1")
        if not 0 < self.tail_threshold_factor < np.inf:
            raise ConfigError(
                "diagnostics.tail_threshold_factor must be finite and > 0, "
                f"got {self.tail_threshold_factor}"
            )
        if any(not 0 < q < 1 for q in self.posterior_quantiles):
            raise ConfigError("posterior.quantiles must lie in (0, 1)")
        if not all(np.isfinite(self.t_grid)):
            raise ConfigError("diagnostics.t_grid values must be finite")
        for key, values, label in (
            ("diagnostics.t_grid", self.t_grid, artifact_label),
            ("posterior.quantiles", self.posterior_quantiles, artifact_label),
            ("diagnostics.drift_times", self.drift_times, str),
            ("urn.window_sizes", self.urn_window_sizes, str),
        ):
            labels = [label(v) for v in values]
            for i, name in enumerate(labels):
                if name in labels[:i]:
                    raise ConfigError(f"{key} values {values[labels.index(name)]!r} and "
                                      f"{values[i]!r} share the artifact label {name!r}")
        if (self.posterior_box_lo is None) != (self.posterior_box_hi is None):
            raise ConfigError("posterior.box_lo and posterior.box_hi must be set together")
        for key, side in (("box_lo", self.posterior_box_lo), ("box_hi", self.posterior_box_hi)):
            # Infinite sides are legal: the mixture's prob takes half-lines.
            if side is not None and np.isnan(side):
                raise ConfigError(f"posterior.{key} must not be nan")
        if self.posterior_box_lo is not None and self.posterior_box_lo > self.posterior_box_hi:
            raise ConfigError("posterior.box_lo must not exceed posterior.box_hi")
        if any(n < 2 for n in self.urn_window_sizes):
            raise ConfigError("urn.window_sizes must be >= 2")
        if self.urn_fraction_horizon is not None and self.urn_fraction_horizon < 1:
            raise ConfigError(
                f"urn.fraction_horizon must be >= 1, got {self.urn_fraction_horizon}"
            )
        if self.urn_anchor is not None:
            if self.urn_anchor < 2:
                raise ConfigError(f"urn.anchor must be >= 2, got {self.urn_anchor}")
            # An unset horizon means the fraction runs to run.steps.
            if self.urn_fraction_horizon is None:
                key, horizon = "run.steps", self.steps
            else:
                key, horizon = "urn.fraction_horizon", self.urn_fraction_horizon
            if horizon < self.urn_anchor:
                raise ConfigError(f"urn.anchor={self.urn_anchor} exceeds {key}")
        try:
            self.kernel, self.schedule  # built once, here, for every run mode
        except (ValueError, OSError) as exc:
            raise ConfigError(str(exc)) from exc

    # ----------------------------------------------------------- constructors

    @classmethod
    def from_mapping(cls, raw: dict, base_dir: str = ".") -> "ExperimentConfig":
        unknown = sorted(set(raw) - set(_KEY_PARSERS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        fields = {}
        for key, value in raw.items():
            name, parse = _KEY_PARSERS[key]
            try:
                fields[name] = parse(value.strip() if isinstance(value, str) else value)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from exc
        return cls(base_dir=base_dir, **fields)

    @classmethod
    def from_file(cls, path) -> "ExperimentConfig":
        path = Path(path)
        raw = {}
        for lineno, line in _content_lines(path, "config file"):
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, value = map(str.strip, line.split("=", 1))
            if key in raw:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key}")
            raw[key] = value
        return cls.from_mapping(raw, base_dir=str(path.parent))

    def with_overrides(self, master_seed: int | None = None, output_dir: str | None = None):
        overrides = {"master_seed": master_seed, "output_dir": output_dir}
        changes = {name: v for name, v in overrides.items() if v is not None}
        return replace(self, **changes) if changes else self

    # ------------------------------------------------------------- components

    @cached_property
    def kernel(self) -> KernelSpec:
        return KernelSpec(
            family=self.kernel_family, dim=self.kernel_dimension, dof=self.kernel_dof
        )

    @cached_property
    def schedule(self) -> BandwidthSchedule:
        if self.bandwidth_form == "power":
            return BandwidthSchedule.power(self.bandwidth_c, self._delta())
        if self.bandwidth_form == "exponential":
            if self.bandwidth_rate is None:
                raise ConfigError("bandwidth.rate required for the exponential form")
            return BandwidthSchedule.exponential(self.bandwidth_rate)
        if self.bandwidth_form == "table":
            if self.bandwidth_table_path is None:
                raise ConfigError("bandwidth.table_path required for the table form")
            return BandwidthSchedule.from_table(
                load_bandwidth_table(Path(self.base_dir) / self.bandwidth_table_path)
            )
        raise ConfigError(f"unknown bandwidth.form {self.bandwidth_form!r}")

    def _delta(self) -> float:
        """bandwidth.delta, or the dimension's default when unset."""
        if self.bandwidth_delta is None:
            return default_delta(self.kernel_dimension)
        return self.bandwidth_delta

    @cached_property
    def data(self) -> np.ndarray | None:
        """The observed-data prefix, or None, read at first use: a mode that
        refuses data.path never reads the file.  Every run starts from all of it."""
        if self.data_path is None:
            return None
        data = load_data_points(Path(self.base_dir) / self.data_path, self.kernel_dimension)
        if self.steps < len(data):
            raise ConfigError(
                f"run.steps={self.steps} is shorter than the data ({len(data)} points)"
            )
        data.flags.writeable = False  # every run of this config shares it
        return data

    # ------------------------------------------------------------------- echo

    def to_echo(self) -> dict:
        """Flat dotted-key view of every resolved setting: each config key but
        ``run.output_dir``, unset values and the inactive forms' bandwidth keys."""
        inactive = {
            key for form, keys in _FORM_KEYS.items() if form != self.bandwidth_form for key in keys
        }
        echo = {}
        for key, (name, _) in _KEY_PARSERS.items():
            if key == "run.output_dir" or key in inactive:
                continue
            value = self._delta() if key == "bandwidth.delta" else getattr(self, name)
            if value is not None:
                echo[key] = list(value) if isinstance(value, tuple) else value
        return echo

    def config_hash(self) -> str:
        """The echo's digest, extended by the float64 bytes of the bandwidth
        table and of the data where the config reads them: the files' paths
        alone would not tell two of their contents apart."""
        lines = [f"{k} = {v!r}" for k, v in sorted(self.to_echo().items())]
        digest = hashlib.sha256("\n".join(lines).encode())
        if self.bandwidth_form == "table":
            digest.update(np.asarray(self.schedule.table, dtype=float).tobytes())
        if self.data_path is not None:
            digest.update(self.data.tobytes())
        return digest.hexdigest()[:16]


# --------------------------------------------------------------- file loaders


def _content_lines(path, what: str):
    """(line number, stripped line) of each non-blank, non-``#`` line of a file."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    for lineno, line in enumerate(text.splitlines(), start=1):
        if (stripped := line.strip()) and not stripped.startswith("#"):
            yield lineno, stripped


def load_bandwidth_table(path) -> list[float]:
    """One positive real per line; comments and blanks skipped."""
    values = []
    for lineno, line in _content_lines(path, "bandwidth table"):
        try:
            value = float(line)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        if not 0.0 < value < np.inf:
            raise ConfigError(f"{path}:{lineno}: table values must be finite and strictly "
                              f"positive, got {line!r}")
        values.append(value)
    if not values:
        raise ConfigError(f"bandwidth table {path} has no values")
    return values


def load_data_points(path, dim: int = 1) -> np.ndarray:
    """Observed points, one per line, coordinates comma/whitespace separated."""
    rows = []
    for lineno, line in _content_lines(path, "data file"):
        try:
            rows.append([float(p) for p in line.replace(",", " ").split()])
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from exc
        if len(rows[-1]) != len(rows[0]):
            raise ConfigError(f"{path}:{lineno}: rows with different numbers of coordinates")
    if not rows:
        raise EmptyData(f"data file {path} contains no points")
    arr = np.asarray(rows, dtype=float)
    if arr.shape[1] != dim:
        raise ConfigError(f"data file {path} has dimension {arr.shape[1]}, expected {dim}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteInput(f"data file {path} contains non-finite values")
    return arr
