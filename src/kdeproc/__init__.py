"""Simulation and diagnostics for kernel-based Bayesian predictive processes."""

from .bandwidth import BandwidthSchedule, default_delta
from .kernels import KernelSpec
from .process import (
    PredictiveMixture,
    Trajectory,
    cf_path,
    dominating_path,
    predictive_mixture,
    simulate,
)
from .streams import DrawStreams

__version__ = "0.2.3"

__all__ = [
    "BandwidthSchedule",
    "DrawStreams",
    "KernelSpec",
    "PredictiveMixture",
    "Trajectory",
    "cf_path",
    "default_delta",
    "dominating_path",
    "predictive_mixture",
    "simulate",
    "__version__",
]
