"""Simulation and diagnostics for kernel-based Bayesian predictive processes."""

from .bandwidth import BandwidthSchedule, default_delta
from .kernels import KernelSpec
from .process import (
    PredictiveMixture,
    Trajectory,
    cf_path,
    dominating_path,
    predictive_mixture,
    reconstruct_all,
    reconstruct_from_genealogy,
    simulate,
    sup_norm_path,
)
from .streams import DrawStreams, substream

__version__ = "0.1.6"

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
    "reconstruct_all",
    "reconstruct_from_genealogy",
    "simulate",
    "substream",
    "sup_norm_path",
    "__version__",
]
