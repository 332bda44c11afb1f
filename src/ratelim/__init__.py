"""Rate and loss limits for quantized control over lossy channels."""

from .channel import ChannelConfig
from .codec_loop import (
    QuantizerSpec,
    SaturationError,
    SimTrace,
    run_closed_loop,
)
from .interval import Interval
from .limits import NecessaryBounds, necessary_bounds, you_bounds
from .mjls import min_sufficient_N, spectral_radius, sufficient_mss
from .montecarlo import DecayReport, Experiment, run_experiment, sweep
from .plant import ParamStrategy, UncertainPlant
from .timeshare import TimeShareConfig, kappa_bar, lossless_bound

__all__ = [
    "ChannelConfig",
    "DecayReport",
    "Experiment",
    "Interval",
    "NecessaryBounds",
    "ParamStrategy",
    "QuantizerSpec",
    "SaturationError",
    "SimTrace",
    "TimeShareConfig",
    "UncertainPlant",
    "kappa_bar",
    "lossless_bound",
    "min_sufficient_N",
    "necessary_bounds",
    "run_closed_loop",
    "run_experiment",
    "spectral_radius",
    "sufficient_mss",
    "sweep",
    "you_bounds",
]

__version__ = "0.1.0"
