"""Rate and loss limits for quantized control over lossy channels."""

from .channel import ChannelConfig, draw
from .codec_loop import (
    QuantizerSpec,
    SaturationError,
    SimTrace,
    run_closed_loop,
)
from .interval import Interval
from .limits import NecessaryBounds, necessary_bounds, you_bounds
from .mjls import MjlsModel, build_F, min_sufficient_N, spectral_radius, sufficient_mss
from .montecarlo import DecayReport, Experiment, run_experiment, sweep
from .plant import ParamStrategy, UncertainPlant
from .timeshare import TimeShareConfig, kappa_bar, lossless_bound, run_timeshare_loop

__all__ = [
    "ChannelConfig",
    "DecayReport",
    "Experiment",
    "Interval",
    "MjlsModel",
    "NecessaryBounds",
    "ParamStrategy",
    "QuantizerSpec",
    "SaturationError",
    "SimTrace",
    "TimeShareConfig",
    "UncertainPlant",
    "build_F",
    "draw",
    "kappa_bar",
    "lossless_bound",
    "min_sufficient_N",
    "necessary_bounds",
    "run_closed_loop",
    "run_experiment",
    "run_timeshare_loop",
    "spectral_radius",
    "sufficient_mss",
    "sweep",
    "you_bounds",
]

__version__ = "0.1.0"
