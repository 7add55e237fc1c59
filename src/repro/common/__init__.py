"""Shared substrate: units, parameters, RNG, statistics and address math.

Everything configurable about the proposed integrated processor/memory
device, the reference systems, and the experiment harness is declared in
:mod:`repro.common.params` so that every simulator draws its constants from
one place.
"""

from repro.common.errors import ConfigError, ReproError, SimulationError
from repro.common.params import (
    CacheGeometry,
    ConventionalSystemParams,
    DRAMTiming,
    IntegratedDeviceParams,
    MPLatencies,
    PipelineParams,
    VictimCacheParams,
)
from repro.common.rng import make_rng, split_rng
from repro.common.stats import RatioStat
from repro.common.units import GB, GHZ, KB, MB, MHZ, NS

__all__ = [
    "CacheGeometry",
    "ConventionalSystemParams",
    "ConfigError",
    "DRAMTiming",
    "GB",
    "GHZ",
    "IntegratedDeviceParams",
    "KB",
    "MB",
    "MHZ",
    "MPLatencies",
    "NS",
    "PipelineParams",
    "RatioStat",
    "ReproError",
    "SimulationError",
    "VictimCacheParams",
    "make_rng",
    "split_rng",
]
