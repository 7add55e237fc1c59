"""SPLASH benchmark kernels (Table 5), scaled for execution-driven
Python simulation."""

from repro.workloads.splash.base import SplashKernel
from repro.workloads.splash.lu import LUKernel
from repro.workloads.splash.mp3d import MP3DKernel
from repro.workloads.splash.ocean import OceanKernel
from repro.workloads.splash.pthor import PthorKernel
from repro.workloads.splash.water import WaterKernel

KERNELS = {
    "lu": LUKernel,
    "mp3d": MP3DKernel,
    "ocean": OceanKernel,
    "water": WaterKernel,
    "pthor": PthorKernel,
}

__all__ = [
    "KERNELS",
    "LUKernel",
    "MP3DKernel",
    "OceanKernel",
    "PthorKernel",
    "SplashKernel",
    "WaterKernel",
]
