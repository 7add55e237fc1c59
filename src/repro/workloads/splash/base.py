"""SPLASH kernel framework.

Each kernel (Table 5) is a real, executing program: it computes actual
results on numpy state while yielding the shared-memory references and
synchronization its SPLASH original would issue.  ``build`` allocates the
data structures through the CC-NUMA :class:`~repro.mp.layout.Layout`
(placement decides the local/remote split) and returns a per-processor
generator factory for :class:`~repro.mp.engine.MPEngine`.

Data sets are scaled down from Table 5 so execution-driven simulation
runs at Python speed; constructor arguments (and the harness's
``scale`` knobs) restore larger sizes.  EXPERIMENTS.md records the sizes
used for each figure.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from repro.mp.engine import KernelFactory, MPEngine, MPResult
from repro.mp.layout import Layout
from repro.mp.system import MPSystem, SystemKind


class SplashKernel(ABC):
    """One SPLASH application."""

    name: str = "kernel"
    description: str = ""

    @abstractmethod
    def build(self, num_procs: int, layout: Layout) -> KernelFactory:
        """Allocate shared data and return the per-processor kernel."""

    def run_on(
        self, kind: SystemKind, num_procs: int,
    ) -> tuple[MPResult, MPSystem]:
        """Convenience: build a system of ``kind`` and execute."""
        system = MPSystem(num_procs, kind)
        factory = self.build(num_procs, system.layout)
        return MPEngine(system).run(factory), system

