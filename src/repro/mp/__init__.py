"""Execution-driven multiprocessor simulation (Section 6)."""

from repro.mp.engine import KernelFactory, MPEngine, MPResult
from repro.mp.layout import NODE_REGION_BYTES, Layout
from repro.mp.node import HitLevel, IntegratedNode, ReferenceNode, SCOMANode
from repro.mp.ops import BARRIER, COMPUTE, LOCK, READ, UNLOCK, WRITE, Op
from repro.mp.system import AccessStats, MPSystem, SystemKind

__all__ = [
    "AccessStats",
    "BARRIER",
    "COMPUTE",
    "HitLevel",
    "IntegratedNode",
    "KernelFactory",
    "Layout",
    "LOCK",
    "MPEngine",
    "MPResult",
    "MPSystem",
    "NODE_REGION_BYTES",
    "Op",
    "READ",
    "ReferenceNode",
    "SCOMANode",
    "SystemKind",
    "UNLOCK",
    "WRITE",
]
