"""Machine models: SS-5, SS-10/61, the integrated device; Table 1 and
Figure 2 reproductions."""

from repro.machines.models import (
    CacheLevel,
    MachineModel,
    integrated_device,
    sparcstation_5,
    sparcstation_10,
)
from repro.machines.stridewalk import (
    DEFAULT_SIZES,
    DEFAULT_STRIDES,
    StrideWalkPoint,
    crossover_sizes,
    stride_walk_curve,
)
from repro.machines.table1 import (
    SPEC92_CLASS,
    SYNOPSYS_CLASS,
    Table1Result,
    WorkloadClass,
    table1_model,
)

__all__ = [
    "CacheLevel",
    "DEFAULT_SIZES",
    "DEFAULT_STRIDES",
    "MachineModel",
    "SPEC92_CLASS",
    "SYNOPSYS_CLASS",
    "StrideWalkPoint",
    "Table1Result",
    "WorkloadClass",
    "crossover_sizes",
    "integrated_device",
    "sparcstation_5",
    "sparcstation_10",
    "stride_walk_curve",
    "table1_model",
]
