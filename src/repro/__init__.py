"""repro: a reproduction of "Missing the Memory Wall: The Case for
Processor/Memory Integration" (Saulsbury, Pong & Nowatzyk, ISCA 1996).

The package implements the paper's proposed integrated processor/DRAM
device together with every substrate its evaluation depends on:

- :mod:`repro.caches` - trace-driven cache simulators, including the DRAM
  column-buffer caches and the victim cache.
- :mod:`repro.dram` - the 16-bank 256 Mbit DRAM device model with ECC and
  the directory-in-ECC encoding.
- :mod:`repro.gspn` - a generalized stochastic Petri net engine and the
  paper's memory-bank and processor models (Figures 9 and 10).
- :mod:`repro.trace` / :mod:`repro.workloads` - reference-stream
  generators, the SPEC'95 workload proxy models, and executable
  SPLASH-like parallel kernels.
- :mod:`repro.coherence`, :mod:`repro.interconnect`, :mod:`repro.mp` -
  the directory-based shared-memory multiprocessor.
- :mod:`repro.uniproc`, :mod:`repro.machines`, :mod:`repro.analysis` -
  the performance pipeline and the per-table/per-figure experiments.
- :mod:`repro.obs` - low-overhead hierarchical span tracing across all
  of the above, with a Chrome trace-event exporter (the CLI's
  ``--trace``) and the per-stage rollup the run metrics embed.

Quickstart::

    from repro.workloads.spec import get_proxy
    from repro.caches import ColumnBufferCache
    from repro.common import IntegratedDeviceParams

    device = IntegratedDeviceParams()
    proxy = get_proxy("126.gcc")
    trace = proxy.data_trace(length=200_000, seed=1)
    cache = ColumnBufferCache(device.dcache_geometry)
    stats = cache.run(trace)
    print(stats.miss_rate)
"""

__version__ = "1.0.0"
