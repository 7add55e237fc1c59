"""The full uniprocessor performance pipeline (Section 5.5).

``integrated_cpi`` and ``conventional_cpi`` reproduce the paper's
methodology end-to-end: trace-driven miss rates are dialed into the
Figure 10 GSPN, the Monte-Carlo CPI gives the *memory* component
(anything above the net's ideal CPI of 1), and the benchmark's base CPI
from the functional-unit model supplies the *cpu* component — the
``cpu + memory`` split of Table 3.  Spec-ratios follow via the
per-benchmark conversion constants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.paperdata import PAPER_TABLE4, spec_ratio_constant
from repro.common.rng import make_rng, split_rng
from repro.gspn.models import (
    ISSUE_TRANSITION,
    ProcessorNetParams,
    bank_ready_place,
    build_processor_net,
)
from repro.gspn.sim import GSPNSimulator
from repro.uniproc.measurement import MissRates, measure_conventional, measure_integrated
from repro.workloads.spec.model import SpecProxy


@dataclass(frozen=True)
class CPIEstimate:
    """One benchmark's estimated performance."""

    name: str
    cpu_cpi: float
    memory_cpi: float

    @property
    def total_cpi(self) -> float:
        return self.cpu_cpi + self.memory_cpi

    @property
    def spec_ratio(self) -> float | None:
        """Spec-ratio estimate; None for non-SPEC benchmarks (Synopsys)."""
        if self.name not in PAPER_TABLE4:
            return None
        return spec_ratio_constant(self.name) / self.total_cpi


def processor_net_cpi(
    proxy: SpecProxy,
    rates: MissRates,
    instructions: int,
    rng: np.random.Generator,
    track_banks: bool = False,
    **net_overrides,
) -> tuple[float, float | None]:
    """``(cpi, bank utilization)`` of one Figure 10 processor-net run.

    The net takes the proxy's load/store mix, the memory-path
    probabilities of ``rates`` and any :class:`ProcessorNetParams`
    overrides, and runs on ``rng`` until ``instructions`` issues.  The
    CPI is the net's whole CPI (ideal 1 plus the memory stalls).  With
    ``track_banks`` the second value is the time-averaged busy fraction
    of the bank ready places (busy = token absent, in precharge, or held
    by a running access timer), averaged across banks; otherwise the
    banks are not tracked, which keeps the run cheaper, and it is None.
    """
    params = ProcessorNetParams(
        p_load=proxy.mix.p_load,
        p_store=proxy.mix.p_store,
        ifetch=rates.ifetch,
        load=rates.load,
        store=rates.store,
        **net_overrides,
    )
    net = build_processor_net(params)
    track = (tuple(bank_ready_place(b) for b in range(params.num_banks))
             if track_banks else ())
    sim = GSPNSimulator(net, rng, track_places=track)
    result = sim.run(stop_transition=ISSUE_TRANSITION, stop_count=instructions)
    cpi = result.time / result.firings[ISSUE_TRANSITION]
    if not track_banks:
        return cpi, None
    return cpi, sum(result.busy_fraction[p] for p in track) / params.num_banks


def _estimate(proxy: SpecProxy, rates: MissRates, instructions: int,
              seed: int, **net_overrides) -> CPIEstimate:
    """The proxy's base CPI plus the net's CPI above its ideal of 1."""
    cpi, _ = processor_net_cpi(
        proxy, rates, instructions,
        split_rng(make_rng(seed), proxy.name, "gspn"), **net_overrides,
    )
    return CPIEstimate(proxy.name, proxy.base_cpi(), max(0.0, cpi - 1.0))


def integrated_cpi(
    proxy: SpecProxy,
    with_victim: bool = True,
    trace_len: int = 150_000,
    instructions: int = 20_000,
    seed: int = 0,
    mem_access: float = 6.0,
    num_banks: int = 16,
    scoreboard_rate: float | None = 1.0,
) -> CPIEstimate:
    """CPI of the proposed integrated device for one benchmark."""
    rates = measure_integrated(proxy, trace_len, seed, with_victim)
    return integrated_estimate(proxy, rates, instructions, seed, mem_access,
                               num_banks, scoreboard_rate)


def integrated_estimate(
    proxy: SpecProxy,
    rates: MissRates,
    instructions: int = 20_000,
    seed: int = 0,
    mem_access: float = 6.0,
    num_banks: int = 16,
    scoreboard_rate: float | None = 1.0,
) -> CPIEstimate:
    """:func:`integrated_cpi` from miss rates ``measure_integrated`` gave.

    A sweep over device parameters measures the proxy once and calls
    this per point; ``seed`` names the same GSPN stream either way.
    """
    return _estimate(
        proxy, rates, instructions, seed,
        mem_access=mem_access,
        num_banks=num_banks,
        scoreboard_rate=scoreboard_rate,
        has_l2=False,
    )


def conventional_cpi(
    proxy: SpecProxy,
    l2_latency: float = 6.0,
    mem_latency: float = 24.0,
    trace_len: int = 150_000,
    instructions: int = 20_000,
    seed: int = 0,
    num_banks: int = 2,
    scoreboard_rate: float | None = 1.0,
) -> CPIEstimate:
    """CPI of the conventional reference system (Figure 11's subject)."""
    rates = measure_conventional(proxy, trace_len, seed)
    return conventional_estimate(proxy, rates, l2_latency, mem_latency,
                                 instructions, seed, num_banks,
                                 scoreboard_rate)


def conventional_estimate(
    proxy: SpecProxy,
    rates: MissRates,
    l2_latency: float = 6.0,
    mem_latency: float = 24.0,
    instructions: int = 20_000,
    seed: int = 0,
    num_banks: int = 2,
    scoreboard_rate: float | None = 1.0,
) -> CPIEstimate:
    """:func:`conventional_cpi` from miss rates ``measure_conventional`` gave.

    A sweep over latencies measures the proxy once and calls this per
    point; ``seed`` names the same GSPN stream either way.
    """
    return _estimate(
        proxy, rates, instructions, seed,
        mem_access=mem_latency,
        l2_latency=l2_latency,
        num_banks=num_banks,
        scoreboard_rate=scoreboard_rate,
        has_l2=True,
    )
