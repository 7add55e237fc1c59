"""The 18 SPEC'95 benchmarks plus Synopsys as calibrated proxy models.

Each entry reflects what the paper (Table 2, Sections 5.2-5.4) and the
SPEC documentation say about the benchmark: code footprint and locality,
working-set size, dominant data-access patterns, and FP intensity.  The
proxies are built from the composable generators in
:mod:`repro.trace.generators`; the emergent cache behaviour — not any
dialed-in miss rate — produces the Figure 7/8 shapes.

Address-space layout: each benchmark places its code at 64 KB and its
data regions at multiples of ``REGION`` (16 MB), so code and data never
alias.
"""

from __future__ import annotations

import numpy as np

from repro.common.units import KB, MB
from repro.trace.code import AliasedCallPair, CodeProfile
from repro.trace.generators import (
    blocked_sweep,
    hot_cold_mix,
    pointer_chase,
    record_walk,
    scattered_blocks,
    stencil_sweep,
    strided_sweep,
)
from repro.trace.stream import (
    ReferenceTrace,
    interleave_blocks,
    interleave_round_robin,
)
from repro.workloads.spec.model import InstructionMix, PipelineCosts, SpecProxy

REGION = 16 * MB


def _stream_bases(
    rng: np.random.Generator, count: int, colliding: int = 0
) -> list[int]:
    """Bases for concurrent vector streams.

    Non-colliding streams get their own 16 MB region plus a distinct 512 B
    set slot, so they coexist without column-buffer conflicts (the friendly
    case the long lines reward).

    The first ``colliding`` streams instead share one 512 B slot *mod 8 KB*
    (bases 8 KB + 64 B apart): they all map to the same column-buffer set,
    but to different 32 B lines of every conventional cache.  Three or more
    such streams thrash the 2-way column cache — the Section 5.3 pathology
    of tomcatv/swim/su2cor.
    """
    slots = rng.permutation(16)[:max(count, 1)]
    bases = []
    collide_base = REGION + int(slots[0]) * 512
    for i in range(count):
        if i < colliding:
            bases.append(collide_base + i * (8 * KB + 64))
        else:
            bases.append(REGION * (i + 1) + int(slots[i]) * 512)
    return bases


def _vector_fp(
    length: int,
    rng: np.random.Generator,
    streams: int = 4,
    taps: tuple[int, ...] = (-1, 0, 1),
    colliding: int = 0,
    scattered_share: float = 0.0,
    scattered_count: int = 128,
    scattered_zipf: float = 1.3,
    store_fraction: float = 0.3,
) -> ReferenceTrace:
    """Vector/stencil code: interleaved unit-stride streams, optionally
    with a group of column-set-colliding streams and/or a scattered
    small-block working set (see :func:`_stream_bases` and
    :func:`repro.trace.generators.scattered_blocks`)."""
    per_stream = max(256, length // max(1, streams) // len(taps))
    bases = _stream_bases(rng, streams, colliding)
    parts = [
        stencil_sweep(
            base,
            per_stream + len(taps),
            8,
            neighbor_offsets=taps,
            store_fraction=store_fraction if i == streams - 1 else 0.0,
            rng=rng,
        )
        for i, base in enumerate(bases)
    ]
    stream_trace = interleave_round_robin(parts)
    if scattered_share <= 0.0:
        return stream_trace
    scattered = scattered_blocks(
        rng,
        base=REGION * (streams + 2),
        block_count=scattered_count,
        spread_bytes=4 * MB,
        count=max(256, int(length * scattered_share)),
        zipf_exponent=scattered_zipf,
        store_fraction=0.1,
    )
    return interleave_blocks(
        [stream_trace, scattered],
        [1.0 - scattered_share, scattered_share],
        block=24,
        length=length,
        rng=rng,
    )


# ---------------------------------------------------------------------------
# Data builders (one per benchmark).  Signature: (length, rng) -> trace.
# ---------------------------------------------------------------------------


def _data_go(length, rng):
    # Game-tree search over small board structures: poor spatial locality,
    # small records (Zipf-reused), plus a hot evaluation stack.
    board = scattered_blocks(rng, REGION, 800, 512 * KB, length,
                             words_per_visit=3, zipf_exponent=1.25,
                             store_fraction=0.2)
    stack = hot_cold_mix(rng, 2 * REGION, 6 * KB, 3 * REGION, 64 * KB,
                         length, hot_fraction=0.97, run_length=6,
                         store_fraction=0.3)
    return interleave_blocks([board, stack], [0.62, 0.38], block=8,
                             length=length, rng=rng)


def _data_m88ksim(length, rng):
    # Simulated 88100 memory image + hot simulator dispatch tables.
    image = strided_sweep(REGION, 4, max(1, length // 6), 4, sweeps=2,
                          store_fraction=0.25, rng=rng)
    tables = hot_cold_mix(rng, 2 * REGION, 10 * KB, 3 * REGION, 1 * MB,
                          length, hot_fraction=0.78, run_length=8,
                          store_fraction=0.2)
    return interleave_blocks([image, tables], [0.3, 0.7], block=16,
                             length=length, rng=rng)


def _data_gcc(length, rng):
    # Large heap of IR nodes with a compact hot core (symbol tables, stack).
    heap = pointer_chase(rng, REGION, 24_000, 64, length,
                         fields_per_visit=3, store_fraction=0.25)
    hot = hot_cold_mix(rng, 2 * REGION, 20 * KB, 3 * REGION, 2 * MB,
                       length, hot_fraction=0.95, run_length=8,
                       store_fraction=0.3)
    return interleave_blocks([heap, hot], [0.10, 0.90], block=12,
                             length=length, rng=rng)


def _data_compress(length, rng):
    # Sequential pass over a ~16 MB input plus random hash-table probes.
    text = strided_sweep(REGION, 4, length, 4, store_fraction=0.1, rng=rng)
    hashes = scattered_blocks(rng, 2 * REGION, 800, 256 * KB, length,
                              words_per_visit=2, zipf_exponent=1.05,
                              store_fraction=0.4)
    return interleave_blocks([text, hashes], [0.85, 0.15], block=8,
                             length=length, rng=rng)


def _data_li(length, rng):
    # xlisp: cons-cell chasing over a small heap with very hot free lists.
    heap = scattered_blocks(rng, REGION, 400, 256 * KB, length,
                            block_bytes=64, words_per_visit=3,
                            zipf_exponent=1.75, store_fraction=0.25)
    hot = hot_cold_mix(rng, 2 * REGION, 8 * KB, 3 * REGION, 128 * KB,
                       length, hot_fraction=0.985, run_length=6,
                       store_fraction=0.3)
    return interleave_blocks([heap, hot], [0.20, 0.80], block=8,
                             length=length, rng=rng)


def _data_ijpeg(length, rng):
    # 8x8 block DCT: tiled sweeps with heavy in-tile reuse.
    return blocked_sweep(REGION, rows=256, cols=256, elem_bytes=4, block=8,
                         sweeps=4, store_fraction=0.3, rng=rng)


def _data_perl(length, rng):
    # Interpreter: scattered heap strings/hashes plus a hot opcode loop.
    heap = pointer_chase(rng, REGION, 40_000, 96, length,
                         fields_per_visit=2, store_fraction=0.3)
    hot = hot_cold_mix(rng, 2 * REGION, 16 * KB, 3 * REGION, 1 * MB,
                       length, hot_fraction=0.93, run_length=6,
                       store_fraction=0.3)
    return interleave_blocks([heap, hot], [0.15, 0.85], block=10,
                             length=length, rng=rng)


def _data_vortex(length, rng):
    # OO database transactions: partial reads of large objects (40 MB DB).
    objects = record_walk(rng, REGION, 100_000, 256, 96, length,
                          sequential_fraction=0.2, store_fraction=0.25)
    index = pointer_chase(rng, 4 * REGION, 30_000, 64, length,
                          fields_per_visit=2, store_fraction=0.1)
    hot = hot_cold_mix(rng, 6 * REGION, 12 * KB, 7 * REGION, 1 * MB,
                       length, hot_fraction=0.94, run_length=8,
                       store_fraction=0.3)
    return interleave_blocks([objects, index, hot], [0.25, 0.12, 0.63],
                             block=10, length=length, rng=rng)


def _data_tomcatv(length, rng):
    # Seven ~2 MB mesh arrays swept in lock-step, plus boundary/residual
    # blocks scattered across the address space (placement-slot poison).
    return _vector_fp(length, rng, streams=7, taps=(-1, 0, 1), colliding=3,
                      scattered_share=0.10, scattered_count=180,
                      scattered_zipf=1.3)


def _data_swim(length, rng):
    # Shallow-water: 13 grids, wide stencils, scattered boundary rows.
    return _vector_fp(length, rng, streams=8, taps=(-1, 0, 1), colliding=4,
                      scattered_share=0.08, scattered_count=220,
                      scattered_zipf=1.3)


def _data_su2cor(length, rng):
    # Quark-gluon lattice: gather-dominated with modest streaming.
    return _vector_fp(length, rng, streams=8, taps=(0, 1, 2), colliding=3,
                      scattered_share=0.12, scattered_count=240,
                      scattered_zipf=1.3)


def _data_hydro2d(length, rng):
    # Navier-Stokes on a 2-D grid: clean stencil streaming (long-line win).
    return _vector_fp(length, rng, streams=4, taps=(-1, 0, 1),
                      scattered_share=0.035, scattered_count=48,
                      scattered_zipf=1.5)


def _data_mgrid(length, rng):
    # 3-D multigrid: 27-point-ish stencil, pure streaming with high reuse.
    return _vector_fp(length, rng, streams=3, taps=(-2, -1, 0, 1, 2),
                      scattered_share=0.0)


def _data_applu(length, rng):
    # Blocked SSOR solver: tiles fit the cache; little memory traffic.
    return blocked_sweep(REGION, rows=48, cols=40, elem_bytes=8, block=8,
                         sweeps=max(1, length // (48 * 40)),
                         store_fraction=0.35, rng=rng)


def _data_turb3d(length, rng):
    # FFT turbulence: cache-resident butterflies between passes.
    small = strided_sweep(REGION, 8, 1024, 8, sweeps=max(1, length // 2048),
                          store_fraction=0.4, rng=rng)
    strided = strided_sweep(2 * REGION, 8, max(1, length // 8), 512,
                            store_fraction=0.2, rng=rng)
    return interleave_blocks([small, strided], [0.98, 0.02], block=16,
                             length=length, rng=rng)


def _data_apsi(length, rng):
    # Mesoscale weather: mostly cache-resident columns, some grid sweeps.
    resident = blocked_sweep(REGION, rows=32, cols=40, elem_bytes=8, block=8,
                             sweeps=max(1, length // 1280),
                             store_fraction=0.3, rng=rng)
    sweeps = _vector_fp(max(1, length // 4), rng, streams=3, taps=(0, 1),
                        scattered_share=0.05, scattered_count=64)
    return interleave_blocks([resident, sweeps], [0.7, 0.3], block=16,
                             length=length, rng=rng)


def _data_fpppp(length, rng):
    # Multi-electron integrals: small, furiously reused data set.
    return hot_cold_mix(rng, REGION, 12 * KB, 2 * REGION, 256 * KB,
                        length, hot_fraction=0.93, run_length=12,
                        store_fraction=0.3)


def _data_wave5(length, rng):
    # Particle-in-cell: lock-step particle arrays (three of which collide
    # in the column cache) + scattered grid deposits.
    particles = _vector_fp(length, rng, streams=8, taps=(0, 1), colliding=3,
                           scattered_share=0.0, store_fraction=0.35)
    deposits = scattered_blocks(rng, 8 * REGION, 400, 8 * MB,
                                max(256, length // 3), words_per_visit=2,
                                zipf_exponent=1.3, store_fraction=0.5)
    return interleave_blocks([particles, deposits], [0.88, 0.12], block=12,
                             length=length, rng=rng)


def _data_synopsys(length, rng):
    # Logic-equivalence checking over a >50 MB netlist: pointer-heavy
    # traversal with little reuse anywhere.
    netlist = pointer_chase(rng, REGION, 400_000, 128, length,
                            fields_per_visit=5, store_fraction=0.15)
    worklist = hot_cold_mix(rng, 8 * REGION, 20 * KB, 9 * REGION, 8 * MB,
                            length, hot_fraction=0.75, run_length=6,
                            store_fraction=0.3)
    return interleave_blocks([netlist, worklist], [0.45, 0.55], block=10,
                             length=length, rng=rng)


# ---------------------------------------------------------------------------
# Registry.
# ---------------------------------------------------------------------------

_INT = InstructionMix(p_load=0.24, p_store=0.11, p_fp=0.0, p_branch=0.16)
_FP = InstructionMix(p_load=0.30, p_store=0.12, p_fp=0.33, p_branch=0.05)


def _code(code_kb, hot_kb, **kw) -> CodeProfile:
    return CodeProfile(code_bytes=int(code_kb * KB), hot_bytes=int(hot_kb * KB), **kw)


PROXIES: dict[str, SpecProxy] = {}


def _register(proxy: SpecProxy) -> None:
    PROXIES[proxy.name] = proxy


_register(SpecProxy(
    name="099.go",
    description="AI: plays Go against itself",
    category="int",
    mix=InstructionMix(p_load=0.22, p_store=0.08, p_branch=0.18),
    code=_code(60, 24, hot_fraction=0.9, loop_fraction=0.55,
               body_bytes=220, mean_trips=8, run_bytes=700),
    data_builder=_data_go,
    costs=PipelineCosts(dependency_fraction=0.0, mispredict_rate=0.03),
    working_set_note="~0.5 MB board/eval structures",
))
_register(SpecProxy(
    name="124.m88ksim",
    description="Motorola 88100 simulator",
    category="int",
    mix=_INT,
    code=_code(44, 6, hot_fraction=0.985, loop_fraction=0.8,
               body_bytes=180, mean_trips=40, run_bytes=400),
    data_builder=_data_m88ksim,
    costs=PipelineCosts(dependency_fraction=0.0, mispredict_rate=0.03),
    working_set_note="simulated memory image + dispatch tables",
))
_register(SpecProxy(
    name="126.gcc",
    description="GNU C compiler cc1",
    category="int",
    mix=InstructionMix(p_load=0.25, p_store=0.12, p_branch=0.18),
    code=_code(300, 48, hot_fraction=0.93, loop_fraction=0.5,
               body_bytes=180, mean_trips=6, run_bytes=300),
    data_builder=_data_gcc,
    costs=PipelineCosts(dependency_fraction=0.0, mispredict_rate=0.03),
    working_set_note="~4 MB IR heap",
))
_register(SpecProxy(
    name="129.compress",
    description="Lempel-Ziv text compression",
    category="int",
    mix=InstructionMix(p_load=0.26, p_store=0.12, p_branch=0.14),
    code=_code(16, 3, hot_fraction=0.998, loop_fraction=0.9,
               body_bytes=140, mean_trips=200, run_bytes=256),
    data_builder=_data_compress,
    costs=PipelineCosts(dependency_fraction=0.0, mispredict_rate=0.09),
    working_set_note="16 MB input + 256 KB hash tables",
))
_register(SpecProxy(
    name="130.li",
    description="xlisp interpreter",
    category="int",
    mix=InstructionMix(p_load=0.26, p_store=0.12, p_branch=0.17),
    code=_code(32, 7, hot_fraction=0.97, loop_fraction=0.75,
               body_bytes=160, mean_trips=25, run_bytes=300),
    data_builder=_data_li,
    costs=PipelineCosts(dependency_fraction=0.0, mispredict_rate=0.06),
    working_set_note="small cons heap, hot free lists",
))
_register(SpecProxy(
    name="132.ijpeg",
    description="JPEG compression (integer DCT)",
    category="int",
    mix=InstructionMix(p_load=0.22, p_store=0.10, p_branch=0.08),
    code=_code(40, 5, hot_fraction=0.995, loop_fraction=0.9,
               body_bytes=200, mean_trips=64, run_bytes=500),
    data_builder=_data_ijpeg,
    costs=PipelineCosts(dependency_fraction=0.0, mispredict_rate=0.0),
    working_set_note="image tiles, strong 8x8 locality",
))
_register(SpecProxy(
    name="134.perl",
    description="perl 4.0 interpreter",
    category="int",
    mix=InstructionMix(p_load=0.26, p_store=0.12, p_branch=0.18),
    code=_code(220, 80, hot_fraction=0.70, loop_fraction=0.45,
               body_bytes=120, mean_trips=4, run_bytes=180),
    data_builder=_data_perl,
    costs=PipelineCosts(dependency_fraction=0.0, mispredict_rate=0.11),
    working_set_note="string/hash heap",
))
_register(SpecProxy(
    name="147.vortex",
    description="OO database transactions (40 MB)",
    category="int",
    mix=InstructionMix(p_load=0.27, p_store=0.13, p_branch=0.16),
    code=_code(400, 52, hot_fraction=0.88, loop_fraction=0.55,
               body_bytes=200, mean_trips=8, run_bytes=400),
    data_builder=_data_vortex,
    costs=PipelineCosts(dependency_fraction=0.0, mispredict_rate=0.06),
    working_set_note="40 MB database, partial object reads",
))
_register(SpecProxy(
    name="101.tomcatv",
    description="2-D mesh generation",
    category="fp",
    mix=InstructionMix(p_load=0.32, p_store=0.12, p_fp=0.30, p_branch=0.04),
    code=_code(20, 3, hot_fraction=0.995, loop_fraction=0.92,
               body_bytes=280, mean_trips=250, run_bytes=600),
    data_builder=_data_tomcatv,
    costs=PipelineCosts(dependency_fraction=0.16),
    working_set_note="seven ~2 MB mesh arrays",
))
_register(SpecProxy(
    name="102.swim",
    description="shallow-water equations",
    category="fp",
    mix=InstructionMix(p_load=0.33, p_store=0.13, p_fp=0.35, p_branch=0.03),
    code=_code(20, 3, hot_fraction=0.998, loop_fraction=0.95,
               body_bytes=320, mean_trips=500, run_bytes=800),
    data_builder=_data_swim,
    costs=PipelineCosts(dependency_fraction=0.53),
    working_set_note="thirteen 1513x1513 REAL*4-scale grids",
))
_register(SpecProxy(
    name="103.su2cor",
    description="quark-gluon lattice QCD",
    category="fp",
    mix=InstructionMix(p_load=0.31, p_store=0.12, p_fp=0.32, p_branch=0.05),
    code=_code(48, 10, hot_fraction=0.97, loop_fraction=0.85,
               body_bytes=260, mean_trips=60, run_bytes=600),
    data_builder=_data_su2cor,
    costs=PipelineCosts(dependency_fraction=0.42),
    working_set_note="lattice gathers over ~20 MB",
))
_register(SpecProxy(
    name="104.hydro2d",
    description="galactic-jet Navier-Stokes",
    category="fp",
    mix=InstructionMix(p_load=0.30, p_store=0.12, p_fp=0.38, p_branch=0.04),
    code=_code(36, 11, hot_fraction=0.985, loop_fraction=0.9,
               body_bytes=300, mean_trips=120, run_bytes=700),
    data_builder=_data_hydro2d,
    costs=PipelineCosts(dependency_fraction=0.64),
    working_set_note="2-D grids, clean stencil streaming",
))
_register(SpecProxy(
    name="107.mgrid",
    description="3-D multigrid potential solver",
    category="fp",
    mix=InstructionMix(p_load=0.34, p_store=0.09, p_fp=0.33, p_branch=0.03),
    code=_code(24, 3.5, hot_fraction=0.998, loop_fraction=0.95,
               body_bytes=360, mean_trips=600, run_bytes=900),
    data_builder=_data_mgrid,
    costs=PipelineCosts(dependency_fraction=0.20),
    working_set_note="3-D grids, 27-point stencils",
))
_register(SpecProxy(
    name="110.applu",
    description="blocked SSOR PDE solver",
    category="fp",
    mix=InstructionMix(p_load=0.31, p_store=0.12, p_fp=0.35, p_branch=0.04),
    code=_code(36, 4, hot_fraction=0.998, loop_fraction=0.92,
               body_bytes=340, mean_trips=300, run_bytes=800),
    data_builder=_data_applu,
    costs=PipelineCosts(dependency_fraction=0.50),
    working_set_note="cache-blocked 5x5 tiles",
))
_register(SpecProxy(
    name="125.turb3d",
    description="FFT turbulence simulation",
    category="fp",
    mix=InstructionMix(p_load=0.29, p_store=0.13, p_fp=0.30, p_branch=0.05),
    code=_code(48, 8, hot_fraction=0.98, loop_fraction=0.85,
               body_bytes=240, mean_trips=40, run_bytes=500,
               aliased=AliasedCallPair(
                   # Loop body occupies bytes 1024-1215; the callee sits at
                   # 1248-1471 *mod 8 KB*: disjoint 32 B lines (conventional
                   # caches are safe) but the same 512 B column slot.
                   loop_addr=1024,
                   callee_addr=8 * KB + 1248,
                   loop_bytes=192,
                   callee_bytes=224,
                   fraction=0.30,
               )),
    data_builder=_data_turb3d,
    costs=PipelineCosts(dependency_fraction=0.17),
    working_set_note="cache-resident FFT butterflies; loop/callee code alias",
))
_register(SpecProxy(
    name="141.apsi",
    description="mesoscale weather statistics",
    category="fp",
    mix=InstructionMix(p_load=0.30, p_store=0.12, p_fp=0.35, p_branch=0.05),
    code=_code(52, 11, hot_fraction=0.975, loop_fraction=0.85,
               body_bytes=280, mean_trips=50, run_bytes=600),
    data_builder=_data_apsi,
    costs=PipelineCosts(dependency_fraction=0.66),
    working_set_note="column physics, mostly resident",
))
_register(SpecProxy(
    name="145.fpppp",
    description="multi-electron integral derivatives",
    category="fp",
    mix=InstructionMix(p_load=0.33, p_store=0.12, p_fp=0.45, p_branch=0.02),
    code=_code(48, 48, hot_fraction=1.0, loop_fraction=0.04,
               body_bytes=400, mean_trips=4, run_bytes=12 * KB),
    data_builder=_data_fpppp,
    costs=PipelineCosts(dependency_fraction=0.25),
    working_set_note="tiny data set; ~48 KB of straight-line code",
))
_register(SpecProxy(
    name="146.wave5",
    description="Maxwell particle-in-cell",
    category="fp",
    mix=InstructionMix(p_load=0.31, p_store=0.13, p_fp=0.32, p_branch=0.04),
    code=_code(44, 10, hot_fraction=0.98, loop_fraction=0.88,
               body_bytes=300, mean_trips=80, run_bytes=700),
    data_builder=_data_wave5,
    costs=PipelineCosts(dependency_fraction=0.31),
    working_set_note="particle streams + scattered grid deposits",
))
_register(SpecProxy(
    name="synopsys",
    description="logic equivalence checking (>50 MB netlist)",
    category="int",
    mix=InstructionMix(p_load=0.27, p_store=0.10, p_branch=0.17),
    code=_code(900, 96, hot_fraction=0.72, loop_fraction=0.5,
               body_bytes=220, mean_trips=6, run_bytes=350),
    data_builder=_data_synopsys,
    costs=PipelineCosts(dependency_fraction=0.0, mispredict_rate=0.06),
    working_set_note=">50 MB netlist graph",
))


SPEC_INT_NAMES = [name for name, p in PROXIES.items()
                  if p.category == "int" and name != "synopsys"]
SPEC_FP_NAMES = [name for name, p in PROXIES.items() if p.category == "fp"]
ALL_NAMES = list(PROXIES)


def get_proxy(name: str) -> SpecProxy:
    """Look up a proxy by its SPEC name (e.g. ``"126.gcc"``)."""
    try:
        return PROXIES[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; known: {', '.join(PROXIES)}"
        ) from None


def all_proxies() -> list[SpecProxy]:
    return list(PROXIES.values())
