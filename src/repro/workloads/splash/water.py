"""WATER: N-body water molecular dynamics.

The defining feature (Section 6.2): molecules are ~600-byte records in a
shared vector, statically assigned to processors, and each force
computation reads only a small part (the positions) of many other
processors' molecules.  True sharing dominates, and the big records'
poor spatial locality is what makes the plain column-buffer design lose
to the reference CC-NUMA until the victim cache is added (Figure 16).

The dynamics are real: a cutoff O(n^2) force pass and a leapfrog-ish
update; ``verify`` checks momentum stays finite and positions move.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.common.rng import make_rng
from repro.mp.layout import Layout
from repro.mp.ops import BARRIER, COMPUTE, LOCK, READ, UNLOCK, WRITE, Op
from repro.workloads.splash.base import SplashKernel

WORD = 8
MOLECULE_BYTES = 600  # the paper's ~600-byte molecule record
POSITION_WORDS = 3  # touched when another processor reads a molecule
FORCE_OFFSET_WORDS = 8  # force accumulator words inside the record


class WaterKernel(SplashKernel):
    name = "water"
    description = "N-body molecular dynamics over large shared records"

    def __init__(self, molecules: int = 48, steps: int = 3,
                 cutoff: float = 0.5, compute_cycles: int = 4,
                 seed: int = 0) -> None:
        self.molecules = molecules
        self.steps = steps
        self.cutoff = cutoff
        self.compute_cycles = compute_cycles
        self.seed = seed
        self.positions: np.ndarray | None = None
        self.velocities: np.ndarray | None = None
        self.initial_positions: np.ndarray | None = None

    def build(self, num_procs: int, layout: Layout):
        total = self.molecules
        rng = make_rng(self.seed)
        positions = rng.random((total, 3))
        velocities = np.zeros((total, 3))
        forces = np.zeros((total, 3))
        self.positions = positions
        self.velocities = velocities
        self.initial_positions = positions.copy()

        share = -(-total // num_procs)
        base = [
            layout.alloc(p, share * MOLECULE_BYTES) for p in range(num_procs)
        ]

        def record_addr(index: int) -> int:
            owner, local = divmod(index, share)
            return base[owner] + local * MOLECULE_BYTES

        cutoff_sq = self.cutoff**2

        # Force-pass blocking: the pair loop walks partner molecules in
        # blocks small enough that their position blocks stay resident in
        # a 16-entry staging buffer — the access structure that lets the
        # victim cache absorb Water's poor-spatial-locality imports
        # (Section 6.2).
        jblock = 12

        def pair_is_mine(i: int, j: int) -> bool:
            k = (j - i) % total
            if k == 0 or k > total // 2:
                return False
            if 2 * k == total:
                return i < j  # count each diametral pair once
            return True

        def kernel(pid: int, nprocs: int) -> Iterator[Op]:
            mine = range(pid * share, min((pid + 1) * share, total))
            barrier_id = 0
            for _ in range(self.steps):
                for i in mine:
                    forces[i] = 0.0
                local_acc: dict[int, np.ndarray] = {}
                for jb in range(0, total, jblock):
                    partners = range(jb, min(jb + jblock, total))
                    for i in mine:
                        my_rec = record_addr(i)
                        for w in range(POSITION_WORDS):
                            yield READ, my_rec + w * WORD
                        for j in partners:
                            if not pair_is_mine(i, j):
                                continue
                            other = record_addr(j)
                            for w in range(POSITION_WORDS):
                                yield READ, other + w * WORD
                            delta = positions[j] - positions[i]
                            dist_sq = float(delta @ delta)
                            yield COMPUTE, self.compute_cycles
                            if cutoff_sq > dist_sq > 1e-12:
                                pair_force = delta * (1.0 / (dist_sq + 0.1) - 1.0)
                                forces[i] += pair_force
                                acc = local_acc.setdefault(j, np.zeros(3))
                                acc -= pair_force
                # One shared read-modify-write per partner molecule per
                # step (the SPLASH per-molecule accumulate phase).
                for j, acc in sorted(local_acc.items()):
                    forces[j] += acc
                    other = record_addr(j)
                    yield READ, other + FORCE_OFFSET_WORDS * WORD
                    yield WRITE, other + FORCE_OFFSET_WORDS * WORD
                for i in mine:
                    my_rec = record_addr(i)
                    for w in range(3):
                        yield WRITE, my_rec + (FORCE_OFFSET_WORDS + w) * WORD
                yield BARRIER, barrier_id
                barrier_id += 1
                # Update pass: integrate my own molecules (local writes).
                for i in mine:
                    my_rec = record_addr(i)
                    velocities[i] += 0.001 * forces[i]
                    positions[i] = np.clip(
                        positions[i] + velocities[i], 0.0, 1.0
                    )
                    yield LOCK, i % 4  # global accumulator locks
                    yield COMPUTE, 1
                    yield UNLOCK, i % 4
                    for w in range(POSITION_WORDS):
                        yield WRITE, my_rec + w * WORD
                yield BARRIER, barrier_id
                barrier_id += 1

        return kernel

    def verify(self) -> bool:
        if self.positions is None or self.initial_positions is None:
            raise RuntimeError("run the kernel before verifying")
        finite = bool(np.isfinite(self.positions).all())
        moved = bool((self.positions != self.initial_positions).any())
        return finite and moved
