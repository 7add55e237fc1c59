"""MP3D: particle-based rarefied-fluid wind-tunnel simulation.

Particles are statically split between processors and live in their
owner's memory; the space-cell grid is block-distributed over all
nodes.  Every step each processor moves its own particles (local reads
and writes) and updates the occupancy counter of the destination cell —
a read-modify-write on *shared* cell data.  Those cell updates migrate
between writers and produce the invalidation-heavy behaviour MP3D is
notorious for (the paper's Figure 14 shows it scaling worst).

Particle motion is real: positions advance by velocities with
reflecting walls, and ``verify`` checks particles stay in the box.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.common.rng import make_rng
from repro.mp.layout import Layout
from repro.mp.ops import BARRIER, COMPUTE, READ, WRITE, Op
from repro.workloads.splash.base import SplashKernel

WORD = 8
PARTICLE_WORDS = 6  # x, y, z, vx, vy, vz


class MP3DKernel(SplashKernel):
    name = "mp3d"
    description = "Particle wind-tunnel with shared space cells"

    def __init__(self, particles: int = 1200, cells_per_dim: int = 12,
                 steps: int = 6, compute_cycles: int = 3, seed: int = 0) -> None:
        self.particles = particles
        self.cells_per_dim = cells_per_dim
        self.steps = steps
        self.compute_cycles = compute_cycles
        self.seed = seed
        # Particle state, one [x, y, z] float list per particle: the
        # move reads and writes single components, which numpy serves
        # far slower than a list and with the same IEEE arithmetic.
        self._positions: list[list[float]] | None = None
        self._velocities: list[list[float]] | None = None

    @property
    def positions(self) -> np.ndarray | None:
        """Particle positions, one (x, y, z) row per particle."""
        return None if self._positions is None else np.array(self._positions)

    @property
    def velocities(self) -> np.ndarray | None:
        """Particle velocities, one row per particle."""
        return None if self._velocities is None else np.array(self._velocities)

    def build(self, num_procs: int, layout: Layout):
        rng = make_rng(self.seed)
        total = self.particles
        positions = rng.random((total, 3))
        velocities = rng.random((total, 3)) * 0.03 - 0.015
        # Geometric decomposition: processors own x-axis slabs, so
        # particles are assigned by initial position and cell updates are
        # mostly local; drift across slab boundaries creates the remote
        # cell traffic MP3D is known for.
        order = np.argsort(positions[:, 0], kind="stable")
        positions = positions[order].tolist()
        velocities = velocities[order].tolist()
        self._positions = positions
        self._velocities = velocities
        dim = self.cells_per_dim
        num_cells = dim**3

        # Particles: contiguous per-owner slabs in the owner's region.
        share = -(-total // num_procs)
        particle_base = [
            layout.alloc(p, share * PARTICLE_WORDS * WORD)
            for p in range(num_procs)
        ]

        def particle_addr(index: int) -> int:
            owner, local = divmod(index, share)
            return particle_base[owner] + local * PARTICLE_WORDS * WORD

        # Cells: x-major order, distributed by x-slab so a cell's home is
        # the processor owning that slice of space.
        cells_per_node = -(-num_cells // num_procs)
        cell_base = [
            layout.alloc(p, cells_per_node * WORD) for p in range(num_procs)
        ]

        def cell_addr(cell: int) -> int:
            node, local = divmod(cell, cells_per_node)
            return cell_base[node] + local * WORD

        top = dim - 1

        def cell_of(pos: list[float]) -> int:
            x, y, z = pos
            x = min(max(int(x * dim), 0), top)
            y = min(max(int(y * dim), 0), top)
            z = min(max(int(z * dim), 0), top)
            return x * dim * dim + y * dim + z

        def kernel(pid: int, nprocs: int) -> Iterator[Op]:
            mine = range(pid * share, min((pid + 1) * share, total))
            for step in range(self.steps):
                for index in mine:
                    base = particle_addr(index)
                    # Read the full particle record.
                    for w in range(PARTICLE_WORDS):
                        yield READ, base + w * WORD
                    pos, vel = positions[index], velocities[index]
                    for axis in range(3):
                        moved = pos[axis] + vel[axis]
                        # Reflecting walls keep particles in the unit box.
                        if moved < 0.0 or moved > 1.0:
                            vel[axis] = -vel[axis]
                            moved = min(max(moved, 0.0), 1.0)
                        pos[axis] = moved
                    yield COMPUTE, self.compute_cycles
                    # Write back position (3 words).
                    for w in range(3):
                        yield WRITE, base + w * WORD
                    # Update the destination cell's occupancy (shared RMW).
                    cell = cell_of(pos)
                    yield READ, cell_addr(cell)
                    yield WRITE, cell_addr(cell)
                yield BARRIER, step

        return kernel

    def verify(self) -> bool:
        positions = self.positions
        if positions is None:
            raise RuntimeError("run the kernel before verifying")
        return bool(((positions >= 0.0) & (positions <= 1.0)).all())
