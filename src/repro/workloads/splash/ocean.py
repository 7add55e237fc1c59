"""OCEAN: ocean-basin simulation (red-black Gauss-Seidel core).

The grid is split into contiguous row bands, one per processor, each
allocated in its owner's memory.  A red-black sweep updates each interior
point from its four neighbours: points on band edges read the
neighbouring processor's boundary rows (remote traffic proportional to
the perimeter), interior points are purely local — the nearest-neighbour
communication structure of the SPLASH original.  Barriers separate the
red and black half-sweeps.

The relaxation is real: ``residual`` reports the remaining error of the
Laplace solve, and the test suite checks it decreases.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.common.rng import make_rng
from repro.mp.layout import Layout
from repro.mp.ops import BARRIER, COMPUTE, READ, WRITE, Op
from repro.workloads.splash.base import SplashKernel

WORD = 8


class OceanKernel(SplashKernel):
    name = "ocean"
    description = "Red-black relaxation on a row-partitioned grid"

    def __init__(self, n: int = 64, iterations: int = 6,
                 compute_cycles: int = 2, seed: int = 0) -> None:
        self.n = n
        self.iterations = iterations
        self.compute_cycles = compute_cycles
        self.seed = seed
        # The working grid, one Python float list per row: the sweep
        # reads and writes single points, which numpy serves far slower
        # than a list and with the same IEEE arithmetic.
        self._rows: list[list[float]] | None = None

    @property
    def grid(self) -> np.ndarray | None:
        """The working grid (relaxed once the kernel has run)."""
        return None if self._rows is None else np.array(self._rows)

    def build(self, num_procs: int, layout: Layout):
        n = self.n
        rng = make_rng(self.seed)
        grid = rng.random((n, n))
        # Fixed boundary: zero at all edges (Dirichlet).
        grid[0, :] = grid[-1, :] = grid[:, 0] = grid[:, -1] = 0.0
        rows = grid.tolist()
        self._rows = rows

        rows_per = -(-n // num_procs)
        row_base: list[int] = []
        for row in range(n):
            owner = min(row // rows_per, num_procs - 1)
            row_base.append(layout.alloc(owner, n * WORD))

        def kernel(pid: int, nprocs: int) -> Iterator[Op]:
            lo = pid * rows_per
            hi = min((pid + 1) * rows_per, n)
            barrier_id = 0
            for _ in range(self.iterations):
                for colour in (0, 1):
                    for i in range(max(1, lo), min(hi, n - 1)):
                        up, row, down = rows[i - 1], rows[i], rows[i + 1]
                        up_base, base, down_base = row_base[i - 1 : i + 2]
                        for j in range(1 + (i + colour) % 2, n - 1, 2):
                            offset = j * WORD
                            yield READ, up_base + offset
                            yield READ, down_base + offset
                            yield READ, base + offset - WORD
                            yield READ, base + offset + WORD
                            row[j] = 0.25 * (
                                up[j] + down[j] + row[j - 1] + row[j + 1]
                            )
                            yield COMPUTE, self.compute_cycles
                            yield WRITE, base + offset
                    yield BARRIER, barrier_id
                    barrier_id += 1

        return kernel

    def residual(self) -> float:
        """Max |Laplace residual| over interior points."""
        g = self.grid
        if g is None:
            raise RuntimeError("run the kernel before computing the residual")
        interior = 0.25 * (g[:-2, 1:-1] + g[2:, 1:-1] + g[1:-1, :-2] + g[1:-1, 2:])
        return float(np.abs(g[1:-1, 1:-1] - interior).max())
