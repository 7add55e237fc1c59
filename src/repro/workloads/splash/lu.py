"""LU: dense LU decomposition (Table 5: 200x200 matrix, scaled here).

Column-blocked right-looking LU without pivoting.  Column blocks are
owned round-robin and allocated in their owner's memory region, the
classic SPLASH placement.  Each step the owner factorizes the pivot
column block (local work), a barrier publishes it, and every processor
updates its own trailing column blocks — reading the pivot column
remotely, writing its own columns locally.

The factorization is real: the kernel computes L and U in place, and
``verify`` checks ``L @ U`` against the original.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.common.rng import make_rng
from repro.mp.layout import Layout
from repro.mp.ops import BARRIER, COMPUTE, READ, WRITE, Op
from repro.workloads.splash.base import SplashKernel

WORD = 8


class LUKernel(SplashKernel):
    name = "lu"
    description = "Dense blocked LU decomposition"

    def __init__(self, n: int = 64, block: int = 4, compute_cycles: int = 2,
                 seed: int = 0) -> None:
        if n % block:
            raise ValueError("matrix size must be a multiple of the block size")
        self.n = n
        self.block = block
        self.compute_cycles = compute_cycles
        self.seed = seed
        self.original: np.ndarray | None = None
        # The working matrix, one Python float list per column: the inner
        # loops read and write single elements, which numpy serves far
        # slower than a list and with the same IEEE arithmetic.
        self._cols: list[list[float]] | None = None

    @property
    def matrix(self) -> np.ndarray | None:
        """The working matrix (L below the diagonal, U on and above it
        once the kernel has run)."""
        if self._cols is None:
            return None
        return np.array(self._cols).T.copy()

    # -- layout -------------------------------------------------------------

    def _owner(self, col_block: int, num_procs: int) -> int:
        return col_block % num_procs

    def build(self, num_procs: int, layout: Layout):
        n, block = self.n, self.block
        num_blocks = n // block
        rng = make_rng(self.seed)
        # Diagonally dominant so no pivoting is needed.
        matrix = rng.random((n, n)) + np.eye(n) * n
        self.original = matrix
        cols = matrix.T.tolist()
        self._cols = cols
        # Column block j lives in its owner's region, column-major.
        col_base = [
            layout.alloc(self._owner(jb, num_procs), n * block * WORD)
            for jb in range(num_blocks)
        ]

        def column_addr(j: int) -> int:
            """Address of element (0, j); element (i, j) is i words on."""
            jb, j_in = divmod(j, block)
            return col_base[jb] + j_in * n * WORD

        def kernel(pid: int, nprocs: int) -> Iterator[Op]:
            barrier_id = 0
            for k in range(n):
                col_k, base_k = cols[k], column_addr(k)
                if self._owner(k // block, nprocs) == pid:
                    # Factorize column k: divide the sub-column by the pivot.
                    yield READ, base_k + k * WORD
                    pivot = col_k[k]
                    for i in range(k + 1, n):
                        yield READ, base_k + i * WORD
                        col_k[i] = col_k[i] / pivot
                        yield COMPUTE, self.compute_cycles
                        yield WRITE, base_k + i * WORD
                yield BARRIER, barrier_id
                barrier_id += 1
                # Update trailing columns this processor owns.
                for j in range(k + 1, n):
                    if self._owner(j // block, nprocs) != pid:
                        continue
                    col_j, base_j = cols[j], column_addr(j)
                    yield READ, base_j + k * WORD
                    ukj = col_j[k]
                    for i in range(k + 1, n):
                        yield READ, base_k + i * WORD
                        yield READ, base_j + i * WORD
                        col_j[i] = col_j[i] - col_k[i] * ukj
                        yield COMPUTE, self.compute_cycles
                        yield WRITE, base_j + i * WORD

        return kernel

    # -- verification ---------------------------------------------------------

    def verify(self, tolerance: float = 1e-8) -> bool:
        """Check L @ U reproduces the original matrix."""
        matrix = self.matrix
        if matrix is None or self.original is None:
            raise RuntimeError("run the kernel before verifying")
        lower = np.tril(matrix, -1) + np.eye(self.n)
        upper = np.triu(matrix)
        return bool(np.allclose(lower @ upper, self.original, atol=tolerance))
