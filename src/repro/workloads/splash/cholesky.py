"""CHOLESKY: blocked Cholesky factorization (extension kernel).

Not one of the paper's five Table 5 applications — SPLASH also shipped a
Cholesky factorization, and it makes a useful sixth point for the MP
study: like LU it is dense linear algebra with pivot-panel broadcast,
but its triangular update touches only half the matrix, shifting the
compute/communication balance.

The factorization is real: ``verify`` checks ``L @ L.T`` against the
original symmetric positive-definite matrix.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from repro.common.rng import make_rng
from repro.mp.layout import Layout
from repro.mp.ops import Barrier, Compute, Op, Read, Write
from repro.workloads.splash.base import SplashKernel

WORD = 8


class CholeskyKernel(SplashKernel):
    name = "cholesky"
    description = "Blocked Cholesky factorization (extension)"

    def __init__(self, n: int = 48, block: int = 4, compute_cycles: int = 2,
                 seed: int = 0) -> None:
        if n % block:
            raise ValueError("matrix size must be a multiple of the block size")
        self.n = n
        self.block = block
        self.compute_cycles = compute_cycles
        self.seed = seed
        self.original: np.ndarray | None = None
        # The working matrix, one Python float list per column (see
        # LUKernel: same IEEE arithmetic, far cheaper element access).
        self._cols: list[list[float]] | None = None

    @property
    def matrix(self) -> np.ndarray | None:
        """The working matrix (L on and below the diagonal once the
        kernel has run)."""
        if self._cols is None:
            return None
        return np.array(self._cols).T.copy()

    def _owner(self, col_block: int, num_procs: int) -> int:
        return col_block % num_procs

    def build(self, num_procs: int, layout: Layout):
        n, block = self.n, self.block
        rng = make_rng(self.seed)
        base = rng.random((n, n))
        spd = base @ base.T + n * np.eye(n)  # symmetric positive definite
        self.original = spd
        cols = spd.T.tolist()
        self._cols = cols
        col_base = [
            layout.alloc(self._owner(jb, num_procs), n * block * WORD)
            for jb in range(n // block)
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
                    # Factorize column k: sqrt of the pivot, scale below.
                    yield Read(base_k + k * WORD)
                    pivot = math.sqrt(col_k[k])
                    col_k[k] = pivot
                    yield Compute(self.compute_cycles)
                    yield Write(base_k + k * WORD)
                    for i in range(k + 1, n):
                        yield Read(base_k + i * WORD)
                        col_k[i] = col_k[i] / pivot
                        yield Compute(self.compute_cycles)
                        yield Write(base_k + i * WORD)
                yield Barrier(barrier_id)
                barrier_id += 1
                # Triangular update: only columns j > k, rows i >= j.
                for j in range(k + 1, n):
                    if self._owner(j // block, nprocs) != pid:
                        continue
                    col_j, base_j = cols[j], column_addr(j)
                    yield Read(base_k + j * WORD)
                    ljk = col_k[j]
                    for i in range(j, n):
                        yield Read(base_k + i * WORD)
                        yield Read(base_j + i * WORD)
                        col_j[i] = col_j[i] - col_k[i] * ljk
                        yield Compute(self.compute_cycles)
                        yield Write(base_j + i * WORD)

        return kernel

    def verify(self, tolerance: float = 1e-6) -> bool:
        """Check L @ L.T reproduces the original SPD matrix."""
        matrix = self.matrix
        if matrix is None or self.original is None:
            raise RuntimeError("run the kernel before verifying")
        lower = np.tril(matrix)
        return bool(np.allclose(lower @ lower.T, self.original, atol=tolerance))
