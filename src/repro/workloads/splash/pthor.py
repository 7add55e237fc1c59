"""PTHOR: distributed-time digital circuit simulation.

A random combinational-ish circuit (a DAG of NAND gates) is partitioned
over processors.  Each simulated clock step a processor evaluates its
active gates: it reads the output words of the gates' fanin (frequently
remote), computes the new output, writes it, and activates fanout gates
for the next step.  Activation lists are per-owner and lock-protected —
PTHOR's irregular, fine-grained sharing.

The logic is real: gate outputs are actual NAND evaluations.  ``verify``
checks only that every output is binary and that the fanin wiring is a
DAG; it does not recompute the network.  Gates read fanin outputs that
other processors may rewrite in the same step, so the interleaving (and
with it the system kind) can change the outputs and the op count.
Double-buffering the outputs, and checking them against a sequential
evaluation, is an open ROADMAP item.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.common.rng import make_rng
from repro.mp.layout import Layout
from repro.mp.ops import BARRIER, COMPUTE, LOCK, READ, UNLOCK, WRITE, Op
from repro.workloads.splash.base import SplashKernel

WORD = 8
GATE_WORDS = 8  # output, two fanin ids, scheduling state, padding


class PthorKernel(SplashKernel):
    name = "pthor"
    description = "Event-driven logic simulation of a random NAND network"

    def __init__(self, gates: int = 1500, steps: int = 25,
                 activity: float = 0.4, compute_cycles: int = 2,
                 seed: int = 0) -> None:
        self.gates = gates
        self.steps = steps
        self.activity = activity
        self.compute_cycles = compute_cycles
        self.seed = seed
        self.fanin: np.ndarray | None = None
        # Gate outputs as a Python int list: the evaluation reads and
        # writes single gates, which numpy serves far slower than a list.
        self._outputs: list[int] | None = None

    @property
    def outputs(self) -> np.ndarray | None:
        """Gate output values, 0 or 1."""
        if self._outputs is None:
            return None
        return np.array(self._outputs, dtype=np.int64)

    def build(self, num_procs: int, layout: Layout):
        total = self.gates
        rng = make_rng(self.seed)
        # Random fanin DAG with *localized* wiring: gate g mostly reads
        # nearby earlier gates (placement tools cluster connected logic),
        # with a tail of long wires that become remote references.
        fanin = np.zeros((total, 2), dtype=np.int64)
        window = 32
        for g in range(1, total):
            for slot in range(2):
                if rng.random() < 0.06:
                    fanin[g, slot] = rng.integers(0, g)  # long wire
                else:
                    fanin[g, slot] = rng.integers(max(0, g - window), g)
        outputs = rng.integers(0, 2, size=total).tolist()
        self._outputs = outputs
        self.fanin = fanin
        fanin_of = fanin.tolist()

        share = -(-total // num_procs)
        base = [layout.alloc(p, share * GATE_WORDS * WORD) for p in range(num_procs)]

        def gate_addr(gate: int, word: int = 0) -> int:
            owner, local = divmod(gate, share)
            return base[owner] + (local * GATE_WORDS + word) * WORD

        # Initial activation: a random subset of each processor's gates.
        initial_active = [
            [g for g in range(p * share, min((p + 1) * share, total))
             if rng.random() < self.activity]
            for p in range(num_procs)
        ]
        # Next-step activation lists, one per owner, lock-protected.
        pending: list[set[int]] = [set() for _ in range(num_procs)]

        def owner_of(gate: int) -> int:
            return min(gate // share, num_procs - 1)

        # Precomputed fanout lists (the netlist's inverted wiring).
        fanout_of: list[list[int]] = [[] for _ in range(total)]
        for g, sources in enumerate(fanin_of):
            for source in sources:
                if source != g:
                    fanout_of[source].append(g)

        def kernel(pid: int, nprocs: int) -> Iterator[Op]:
            active = list(initial_active[pid])
            for step in range(self.steps):
                # Batch cross-processor activations per target owner so
                # each activation list is locked once per step.
                outgoing: dict[int, list[int]] = {}
                for gate in active:
                    # Read the gate record header and both fanin outputs.
                    yield READ, gate_addr(gate, 1)
                    yield READ, gate_addr(gate, 2)
                    a, b = fanin_of[gate]
                    yield READ, gate_addr(a, 0)
                    yield READ, gate_addr(b, 0)
                    new_value = 1 - (outputs[a] & outputs[b])  # NAND
                    yield COMPUTE, self.compute_cycles
                    if new_value != outputs[gate]:
                        outputs[gate] = new_value
                        yield WRITE, gate_addr(gate, 0)
                        for fanout in fanout_of[gate][:4]:  # bounded fan-out
                            outgoing.setdefault(owner_of(fanout), []).append(fanout)
                for target, gates in sorted(outgoing.items()):
                    yield LOCK, 64 + target
                    for fanout in gates:
                        pending[target].add(fanout)
                        yield WRITE, gate_addr(fanout, 3)
                    yield UNLOCK, 64 + target
                yield BARRIER, step
                active = sorted(pending[pid])
                pending[pid] = set()

        return kernel

    def verify(self) -> bool:
        """Outputs must be pure binary and consistent fanin indices."""
        outputs = self.outputs
        if outputs is None or self.fanin is None:
            raise RuntimeError("run the kernel before verifying")
        binary = bool(np.isin(outputs, (0, 1)).all())
        dag = bool((self.fanin.max(axis=1)[1:] < np.arange(1, self.gates)).all())
        return binary and dag
