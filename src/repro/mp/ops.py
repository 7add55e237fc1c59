"""Operations a multiprocessor workload can issue.

Workload kernels are Python generators yielding one ``(opcode, operand)``
pair per op, such as ``yield READ, addr`` or ``yield COMPUTE, cycles``;
the MP engine charges each one with simulated time from the node memory
model (Table 6 latencies) and handles synchronization.

=========== =========================================================
opcode      operand
=========== =========================================================
``READ``    the byte address loaded
``WRITE``   the byte address stored
``COMPUTE`` cycles of local computation, with no memory traffic
``LOCK``    the lock id acquired (FIFO hand-off)
``UNLOCK``  the lock id released; the processor must hold it
``BARRIER`` the barrier id every processor must reach
=========== =========================================================

Kernels build one op per yield, so construction cost is per-op cost,
and that is why ops are pairs.  A pair is a tuple display, built with
no call: about 55 ns, against about 290 ns for a slotted dataclass
record through its generated ``__init__`` (timeit, 2-vCPU host).  Over
the 561,490 ops of a perfbench ``splash`` pass, records cost ~0.13 s of
a ~1.2 s pass.  The opcodes are distinct ints, so
``(READ, 5) != (WRITE, 5)``.
"""

from __future__ import annotations

READ = 0
WRITE = 1
COMPUTE = 2
LOCK = 3
UNLOCK = 4
BARRIER = 5

Op = tuple[int, int]
"""One ``(opcode, operand)`` pair."""
