"""Monte-Carlo evaluation of GSPNs.

The evaluator plays the token game by discrete-event simulation:

1. Enabled *immediate* transitions fire first, in zero time; conflicts
   are resolved by priority, then by weighted random choice.
2. Enabled *timed* transitions hold one timer each (single-server
   semantics).  Deterministic transitions fire ``delay`` after enabling;
   exponential transitions sample a memoryless delay.  A transition that
   loses its enabling loses its timer and resamples when re-enabled
   (race-with-restart policy, the standard choice for GSPN tools).
3. The clock jumps to the earliest timer; that transition fires; repeat.

Enabling checks are incremental: only transitions adjacent to places whose
marking changed are re-examined, which keeps large bank-array models fast.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.common import tally
from repro.common.errors import SimulationError
from repro.gspn.net import PetriNet, TransitionKind

_MAX_IMMEDIATE_CHAIN = 1_000_000


@dataclass
class SimResult:
    """Outcome of one simulation run.

    ``time``, ``firings`` and ``events`` are *lifetime* quantities (the
    simulator's clock and counts since construction/:meth:`reset`);
    ``mean_marking`` and ``busy_fraction`` are averaged over the
    **window of the** :meth:`~GSPNSimulator.run` **call that returned
    this result**, so a warmup run followed by a measurement run
    reports steady-state means uncontaminated by the transient.

    ``busy_fraction`` maps each tracked place to the fraction of window
    time its resource was committed: the place was empty (its token out
    working elsewhere, e.g. a bank in precharge) or a timed transition
    consuming from it held a running timer (an access in service).  For
    a server place such as the membank net's ``ready`` this is exactly
    the queueing-theoretic utilization; for pure buffer places it is
    not meaningful.
    """

    time: float
    firings: dict[str, int]
    mean_marking: dict[str, float]
    events: int
    deadlocked: bool
    busy_fraction: dict[str, float] = field(default_factory=dict)

    def throughput(self, transition: str) -> float:
        """Firings of ``transition`` per unit time."""
        if self.time <= 0:
            return 0.0
        return self.firings.get(transition, 0) / self.time


class GSPNSimulator:
    """Single-run Monte-Carlo simulator for a :class:`PetriNet`.

    ``track_places`` selects places whose time-averaged marking should be
    reported (tracking every place costs time on big nets).
    """

    def __init__(
        self,
        net: PetriNet,
        rng: np.random.Generator,
        track_places: tuple[str, ...] = (),
    ) -> None:
        net.validate()
        self.net = net
        self.rng = rng
        self._place_ids = {name: i for i, name in enumerate(net.initial_marking)}
        self._place_names = list(net.initial_marking)
        self._tran_names = list(net.transitions)
        self._tran_ids = {name: i for i, name in enumerate(self._tran_names)}
        self._kind: list[TransitionKind] = []
        self._param: list[float] = []
        self._priority: list[int] = []
        self._inputs: list[list[tuple[int, int]]] = []
        self._outputs: list[list[tuple[int, int]]] = []
        self._inhibitors: list[list[tuple[int, int]]] = []
        self._affected: list[list[int]] = [[] for _ in self._place_names]
        for tid, name in enumerate(self._tran_names):
            tran = net.transitions[name]
            self._kind.append(tran.kind)
            self._param.append(tran.param)
            self._priority.append(tran.priority)
            self._inputs.append(
                [(self._place_ids[p], m) for p, m in tran.inputs.items()]
            )
            self._outputs.append(
                [(self._place_ids[p], m) for p, m in tran.outputs.items()]
            )
            self._inhibitors.append(
                [(self._place_ids[p], t) for p, t in tran.inhibitors.items()]
            )
            for place, _ in list(tran.inputs.items()) + list(tran.inhibitors.items()):
                self._affected[self._place_ids[place]].append(tid)
        self._track = [self._place_ids[p] for p in track_places]
        self._track_names = list(track_places)
        # Timed transitions consuming from each tracked place: a running
        # timer on one of these marks the place's resource as committed
        # (in service), which feeds the busy_fraction statistic.
        self._track_consumers = [
            [
                tid
                for tid in range(len(self._tran_names))
                if self._kind[tid] is not TransitionKind.IMMEDIATE
                and any(p == place for p, _ in self._inputs[tid])
            ]
            for place in self._track
        ]
        self.reset()

    # -- state ------------------------------------------------------------

    def reset(self) -> None:
        self.marking = [
            self.net.initial_marking[name] for name in self._place_names
        ]
        self.clock = 0.0
        self.firing_counts = [0] * len(self._tran_names)
        self.events = 0
        self._timers: dict[int, tuple[float, int]] = {}  # tid -> (time, epoch)
        self._epoch = [0] * len(self._tran_names)
        self._heap: list[tuple[float, int, int]] = []  # (time, tid, epoch)
        self._enabled_imm: set[int] = set()
        self._marking_area = [0.0] * len(self._track)
        self._busy_area = [0.0] * len(self._track)
        for tid in range(len(self._tran_names)):
            self._refresh(tid)

    def _is_enabled(self, tid: int) -> bool:
        marking = self.marking
        for place, mult in self._inputs[tid]:
            if marking[place] < mult:
                return False
        for place, threshold in self._inhibitors[tid]:
            if marking[place] >= threshold:
                return False
        return True

    def _refresh(self, tid: int) -> None:
        enabled = self._is_enabled(tid)
        if self._kind[tid] is TransitionKind.IMMEDIATE:
            if enabled:
                self._enabled_imm.add(tid)
            else:
                self._enabled_imm.discard(tid)
            return
        if enabled:
            if tid not in self._timers:
                if self._kind[tid] is TransitionKind.DETERMINISTIC:
                    delay = self._param[tid]
                else:
                    delay = self.rng.exponential(1.0 / self._param[tid])
                self._epoch[tid] += 1
                entry = (self.clock + delay, self._epoch[tid])
                self._timers[tid] = entry
                heapq.heappush(self._heap, (entry[0], tid, entry[1]))
        elif tid in self._timers:
            del self._timers[tid]
            self._epoch[tid] += 1  # invalidates the heap entry lazily

    def _fire(self, tid: int) -> None:
        marking = self.marking
        touched: list[int] = []
        for place, mult in self._inputs[tid]:
            marking[place] -= mult
            if marking[place] < 0:
                raise SimulationError(
                    f"negative marking at {self._place_names[place]}"
                )
            touched.append(place)
        for place, mult in self._outputs[tid]:
            marking[place] += mult
            touched.append(place)
        if tid in self._timers:
            del self._timers[tid]
            self._epoch[tid] += 1
        self.firing_counts[tid] += 1
        self.events += 1
        seen: set[int] = set()
        for place in touched:
            for other in self._affected[place]:
                if other not in seen:
                    seen.add(other)
                    self._refresh(other)
        if tid not in seen:
            self._refresh(tid)

    def _settle_immediates(self) -> None:
        chain = 0
        while self._enabled_imm:
            chain += 1
            if chain > _MAX_IMMEDIATE_CHAIN:
                raise SimulationError("immediate-transition livelock")
            if len(self._enabled_imm) == 1:
                (tid,) = self._enabled_imm
            else:
                best = max(self._priority[t] for t in self._enabled_imm)
                ready = [t for t in self._enabled_imm if self._priority[t] == best]
                if len(ready) == 1:
                    tid = ready[0]
                else:
                    weights = np.array([self._param[t] for t in ready])
                    tid = ready[self.rng.choice(len(ready), p=weights / weights.sum())]
            self._fire(tid)

    def _advance(self) -> bool:
        """Jump to the next timed firing; False when the net is dead."""
        while self._heap:
            time, tid, epoch = heapq.heappop(self._heap)
            current = self._timers.get(tid)
            if current is None or current[1] != epoch:
                continue  # stale entry
            dt = time - self.clock
            for slot, place in enumerate(self._track):
                self._marking_area[slot] += self.marking[place] * dt
                if self.marking[place] == 0 or any(
                    t in self._timers for t in self._track_consumers[slot]
                ):
                    self._busy_area[slot] += dt
            self.clock = time
            self._fire(tid)
            return True
        return False

    # -- driving ----------------------------------------------------------

    def run(
        self,
        max_time: float = math.inf,
        stop_transition: str | None = None,
        stop_count: int = 0,
        max_events: int = 50_000_000,
    ) -> SimResult:
        """Run until ``max_time``, a firing-count target, or deadlock.

        Repeated calls continue from the current state; each call's
        result reports ``mean_marking``/``busy_fraction`` averaged over
        that call's window only (the warmup-then-measure idiom), while
        ``time``/``firings``/``events`` stay lifetime totals.
        """
        if stop_transition is not None:
            if stop_transition not in self._tran_ids:
                raise SimulationError(f"unknown transition {stop_transition}")
            if stop_count < 1:
                raise SimulationError(
                    f"stop_transition={stop_transition!r} requires "
                    f"stop_count >= 1, got {stop_count}: a firing-count "
                    f"target of {stop_count} is already met before the "
                    f"first event, so the run would return immediately"
                )
        stop_tid = self._tran_ids.get(stop_transition) if stop_transition else None
        events_before = self.events
        clock_before = self.clock
        marking_area_before = list(self._marking_area)
        busy_area_before = list(self._busy_area)
        deadlocked = False
        with obs.span(f"gspn/run/{self.net.name}"):
            self._settle_immediates()
            while self.clock < max_time and self.events < max_events:
                if stop_tid is not None and self.firing_counts[stop_tid] >= stop_count:
                    break
                if not self._advance():
                    deadlocked = True
                    break
                self._settle_immediates()
            tally.add("gspn_firings", self.events - events_before)
        window = self.clock - clock_before
        mean_marking = {
            name: (
                (self._marking_area[slot] - marking_area_before[slot]) / window
                if window > 0
                else 0.0
            )
            for slot, name in enumerate(self._track_names)
        }
        busy_fraction = {
            name: (
                (self._busy_area[slot] - busy_area_before[slot]) / window
                if window > 0
                else 0.0
            )
            for slot, name in enumerate(self._track_names)
        }
        return SimResult(
            time=self.clock,
            firings={
                name: self.firing_counts[tid]
                for tid, name in enumerate(self._tran_names)
                if self.firing_counts[tid]
            },
            mean_marking=mean_marking,
            events=self.events,
            deadlocked=deadlocked,
            busy_fraction=busy_fraction,
        )

