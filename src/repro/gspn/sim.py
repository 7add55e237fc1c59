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

**Compiled tables.**  :class:`GSPNSimulator` compiles its net once, in
the constructor, into static per-transition tables: input and output
arcs as ``(place, multiplicity)`` tuples, and a *refresh list* — the
transitions to re-examine after this one fires.  The refresh list is
every transition with an input or inhibitor arc on a place the firing
touched, in the order of the touched places (inputs, then outputs) and
then of each place's arcs, de-duplicated, followed by the transition
itself if absent.  One loop in :meth:`GSPNSimulator.run` picks the next
transition, fires it, and walks its refresh list, testing enabling and
arming or disarming timers inline.  Weighted conflicts are resolved from
cumulative weights cached per distinct set of enabled immediates.

**RNG-order contract.**  The perfbench references and the committed
experiment results pin the exact random stream, so the evaluator draws
exactly as the reference interpreter in ``tests/gspn/reference_sim.py``
does, and nothing else:

- one ``rng.exponential(1 / rate)`` each time an exponential transition
  is armed, in refresh-list order (at :meth:`~GSPNSimulator.reset`, in
  transition order);
- one ``rng.random()`` per weighted conflict among two or more
  immediates of the top priority, mapped to a transition by
  ``bisect_right`` over a cumulative distribution computed as
  ``Generator.choice(p=...)`` computes it, so the same double picks the
  same transition.  The candidates are taken in the iteration order of
  the enabled-immediates set, whose add/discard sequence follows the
  refresh lists.

Draws are never batched: exponential and uniform draws interleave, so
blocking either would reorder the stream.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
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
        place_ids = {name: i for i, name in enumerate(net.initial_marking)}
        self._place_names = list(net.initial_marking)
        self._tran_names = list(net.transitions)
        self._tran_ids = {name: i for i, name in enumerate(self._tran_names)}
        trans = list(net.transitions.values())
        self._priority = [t.priority for t in trans]
        self._param = [t.param for t in trans]  # weight, delay or rate
        self._inputs = [
            tuple((place_ids[p], m) for p, m in t.inputs.items()) for t in trans
        ]
        self._outputs = [
            tuple((place_ids[p], m) for p, m in t.outputs.items()) for t in trans
        ]
        inhibitors = [
            tuple((place_ids[p], th) for p, th in t.inhibitors.items())
            for t in trans
        ]
        # Transitions whose enabling depends on each place.
        affected: list[list[int]] = [[] for _ in self._place_names]
        for tid, tran in enumerate(trans):
            for place in list(tran.inputs) + list(tran.inhibitors):
                affected[place_ids[place]].append(tid)
        # The refresh list of each transition, as the loop's
        # (tid, kind, inputs, inhibitors) records.
        examine = [
            (tid, tran.kind, self._inputs[tid], inhibitors[tid])
            for tid, tran in enumerate(trans)
        ]
        self._refresh_lists = []
        for tid in range(len(trans)):
            order: dict[int, None] = {}
            for place, _ in self._inputs[tid] + self._outputs[tid]:
                order.update(dict.fromkeys(affected[place]))
            order.setdefault(tid)
            self._refresh_lists.append(tuple(examine[t] for t in order))
        self._examine_all = tuple(examine)
        self._track = [place_ids[p] for p in track_places]
        self._track_names = list(track_places)
        # Tracked slots each timed transition consumes from: a running
        # timer on one of these marks the slot's resource as committed
        # (in service), which feeds the busy_fraction statistic.
        self._busy_slots = [
            tuple(
                slot
                for slot, place in enumerate(self._track)
                if tran.kind is not TransitionKind.IMMEDIATE
                and any(p == place for p, _ in self._inputs[tid])
            )
            for tid, tran in enumerate(trans)
        ]
        # tuple(enabled immediates) -> (top-priority candidates, their
        # cumulative weights or None when there is only one).
        self._conflicts: dict[tuple[int, ...], tuple] = {}
        self.reset()

    # -- state ------------------------------------------------------------

    def reset(self) -> None:
        self.marking = [
            self.net.initial_marking[name] for name in self._place_names
        ]
        self.clock = 0.0
        self.firing_counts = [0] * len(self._tran_names)
        self.events = 0
        self._armed = [False] * len(self._tran_names)
        # A heap entry (time, tid, epoch) is live while epoch[tid] still
        # equals its epoch: arming and disarming both bump the epoch.
        self._epoch = [0] * len(self._tran_names)
        self._heap: list[tuple[float, int, int]] = []
        self._enabled_imm: set[int] = set()
        self._marking_area = [0.0] * len(self._track)
        self._busy_area = [0.0] * len(self._track)
        # Running timers of consumers of each tracked slot.
        self._running = [0] * len(self._track)
        self._simulate(self._examine_all, examine_only=True)

    def _resolve(self, enabled: tuple[int, ...]) -> tuple:
        """Top-priority candidates among ``enabled`` and their CDF.

        The CDF is computed exactly as ``Generator.choice(p=...)``
        computes it, so ``bisect_right(cdf, rng.random())`` picks the
        index ``choice`` would pick from the same double.
        """
        best = max(self._priority[t] for t in enabled)
        ready = tuple(t for t in enabled if self._priority[t] == best)
        if len(ready) == 1:
            return ready, None
        weights = np.array([self._param[t] for t in ready])
        cdf = (weights / weights.sum()).cumsum()
        cdf /= cdf[-1]
        return ready, cdf.tolist()

    def _simulate(
        self,
        examine: tuple,
        max_time: float = math.inf,
        stop_tid: int | None = None,
        stop_count: int = 0,
        max_events: int = 0,
        examine_only: bool = False,
    ) -> str | None:
        """Examine the ``examine`` records, then fire until a bound.

        Each firing is followed by a walk of the fired transition's
        refresh list.  Returns why the run ended: ``"deadlock"`` when no
        timer is left, ``"max_events"`` when the event budget ran out,
        else ``None``.
        """
        marking = self.marking
        counts = self.firing_counts
        armed = self._armed
        epoch = self._epoch
        heap = self._heap
        enabled_imm = self._enabled_imm
        inputs = self._inputs
        outputs = self._outputs
        refresh = self._refresh_lists
        param = self._param
        busy_slots = self._busy_slots
        running = self._running
        track = tuple(enumerate(self._track))
        marking_area = self._marking_area
        busy_area = self._busy_area
        conflicts = self._conflicts
        exponential = self.rng.exponential
        uniform = self.rng.random
        heappush = heapq.heappush
        heappop = heapq.heappop
        immediate = TransitionKind.IMMEDIATE
        deterministic = TransitionKind.DETERMINISTIC
        clock = self.clock
        events = self.events
        chain = 0
        tid = -1
        ended = None
        try:
            while True:
                for t, kind, need, inhibit in examine:
                    for place, mult in need:
                        if marking[place] < mult:
                            enabled = False
                            break
                    else:
                        enabled = True
                        for place, threshold in inhibit:
                            if marking[place] >= threshold:
                                enabled = False
                                break
                    if kind is immediate:
                        if enabled:
                            enabled_imm.add(t)
                        else:
                            enabled_imm.discard(t)
                    elif enabled:
                        if not armed[t]:
                            armed[t] = True
                            stamp = epoch[t] + 1
                            epoch[t] = stamp
                            if kind is deterministic:
                                delay = param[t]
                            else:
                                delay = exponential(1.0 / param[t])
                            heappush(heap, (clock + delay, t, stamp))
                            for slot in busy_slots[t]:
                                running[slot] += 1
                    elif armed[t]:
                        armed[t] = False
                        epoch[t] += 1
                        for slot in busy_slots[t]:
                            running[slot] -= 1
                if examine_only:
                    return None

                # Pick the next transition: an immediate if any is
                # enabled, else the earliest live timer.
                if enabled_imm:
                    chain += 1
                    if chain > _MAX_IMMEDIATE_CHAIN:
                        raise SimulationError(
                            f"net {self.net.name}: immediate-transition "
                            f"livelock: {_MAX_IMMEDIATE_CHAIN} immediate "
                            f"firings without the clock advancing (last "
                            f"fired: {self._tran_names[tid]})"
                        )
                    if len(enabled_imm) == 1:
                        (tid,) = enabled_imm
                    else:
                        key = tuple(enabled_imm)
                        choice = conflicts.get(key)
                        if choice is None:
                            choice = conflicts[key] = self._resolve(key)
                        ready, cdf = choice
                        if cdf is None:
                            tid = ready[0]
                        else:
                            tid = ready[bisect_right(cdf, uniform())]
                else:
                    chain = 0
                    if clock >= max_time:
                        break
                    if events >= max_events:
                        ended = "max_events"
                        break
                    if stop_tid is not None and counts[stop_tid] >= stop_count:
                        break
                    while heap:
                        when, tid, stamp = heappop(heap)
                        if epoch[tid] == stamp:
                            break
                    else:
                        ended = "deadlock"
                        break
                    dt = when - clock
                    for slot, place in track:
                        marking_area[slot] += marking[place] * dt
                        if marking[place] == 0 or running[slot]:
                            busy_area[slot] += dt
                    clock = when

                # Fire it.
                for place, mult in inputs[tid]:
                    left = marking[place] - mult
                    if left < 0:
                        raise SimulationError(
                            f"net {self.net.name}: firing "
                            f"{self._tran_names[tid]} left place "
                            f"{self._place_names[place]} with negative "
                            f"marking {left}"
                        )
                    marking[place] = left
                for place, mult in outputs[tid]:
                    marking[place] += mult
                if armed[tid]:
                    armed[tid] = False
                    epoch[tid] += 1
                    for slot in busy_slots[tid]:
                        running[slot] -= 1
                counts[tid] += 1
                events += 1
                examine = refresh[tid]
        finally:
            self.clock = clock
            self.events = events
        return ended

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

        A firing-count target the run cannot reach is an error: if the
        net deadlocks or ``max_events`` runs out before
        ``stop_transition`` has fired ``stop_count`` times, this raises
        :class:`SimulationError` naming the net, the transition, the
        firings reached and the cause.  Reaching ``max_time`` first is a
        bound the caller chose and returns normally; a run without a
        target reports a deadlock in ``SimResult.deadlocked``.
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
        with obs.span(f"gspn/run/{self.net.name}"):
            ended = self._simulate(
                (), max_time, stop_tid, stop_count, max_events
            )
            tally.add("gspn_firings", self.events - events_before)
        if (
            ended is not None
            and stop_tid is not None
            and self.firing_counts[stop_tid] < stop_count
        ):
            cause = (
                f"deadlocked at time {self.clock:g}"
                if ended == "deadlock"
                else f"exhausted max_events={max_events}"
            )
            raise SimulationError(
                f"net {self.net.name}: {stop_transition} fired "
                f"{self.firing_counts[stop_tid]} of {stop_count} target "
                f"firings before the run {cause}"
            )
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
            deadlocked=ended == "deadlock",
            busy_fraction=busy_fraction,
        )
