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

**Compiled tables.**  What depends on a net's structure alone is
compiled once per *shape*: the place count, each transition's kind and
input, output and inhibitor arcs, and the tracked places.  The tables
are the input and output arcs as ``(place, multiplicity)`` tuples and a
*refresh list* per transition — the transitions to re-examine after it
fires.  The refresh list is every transition with an input or inhibitor
arc on a place the firing touched, in the order of the touched places
(inputs, then outputs) and then of each place's arcs, de-duplicated,
followed by the transition itself if absent.  Weights, delays and rates
stay with each :class:`GSPNSimulator`, which also keeps its own
generator, clock, timers and enabled set.  One loop in
:meth:`GSPNSimulator.run` picks the next transition, fires it, and
applies the changes a walk of its refresh list makes: enabled immediates
added or discarded, timers armed or disarmed.  Weighted conflicts are
resolved from cumulative weights cached per simulator and distinct set
of enabled immediates.

**Marking memo.**  Each shape remembers the part of the reachability
graph its simulators have visited, and every simulator of the shape in
this process reads and extends it, so a sweep that rebuilds one net with
new weights or delays learns the graph once.  A marking is interned as
an immutable key (``bytes`` while every count is below 256, else a
tuple) with an integer id, and each *step* — transition ``tid`` fired
from marking ``M`` — is stored the first time it is taken, as the
successor marking and the walk's *effective* changes in walk order.
Examinations that change nothing (adding a member, discarding a
non-member, re-testing an armed timer) are dropped.  Every later firing
of ``tid`` from ``M`` is one dict lookup followed by applying those
changes.  This is exact as long as only the simulator edits the
marking: then every timed transition other than the one that just fired
is armed exactly when it is enabled, and the enabled-immediates set
holds exactly the enabled immediates, so the changes depend on
``(M, tid)`` and the shape alone, never on weights or timing.  A
simulator whose caller edited :attr:`~GSPNSimulator.marking` between
runs neither reads nor stores steps for the rest of its life.  The
process keeps the ``_MAX_SHAPES`` (8) most recently used shapes, and at
most ``_MAX_MEMO_MARKINGS`` markings are interned per shape, so a net
with a place that grows without bound cannot exhaust memory; past the
cap, steps are computed and applied but not stored.

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
  refresh lists.  A stored step replays that sequence in order, one
  discard at a time: ``difference_update`` would compact the set's
  table afterwards and so reorder its iteration.

Conflict uniforms are drawn ``_BLOCK`` (256) at a time with
``rng.random(_BLOCK)``, which yields the doubles the scalar calls would,
after saving ``bit_generator.state``.  Exponential and uniform draws
interleave, so before any exponential draw, and whenever a run ends
(exceptions included), the open block is rewound: the saved state is
restored and the uniforms used are drawn again.  The generator then sits
exactly where one-at-a-time draws leave it, for every bit generator.
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
# Markings one net shape interns at most.  The shipped experiments reach
# 2,296 (a Table 3 point at 15,000 instructions).
_MAX_MEMO_MARKINGS = 1 << 16
# Net shapes whose tables and memo the process keeps, least recently
# used first; the shipped experiments use a handful at a time.
_MAX_SHAPES = 8
_SHAPES: dict[tuple, tuple] = {}  # repro: allow(mutable-global) — a pure cache keyed by net structure: every entry is a function of the shape alone
# Conflict uniforms drawn per block (see the RNG-order contract).
_BLOCK = 256


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


def _marking_key(counts) -> bytes | tuple:
    """A marking as a memo key: bytes when every count is below 256."""
    try:
        return bytes(counts)
    except ValueError:
        return tuple(counts)


def _compiled_shape(trans: list, place_ids: dict[str, int],
                    track: tuple[int, ...]) -> tuple:
    """The tables and marking memo of one net shape, shared in-process.

    A shape is the place count, each transition's kind and arcs, and the
    tracked places: everything a stored step depends on.  Returns
    ``(inputs, outputs, refresh_lists, examine_all, busy_slots,
    markings, steps)``, compiled on the shape's first use and the same
    objects for every later simulator of that shape, so the memo one
    simulator learns serves the next.
    """

    def arcs(table: dict[str, int]) -> tuple[tuple[int, int], ...]:
        return tuple(zip(map(place_ids.__getitem__, table), table.values()))

    inputs = [arcs(t.inputs) for t in trans]
    outputs = [arcs(t.outputs) for t in trans]
    inhibitors = [arcs(t.inhibitors) for t in trans]
    key = (
        len(place_ids),
        tuple(zip([t.kind for t in trans], inputs, outputs, inhibitors)),
        track,
    )
    shape = _SHAPES.pop(key, None)
    if shape is None:
        # Transitions whose enabling depends on each place.
        affected: list[list[int]] = [[] for _ in place_ids]
        for tid, tran in enumerate(trans):
            for place in list(tran.inputs) + list(tran.inhibitors):
                affected[place_ids[place]].append(tid)
        # The refresh list of each transition, as the loop's
        # (tid, kind, inputs, inhibitors) records.
        examine = [
            (tid, tran.kind, inputs[tid], inhibitors[tid])
            for tid, tran in enumerate(trans)
        ]
        refresh_lists = []
        for tid in range(len(trans)):
            order: dict[int, None] = {}
            for place, _ in inputs[tid] + outputs[tid]:
                order.update(dict.fromkeys(affected[place]))
            order.setdefault(tid)
            refresh_lists.append(tuple(examine[t] for t in order))
        # Tracked slots each timed transition consumes from: a running
        # timer on one of these marks the slot's resource as committed
        # (in service), which feeds the busy_fraction statistic.
        busy_slots = [
            tuple(
                slot
                for slot, place in enumerate(track)
                if tran.kind is not TransitionKind.IMMEDIATE
                and any(p == place for p, _ in inputs[tid])
            )
            for tid, tran in enumerate(trans)
        ]
        # The marking memo: marking key -> (step base, key), and
        # step base + tid -> the step firing tid from that marking.
        markings: dict[bytes | tuple, tuple[int, bytes | tuple]] = {}
        steps: dict[int, tuple] = {}
        shape = (inputs, outputs, refresh_lists, tuple(examine), busy_slots,
                 markings, steps)
        if len(_SHAPES) >= _MAX_SHAPES:
            del _SHAPES[next(iter(_SHAPES))]
    _SHAPES[key] = shape  # re-inserted last: the most recently used
    return shape


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
        self._track = tuple(place_ids[p] for p in track_places)
        self._track_names = list(track_places)
        (
            self._inputs, self._outputs, self._refresh_lists,
            self._examine_all, self._busy_slots, self._markings, self._steps,
        ) = _compiled_shape(trans, place_ids, self._track)
        # Arming a timer: the fixed delay of a deterministic transition,
        # or None and the scale of an exponential one's draw.
        self._fixed_delay = [
            t.param if t.kind is TransitionKind.DETERMINISTIC else None
            for t in trans
        ]
        self._scale = [
            1.0 / t.param if t.kind is TransitionKind.EXPONENTIAL else None
            for t in trans
        ]
        # tuple(enabled immediates) -> (top-priority candidates, their
        # cumulative weights or None when there is only one).
        self._conflicts: dict[tuple[int, ...], tuple] = {}
        # A marking without an id in the memo gets the base _no_base,
        # which no step key reaches.
        self._memo = True
        self._stored = 0
        self._no_base = -len(trans)
        self.reset()

    # -- state ------------------------------------------------------------

    def reset(self) -> None:
        self.marking = [
            self.net.initial_marking[name] for name in self._place_names
        ]
        self.clock = 0.0
        self.firing_counts = [0] * len(self._tran_names)
        self.events = 0
        # A heap entry (time, tid, epoch) is live while epoch[tid] still
        # equals its epoch.  Arming and disarming both bump the epoch, so
        # a transition's timer is armed while its epoch is odd.
        self._epoch = [0] * len(self._tran_names)
        self._heap: list[tuple[float, int, int]] = []
        self._enabled_imm: set[int] = set()
        self._marking_area = [0.0] * len(self._track)
        self._busy_area = [0.0] * len(self._track)
        # Running timers of consumers of each tracked slot.
        self._running = [0] * len(self._track)
        step = self._learn(self._no_base, _marking_key(self.marking), -1)
        self._simulate(step, examine_only=True)

    def _learn(self, base: int, key: bytes | tuple, tid: int) -> tuple:
        """Fire ``tid`` from marking ``key`` and walk its refresh list.

        Returns the step ``(base, key, drops, adds, more, disarms, arms,
        busy)``: the successor marking's base and key, then the changes
        the walk makes, for :meth:`_simulate` to apply.  It is stored in
        the memo when both markings have ids.  ``tid`` -1 fires nothing
        and examines every transition, which :meth:`reset` uses.
        """
        if tid < 0:
            examine = self._examine_all
        else:
            counts = bytearray(key) if key.__class__ is bytes else list(key)
            for place, mult in self._inputs[tid]:
                left = counts[place] - mult
                if left < 0:
                    raise SimulationError(
                        f"net {self.net.name}: firing "
                        f"{self._tran_names[tid]} left place "
                        f"{self._place_names[place]} with negative "
                        f"marking {left}"
                    )
                counts[place] = left
            for place, mult in self._outputs[tid]:
                try:
                    counts[place] += mult
                except ValueError:  # a count past 255
                    counts = list(counts)
                    counts[place] += mult
            if counts.__class__ is bytearray:
                key = bytes(counts)
            else:
                key = _marking_key(counts)
            examine = self._refresh_lists[tid]
        markings = self._markings
        state = markings.get(key) if self._memo else None
        if state is None:
            if self._memo and len(markings) < _MAX_MEMO_MARKINGS:
                state = markings[key] = (
                    len(markings) * len(self._tran_names), key
                )
            else:
                state = (self._no_base, key)
        marking = state[1]

        # The walk, kept as the effective changes only.  Set changes go
        # in rounds of discards then adds; timer changes as disarms and
        # arms, the fired transition's own disarm first.
        epoch = self._epoch
        enabled_imm = self._enabled_imm
        immediate = TransitionKind.IMMEDIATE
        rounds: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        drops: list[int] = []
        adds: list[int] = []
        disarms = [tid] if tid >= 0 and epoch[tid] & 1 else []
        arms = []
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
                    if t not in enabled_imm:
                        adds.append(t)
                elif t in enabled_imm:
                    if adds:
                        rounds.append((tuple(drops), tuple(adds)))
                        drops, adds = [], []
                    drops.append(t)
            elif enabled:
                if t == tid or not epoch[t] & 1:
                    arms.append(t)
            elif t != tid and epoch[t] & 1:
                disarms.append(t)
        rounds.append((tuple(drops), tuple(adds)))
        busy: tuple[tuple[int, int], ...] = ()
        if self._track:
            running = [0] * len(self._track)
            for ts, sign in ((disarms, -1), (arms, 1)):
                for t in ts:
                    for slot in self._busy_slots[t]:
                        running[slot] += sign
            busy = tuple((slot, n) for slot, n in enumerate(running) if n)
        step = (
            *state,
            *rounds[0],
            tuple(rounds[1:]),
            tuple(disarms),
            tuple(arms),
            busy,
        )
        if base >= 0 and state[0] >= 0:
            self._steps[base + tid] = step
            self._stored += 1
        return step

    @property
    def learned_steps(self) -> int:
        """Steps this simulator stored in its shape's marking memo.

        A step is a distinct (marking, transition) firing.  Steps another
        simulator of the same shape stored first are replayed, not
        counted, so a later simulator of a known shape stores few.
        """
        return self._stored

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
        step: tuple,
        max_time: float = math.inf,
        stop_tid: int | None = None,
        stop_count: int = 0,
        max_events: int = 0,
        examine_only: bool = False,
    ) -> str | None:
        """Apply ``step``, then fire until a bound.

        Each firing applies the step the memo holds for it, or the one
        :meth:`_learn` computes.  Returns why the run ended:
        ``"deadlock"`` when no timer is left, ``"max_events"`` when the
        event budget ran out, else ``None``.
        """
        counts = self.firing_counts
        epoch = self._epoch
        heap = self._heap
        enabled_imm = self._enabled_imm
        discard = enabled_imm.discard
        update = enabled_imm.update
        fixed_delay = self._fixed_delay
        scale = self._scale
        running = self._running
        track = tuple(enumerate(self._track))
        marking_area = self._marking_area
        busy_area = self._busy_area
        conflicts = self._conflicts
        steps = self._steps
        learn = self._learn
        exponential = self.rng.exponential
        uniform = self.rng.random
        bit_generator = self.rng.bit_generator
        # The open block of conflict uniforms, the generator state before
        # it was drawn, and how many of it are used: _BLOCK when none is
        # open and the generator sits where one-at-a-time draws leave it.
        block: list[float] = []
        saved = None
        used = _BLOCK
        heappush = heapq.heappush
        heappop = heapq.heappop
        clock = self.clock
        events = self.events
        chain = 0
        tid = -1
        ended = None
        base, key, drops, adds, more, disarms, arms, busy = step
        try:
            while True:
                for t in drops:
                    discard(t)
                if adds:
                    update(adds)
                if more:
                    for later_drops, later_adds in more:
                        for t in later_drops:
                            discard(t)
                        update(later_adds)
                for t in disarms:
                    epoch[t] += 1
                for t in arms:
                    stamp = epoch[t] + 1
                    epoch[t] = stamp
                    delay = fixed_delay[t]
                    if delay is None:
                        if used < _BLOCK:
                            bit_generator.state = saved
                            uniform(used)
                            used = _BLOCK
                        delay = exponential(scale[t])
                    heappush(heap, (clock + delay, t, stamp))
                if busy:
                    for slot, n in busy:
                        running[slot] += n
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
                        conflict = tuple(enabled_imm)
                        choice = conflicts.get(conflict)
                        if choice is None:
                            choice = conflicts[conflict] = self._resolve(conflict)
                        ready, cdf = choice
                        if cdf is None:
                            tid = ready[0]
                        else:
                            if used == _BLOCK:
                                saved = bit_generator.state
                                block = uniform(_BLOCK).tolist()
                                used = 0
                            tid = ready[bisect_right(cdf, block[used])]
                            used += 1
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
                        marking_area[slot] += key[place] * dt
                        if key[place] == 0 or running[slot]:
                            busy_area[slot] += dt
                    clock = when

                # Fire it.
                step = steps.get(base + tid)
                if step is None:
                    step = learn(base, key, tid)
                base, key, drops, adds, more, disarms, arms, busy = step
                counts[tid] += 1
                events += 1
        finally:
            if used < _BLOCK:
                bit_generator.state = saved
                uniform(used)
            self.clock = clock
            self.events = events
            self.marking[:] = key
            self._at = (base, key)
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
        base, key = self._at
        if self._memo and list(key) != self.marking:
            # The caller edited the marking: the timers and the enabled
            # set no longer follow from it, so no step may be reused.
            self._memo = False
        if not self._memo:
            base, key = self._no_base, _marking_key(self.marking)
        with obs.span(f"gspn/run/{self.net.name}"):
            ended = self._simulate(
                (base, key, (), (), (), (), (), ()),
                max_time, stop_tid, stop_count, max_events,
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
