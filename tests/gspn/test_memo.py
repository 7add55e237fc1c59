"""The marking memo and conflict-uniform blocks of the GSPN evaluator.

Each test drives :class:`~repro.gspn.sim.GSPNSimulator` and the
interpreter in ``tests/gspn/reference_sim.py`` through the same runs and
requires identical results, field by field, identical markings and the
same random generator state after every run.  On top of that it checks
what the memo did: how many markings its net shape interned, how many
steps each simulator stored, and how many shapes the process keeps.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.common.errors import SimulationError
from repro.common.rng import make_rng
from repro.gspn import sim as sim_module
from repro.gspn.models import (
    ISSUE_TRANSITION,
    MemoryPathProbs,
    ProcessorNetParams,
    bank_ready_place,
    build_processor_net,
)
from repro.gspn.net import PetriNet
from repro.gspn.sim import GSPNSimulator
from tests.gspn import reference_sim
from tests.gspn.reference_sim import ReferenceGSPNSimulator

BIT_GENERATORS = ("PCG64", "MT19937", "Philox", "SFC64")


@pytest.fixture(autouse=True)
def empty_shape_table(monkeypatch):
    """Each test starts with no compiled shape, whatever ran before."""
    monkeypatch.setattr(sim_module, "_SHAPES", {})


def same_state(a, b) -> bool:
    """Bit-generator states equal; they may hold numpy arrays."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return bool(np.array_equal(a, b))


class Twin:
    """The memoizing simulator and the interpreter, driven alike."""

    def __init__(self, net, seed, track_places=(), bit_generator="PCG64"):
        self.ref_rng, self.rng = (
            np.random.Generator(getattr(np.random, bit_generator)(seed))
            for _ in range(2)
        )
        self.ref = ReferenceGSPNSimulator(net, self.ref_rng, track_places)
        self.sim = GSPNSimulator(net, self.rng, track_places)

    def run(self, **run_kwargs) -> None:
        expected = dataclasses.asdict(self.ref.run(**run_kwargs))
        assert dataclasses.asdict(self.sim.run(**run_kwargs)) == expected
        self.assert_same_state()

    def assert_same_state(self) -> None:
        assert self.sim.marking == self.ref.marking
        assert same_state(self.rng.bit_generator.state,
                          self.ref_rng.bit_generator.state)


def run_both(net, seed, runs, track_places=(), before_run=None):
    """Run ``net`` through both evaluators, one ``run`` per ``runs`` entry.

    ``before_run(i, marking)``, when given, may edit a marking in place
    before run ``i``; it is applied to both simulators alike.  Returns
    the memoizing simulator and its ``learned_steps`` after each run.
    """
    twin = Twin(net, seed, track_places)
    learned = []
    for i, run_kwargs in enumerate(runs):
        if before_run is not None:
            before_run(i, twin.ref.marking)
            before_run(i, twin.sim.marking)
        twin.run(**run_kwargs)
        learned.append(twin.sim.learned_steps)
    return twin.sim, learned


def _counter_net() -> PetriNet:
    """A bounded two-place cycle plus a source nothing ever drains."""
    net = PetriNet("counter")
    net.place("src", 1)
    net.place("count")
    net.place("a", 1)
    net.place("b")
    net.exponential("T_src", {"src": 1}, {"src": 1, "count": 1}, rate=1.0)
    net.exponential("T_ab", {"a": 1}, {"b": 1}, rate=2.0)
    net.deterministic("T_ba", {"b": 1}, {"a": 1}, delay=0.3)
    return net


def _cycle_net(leak: float = 0.0) -> PetriNet:
    """Two tokens around a cycle with a weighted conflict: few markings.

    Exponential arms fall between the conflicts.  With ``leak`` the
    conflict may also drop its token, so the net ends in deadlock.
    """
    net = PetriNet("cycle")
    net.place("idle", 2)
    net.place("route")
    net.place("fast")
    net.place("slow")
    net.exponential("T_go", {"idle": 1}, {"route": 1}, rate=1.5)
    net.immediate("I_fast", {"route": 1}, {"fast": 1}, weight=3.0)
    net.immediate("I_slow", {"route": 1}, {"slow": 1}, weight=1.0)
    if leak:
        net.immediate("I_leak", {"route": 1}, {}, weight=leak)
    net.deterministic("T_fast", {"fast": 1}, {"idle": 1}, delay=0.5)
    net.exponential("T_slow", {"slow": 1}, {"idle": 1}, rate=0.4)
    return net


def _processor_net(hit: float, banks: int = 2) -> PetriNet:
    """A Figure 10 net whose miss-rate weights vary with ``hit``."""
    return build_processor_net(ProcessorNetParams(
        ifetch=MemoryPathProbs(hit), load=MemoryPathProbs(hit - 0.05),
        store=MemoryPathProbs(hit - 0.02), num_banks=banks,
    ))


class TestMarkingMemo:
    def test_memo_stops_growing_at_the_cap(self, monkeypatch):
        # Two markings per count: the counter passes 255, so later
        # markings are keyed by tuples, and the cap is reached after
        # some of those are interned.
        cap = 600
        monkeypatch.setattr(sim_module, "_MAX_MEMO_MARKINGS", cap)
        sim, learned = run_both(
            _counter_net(), 0,
            [{"stop_transition": "T_src", "stop_count": count}
             for count in (400, 600, 700)],
        )
        assert len(sim._markings) == cap
        assert any(isinstance(key, tuple) for key in sim._markings)
        assert 0 < learned[0] < 4 * cap
        assert learned[2] == learned[1] == learned[0]

    def test_edited_marking_turns_the_memo_off(self):
        net = build_processor_net(ProcessorNetParams(num_banks=2))
        fetch = list(net.initial_marking).index("fetch")

        def add_fetch_token(i, marking):
            if i == 1:
                marking[fetch] += 1

        _, learned = run_both(
            net, 4,
            [{"stop_transition": ISSUE_TRANSITION, "stop_count": count}
             for count in (300, 600, 900)],
            before_run=add_fetch_token,
        )
        assert learned[0] > 0
        assert learned[2] == learned[1] == learned[0]

    def test_warmup_then_measure_with_tracked_places(self):
        banks = 4
        net = build_processor_net(ProcessorNetParams(num_banks=banks))
        track = tuple(bank_ready_place(b) for b in range(banks)) + ("lsu",)
        _, learned = run_both(
            net, 2,
            [{"stop_transition": ISSUE_TRANSITION, "stop_count": 400},
             {"stop_transition": ISSUE_TRANSITION, "stop_count": 1500},
             {"max_time": 2500.0}],
            track_places=track,
        )
        assert learned[0] > 0

    def test_second_run_on_a_bounded_net_learns_little(self):
        sim, learned = run_both(
            _cycle_net(), 1, [{"max_time": 500.0}, {"max_time": 5000.0}]
        )
        assert 0 < learned[0] < 40
        assert learned[1] - learned[0] <= 3
        assert sim.events > 5 * learned[1]


class TestSharedShapes:
    def test_one_shape_with_different_weights(self):
        nets = {hit: _processor_net(hit) for hit in (0.97, 0.85)}
        runs = [{"stop_transition": ISSUE_TRANSITION, "stop_count": 1500}]
        alone = {}
        for hit, net in nets.items():
            sim_module._SHAPES.clear()
            alone[hit] = run_both(net, 0, runs)[1][0]
        for first, second in ((0.97, 0.85), (0.85, 0.97)):
            sim_module._SHAPES.clear()
            assert run_both(nets[first], 0, runs)[1] == [alone[first]]
            # The second stores only the steps the first never took.
            assert 0 < run_both(nets[second], 0, runs)[1][0] < alone[second]
            assert len(sim_module._SHAPES) == 1

    def test_edited_marking_leaves_its_shape_exact(self):
        edited, other = Twin(_processor_net(0.9), 4), Twin(_processor_net(0.8), 5)
        steps = edited.sim._steps
        assert other.sim._steps is steps
        fetch = list(edited.sim.net.initial_marking).index("fetch")
        for twin in (edited, other):
            twin.run(stop_transition=ISSUE_TRANSITION, stop_count=300)
        edited.ref.marking[fetch] += 1
        edited.sim.marking[fetch] += 1
        learned = edited.sim.learned_steps
        stored = dict(steps)
        edited.run(stop_transition=ISSUE_TRANSITION, stop_count=900)
        assert steps == stored
        assert edited.sim.learned_steps == learned
        other.run(stop_transition=ISSUE_TRANSITION, stop_count=900)

    def test_table_keeps_the_eight_most_recent_shapes(self):
        sims = {
            banks: GSPNSimulator(
                build_processor_net(ProcessorNetParams(num_banks=banks)),
                make_rng(0),
            )
            for banks in range(1, 9)
        }
        # Using the 1-bank shape again makes 2 banks the least recent.
        GSPNSimulator(build_processor_net(ProcessorNetParams(num_banks=1)),
                      make_rng(0))
        for banks in range(9, 21):
            sims[banks] = GSPNSimulator(
                build_processor_net(ProcessorNetParams(num_banks=banks)),
                make_rng(0),
            )
            kept = {id(shape[-1]) for shape in sim_module._SHAPES.values()}
            assert len(kept) <= sim_module._MAX_SHAPES == 8
            assert (id(sims[1]._steps) in kept) == (banks < 16)
            assert id(sims[2]._steps) not in kept
        assert kept == {id(sims[banks]._steps) for banks in range(13, 21)}


class TestConflictBlocks:
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    @pytest.mark.parametrize("end", [
        "stop-target", "max-time", "max-events", "deadlock", "unmet-target",
    ])
    def test_generator_state_after_each_way_a_run_ends(self, end, bit_generator):
        run_kwargs = {
            "stop-target": {"stop_transition": "T_go", "stop_count": 300},
            "max-time": {"max_time": 150.0},
            "max-events": {"max_events": 777},
            "deadlock": {},
            "unmet-target": {"stop_transition": "T_go", "stop_count": 10**6,
                             "max_events": 900},
        }[end]
        twin = Twin(_cycle_net(leak=0.05 if end == "deadlock" else 0.0), 7,
                    bit_generator=bit_generator)
        if end == "unmet-target":
            twin.ref.run(**run_kwargs)
            with pytest.raises(SimulationError, match="exhausted max_events"):
                twin.sim.run(**run_kwargs)
            twin.assert_same_state()
        else:
            twin.run(**run_kwargs)
        assert twin.sim.events > 100
        # The next run starts where one-at-a-time draws would have left it.
        twin.run(max_time=twin.sim.clock + 50.0)

    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_generator_state_after_a_livelock_inside_the_loop(
        self, monkeypatch, bit_generator
    ):
        # Conflicts with no exponential draw between them: the run spans
        # several blocks and raises with the last one partly used.
        for module in (sim_module, reference_sim):
            monkeypatch.setattr(module, "_MAX_IMMEDIATE_CHAIN", 1_500)
        net = PetriNet("pingpong")
        net.place("a", 1)
        net.place("b")
        net.place("c")
        net.immediate("I_ab", {"a": 1}, {"b": 1}, weight=1.0)
        net.immediate("I_ac", {"a": 1}, {"c": 1}, weight=2.0)
        net.immediate("I_ba", {"b": 1}, {"a": 1})
        net.immediate("I_ca", {"c": 1}, {"a": 1})
        twin = Twin(net, 3, bit_generator=bit_generator)
        for evaluator in (twin.ref, twin.sim):
            with pytest.raises(SimulationError, match="livelock"):
                evaluator.run(max_time=10.0)
        twin.assert_same_state()
        assert twin.sim.firing_counts == twin.ref.firing_counts
