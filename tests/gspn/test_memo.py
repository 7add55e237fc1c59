"""The marking memo of :class:`~repro.gspn.sim.GSPNSimulator`.

Each test drives the simulator and the interpreter in
``tests/gspn/reference_sim.py`` through the same runs and requires
identical results, field by field, identical markings and the same
random generator state after every run.  On top of that it checks what
the memo did: how many markings it interned and how many steps it
stored.
"""

from __future__ import annotations

import dataclasses

from repro.common.rng import make_rng
from repro.gspn import sim as sim_module
from repro.gspn.models import (
    ISSUE_TRANSITION,
    ProcessorNetParams,
    bank_ready_place,
    build_processor_net,
)
from repro.gspn.net import PetriNet
from repro.gspn.sim import GSPNSimulator
from tests.gspn.reference_sim import ReferenceGSPNSimulator


def run_both(net, seed, runs, track_places=(), before_run=None):
    """Run ``net`` through both evaluators, one ``run`` per ``runs`` entry.

    ``before_run(i, marking)``, when given, may edit a marking in place
    before run ``i``; it is applied to both simulators alike.  Returns
    the memoizing simulator and its ``learned_steps`` after each run.
    """
    ref_rng, rng = make_rng(seed), make_rng(seed)
    ref = ReferenceGSPNSimulator(net, ref_rng, track_places=track_places)
    sim = GSPNSimulator(net, rng, track_places=track_places)
    learned = []
    for i, run_kwargs in enumerate(runs):
        if before_run is not None:
            before_run(i, ref.marking)
            before_run(i, sim.marking)
        expected = dataclasses.asdict(ref.run(**run_kwargs))
        assert dataclasses.asdict(sim.run(**run_kwargs)) == expected, i
        assert sim.marking == ref.marking, i
        assert rng.bit_generator.state == ref_rng.bit_generator.state, i
        learned.append(sim.learned_steps)
    return sim, learned


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


def _cycle_net() -> PetriNet:
    """Two tokens around a cycle with a weighted conflict: few markings."""
    net = PetriNet("cycle")
    net.place("idle", 2)
    net.place("route")
    net.place("fast")
    net.place("slow")
    net.exponential("T_go", {"idle": 1}, {"route": 1}, rate=1.5)
    net.immediate("I_fast", {"route": 1}, {"fast": 1}, weight=3.0)
    net.immediate("I_slow", {"route": 1}, {"slow": 1}, weight=1.0)
    net.deterministic("T_fast", {"fast": 1}, {"idle": 1}, delay=0.5)
    net.exponential("T_slow", {"slow": 1}, {"idle": 1}, rate=0.4)
    return net


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
