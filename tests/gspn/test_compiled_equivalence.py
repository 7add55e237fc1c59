"""Differential test: the compiled evaluator against the interpreter.

:class:`~repro.gspn.sim.GSPNSimulator` compiles each net into static
firing tables; ``tests/gspn/reference_sim.py`` keeps the interpreter it
replaced.  Both must give identical results, field by field, and leave
the random generator in the same state, which pins the number and order
of draws exactly.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.errors import SimulationError
from repro.common.rng import make_rng
from repro.gspn.models import (
    ISSUE_TRANSITION,
    MemoryPathProbs,
    ProcessorNetParams,
    bank_ready_place,
    build_processor_net,
    registered_nets,
)
from repro.gspn.net import PetriNet
from repro.gspn.sim import GSPNSimulator
from tests.gspn.reference_sim import ReferenceGSPNSimulator

SEEDS = range(5)
INSTRUCTIONS = 1500


def _outcome(sim, rng, run_kwargs):
    """Every observable of one run: its result, or the error it raised."""
    try:
        result = dataclasses.asdict(sim.run(**run_kwargs))
    except SimulationError:
        result = "error"
    return {
        "result": result,
        "marking": list(sim.marking),
        "clock": sim.clock,
        "events": sim.events,
        "rng": rng.bit_generator.state,
    }


def _target_unmet(outcome, run_kwargs):
    stop = run_kwargs.get("stop_transition")
    result = outcome["result"]
    if stop is None or result == "error":
        return False
    unmet = result["firings"].get(stop, 0) < run_kwargs["stop_count"]
    exhausted = result["deadlocked"] or result["events"] >= run_kwargs.get(
        "max_events", 50_000_000
    )
    return unmet and exhausted and result["time"] < run_kwargs.get(
        "max_time", float("inf")
    )


def assert_equivalent(net, seed, runs, track_places=()):
    """Run ``net`` through both evaluators, one ``run`` per ``runs`` entry.

    The interpreter returns from a run whose firing target is unmet; the
    compiled evaluator raises instead, after the same firings.
    """
    ref_rng, rng = make_rng(seed), make_rng(seed)
    ref = ReferenceGSPNSimulator(net, ref_rng, track_places=track_places)
    sim = GSPNSimulator(net, rng, track_places=track_places)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    for run_kwargs in runs:
        expected = _outcome(ref, ref_rng, run_kwargs)
        got = _outcome(sim, rng, run_kwargs)
        if _target_unmet(expected, run_kwargs):
            assert got["result"] == "error", run_kwargs
            expected["result"] = "error"
        assert got == expected, run_kwargs
        if got["result"] == "error":
            break


def _issue_runs(instructions=INSTRUCTIONS):
    # A warm-up run, then a measurement run over the next window.
    return [
        {"stop_transition": ISSUE_TRANSITION, "stop_count": instructions // 3},
        {"stop_transition": ISSUE_TRANSITION, "stop_count": instructions},
    ]


def _conventional_params(**kw):
    return ProcessorNetParams(
        ifetch=MemoryPathProbs(0.95, 0.04),
        load=MemoryPathProbs(0.90, 0.07),
        store=MemoryPathProbs(0.90, 0.07),
        mem_access=24.0,
        num_banks=2,
        has_l2=True,
        **kw,
    )


class TestPaperNets:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("name", sorted(registered_nets()))
    def test_registered_net(self, name, seed):
        net = registered_nets()[name]
        if ISSUE_TRANSITION in net.transitions:
            runs = _issue_runs()
        else:
            runs = [{"max_time": 500.0}, {"max_time": 3000.0}]
        assert_equivalent(net, seed, runs)

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize(
        "params",
        [ProcessorNetParams(), _conventional_params()],
        ids=["integrated", "conventional"],
    )
    def test_processor_shapes(self, params, seed):
        assert_equivalent(build_processor_net(params), seed, _issue_runs())

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("banks", [2, 4, 8, 16])
    def test_bank_sweep_with_tracked_places(self, banks, seed):
        net = build_processor_net(ProcessorNetParams(num_banks=banks))
        track = tuple(bank_ready_place(b) for b in range(banks))
        assert_equivalent(net, seed, _issue_runs(), track_places=track)

    def test_max_time_and_max_events_stops(self):
        net = build_processor_net(_conventional_params())
        assert_equivalent(
            net,
            3,
            [
                {"max_time": 250.0},
                {"max_time": 400.0, "max_events": 900},
                {"max_time": 900.0},
            ],
            track_places=("l2_port",),
        )

    def test_event_budget_exhausted_before_target(self):
        net = build_processor_net(ProcessorNetParams(num_banks=4))
        assert_equivalent(
            net,
            1,
            [{"stop_transition": ISSUE_TRANSITION, "stop_count": 500,
              "max_events": 700}],
        )


def _wide_conflict_net() -> PetriNet:
    """Nine immediates in one conflict set, at ids 0, 8, ..., 64.

    The ids collide modulo 8 (and modulo the larger tables the set grows
    into), so the order in which the enabled-immediates set yields them
    depends on its whole add/discard history.  Each immediate is
    inhibited while its own output holds a token, so the set changes
    membership as the deterministic drains run at different speeds.
    """
    net = PetriNet("wide-conflict")
    net.place("src", 1)
    net.place("hub", 1)
    net.place("never")
    for k in range(9):
        net.place(f"out{k}")
    filler = 0
    for k in range(9):
        net.immediate(
            f"I{k}", {"hub": 1}, {f"out{k}": 1},
            weight=1.0 + 0.37 * k, inhibitors={f"out{k}": 1},
        )
        net.deterministic(
            f"D{k}", {f"out{k}": 1}, {}, delay=0.5 + 0.45 * k
        )
        for _ in range(6):
            net.deterministic(f"pad{filler}", {"never": 1}, {}, delay=1.0)
            filler += 1
    net.exponential("T_gen", {"src": 1}, {"src": 1, "hub": 1}, rate=3.0)
    return net


class TestConflictOrder:
    def test_wide_conflict_set_ids_collide(self):
        net = _wide_conflict_net()
        ids = list(net.transitions)
        immediates = [ids.index(f"I{k}") for k in range(9)]
        assert immediates == [8 * k for k in range(9)]

    def test_nine_way_conflict_reaches_full_width(self):
        sim = GSPNSimulator(_wide_conflict_net(), make_rng(0))
        sim.run(max_time=200.0)
        widths = {len(key) for key in sim._conflicts}
        assert max(widths) >= 9

    @pytest.mark.parametrize("seed", SEEDS)
    def test_wide_conflict_matches_interpreter(self, seed):
        assert_equivalent(
            _wide_conflict_net(), seed,
            [{"max_time": 100.0}, {"max_time": 400.0},
             {"stop_transition": "I8", "stop_count": 60}],
        )


# -- generated nets ----------------------------------------------------------


@st.composite
def nets(draw):
    """Random nets whose immediate firings cannot loop forever.

    An immediate only moves tokens to places of higher index than all of
    its inputs, so every chain of immediates ends; timed transitions are
    unconstrained, zero-delay deterministic ones included.  Place ``p0``
    holds one token that only the exponential source ``gen`` uses.
    """
    n_places = draw(st.integers(2, 6))
    net = PetriNet("generated")
    net.place("p0", 1)
    for p in range(1, n_places):
        net.place(f"p{p}", draw(st.integers(0, 3)))
    arcs = st.integers(1, 3)
    # A source that keeps tokens flowing, sometimes throttled.
    fed = f"p{draw(st.integers(1, n_places - 1))}"
    throttle = {fed: draw(st.integers(2, 8))} if draw(st.booleans()) else {}
    net.exponential("gen", {"p0": 1}, {"p0": 1, fed: draw(arcs)},
                    rate=draw(st.floats(0.2, 4.0)), inhibitors=throttle)
    for t in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["imm", "imm", "det", "exp"]))
        ins = draw(st.dictionaries(st.integers(1, n_places - 1), arcs,
                                   min_size=1, max_size=3))
        lowest = max(ins) + 1 if kind == "imm" else 0
        if lowest < n_places:
            outs = draw(st.dictionaries(st.integers(lowest, n_places - 1),
                                        arcs, max_size=3))
        else:
            outs = {}
        inhib = draw(st.dictionaries(st.integers(0, n_places - 1),
                                     st.integers(1, 4), max_size=2))
        name = f"t{t}"
        ins = {f"p{p}": m for p, m in ins.items()}
        outs = {f"p{p}": m for p, m in outs.items()}
        inhib = {f"p{p}": m for p, m in inhib.items()}
        if kind == "imm":
            net.immediate(
                name, ins, outs,
                weight=draw(st.floats(0.05, 20.0)),
                priority=draw(st.sampled_from([0, 0, 1])),
                inhibitors=inhib,
            )
        elif kind == "det":
            net.deterministic(
                name, ins, outs,
                delay=draw(st.sampled_from([0.0, 0.5, 1.0, 2.5])),
                inhibitors=inhib,
            )
        else:
            net.exponential(name, ins, outs,
                            rate=draw(st.floats(0.1, 5.0)), inhibitors=inhib)
    return net


class TestGeneratedNets:
    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(net=nets(), seed=st.integers(0, 2**16),
           data=st.data())
    def test_generated_net_matches_interpreter(self, net, seed, data):
        names = list(net.transitions)
        runs = []
        for _ in range(data.draw(st.integers(1, 3))):
            bound = data.draw(st.sampled_from(["time", "target"]))
            if bound == "time":
                runs.append({"max_time": data.draw(st.floats(0.0, 40.0)),
                             "max_events": 400})
            else:
                runs.append({
                    "stop_transition": data.draw(st.sampled_from(names)),
                    "stop_count": data.draw(st.integers(1, 30)),
                    "max_events": 400,
                })
        track = tuple(data.draw(st.lists(
            st.sampled_from(list(net.initial_marking)), max_size=3)))
        assert_equivalent(net, seed, runs, track_places=track)
