import pytest

from repro.common.errors import ConfigError
from repro.gspn.net import PetriNet, Transition, TransitionKind
from tests.gspn.net_helpers import is_conservative, token_count


class TestConstruction:
    def test_duplicate_place_rejected(self):
        net = PetriNet("t")
        net.place("p")
        with pytest.raises(ConfigError):
            net.place("p")

    def test_negative_marking_rejected(self):
        with pytest.raises(ConfigError):
            PetriNet("t").place("p", tokens=-1)

    def test_duplicate_transition_rejected(self):
        net = PetriNet("t")
        net.place("a")
        net.immediate("T", {"a": 1})
        with pytest.raises(ConfigError):
            net.immediate("T", {"a": 1})

    def test_unknown_place_rejected(self):
        net = PetriNet("t")
        net.place("a")
        with pytest.raises(ConfigError):
            net.immediate("T", {"missing": 1})

    def test_zero_weight_rejected(self):
        net = PetriNet("t")
        net.place("a")
        with pytest.raises(ConfigError):
            net.immediate("T", {"a": 1}, weight=0.0)

    def test_zero_arc_multiplicity_rejected(self):
        with pytest.raises(ConfigError):
            Transition("T", TransitionKind.IMMEDIATE, 1.0, {"a": 0})

    def test_negative_rate_rejected(self):
        net = PetriNet("t")
        net.place("a")
        with pytest.raises(ConfigError):
            net.exponential("T", {"a": 1}, rate=-1.0)


class TestValidate:
    def test_empty_net_rejected(self):
        with pytest.raises(ConfigError):
            PetriNet("t").validate()

    def test_source_transition_rejected(self):
        net = PetriNet("t")
        net.place("a")
        with pytest.raises(ConfigError):
            net._add(Transition("T", TransitionKind.IMMEDIATE, 1.0, {}, {"a": 1}))
            net.validate()

    def test_valid_net_passes(self):
        net = PetriNet("t")
        net.place("a", 1)
        net.place("b")
        net.deterministic("T", {"a": 1}, {"b": 1}, delay=2.0)
        net.validate()


class TestIntrospection:
    def test_token_count(self):
        net = PetriNet("t")
        net.place("a", 2)
        net.place("b", 3)
        assert token_count(net) == 5

    def test_conservative_net(self):
        net = PetriNet("t")
        net.place("a", 1)
        net.place("b")
        net.deterministic("T", {"a": 1}, {"b": 1})
        assert is_conservative(net)

    def test_non_conservative_net(self):
        net = PetriNet("t")
        net.place("a", 1)
        net.immediate("T_sink", {"a": 1}, {})
        assert not is_conservative(net)
