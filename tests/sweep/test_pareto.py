"""Pareto classification on hand-built frontiers."""

import pytest

from repro.sweep.pareto import ParetoError, pareto_classify

MIN_BOTH = ("cost", "delay")


def classify(points, objectives=MIN_BOTH):
    return pareto_classify(points, objectives)


def frontier_labels(verdicts):
    """Labels of the non-dominated points, in input order."""
    return [v.label for v in verdicts if not v.dominated]


class TestClassification:
    def test_textbook_frontier(self):
        # c is beaten by a (cheaper AND faster); a and b trade off.
        verdicts = classify([
            ("a", {"cost": 1.0, "delay": 5.0}),
            ("b", {"cost": 3.0, "delay": 2.0}),
            ("c", {"cost": 2.0, "delay": 6.0}),
        ])
        assert frontier_labels(verdicts) == ["a", "b"]
        c = verdicts[2]
        assert c.dominated and c.dominated_by == "a"

    def test_degenerate_all_dominated_by_one(self):
        # One point beats every other on both objectives: the frontier
        # collapses to a single configuration.
        verdicts = classify([
            ("worst", {"cost": 9.0, "delay": 9.0}),
            ("bad", {"cost": 5.0, "delay": 5.0}),
            ("best", {"cost": 1.0, "delay": 1.0}),
        ])
        assert frontier_labels(verdicts) == ["best"]
        assert all(v.dominated_by is not None
                   for v in verdicts if v.label != "best")

    def test_ties_stay_on_frontier(self):
        # Identical objective vectors dominate nothing; both survive.
        verdicts = classify([
            ("twin1", {"cost": 2.0, "delay": 2.0}),
            ("twin2", {"cost": 2.0, "delay": 2.0}),
        ])
        assert frontier_labels(verdicts) == ["twin1", "twin2"]

    def test_first_dominator_in_input_order_is_recorded(self):
        verdicts = classify([
            ("d1", {"cost": 1.0, "delay": 1.0}),
            ("d2", {"cost": 2.0, "delay": 2.0}),
            ("loser", {"cost": 3.0, "delay": 3.0}),
        ])
        assert verdicts[2].dominated_by == "d1"

    def test_single_objective_degenerates_to_minimum(self):
        verdicts = pareto_classify(
            [("x", {"cost": 3.0}), ("y", {"cost": 1.0}), ("z", {"cost": 2.0})],
            ["cost"],
        )
        assert frontier_labels(verdicts) == ["y"]

    def test_empty_points(self):
        assert classify([]) == []

    def test_single_point_is_frontier(self):
        verdicts = classify([("only", {"cost": 1.0, "delay": 1.0})])
        assert not verdicts[0].dominated

    def test_verdict_order_matches_input_order(self):
        points = [
            ("p3", {"cost": 3.0, "delay": 3.0}),
            ("p1", {"cost": 1.0, "delay": 1.0}),
            ("p2", {"cost": 2.0, "delay": 2.0}),
        ]
        assert [v.label for v in classify(points)] == ["p3", "p1", "p2"]


class TestErrors:
    def test_missing_metric_raises(self):
        with pytest.raises(ParetoError, match="has no metric 'delay'"):
            classify([("a", {"cost": 1.0})])

    def test_non_finite_metric_raises(self):
        with pytest.raises(ParetoError, match="not a finite number"):
            classify([("a", {"cost": float("nan"), "delay": 1.0})])

    def test_no_objectives_raises(self):
        with pytest.raises(ParetoError, match="no objectives"):
            pareto_classify([("a", {"cost": 1.0})], [])
