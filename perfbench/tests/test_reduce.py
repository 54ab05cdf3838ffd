"""The trace reducer on synthetic spans with known answers.

Run from the checkout root::

    python3 -m pytest -q perfbench/tests
"""

import pytest

from perfbench import common, reduce


class TestUnionLength:
    def test_disjoint_and_overlapping(self):
        assert reduce.union_length([(0, 1), (2, 3)]) == 2
        assert reduce.union_length([(0, 2), (1, 3)]) == 3
        assert reduce.union_length([(0, 4), (1, 2), (3, 3.5)]) == 4

    def test_empty_and_degenerate(self):
        assert reduce.union_length([]) == 0
        assert reduce.union_length([(1, 1), (2, 1)]) == 0


class TestSelfTime:
    def test_children_subtracted_once(self):
        # parent 0..10; children 1..3 and 2..5 overlap: cover 1..5.
        assert reduce.self_time((0, 10), [(1, 3), (2, 5)]) == 6

    def test_children_clipped_to_parent(self):
        # a child that outlives its parent only covers the overlap.
        assert reduce.self_time((0, 10), [(8, 15)]) == 8

    def test_leaf(self):
        assert reduce.self_time((2, 7), []) == 5


class TestLaneDepths:
    def test_nesting(self):
        spans = [(0, 10), (1, 4), (2, 3), (5, 9), (11, 12)]
        assert reduce.lane_depths(spans) == [0, 1, 2, 1, 0]

    def test_order_independent(self):
        spans = [(2, 3), (0, 10), (1, 4)]
        assert reduce.lane_depths(spans) == [2, 0, 1]


class TestAttribute:
    def test_nested_spans_give_self_times(self):
        # request window 0..10: gateway 1..9 holds engine 2..6 which
        # holds slot 3..4; nothing covers 0..1 and 9..10.
        placed = [(1, 9, 1, "gateway"), (2, 6, 2, "engine"),
                  (3, 4, 3, "slot")]
        totals, uncovered = reduce.attribute((0, 10), placed)
        assert totals == {"gateway": 4, "engine": 3, "slot": 1}
        assert uncovered == 2
        assert reduce.unattributed_frac(totals, uncovered) == 0.2

    def test_parts_add_up_to_window(self):
        placed = [(0.5, 2.5, 1, "a"), (2.0, 4.0, 1, "b"),
                  (3.0, 3.5, 2, "c"), (9.0, 12.0, 1, "a")]
        totals, uncovered = reduce.attribute((0, 10), placed)
        assert sum(totals.values()) + uncovered == pytest.approx(10)
        assert totals["c"] == pytest.approx(0.5)
        assert totals["a"] == pytest.approx(2.0 + 1.0)
        assert uncovered == pytest.approx(0.5 + 5.0)

    def test_deeper_span_wins_overlap(self):
        totals, uncovered = reduce.attribute(
            (0, 4), [(0, 4, 1, "outer"), (1, 3, 5, "inner")])
        assert totals == {"outer": 2, "inner": 2}
        assert uncovered == 0

    def test_spans_outside_window_ignored(self):
        totals, uncovered = reduce.attribute(
            (10, 20), [(0, 5, 1, "early"), (18, 30, 1, "late")])
        assert totals == {"late": 2}
        assert uncovered == 8

    def test_nothing_covered(self):
        totals, uncovered = reduce.attribute((0, 3), [])
        assert totals == {}
        assert uncovered == 3
        assert reduce.unattributed_frac(totals, uncovered) == 1.0


class TestSummaries:
    def test_tail_percentile_keeps_ten_beyond(self):
        assert common.tail_percentile(5) == 50.0
        assert common.tail_percentile(100) == 90.0
        assert common.tail_percentile(999) == 90.0
        assert common.tail_percentile(1000) == 99.0
        assert common.tail_percentile(10000) == 99.9

    def test_summarize_nearest_rank(self):
        summary = common.summarize(float(v) for v in range(1, 1001))
        assert summary["p50"] == 500.0
        assert summary["tail"] == 990.0
        assert summary["tail_pct"] == 99.0
        assert summary["n"] == 1000
