"""Tests for mAP and AP@m."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    ap_at_m,
    average_precision,
    evaluate_map,
    mean_average_precision,
)
from repro.qa.world import build_world
from repro.resilience import FaultPlan


class TestAveragePrecision:
    def test_all_relevant(self):
        assert average_precision([True] * 5) == pytest.approx(1.0)

    def test_none_relevant(self):
        assert average_precision([False] * 5) == 0.0

    def test_paper_formula_by_hand(self):
        # relevance [1, 0, 1]: (1/1 + 1/2 + 2/3) / 3
        expected = (1.0 + 0.5 + 2.0 / 3.0) / 3.0
        assert average_precision([True, False, True]) == pytest.approx(expected)

    def test_empty_list(self):
        assert average_precision([]) == 0.0

    def test_front_loading_scores_higher(self):
        assert average_precision([True, False]) > average_precision([False, True])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.booleans(), min_size=1, max_size=20))
    def test_bounds(self, relevance):
        value = average_precision(relevance)
        assert 0.0 <= value <= 1.0


class TestMeanAveragePrecision:
    def test_average_of_queries(self):
        value = mean_average_precision([[True], [False]])
        assert value == pytest.approx(0.5)

    def test_empty(self):
        assert mean_average_precision([]) == 0.0


class TestApAtM:
    def test_identical_lists(self):
        ids = [f"v{i}" for i in range(6)]
        assert ap_at_m(ids, ids) == pytest.approx(1.0)

    def test_disjoint_lists(self):
        assert ap_at_m(["a", "b"], ["c", "d"]) == 0.0

    def test_permuted_lists_below_one(self):
        ids = [f"v{i}" for i in range(6)]
        permuted = ids[::-1]
        value = ap_at_m(ids, permuted)
        assert 0.0 < value < 1.0

    def test_paper_example_by_hand(self):
        # lists: a=[x,y], b=[x,z]; prec_1=1, prec_2=1/2 → AP = 0.75
        assert ap_at_m(["x", "y"], ["x", "z"]) == pytest.approx(0.75)

    def test_truncates_to_shorter(self):
        assert ap_at_m(["a"], ["a", "b", "c"]) == pytest.approx(1.0)

    def test_empty(self):
        assert ap_at_m([], ["a"]) == 0.0

    def test_symmetry(self):
        a = ["a", "b", "c", "d"]
        b = ["b", "a", "e", "c"]
        assert ap_at_m(a, b) == pytest.approx(ap_at_m(b, a))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8,
                    unique=True),
           st.lists(st.sampled_from("abcdefgh"), min_size=1, max_size=8,
                    unique=True))
    def test_bounds_property(self, list_a, list_b):
        value = ap_at_m(list_a, list_b)
        assert 0.0 <= value <= 1.0


def test_evaluate_map_keys_fault_draws_by_query_position():
    # Each query's position is its logical id, so a flaky node fails on
    # the same queries as when they are sent one by one with those ids.
    world = build_world(9)
    queries = world.gallery_videos
    expected = FaultPlan(seed=5).flaky("node-1", 0.3)
    with expected.install(world.engine.gallery):
        for position, video in enumerate(queries):
            world.engine.retrieve_batch([video], 4, query_ids=[position])
    assert {event.query for event in expected.events} - {0}
    plan = FaultPlan(seed=5).flaky("node-1", 0.3)
    with plan.install(world.engine.gallery):
        evaluate_map(world.engine, queries, m=4)
    assert plan.timeline() == expected.timeline()
