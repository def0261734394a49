"""Tests for the retrieval objective T using a scripted fake service."""

import numpy as np
import pytest

from repro.attacks.objective import RetrievalObjective
from repro.retrieval.lists import RetrievalEntry, RetrievalList
from repro.video import Video


class FakeService:
    """Returns scripted lists keyed by video id prefix."""

    def __init__(self, lists: dict[str, list[str]]) -> None:
        self.lists = lists
        self.query_count = 0

    def query(self, video, m=None):
        self.query_count += 1
        key = video.video_id.split("+")[0].split("#")[0]
        ids = self.lists[key]
        return RetrievalList(
            [RetrievalEntry(i, 0, -r) for r, i in enumerate(ids)]
        )

    def query_batch(self, videos, m=None):
        return [self.query(video, m) for video in videos]


def make_video(video_id):
    return Video(np.zeros((2, 2, 2, 3)), video_id=video_id)


@pytest.fixture
def setup():
    service = FakeService({
        "orig": ["a", "b", "c"],
        "targ": ["x", "y", "z"],
        "adv-like-orig": ["a", "b", "c"],
        "adv-like-targ": ["x", "y", "z"],
        "adv-mixed": ["a", "x", "q"],
    })
    objective = RetrievalObjective(service, make_video("orig"),
                                   make_video("targ"), eta=1.0)
    return service, objective


class TestRetrievalObjective:
    def test_reference_queries_counted(self, setup):
        service, objective = setup
        assert objective.queries == 2
        assert service.query_count == 2

    def test_value_at_original_is_max(self, setup):
        _, objective = setup
        value = objective.value(make_video("adv-like-orig"))
        assert value == pytest.approx(2.0)  # H=1 minus H=0 plus eta=1

    def test_value_at_target_is_min(self, setup):
        _, objective = setup
        value = objective.value(make_video("adv-like-targ"))
        assert value == pytest.approx(0.0)

    def test_mixed_value_between(self, setup):
        _, objective = setup
        value = objective.value(make_video("adv-mixed"))
        assert 0.0 < value < 2.0

    def test_each_value_costs_one_query(self, setup):
        service, objective = setup
        objective.value(make_video("adv-mixed"))
        objective.value(make_video("adv-mixed"))
        assert objective.queries == 4
        assert service.query_count == 4

    def test_trace_records_values(self, setup):
        _, objective = setup
        objective.value(make_video("adv-like-orig"))
        objective.value(make_video("adv-like-targ"))
        assert objective.trace == [pytest.approx(2.0), pytest.approx(0.0)]

    def test_success_ap(self, setup):
        _, objective = setup
        assert objective.success_ap(make_video("adv-like-targ")) == \
            pytest.approx(1.0)
        assert objective.success_ap(make_video("adv-like-orig")) == 0.0
