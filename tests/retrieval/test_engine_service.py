"""Tests for the retrieval engine and black-box service facade."""

import pytest

from repro.retrieval import (
    QueryBudgetExceeded,
    RetrievalEngine,
    RetrievalList,
    RetrievalService,
)
from repro.retrieval.lists import RetrievalEntry


class TestRetrievalEngine:
    def test_index_and_retrieve(self, tiny_victim, tiny_dataset):
        result = tiny_victim.engine.retrieve(tiny_dataset.test[0], m=5)
        assert isinstance(result, RetrievalList)
        assert len(result) == 5

    def test_gallery_size(self, tiny_victim, tiny_dataset):
        assert tiny_victim.engine.gallery_size == len(tiny_dataset.train)

    def test_query_video_retrieves_itself_first(self, tiny_victim,
                                                tiny_dataset):
        gallery_video = tiny_dataset.train[0]
        result = tiny_victim.engine.retrieve(gallery_video, m=3)
        assert result.ids[0] == gallery_video.video_id

    def test_string_similarity_accepted(self, tiny_victim):
        engine = RetrievalEngine(tiny_victim.engine.extractor,
                                 similarity="cosine", num_nodes=2)
        assert engine.gallery.num_nodes == 2


class TestRetrievalService:
    def test_query_counting(self, tiny_victim, tiny_dataset):
        service = RetrievalService.build(tiny_victim.engine, m=4)
        service.query(tiny_dataset.test[0])
        service.query(tiny_dataset.test[1])
        assert service.query_count == 2
        service.reset_query_count()
        assert service.query_count == 0

    def test_m_override(self, tiny_victim, tiny_dataset):
        service = RetrievalService.build(tiny_victim.engine, m=4)
        assert len(service.query(tiny_dataset.test[0], m=2)) == 2

    def test_invalid_m(self, tiny_victim):
        with pytest.raises(ValueError):
            RetrievalService.build(tiny_victim.engine, m=0)

    def test_query_budget(self, tiny_victim, tiny_dataset):
        service = RetrievalService.build(
            tiny_victim.engine, m=4, query_budget=2)
        service.query(tiny_dataset.test[0])
        service.query(tiny_dataset.test[0])
        with pytest.raises(QueryBudgetExceeded):
            service.query(tiny_dataset.test[0])

    def test_preprocessor_applied(self, tiny_victim, tiny_dataset):
        calls = []

        def preprocessor(video):
            calls.append(video.video_id)
            return video

        service = RetrievalService.build(tiny_victim.engine, m=4,
                                         preprocessor=preprocessor)
        service.query(tiny_dataset.test[0])
        assert calls == [tiny_dataset.test[0].video_id]


class TestRetrievalList:
    def test_accessors(self):
        entries = [RetrievalEntry(f"v{i}", i, -float(i)) for i in range(4)]
        result = RetrievalList(entries)
        assert result.ids == ["v0", "v1", "v2", "v3"]
        assert result.labels == [0, 1, 2, 3]
        assert len(result.top(2)) == 2
        assert result[0].video_id == "v0"
        assert "v0" in repr(result)
