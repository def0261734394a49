"""Query-budget accounting with a defense preprocessor installed.

Satellite of the obs PR: the budget must fire *exactly* at the
configured limit — defense preprocessing must not consume extra budget —
and the ``repro.obs`` counters must agree with the service's own
``query_count``.
"""

import pytest

from repro.obs import counter, gauge
from repro.retrieval import QueryBudgetExceeded, RetrievalService


def _blur_like(video):
    """A cheap stand-in defense preprocessor (identity-shaped transform)."""
    pixels = video.pixels * 0.5 + 0.25
    return video.perturbed(pixels - video.pixels)


class TestBudgetWithDefense:
    def test_budget_fires_exactly_at_limit(self, tiny_victim, tiny_dataset):
        budget = 3
        service = RetrievalService.build(tiny_victim.engine, m=4,
                                         query_budget=budget,
                                         preprocessor=_blur_like)
        for _ in range(budget):
            service.query(tiny_dataset.test[0])
        assert service.query_count == budget
        with pytest.raises(QueryBudgetExceeded):
            service.query(tiny_dataset.test[0])
        # The rejected query must not advance the counter.
        assert service.query_count == budget

    def test_counters_match_service_accounting(self, tiny_victim,
                                               tiny_dataset):
        queries_before = counter("retrieval.queries").value
        preprocessed_before = counter("retrieval.defense.preprocessed").value
        exceeded_before = counter("retrieval.budget_exceeded").value

        service = RetrievalService.build(
            tiny_victim.engine, m=4, query_budget=2, preprocessor=_blur_like)
        service.query(tiny_dataset.test[0])
        service.query(tiny_dataset.test[1])
        with pytest.raises(QueryBudgetExceeded):
            service.query(tiny_dataset.test[0])

        assert counter("retrieval.queries").value - queries_before == 2
        assert counter("retrieval.defense.preprocessed").value \
            - preprocessed_before == 2
        assert counter("retrieval.budget_exceeded").value \
            - exceeded_before == 1

    def test_budget_remaining_gauge_tracks(self, tiny_victim, tiny_dataset):
        service = RetrievalService.build(
            tiny_victim.engine, m=4, query_budget=5)
        service.query(tiny_dataset.test[0])
        assert gauge("retrieval.budget_remaining").value == 4
        service.query(tiny_dataset.test[0])
        assert gauge("retrieval.budget_remaining").value == 3

    def test_preprocessor_runs_inside_budgeted_query(self, tiny_victim,
                                                     tiny_dataset):
        calls = []

        def preprocessor(video):
            calls.append(video.video_id)
            return video

        service = RetrievalService.build(
            tiny_victim.engine, m=4, query_budget=1, preprocessor=preprocessor)
        service.query(tiny_dataset.test[0])
        with pytest.raises(QueryBudgetExceeded):
            service.query(tiny_dataset.test[1])
        # The defense never saw the over-budget query.
        assert calls == [tiny_dataset.test[0].video_id]

    def test_defense_changes_results_not_accounting(self, tiny_victim,
                                                    tiny_dataset):
        plain = RetrievalService.build(tiny_victim.engine, m=4)
        defended = RetrievalService.build(tiny_victim.engine, m=4,
                                          preprocessor=_blur_like)
        video = tiny_dataset.test[0]
        plain.query(video)
        defended.query(video)
        assert plain.query_count == defended.query_count == 1
