"""Ranking metrics: mAP for retrieval quality, AP@m for list agreement."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def average_precision(relevance: Sequence[bool]) -> float:
    """Paper's per-query AP: ``(1/N) Σ_i ctop(i)/i`` over the result list.

    ``relevance[i]`` says whether the ``i``-th returned video (0-indexed)
    is correct; ``N`` is the list length.
    """
    relevance = np.asarray(relevance, dtype=bool)
    if relevance.size == 0:
        return 0.0
    correct_cumulative = np.cumsum(relevance)
    ranks = np.arange(1, relevance.size + 1)
    return float((correct_cumulative / ranks).mean())


def mean_average_precision(relevances: Sequence[Sequence[bool]]) -> float:
    """Mean of :func:`average_precision` over queries."""
    if not relevances:
        return 0.0
    return float(np.mean([average_precision(r) for r in relevances]))


def evaluate_map(engine, queries, m: int = 10) -> float:
    """mAP of a retrieval engine over query videos (label = correctness).

    A returned gallery video counts as correct when it shares the query's
    label — the standard protocol for category-level video retrieval.
    Each query's position is its logical query id, so an installed
    :class:`~repro.resilience.FaultPlan` draws per query.
    """
    relevances = []
    for position, video in enumerate(queries):
        result = engine.retrieve_batch([video], m, query_ids=[position])[0]
        relevances.append([entry.label == video.label for entry in result])
    return mean_average_precision(relevances)


def ap_at_m(list_a: Sequence[str], list_b: Sequence[str]) -> float:
    """Paper's AP@m between two retrieval lists (by video id).

    ``prec_i = |top-i(a) ∩ top-i(b)| / i`` and ``AP@m = Σ_i prec_i / m``.
    Lists are truncated to the shorter length.
    """
    ids_a = list(list_a)
    ids_b = list(list_b)
    m = min(len(ids_a), len(ids_b))
    if m == 0:
        return 0.0
    precisions = []
    seen_a: set[str] = set()
    seen_b: set[str] = set()
    for i in range(1, m + 1):
        seen_a.add(ids_a[i - 1])
        seen_b.add(ids_b[i - 1])
        precisions.append(len(seen_a & seen_b) / i)
    return float(np.mean(precisions))
