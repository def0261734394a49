"""The black-box attack objective ``T`` (paper Eq. 2).

.. math::
   T(v_{adv}, v, v_t) = H(R^m(v_{adv}), R^m(v))
                      - H(R^m(v_{adv}), R^m(v_t)) + \\eta

``H`` is the NDCG-style co-occurrence similarity; lowering ``T`` moves
``R^m(v_adv)`` away from the original's list and toward the target's.
Every evaluation costs one service query, which the objective counts and
traces.

:meth:`RetrievalObjective.values` scores many candidates in one service
``query_batch`` (every candidate is counted and traced, in order).
:meth:`speculate`/:meth:`commit` support loops that may consume only a
prefix of a candidate pair — only committed values touch the query
counter, the trace and a stateful defense, so the attack state matches
sequential :meth:`value` calls against any service
(:class:`repro.qa.reference.SequentialObjective` is that reference).
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import RetrievalUnavailable
from repro.metrics.similarity import ndcg_similarity_many
from repro.retrieval.service import RetrievalService
from repro.video.types import Video

#: ``similarity(lists, reference)`` → one score per list.
ListSimilarity = Callable[[Sequence[Sequence[str]], Sequence[str]],
                          list[float]]


class RetrievalObjective:
    """Stateful evaluator of ``T`` against a black-box service.

    Without a ``target`` the target term is 0 — the untargeted variant
    of Eq. 2 (paper §I: "can be easily extended"),
    ``T_unt = H(R^m(v_adv), R^m(v)) + η``, which pushes the adversarial
    list away from the original's.  ``similarity`` swaps ``H`` for
    another list score (QAIR's rank-weighted overlap); it must return
    0 against an empty reference list.
    """

    def __init__(self, service: RetrievalService, original: Video,
                 target: Video | None = None, eta: float = 1.0,
                 similarity: ListSimilarity = ndcg_similarity_many) -> None:
        self.service = service
        self.eta = float(eta)
        self.similarity = similarity
        # Reference lists cost one query each, paid once up front.
        self.original_ids = service.query(original).ids
        self.target_ids = [] if target is None else service.query(target).ids
        self.queries = 1 if target is None else 2
        self.trace: list[float] = []

    def _values_of(self, id_lists: list[list[str]]) -> list[float]:
        h_orig = self.similarity(id_lists, self.original_ids)
        h_target = self.similarity(id_lists, self.target_ids)
        return [ho - ht + self.eta for ho, ht in zip(h_orig, h_target)]

    def value(self, candidate: Video) -> float:
        """Evaluate ``T(candidate, v, v_t)``; costs one query."""
        return self.values([candidate])[0]

    def values(self, candidates: list[Video]) -> list[float]:
        """Evaluate ``T`` for many candidates in one forward batch.

        Costs (and traces) one query per candidate, in order — the
        returned floats and all attack-visible state are identical to a
        sequential loop of :meth:`value` calls.
        """
        results = self.service.query_batch(candidates)
        self.queries += len(candidates)
        values = self._values_of([result.ids for result in results])
        self.trace.extend(values)
        return values

    def speculate(self, candidates: list[Video]) -> list[float]:
        """Compute ``T`` for candidates without counting or tracing.

        Pair with :meth:`commit` for every value actually consumed by the
        attack loop.  An unavailable service yields the served prefix;
        the loop sends the next candidate as a real query.
        """
        try:
            results = self.service.speculate(candidates)
        except RetrievalUnavailable as exc:
            results = getattr(exc, "served", [])
        return self._values_of([result.ids for result in results])

    def commit(self, value: float) -> float:
        """Consume one speculated value: count the query and trace it."""
        self.service.commit_speculated(1)
        self.queries += 1
        self.trace.append(value)
        return value

    def escape_rate(self, candidate: Video) -> float:
        """Fraction of the original list no longer returned (evaluation)."""
        result_ids = set(self.service.query(candidate).ids)
        if not self.original_ids:
            return 0.0
        escaped = sum(1 for vid in self.original_ids if vid not in result_ids)
        return escaped / len(self.original_ids)

    def success_ap(self, candidate: Video) -> float:
        """AP@m of the candidate's list against the target's (evaluation only).

        Not part of the attack loop; used by the harness after an attack
        finishes, so it does not count toward attack queries.
        """
        from repro.metrics.ranking import ap_at_m

        result_ids = self.service.query(candidate).ids
        return ap_at_m(result_ids, self.target_ids)
