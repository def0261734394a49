"""Black-box facade over the retrieval engine.

This is the attacker's entire world: ``query(video) → R^m(video)``.  The
facade counts queries (query efficiency is a headline metric for
black-box attacks), optionally enforces a query budget, and can wrap the
engine with a defense preprocessor.  Build one with
:meth:`RetrievalService.build` from a
:class:`~repro.retrieval.config.ServiceConfig`.

One query path: ``query`` is ``query_batch`` of one, and ``query_batch``
embeds many videos in one forward with *sequential* accounting — each
video is budget-checked and counted in order, and an outage
(:class:`~repro.errors.RetrievalUnavailable`) charges the served
prefix, refunds the failing query and never issues the suffix, so
checkpoint/resume counts match an uninterrupted run.
``speculate``/``commit_speculated`` let a loop evaluate a ±ε pair in one
forward and commit only the results it consumes.

A defense preprocessor is a pure transform, applied on every path
(speculation included).  A stateful defense adds an optional
``commit(videos)``; the service calls it in issue order with exactly the
issued queries — an interrupted batch's served prefix and refunded
failing query, never its unissued suffix, and only the speculated
candidates the caller consumed — so a detector observes
``queries_issued`` queries.
"""

from __future__ import annotations

from dataclasses import fields

from repro.errors import QueryBudgetExceeded, RetrievalUnavailable
from repro.obs import counter, gauge, span
from repro.resilience.config import ResilienceConfig
from repro.retrieval.config import Preprocessor, ServiceConfig
from repro.retrieval.engine import RetrievalEngine
from repro.retrieval.lists import RetrievalList
from repro.video.types import Video

__all__ = [
    "RetrievalService",
    "ServiceConfig",
    "QueryBudgetExceeded",
    "Preprocessor",
]

class RetrievalService:
    """``R^m(·)`` as seen by an end user / attacker.

    ``quantize_queries`` models a real upload API: query pixels are
    rounded to 8-bit before embedding, so adversarial perturbations must
    survive quantization (the paper's τ is specified in 8-bit units for
    exactly this reason).
    """

    def __init__(self, engine: RetrievalEngine, *,
                 config: ServiceConfig | None = None) -> None:
        self.config = config if config is not None else ServiceConfig()
        self.engine = engine
        self.query_count = 0
        # Conservation ledger (see repro.qa.invariants): every accounted
        # query is *issued*; refunds move it from charged to refunded, so
        # queries_issued == query_count + queries_refunded at all times.
        self.queries_issued = 0
        self.queries_refunded = 0
        # The last speculation: its first issue ordinal, prepared videos,
        # and fault events held per log until their row is committed.
        self._speculated: tuple[int, list[Video], list] = (0, [], [])

    @classmethod
    def build(cls, engine: RetrievalEngine,
              config: ServiceConfig | None = None, *,
              resilience: ResilienceConfig | None = None,
              **overrides) -> "RetrievalService":
        """The redesigned constructor path.

        ``overrides`` are :class:`ServiceConfig` field names applied on
        top of ``config`` (``build(engine, m=8)`` is the idiomatic short
        form).  A ``resilience`` config is installed on the engine's
        gallery — replication must be set before indexing.  An
        ``index_tier`` switches the gallery to a compressed index
        (rows already stored are re-ingested, so the knob works before
        or after indexing).
        """
        config = config if config is not None else ServiceConfig()
        if overrides:
            valid = {field.name for field in fields(ServiceConfig)}
            unknown = set(overrides) - valid
            if unknown:
                raise TypeError(
                    f"unknown ServiceConfig field(s): {sorted(unknown)}")
            config = config.with_(**overrides)
        if resilience is not None:
            engine.configure_resilience(resilience)
        if config.index_tier is not None:
            engine.configure_index_tier(config.index_tier)
        return cls(engine, config=config)

    # Read-only views of the config fields callers inspect most.
    @property
    def m(self) -> int:
        return self.config.m

    @property
    def query_budget(self) -> int | None:
        return self.config.query_budget

    @property
    def preprocessor(self) -> Preprocessor | None:
        return self.config.preprocessor

    @property
    def quantize_queries(self) -> bool:
        return self.config.quantize_queries

    def reset_query_count(self) -> None:
        """Zero the query counters (e.g. between attack runs)."""
        self.query_count = 0
        self.queries_issued = 0
        self.queries_refunded = 0

    # -------------------------------------------------------------- #
    # Accounting (shared by sequential, batched, and committed paths)
    # -------------------------------------------------------------- #
    def _check_budget(self) -> None:
        budget = self.config.query_budget
        if budget is not None and self.query_count >= budget:
            counter("retrieval.budget_exceeded").inc()
            raise QueryBudgetExceeded(
                f"query budget of {budget} exhausted"
            )

    def _account_one(self) -> None:
        self.query_count += 1
        self.queries_issued += 1
        counter("retrieval.queries").inc()
        self._gauge_budget()

    def _gauge_budget(self) -> None:
        if self.config.query_budget is not None:
            gauge("retrieval.budget_remaining").set(
                self.config.query_budget - self.query_count)

    def _prepare(self, video: Video, record: bool = True) -> Video:
        """Quantize + run the defense transform on one query video."""
        if self.config.quantize_queries:
            from repro.video.transforms import dequantize_uint8, quantize_uint8

            video = dequantize_uint8(quantize_uint8(video), video.label,
                                     video.video_id, video.metadata)
            if record:
                counter("retrieval.quantized_queries").inc()
        if self.config.preprocessor is not None:
            with span("retrieval.defense.preprocess"):
                video = self.config.preprocessor(video)
            if record:
                counter("retrieval.defense.preprocessed").inc()
        return video

    def _commit(self, prepared: list[Video]) -> None:
        """Hand issued queries' videos to the preprocessor's ``commit``."""
        commit = getattr(self.config.preprocessor, "commit", None)
        if commit is not None and prepared:
            commit(prepared)

    # -------------------------------------------------------------- #
    # Queries
    # -------------------------------------------------------------- #
    def query(self, video: Video, m: int | None = None) -> RetrievalList:
        """Return the retrieval list for ``video``: a batch of one.

        Raises :class:`QueryBudgetExceeded` once the budget is exhausted
        (this models server-side throttling of suspicious accounts), and
        :class:`~repro.errors.RetrievalUnavailable` — with the query
        refunded — when the gallery cannot answer exactly.
        """
        return self.query_batch([video], m)[0]

    def query_batch(self, videos: list[Video],
                    m: int | None = None) -> list[RetrievalList]:
        """Retrieval lists for many videos in one model forward.

        Accounting is per-video and in order: if the budget runs out at
        the ``i``-th video the counter stops exactly where a sequential
        loop would have, and the exception propagates before any result
        is returned.

        A mid-batch :class:`~repro.errors.RetrievalUnavailable` is
        settled like a sequential loop (:meth:`settle_interrupted`); the
        propagated exception carries the served prefix
        (``served``/``served_count``).
        """
        first = self.queries_issued
        prepared = self.begin_batch(videos)
        try:
            results = self.compute_batch(
                prepared, m, query_ids=range(first, first + len(prepared)))
        except RetrievalUnavailable as exc:
            served = int(getattr(exc, "served_count", 0))
            self.settle_interrupted(len(prepared), served)
            self._commit(prepared[:served + 1])
            raise
        commit = getattr(self.config.preprocessor, "commit", None)
        if commit is not None:
            commit(prepared)
        return results

    # -------------------------------------------------------------- #
    # Split accounting/compute (pooled serving executor)
    # -------------------------------------------------------------- #
    def begin_batch(self, videos: list[Video]) -> list[Video]:
        """Account and transform a batch whose compute happens elsewhere.

        :meth:`query_batch` and the serving event loop (at dispatch) run
        budget checks, accounting and the transform here, in issue
        order; the caller commits the issued videos once the batch
        settles.  A budget exhausted mid-batch commits the charged prefix.
        """
        prepared = []
        try:
            for video in videos:
                self._check_budget()
                self._account_one()
                prepared.append(self._prepare(video))
        except QueryBudgetExceeded:
            self._commit(prepared)
            raise
        return prepared

    def compute_batch(self, prepared: list[Video], m: int | None = None,
                      snapshots: list | None = None, query_ids=None
                      ) -> list[RetrievalList]:
        """Pure compute for a batch accounted via :meth:`begin_batch`.

        Safe to run on a worker thread: it touches no service counters.
        ``query_ids`` key fault draws: issue ordinals from
        :meth:`query_batch`, timeline indexes from the serving front end.
        A propagating :class:`~repro.errors.RetrievalUnavailable` must be
        settled by the caller with :meth:`settle_interrupted`.
        """
        with span("retrieval.query_batch", batch=len(prepared)):
            return self.engine.retrieve_batch(
                prepared, self.config.m if m is None else int(m),
                snapshots=snapshots, query_ids=query_ids)

    def settle_interrupted(self, total: int, served: int) -> None:
        """Sequential serve-or-refund settlement for an interrupted batch:
        the served prefix stays charged, the failing query is refunded
        (issued, but no list came back), and the suffix leaves the
        ledger.  The caller commits the first ``served + 1`` videos."""
        unissued = int(total) - int(served) - 1
        self.query_count -= 1 + unissued
        self.queries_refunded += 1
        self.queries_issued -= unissued
        counter("retrieval.unavailable").inc()
        counter("retrieval.unissued").inc(unissued)
        self._gauge_budget()

    # -------------------------------------------------------------- #
    # Speculative evaluation
    # -------------------------------------------------------------- #
    def speculate(self, videos: list[Video],
                  m: int | None = None) -> list[RetrievalList]:
        """Compute retrieval lists without counting any query.

        Callers pair this with :meth:`commit_speculated` for every result
        they consume, so the ledger, obs counters and the preprocessor's
        ``commit`` end up where sequential :meth:`query` calls would
        have left them.  Each candidate takes the issue ordinal it would
        get if committed in order as its logical query id.
        """
        prepared = [self._prepare(video, record=False) for video in videos]
        first = self.queries_issued
        logs = [member.gallery.fault_plan.events for member
                in getattr(self.engine, "engines", (self.engine,))
                if member.gallery.fault_plan is not None]
        marks = [len(log) for log in logs]
        try:
            with span("retrieval.speculate", batch=len(videos)):
                return self.engine.retrieve_batch(
                    prepared, self.config.m if m is None else int(m),
                    query_ids=range(first, first + len(prepared)))
        finally:  # a row's fault events are recorded when it is committed
            self._speculated = (first, prepared, [
                (log, log[mark:]) for log, mark in zip(logs, marks)])
            for log, mark in zip(logs, marks):
                del log[mark:]

    def commit_speculated(self, count: int = 1) -> None:
        """Account for ``count`` speculated results that were consumed.

        Replays :meth:`query`'s accounting per result: budget check (may
        raise :class:`QueryBudgetExceeded` mid-commit, leaving the counter
        exactly as the sequential attack would have), the preprocessor's
        ``commit``, query counter, and obs counters.
        """
        first, prepared, withheld = self._speculated
        for _ in range(int(count)):
            self._check_budget()
            for log, held in withheld:
                log.extend(event for event in held
                           if event.query == self.queries_issued)
            if self.config.preprocessor is not None:
                self._commit([prepared[self.queries_issued - first]])
                counter("retrieval.defense.preprocessed").inc()
            self._account_one()
            if self.config.quantize_queries:
                counter("retrieval.quantized_queries").inc()
