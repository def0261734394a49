"""Black-box facade over the retrieval engine.

This is the attacker's entire world: ``query(video) → R^m(video)``.  The
facade counts queries (query efficiency is a headline metric for
black-box attacks), optionally enforces a query budget, and can wrap the
engine with a defense that preprocesses inputs and/or flags adversarial
queries.

Construction
------------
Build a service with :meth:`RetrievalService.build`, which takes a
:class:`~repro.retrieval.config.ServiceConfig` (plus an optional
:class:`~repro.resilience.ResilienceConfig` applied to the engine's
gallery), or pass ``config=`` to ``__init__`` directly.

Batched evaluation
------------------
``query_batch`` embeds many candidates in one model forward while keeping
*sequential* accounting semantics: each video is budget-checked and
counted in order, so a mid-batch budget exhaustion raises at exactly the
query index a sequential loop would have.

``speculate``/``commit_speculated`` support attack loops that evaluate a
candidate pair but may consume only the first result (SimBA's ±flip):
speculation computes results without touching the query counter, and the
caller commits exactly the evaluations a sequential attacker would have
issued.  Speculation requires a stateless service (no preprocessor) —
a stateful defense must never observe phantom queries.

Unavailability
--------------
When the resilient gallery cannot serve a query exactly it raises
:class:`~repro.errors.RetrievalUnavailable`.  The service *refunds* that
query's accounting before propagating, so an attack that checkpoints,
waits out the outage, and resumes sees exactly the query count an
uninterrupted run would have.
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
        if self.config.query_budget is not None:
            gauge("retrieval.budget_remaining").set(
                self.config.query_budget - self.query_count)

    def _refund(self, count: int) -> None:
        """Roll back accounting for queries the engine failed to serve.

        Called when :class:`~repro.errors.RetrievalUnavailable`
        propagates: the attacker never received a list, so the query
        must not count — this is what makes checkpoint/resume
        accounting bit-identical to an uninterrupted run.
        """
        self.query_count -= int(count)
        self.queries_refunded += int(count)
        counter("retrieval.unavailable").inc(count)
        if self.config.query_budget is not None:
            gauge("retrieval.budget_remaining").set(
                self.config.query_budget - self.query_count)

    def _unissue(self, count: int) -> None:
        """Roll back queries a sequential caller would never have sent.

        ``query_batch`` pre-accounts the whole batch before dispatch; on
        a mid-batch failure the suffix behind the failing video was never
        issued in sequential semantics, so — unlike :meth:`_refund`,
        which keeps the query on the issued side of the ledger — it is
        removed from both ``query_count`` and ``queries_issued``.
        """
        self.query_count -= int(count)
        self.queries_issued -= int(count)
        if self.config.query_budget is not None:
            gauge("retrieval.budget_remaining").set(
                self.config.query_budget - self.query_count)

    def _prepare(self, video: Video, record: bool = True) -> Video:
        """Quantize + run the defense preprocessor on one query video."""
        if self.config.quantize_queries:
            from repro.video.transforms import dequantize_uint8, quantize_uint8

            video = dequantize_uint8(quantize_uint8(video), video.label,
                                     video.video_id, video.metadata)
            if record:
                counter("retrieval.quantized_queries").inc()
        if self.config.preprocessor is not None:
            with span("retrieval.defense.preprocess"):
                video = self.config.preprocessor(video)
            counter("retrieval.defense.preprocessed").inc()
        return video

    # -------------------------------------------------------------- #
    # Queries
    # -------------------------------------------------------------- #
    def query(self, video: Video, m: int | None = None) -> RetrievalList:
        """Return the retrieval list for ``video``.

        Raises :class:`QueryBudgetExceeded` once the budget is exhausted
        (this models server-side throttling of suspicious accounts), and
        :class:`~repro.errors.RetrievalUnavailable` — with the query
        refunded — when the gallery cannot answer exactly.
        """
        self._check_budget()
        self._account_one()
        with span("retrieval.query"):
            video = self._prepare(video)
            try:
                return self.engine.retrieve(
                    video, self.config.m if m is None else int(m))
            except RetrievalUnavailable:
                self._refund(1)
                raise

    def query_batch(self, videos: list[Video],
                    m: int | None = None) -> list[RetrievalList]:
        """Retrieval lists for many videos in one model forward.

        Accounting is per-video and in order: if the budget runs out at
        the ``i``-th video the counter stops exactly where a sequential
        loop would have, and the exception propagates before any result
        is returned.

        A mid-batch :class:`~repro.errors.RetrievalUnavailable` is also
        settled with sequential semantics (serve-or-refund per video):
        the served prefix stays charged, exactly the failing query is
        refunded, and the un-dispatched suffix is rolled off the ledger
        entirely — so checkpoint/resume query counts are bit-identical
        to a sequential loop hitting the same outage.  The propagated
        exception carries the prefix (``served``/``served_count``) for
        callers that deliver partial results, e.g. the serving front end.
        """
        if "query" in self.__dict__:
            # The instance's query entry point was overridden (wrapped by a
            # detector, a test spy, ...) — batching must not route around
            # the instrumentation, so fall back to per-video queries.
            return [self.query(video, m) for video in videos]
        prepared = self.begin_batch(videos)
        with span("retrieval.query_batch", batch=len(videos)):
            try:
                return self.engine.retrieve_batch(
                    prepared, self.config.m if m is None else int(m))
            except RetrievalUnavailable as exc:
                self.settle_interrupted(
                    len(prepared), int(getattr(exc, "served_count", 0)))
                raise

    # -------------------------------------------------------------- #
    # Split accounting/compute (pooled serving executor)
    # -------------------------------------------------------------- #
    def begin_batch(self, videos: list[Video]) -> list[Video]:
        """Account and prepare a batch whose compute happens elsewhere.

        The serving event loop calls this at dispatch time — budget
        checks, per-video accounting, and (possibly stateful) defense
        preprocessing all run on the loop thread in arrival order, so
        worker count never changes the ledger.  The returned prepared
        videos go to :meth:`compute_batch` on a worker.
        """
        prepared = []
        for video in videos:
            self._check_budget()
            self._account_one()
            prepared.append(self._prepare(video))
        return prepared

    def compute_batch(self, prepared: list[Video], m: int | None = None,
                      snapshots: list | None = None
                      ) -> list[RetrievalList]:
        """Pure compute for a batch accounted via :meth:`begin_batch`.

        Safe to run on a worker thread: it touches no service counters.
        A propagating :class:`~repro.errors.RetrievalUnavailable` must be
        settled by the caller with :meth:`settle_interrupted`.
        """
        with span("retrieval.query_batch", batch=len(prepared)):
            return self.engine.retrieve_batch(
                prepared, self.config.m if m is None else int(m),
                snapshots=snapshots)

    def settle_interrupted(self, total: int, served: int) -> None:
        """Sequential serve-or-refund settlement for an interrupted batch.

        Mirrors :meth:`query_batch`'s exception path: the served prefix
        stays charged, the failing query is refunded, and the suffix a
        sequential caller would never have sent is rolled off the
        ledger.
        """
        self._refund(1)
        self._unissue(int(total) - int(served) - 1)

    # -------------------------------------------------------------- #
    # Speculative evaluation
    # -------------------------------------------------------------- #
    @property
    def speculation_safe(self) -> bool:
        """Whether results may be precomputed without observable effects.

        A defense preprocessor may be stateful or randomized; evaluating
        a candidate the attacker would never have sent could perturb it.
        Quantization is pure, so it does not block speculation.  An
        instance-level override of :meth:`query` (a stateful detector or
        test spy wrapping the entry point) also disables speculation —
        phantom evaluations must never bypass instrumentation.
        """
        return self.config.preprocessor is None and \
            "query" not in self.__dict__

    def speculate(self, videos: list[Video],
                  m: int | None = None) -> list[RetrievalList]:
        """Compute retrieval lists without counting any query.

        Callers must pair this with :meth:`commit_speculated` for every
        result they actually consume, so the query counter, budget, and
        obs counters end up exactly where sequential :meth:`query` calls
        would have left them.
        """
        if not self.speculation_safe:
            raise RuntimeError(
                "speculative queries require a stateless service "
                "(preprocessor is set)")
        prepared = [self._prepare(video, record=False) for video in videos]
        with span("retrieval.speculate", batch=len(videos)):
            return self.engine.retrieve_batch(
                prepared, self.config.m if m is None else int(m))

    def commit_speculated(self, count: int = 1) -> None:
        """Account for ``count`` speculated results that were consumed.

        Replays :meth:`query`'s accounting per result: budget check (may
        raise :class:`QueryBudgetExceeded` mid-commit, leaving the counter
        exactly as the sequential attack would have), query counter, and
        obs counters.
        """
        for _ in range(int(count)):
            self._check_budget()
            self._account_one()
            if self.config.quantize_queries:
                counter("retrieval.quantized_queries").inc()
