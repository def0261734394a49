"""Service-facing configuration for the black-box retrieval facade.

:class:`ServiceConfig` holds every facade knob (``m``,
``query_budget``, ``preprocessor``, ``quantize_queries``, ...); the
retry/replication knobs live in
:class:`~repro.resilience.ResilienceConfig`.  Build a service with
:meth:`RetrievalService.build` (or ``RetrievalService(engine,
config=...)``).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from repro.video.types import Video

#: A defense preprocessor maps a query video to the video actually embedded.
Preprocessor = Callable[[Video], Video]


@dataclass(frozen=True)
class ServiceConfig:
    """Knobs of the attacker-facing service surface.

    Parameters
    ----------
    m:
        Length of the returned retrieval list ``R^m(v)``.
    query_budget:
        Hard cap on counted queries (``None`` = unlimited); exceeding it
        raises :class:`~repro.errors.QueryBudgetExceeded`.
    preprocessor:
        Optional defense transform applied to every query video.
    quantize_queries:
        Round query pixels to 8-bit before embedding, modelling a real
        upload API (the paper's τ is specified in 8-bit units).
    index_tier:
        Gallery index implementation (``"exact"`` | ``"hamming"`` |
        ``"ivfpq"``, see :mod:`repro.hashindex.tiers`).
        ``None`` keeps the engine's current tier.
    """

    m: int = 10
    query_budget: int | None = None
    preprocessor: Preprocessor | None = None
    quantize_queries: bool = False
    index_tier: str | None = None

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError("m (returned list length) must be positive")
        if self.query_budget is not None and self.query_budget < 0:
            raise ValueError("query_budget must be non-negative")
        if self.index_tier is not None:
            # Lazy import: repro.hashindex depends on retrieval
            # submodules, so a top-level import would cycle.
            from repro.hashindex.tiers import resolve_index_tier

            resolve_index_tier(self.index_tier)  # raises on unknown tier

    def with_(self, **changes) -> "ServiceConfig":
        """A copy with ``changes`` applied (dataclasses.replace sugar)."""
        return replace(self, **changes)


__all__ = ["ServiceConfig", "Preprocessor"]
