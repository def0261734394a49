"""Deterministic, scriptable fault injection for the retrieval plane.

A :class:`FaultPlan` describes *when and how* data nodes misbehave:

* **flaky** — each attempt against the node fails with probability ``p``
  (:class:`~repro.errors.NodeDownError`), so retries can succeed;
* **slow** — attempts carry injected latency, which the coordinator
  checks against its per-query deadline / hedge threshold;
* **corrupt** — the node's similarity scores are perturbed with seeded
  Gaussian noise (what quorum merging is for);
* **outage** — the node hard-fails for a window of logical query ids
  ``[start, end)``, then recovers.

Every decision is a pure function of ``(seed, node, logical query id,
attempt)`` (:func:`~repro.utils.seeding.keyed_rng`); there is no query
clock.  Callers supply the ids — the service its issue ordinals, the
serving front end each request's timeline index — so a batch draws
exactly what the same queries sent one at a time would, and a replay
produces the *same outage timeline*.

Installation is a context manager; the plan lives on the gallery::

    plan = FaultPlan(seed=7).flaky("node-1", 0.3).outage("node-0", 50, 80)
    with plan.install(engine.gallery):
        run_attack(...)          # faults active
    # gallery back to healthy

Injected latency is *virtual*: it is accounted against deadlines and
hedge thresholds without sleeping, keeping fault-injected test suites
fast and bit-deterministic.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.errors import NodeDownError
from repro.obs import counter
from repro.utils.seeding import keyed_rng

#: Wildcard node id applying a fault spec to every node.
ANY_NODE = "*"

#: Draw-site offsets: each spec slot owns one stream per kind.
_FLAKY, _LATENCY, _CORRUPT = range(3)


@dataclass
class NodeFaultSpec:
    """Fault parameters for one node (or the ``"*"`` wildcard)."""

    flaky_p: float = 0.0
    latency_s: float = 0.0
    latency_jitter_s: float = 0.0
    corrupt_sigma: float = 0.0
    outages: list[tuple[int, int]] = field(default_factory=list)


@dataclass(frozen=True)
class FaultEvent:
    """One recorded injection decision (the determinism tests diff these)."""

    query: int
    node_id: str
    kind: str  # "outage" | "flaky" | "latency" | "corrupt"
    value: float = 0.0


class FaultPlan:
    """A seeded, replayable schedule of node faults."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = int(seed)
        self.specs: dict[str, NodeFaultSpec] = {}
        self.reset()

    # -------------------------------------------------------------- #
    # Builders (chainable)
    # -------------------------------------------------------------- #
    def _spec(self, node_id: str) -> NodeFaultSpec:
        return self.specs.setdefault(str(node_id), NodeFaultSpec())

    def flaky(self, node_id: str, probability: float) -> "FaultPlan":
        """Each attempt against ``node_id`` fails with ``probability``."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        self._spec(node_id).flaky_p = float(probability)
        return self

    def slow(self, node_id: str, latency_s: float,
             jitter_s: float = 0.0) -> "FaultPlan":
        """Attempts against ``node_id`` carry injected (virtual) latency."""
        if latency_s < 0 or jitter_s < 0:
            raise ValueError("latency must be non-negative")
        spec = self._spec(node_id)
        spec.latency_s = float(latency_s)
        spec.latency_jitter_s = float(jitter_s)
        return self

    def corrupt(self, node_id: str, sigma: float) -> "FaultPlan":
        """Perturb ``node_id``'s similarity scores with N(0, sigma)."""
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self._spec(node_id).corrupt_sigma = float(sigma)
        return self

    def outage(self, node_id: str, start: int, end: int) -> "FaultPlan":
        """Hard-fail ``node_id`` for logical query ids ``[start, end)``."""
        if end <= start:
            raise ValueError("outage window must be non-empty")
        self._spec(node_id).outages.append((int(start), int(end)))
        return self

    # -------------------------------------------------------------- #
    # Draws and the event log
    # -------------------------------------------------------------- #
    def reset(self) -> None:
        """Forget the recorded events (draws are pure: nothing to rewind)."""
        self.events: list[FaultEvent] = []

    def _specs_for(self, node_id: str):
        """``(slot, spec)`` for the node's own spec, then the wildcard's."""
        for slot, key in enumerate((node_id, ANY_NODE)):
            spec = self.specs.get(key)
            if spec is not None:
                yield slot, spec

    def _draw(self, node_id: str, query: int, attempt: int, slot: int,
              kind: int) -> np.random.Generator:
        return keyed_rng(self.seed, node_id, query, attempt, 3 * slot + kind)

    def on_attempt(self, node_id: str, query: int, attempt: int = 1) -> float:
        """Attempt ``attempt`` (1-based) against ``node_id`` for query
        ``query``; may raise, returns latency.

        Raises :class:`~repro.errors.NodeDownError` when the query id is
        in an outage window or the attempt's flaky draw fails; otherwise
        returns the attempt's injected (virtual) latency in seconds.
        """
        latency = 0.0
        for slot, spec in self._specs_for(node_id):
            for lo, hi in spec.outages:
                if lo <= query < hi:
                    self.events.append(FaultEvent(query, node_id, "outage"))
                    counter("faults.outage_hits", node=node_id).inc()
                    raise NodeDownError(
                        f"node {node_id} in scheduled outage "
                        f"[{lo}, {hi}) at query {query}")
            if spec.flaky_p > 0.0:
                draw = float(self._draw(node_id, query, attempt, slot,
                                        _FLAKY).random())
                if draw < spec.flaky_p:
                    self.events.append(
                        FaultEvent(query, node_id, "flaky", draw))
                    counter("faults.flaky_failures", node=node_id).inc()
                    raise NodeDownError(
                        f"node {node_id} flaked at query {query}")
            if spec.latency_s > 0.0 or spec.latency_jitter_s > 0.0:
                jitter = spec.latency_jitter_s * float(self._draw(
                    node_id, query, attempt, slot, _LATENCY).random())
                latency += spec.latency_s + jitter
        if latency > 0.0:
            self.events.append(FaultEvent(query, node_id, "latency", latency))
            counter("faults.injected_latency", node=node_id).inc()
        return latency

    def transform(self, node_id: str, scores: np.ndarray, query: int,
                  attempt: int = 1) -> np.ndarray:
        """Corrupt one query's score row as answered by ``attempt``.

        Draws one noise value per returned result (the ``-inf`` padding
        after them is left alone); returns ``scores`` itself when the
        node is not corrupt or returned nothing.
        """
        sigma = sum(spec.corrupt_sigma for _, spec in self._specs_for(node_id))
        count = int(np.count_nonzero(scores != -np.inf))
        if sigma <= 0.0 or not count:
            return scores
        corrupted = scores.copy()
        corrupted[:count] += self._draw(node_id, query, attempt, 0,
                                        _CORRUPT).normal(0.0, sigma, count)
        self.events.append(FaultEvent(query, node_id, "corrupt", sigma))
        counter("faults.corrupted_results", node=node_id).inc()
        return corrupted

    def timeline(self) -> list[tuple[int, str, str]]:
        """Compact ``(query, node, kind)`` view of the recorded events."""
        return [(e.query, e.node_id, e.kind) for e in self.events]

    # -------------------------------------------------------------- #
    # Installation
    # -------------------------------------------------------------- #
    @contextmanager
    def install(self, gallery):
        """Make this the gallery's plan for the block.

        The plan lives on the gallery only, so it survives a
        :meth:`~repro.retrieval.ShardedGallery.rebalance` that replaces
        every node.  Restores the previous plan (usually none) on exit,
        even when the block raises.
        """
        previous = gallery.fault_plan
        gallery.fault_plan = self
        try:
            yield self
        finally:
            gallery.fault_plan = previous


__all__ = ["FaultPlan", "FaultEvent", "NodeFaultSpec", "ANY_NODE"]
