"""Deterministic, scriptable fault injection for the retrieval plane.

A :class:`FaultPlan` describes *when and how* data nodes misbehave:

* **flaky** — each attempt against the node fails with probability ``p``
  (:class:`~repro.errors.NodeDownError`), so retries can succeed;
* **slow** — attempts carry injected latency, which the coordinator
  checks against its per-query deadline / hedge threshold;
* **corrupt** — the node's similarity scores are perturbed with seeded
  Gaussian noise (what quorum merging is for);
* **outage** — the node hard-fails for a window of logical query
  indexes ``[start, end)``, then recovers.

Everything is driven by generators seeded from ``(seed, node_id)`` and a
logical query clock the coordinator advances, so the same plan replayed
against the same workload produces the *same outage timeline* — tests
and benchmarks can script incidents and assert exact recovery.

Installation is a context manager::

    plan = FaultPlan(seed=7).flaky("node-1", 0.3).outage("node-0", 50, 80)
    with plan.install(engine.gallery):
        run_attack(...)          # faults active
    # gallery back to healthy

Injected latency is *virtual* by default: it is accounted against
deadlines and hedge thresholds without sleeping, keeping fault-injected
test suites fast and bit-deterministic.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from repro.errors import NodeDownError
from repro.obs import counter

#: Wildcard node id applying a fault spec to every node.
ANY_NODE = "*"


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
        """Hard-fail ``node_id`` for logical queries ``[start, end)``."""
        if end <= start:
            raise ValueError("outage window must be non-empty")
        self._spec(node_id).outages.append((int(start), int(end)))
        return self

    # -------------------------------------------------------------- #
    # Replay state
    # -------------------------------------------------------------- #
    def reset(self) -> None:
        """Rewind the query clock and all rng streams (exact replay)."""
        self.query_index = 0
        self._span = (0, 0)
        self.events: list[FaultEvent] = []
        self._rngs: dict[str, np.random.Generator] = {}

    def _rng(self, node_id: str) -> np.random.Generator:
        rng = self._rngs.get(node_id)
        if rng is None:
            rng = np.random.default_rng(
                np.random.SeedSequence([self.seed,
                                        *(ord(c) for c in node_id)]))
            self._rngs[node_id] = rng
        return rng

    def _specs_for(self, node_id: str):
        for key in (node_id, ANY_NODE):
            spec = self.specs.get(key)
            if spec is not None:
                yield spec

    # -------------------------------------------------------------- #
    # Runtime protocol (called by the gallery / nodes)
    # -------------------------------------------------------------- #
    def advance(self, count: int = 1) -> int:
        """Advance the logical query clock by ``count`` queries."""
        start = self.query_index
        self.query_index += int(count)
        self._span = (start, self.query_index)
        return start

    def on_attempt(self, node_id: str) -> float:
        """One attempt against ``node_id``; may raise, returns latency.

        Raises :class:`~repro.errors.NodeDownError` when the node is in
        an outage window or a flaky draw fails; otherwise returns the
        injected (virtual) latency in seconds for this attempt.
        """
        start, end = self._span
        latency = 0.0
        for spec in self._specs_for(node_id):
            for lo, hi in spec.outages:
                if lo < end and start < hi:
                    self.events.append(FaultEvent(start, node_id, "outage"))
                    counter("faults.outage_hits", node=node_id).inc()
                    raise NodeDownError(
                        f"node {node_id} in scheduled outage "
                        f"[{lo}, {hi}) at query {start}")
            if spec.flaky_p > 0.0:
                draw = float(self._rng(node_id).random())
                if draw < spec.flaky_p:
                    self.events.append(
                        FaultEvent(start, node_id, "flaky", draw))
                    counter("faults.flaky_failures", node=node_id).inc()
                    raise NodeDownError(
                        f"node {node_id} flaked at query {start}")
            if spec.latency_s > 0.0 or spec.latency_jitter_s > 0.0:
                jitter = spec.latency_jitter_s * float(
                    self._rng(node_id).random())
                latency += spec.latency_s + jitter
        if latency > 0.0:
            self.events.append(FaultEvent(start, node_id, "latency", latency))
            counter("faults.injected_latency", node=node_id).inc()
        return latency

    def transform(self, node_id: str, scores: np.ndarray) -> np.ndarray:
        """Apply score corruption to one node's ``(B, k)`` score rows.

        Each query's row draws one noise value per returned result (the
        ``-inf`` padding after them is left alone), rows in order, so
        the draw sizes and order match a per-query result list.
        """
        sigma = 0.0
        for spec in self._specs_for(node_id):
            sigma += spec.corrupt_sigma
        if sigma <= 0.0 or not scores.size:
            return scores
        corrupted = scores.copy()
        for row in corrupted:
            count = int(np.count_nonzero(row != -np.inf))
            if not count:
                continue
            row[:count] += self._rng(node_id).normal(0.0, sigma, size=count)
            self.events.append(
                FaultEvent(self._span[0], node_id, "corrupt", sigma))
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
        """Attach this plan to every node of ``gallery`` for the block.

        Restores whatever injectors were previously installed (usually
        none) on exit, even when the block raises.
        """
        previous_plan = getattr(gallery, "fault_plan", None)
        previous = [node.fault_injector for node in gallery.nodes]
        gallery.fault_plan = self
        for node in gallery.nodes:
            node.fault_injector = self
        try:
            yield self
        finally:
            gallery.fault_plan = previous_plan
            for node, injector in zip(gallery.nodes, previous):
                node.fault_injector = injector


__all__ = ["FaultPlan", "FaultEvent", "NodeFaultSpec", "ANY_NODE"]
