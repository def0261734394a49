"""The driver that runs any {sampler × basis × feedback} composition.

:class:`ComposedAttack` is the one attack loop in the codebase: every
attack — the paper's DUO and baselines as well as the RL frame
selection, low-rank and QAIR adversaries — is a registered composition
(see :mod:`repro.attacks.registry`) run by this driver.

The driver owns the cross-cutting machinery:

* **budget accounting** — one objective per run counts every query;
  with :attr:`AttackConfig.budget` set, each round's iteration cap is
  trimmed with conservative per-step cost bounds so the run *finishes
  under* the budget;
* **checkpointing** — an outer
  :class:`~repro.resilience.checkpoint.CheckpointSession` marks every
  round top (pre-rng), and each round's search checkpoints to
  ``<path>.round<r>``; resume is bit-identical, including the query
  accounting and a learned sampler's policy state;
* **one evaluation path** — the search primitives always speculate ±ε
  pairs and batch NES probes; a stateful defense on the service sees
  only the queries the attack issued, so no knob picks a slower path;
* **observability** — ``attack.runs`` counter, ``attack.<name>`` span,
  and a per-round objective gauge.
"""

from __future__ import annotations

import logging

import numpy as np

from repro.attacks.base import Attack, clip_video_range
from repro.attacks.report import AttackReport
from repro.attacks.strategy.protocols import AttackContext, FeedbackModel, \
    PerturbationBasis, SupportSampler
from repro.errors import RetrievalUnavailable
from repro.obs import counter, gauge, span
from repro.resilience.checkpoint import CheckpointSession
from repro.utils.seeding import seeded_rng
from repro.video.types import Video

logger = logging.getLogger(__name__)


class ComposedAttack(Attack):
    """Run a {sampler × basis × feedback} composition end to end.

    Components are validated against their protocols at construction,
    so a mis-wired composition (e.g. a basis passed as a sampler) fails
    immediately with a :class:`TypeError` naming the offender.
    """

    def __init__(self, name: str, sampler: SupportSampler,
                 basis: PerturbationBasis, feedback: FeedbackModel,
                 config, *, service=None, surrogate=None,
                 rng=None) -> None:
        for role, component, protocol in (
                ("sampler", sampler, SupportSampler),
                ("basis", basis, PerturbationBasis),
                ("feedback", feedback, FeedbackModel)):
            if not isinstance(component, protocol):
                raise TypeError(
                    f"{component!r} does not implement the {role} protocol "
                    f"({protocol.__name__})")
        self.name = str(name)
        self.sampler = sampler
        self.basis = basis
        self.feedback = feedback
        self.config = config
        self.service = service
        self.surrogate = surrogate
        self.rng = seeded_rng(config.seed if rng is None else rng)

    # -------------------------------------------------------------- #
    # Budget accounting
    # -------------------------------------------------------------- #
    def _remaining(self, objective) -> int | None:
        budget = self.config.budget
        if budget is None:
            return None
        spent = objective.queries if objective is not None else 0
        return max(0, int(budget) - int(spent))

    # -------------------------------------------------------------- #
    # Driver loop
    # -------------------------------------------------------------- #
    def run(self, original: Video, target: Video | None = None,
            checkpoint_path: str | None = None) -> AttackReport:
        """Craft an AE for ``(v, v_t)`` through the composed pipeline."""
        config = self.config
        path = checkpoint_path if checkpoint_path is not None else \
            config.checkpoint_path
        rounds = int(config.rounds) if config.rounds is not None else \
            int(self.sampler.default_rounds)
        counter("attack.runs", attack=self.name).inc()

        objective = self.feedback.build_objective(self.service, original,
                                                  target, config)
        session = CheckpointSession(path, f"strategy.{self.name}", objective,
                                    self.rng)
        resumed = session.resume()
        if resumed is None:
            current = original
            trace: list[float] = []
            start_round = 0
        else:
            current = original.perturbed(resumed["perturbation"])
            trace = resumed["trace"]
            start_round = resumed["iteration"]
            if resumed.get("sampler_state") is not None and \
                    hasattr(self.sampler, "load_state"):
                self.sampler.load_state(resumed["sampler_state"])

        with span(f"attack.{self.name}", k=config.k, n=config.n,
                  rounds=rounds):
            for round_index in range(start_round, rounds):
                sampler_state = self.sampler.state_dict() \
                    if hasattr(self.sampler, "state_dict") else None
                session.mark(round_index,
                             perturbation=current.pixels - original.pixels,
                             trace=trace, sampler_state=sampler_state)
                remaining = self._remaining(objective)
                if remaining is not None and remaining < 1:
                    logger.warning("attack %s: query budget exhausted after "
                                   "%d round(s)", self.name, round_index)
                    break
                ctx = AttackContext(
                    config=config, rng=self.rng, service=self.service,
                    surrogate=self.surrogate, target=target,
                    round=round_index, rounds=rounds,
                    checkpoint_path=None if path is None
                    else f"{path}.round{round_index}",
                    max_queries=remaining)
                try:
                    plan = self.sampler.sample(current, target, ctx)
                    if plan.is_empty():
                        # DUO's query-stage contract: an empty support costs
                        # no queries; the round degrades to applying the
                        # plan's initial perturbation (if any).
                        logger.warning(
                            "attack %s round %d: empty support, skipping "
                            "search", self.name, round_index)
                        perturbation = np.zeros_like(original.pixels) \
                            if plan.initial is None else \
                            clip_video_range(current.pixels, plan.initial)
                        report = AttackReport(
                            adversarial=current.perturbed(perturbation),
                            perturbation=perturbation, queries=0, trace=[])
                    else:
                        state = self.basis.prepare(current, plan, ctx)
                        report = self.feedback.optimize(current, objective,
                                                        state, ctx)
                except RetrievalUnavailable:
                    # The inner search already persisted its own state;
                    # persist the round-top mark so a retry re-enters
                    # this round with the right rng/counts and resumes
                    # the search from <path>.round<r>.
                    session.persist()
                    raise
                trace.extend(report.trace)
                current = report.adversarial
                self.sampler.update(plan, report, ctx)
                counter(f"attack.{self.name}.rounds").inc()
                if trace:
                    gauge(f"attack.{self.name}.objective").set(trace[-1])
        session.complete()

        queries = objective.queries if objective is not None else 0
        return AttackReport(
            adversarial=current,
            perturbation=current.pixels - original.pixels,
            queries=queries, trace=trace,
            metadata={"strategy": self.name, "k": config.k, "n": config.n,
                      "tau": config.tau, "rounds": rounds,
                      "budget": config.budget})


__all__ = ["ComposedAttack"]
