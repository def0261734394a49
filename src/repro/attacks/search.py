"""Black-box search primitives shared by every query attack.

* :func:`simba_search` — SimBA [53]: greedy ±ε direction descent on the
  retrieval objective, restricted to a support mask.  It is the one ±ε
  loop in the package; two seams cover its variants:

  - *search space* — pixel coordinates (the loop stores the projected
    candidate) or, with ``decode``, basis coefficients (the loop stores
    raw coefficients and decodes, projects and clips them before each
    query; the TenAd-style low-rank basis);
  - *step policy* — a fixed ε or an :class:`AdaptiveStep` (QAIR's
    grow/shrink/patience with a ``stop_at`` early exit).
* :func:`nes_search` — NES-style gradient estimation with antithetic
  Gaussian probes restricted to a support mask, followed by signed
  descent steps (the optimizer inside HEU-Nes [16]).

Both return an :class:`~repro.attacks.report.AttackReport`.

``metric_prefix`` / ``checkpoint_algo`` let a caller rebrand the obs
counters, spans, and checkpoint tag — DUO's query stage (the ``"duo"``
and ``"duo-query"`` registry compositions) runs here under the
``attack.duo.query`` names and the ``sparse_query`` checkpoint tag, the
low-rank basis under ``attack.search.coeff`` / ``coeff`` and QAIR under
``attack.search.qair`` / ``qair``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.attacks.base import clip_video_range, project_linf
from repro.attacks.objective import RetrievalObjective
from repro.attacks.report import AttackReport
from repro.errors import RetrievalUnavailable
from repro.obs import counter, gauge, span
from repro.resilience.checkpoint import CheckpointSession
from repro.utils.seeding import seeded_rng
from repro.video.types import Video


def default_block_size(support_size: int) -> int:
    """Heuristic direction width: ``√|support|`` coordinates per step.

    A ±ε step over ``b`` coordinates displaces the input by ``ε·√b`` in
    ℓ2; with ``b = √|support|`` the probes are strong enough to cross
    rank boundaries of the retrieval list while staying refinable.
    """
    return max(1, int(round(np.sqrt(max(support_size, 1)))))


@dataclass(frozen=True)
class AdaptiveStep:
    """QAIR's step policy: adapt ε between ±ε pairs, exit early.

    An iteration with an accepted move grows ``ε`` by ``grow`` (capped
    at τ); ``patience`` consecutive fully-rejected iterations shrink it
    by ``shrink`` (floored at τ/16).  With ``stop_at`` set the loop
    exits as soon as the best objective value reaches it — the attack
    stops paying for queries the moment the retrieval list has flipped.
    """

    grow: float = 1.5
    shrink: float = 0.5
    patience: int = 2
    stop_at: float | None = None

    def update(self, epsilon: float, misses: int, accepted: bool,
               tau: float) -> tuple[float, int]:
        """The next ``(ε, misses)`` after one ±ε pair."""
        if accepted:
            return min(tau, epsilon * self.grow), 0
        misses += 1
        if misses >= self.patience:
            return max(tau / 16.0, epsilon * self.shrink), 0
        return epsilon, misses


def simba_search(original: Video, objective: RetrievalObjective,
                 support: np.ndarray, tau: float, iterations: int,
                 epsilon: float | None = None, rng=None,
                 initial: np.ndarray | None = None, tie_rule: str = "move",
                 block_size: int | None = None, checkpoint_path=None, *,
                 metric_prefix: str = "attack.search.simba",
                 checkpoint_algo: str = "simba",
                 project_initial: bool = True,
                 decode: Callable[[np.ndarray], np.ndarray] | None = None,
                 step: AdaptiveStep | None = None) -> AttackReport:
    """Greedy ±ε direction descent on ``T`` over the ``support``.

    Directions are signed indicator blocks: each iteration consumes
    ``block_size`` fresh coordinates from a without-replacement stream
    over the support (reshuffled when exhausted) and proposes a random-
    sign ±ε move on them, keeping it if the objective does not worsen.
    ``block_size=1`` recovers the classic single-pixel SimBA [53].

    Parameters
    ----------
    support:
        Boolean mask over the search variable; only these coordinates
        move.  Shaped like the video pixels, or like the coefficient
        vector when ``decode`` is given.
    tau:
        ℓ∞ budget on the *final* perturbation, in [0, 1] units.
    epsilon:
        Step magnitude (defaults to ``tau``); the initial step under an
        adaptive ``step`` policy.
    tie_rule:
        ``"move"`` accepts non-worsening steps (Eq. 3 behaviour, keeps
        exploring on plateaus of the list objective); ``"stay"`` accepts
        only strict decreases.
    block_size:
        Coordinates per direction; ``None`` selects
        :func:`default_block_size` *once per run* — the chosen width is
        checkpointed, so a resume keeps the original width even if the
        support passed on resume differs.
    checkpoint_path:
        With a path set, a :class:`~repro.errors.RetrievalUnavailable`
        raised mid-run persists loop state before propagating; calling
        again with the same arguments and path resumes bit-identically.
    metric_prefix / checkpoint_algo:
        Names used for obs counters/spans and the checkpoint tag, so a
        delegating caller keeps its historical observable surface.
    project_initial:
        Project the ``initial`` perturbation onto the ℓ∞ ball before
        searching.  DUO's query stage passes ``False``: under the ℓ2
        transfer constraint (Table IX) the priors may legitimately
        exceed ``τ`` per coordinate, and only *steps* are projected.
    decode:
        Search basis coefficients instead of pixels: the loop keeps raw
        coefficients, starting from zeros (``initial`` is a pixel
        warm start and does not apply), and queries
        ``clip(project(decode(c)))``; the report's metadata carries the
        final ``coefficients``.
    step:
        An :class:`AdaptiveStep` policy; ``None`` keeps ε fixed.

    Returns an :class:`AttackReport`.
    """
    rng = seeded_rng(rng)
    base = original.pixels
    epsilon = tau if epsilon is None else float(epsilon)
    support = np.asarray(support)

    def to_pixels(point: np.ndarray) -> np.ndarray:
        raw = point if decode is None else decode(point)
        return clip_video_range(base, project_linf(raw, tau))

    if decode is None:  # pixels: the point is the projected perturbation
        point = np.zeros_like(base) if initial is None else initial.copy()
        if project_initial:
            point = project_linf(point, tau)
        point = perturbation = clip_video_range(base, point)
        point_key, size_key = "perturbation", "support"
    else:  # coefficients: raw point, decoded before every query
        point = np.zeros(support.shape)
        perturbation = to_pixels(point)
        point_key, size_key = "coefficients", "dim"

    coords = np.flatnonzero(support.reshape(-1))
    if coords.size == 0:
        current = original.perturbed(perturbation)
        trace = [objective.value(current)]
        return AttackReport(adversarial=current, perturbation=perturbation,
                            queries=len(trace), trace=trace)
    block = default_block_size(coords.size) if block_size is None else \
        max(1, int(block_size))

    session = CheckpointSession(checkpoint_path, checkpoint_algo, objective,
                                rng)
    resumed = session.resume()
    misses = 0
    if resumed is None:
        current = original.perturbed(perturbation)
        best = objective.value(current)
        trace = [best]
        order = rng.permutation(coords)
        cursor = 0
        start_iteration = 0
    else:
        point = resumed[point_key]
        perturbation = point if decode is None else to_pixels(point)
        best = resumed["best"]
        trace = resumed["trace"]
        order = resumed["order"]
        cursor = resumed["cursor"]
        # The direction width is derived from the support *once per
        # run* and checkpointed: resuming with a grown/shrunk support
        # must not silently change the block width mid-search.
        block = int(resumed.get("block", block))
        if step is not None:
            epsilon, misses = resumed["epsilon"], resumed["misses"]
        start_iteration = resumed["iteration"]
        current = original.perturbed(perturbation)

    with span(metric_prefix, **{size_key: int(coords.size)}, block=block):
        for iteration in range(start_iteration, int(iterations)):
            if step is not None and step.stop_at is not None and \
                    best <= step.stop_at:
                counter(f"{metric_prefix}.early_exits").inc()
                break
            adaptive = {} if step is None else \
                {"epsilon": epsilon, "misses": misses}
            session.mark(iteration, **{point_key: point}, best=best,
                         trace=trace, order=order, cursor=cursor,
                         **adaptive, block=block)
            try:
                with span(f"{metric_prefix}.iter"):
                    if cursor + block > order.size:
                        order = rng.permutation(coords)
                        cursor = 0
                    chosen = order[cursor : cursor + block]
                    cursor += block
                    signs = rng.choice((-1.0, 1.0), size=chosen.size)
                    # Build both ±ε candidates up front (no rng consumed),
                    # speculate the pair in one batch and commit the
                    # consumed prefix; a candidate the speculation did not
                    # return (an outage) is sent as a real query.
                    live = []
                    for flip in (+1.0, -1.0):
                        candidate = point.copy()
                        candidate.reshape(-1)[chosen] += flip * signs * epsilon
                        pixels = to_pixels(candidate)
                        if decode is None:
                            candidate = pixels
                        # A step the projection undid costs no query.
                        if not np.array_equal(pixels, perturbation):
                            live.append((candidate, pixels,
                                         original.perturbed(pixels)))
                    speculated = objective.speculate(
                        [adversarial for *_, adversarial in live]
                    ) if len(live) > 1 else []
                    accepted = False
                    for spec_index, (candidate, pixels, adversarial) in \
                            enumerate(live):
                        if spec_index < len(speculated):
                            value = objective.commit(speculated[spec_index])
                        else:
                            value = objective.value(adversarial)
                        trace.append(value)
                        counter(f"{metric_prefix}.evaluations").inc()
                        if value < best or \
                                (tie_rule == "move" and value <= best):
                            counter(f"{metric_prefix}.accepted").inc()
                            best = value
                            point, perturbation = candidate, pixels
                            current = adversarial
                            accepted = True
                            break
                    if step is not None:
                        epsilon, misses = step.update(epsilon, misses,
                                                      accepted, tau)
            except RetrievalUnavailable:
                session.persist()
                raise
        gauge(f"{metric_prefix}.objective").set(best)
        if step is not None:
            gauge(f"{metric_prefix}.step").set(epsilon)
    session.complete()
    return AttackReport(adversarial=current, perturbation=perturbation,
                        queries=len(trace), trace=trace,
                        metadata=None if decode is None else
                        {"coefficients": point})


def nes_search(original: Video, objective: RetrievalObjective,
               support: np.ndarray, tau: float, iterations: int,
               samples: int = 4, sigma: float = 0.05, lr: float | None = None,
               rng=None, initial: np.ndarray | None = None,
               checkpoint_path=None, *,
               metric_prefix: str = "attack.search.nes",
               checkpoint_algo: str = "nes") -> AttackReport:
    """NES gradient-estimation descent on ``T`` over ``support``.

    Each iteration draws ``samples`` antithetic Gaussian probes (costing
    ``2·samples`` queries), estimates the gradient of ``T``, and takes a
    signed step of size ``lr`` (default ``tau / 5``).

    All ``2·samples`` probe evaluations of an iteration share one
    forward batch (``objective.values``).  NES consumes every evaluation
    unconditionally and probe construction consumes rng before any
    evaluation, so the rng stream, query count, and trace are identical
    to the sequential loop.

    With ``checkpoint_path`` set, a
    :class:`~repro.errors.RetrievalUnavailable` raised mid-run persists
    loop state before propagating; calling again with the same arguments
    and path resumes bit-identically.

    Returns an :class:`AttackReport`.
    """
    rng = seeded_rng(rng)
    base = original.pixels
    mask = np.asarray(support, dtype=np.float64)
    lr = tau / 5.0 if lr is None else float(lr)
    perturbation = np.zeros_like(base) if initial is None else initial.copy()
    perturbation = clip_video_range(base, project_linf(perturbation, tau))

    session = CheckpointSession(checkpoint_path, checkpoint_algo, objective,
                                rng)
    resumed = session.resume()
    if resumed is None:
        current = original.perturbed(perturbation)
        best = objective.value(current)
        best_perturbation = perturbation.copy()
        trace = [best]
        start_iteration = 0
    else:
        perturbation = resumed["perturbation"]
        best = resumed["best"]
        best_perturbation = resumed["best_perturbation"]
        trace = resumed["trace"]
        start_iteration = resumed["iteration"]
        current = original.perturbed(perturbation)

    with span(metric_prefix, samples=int(samples)):
        for iteration in range(start_iteration, int(iterations)):
            session.mark(iteration, perturbation=perturbation, best=best,
                         best_perturbation=best_perturbation, trace=trace)
            try:
                with span(f"{metric_prefix}.iter"):
                    gradient = np.zeros_like(perturbation)
                    # Draw every probe before evaluating anything:
                    # evaluation consumes no rng, so the stream matches
                    # the sequential draw-evaluate interleaving exactly.
                    probes = [rng.normal(size=perturbation.shape) * mask
                              for _ in range(int(samples))]
                    values = objective.values([
                        original.perturbed(clip_video_range(base, project_linf(
                            perturbation + sign * sigma * probe, tau)))
                        for probe in probes for sign in (1.0, -1.0)])
                    trace.extend(values)
                    counter(f"{metric_prefix}.evaluations").inc(
                        2 * int(samples))
                    for probe, plus, minus in zip(probes, values[::2],
                                                  values[1::2]):
                        gradient += (plus - minus) * probe
                    gradient /= 2.0 * sigma * samples

                    perturbation = perturbation - lr * np.sign(gradient) * mask
                    perturbation = clip_video_range(
                        base, project_linf(perturbation, tau))
                    current = original.perturbed(perturbation)
                    value = objective.value(current)
                    trace.append(value)
                    counter(f"{metric_prefix}.evaluations").inc()
                    if value < best:
                        counter(f"{metric_prefix}.improved").inc()
                        best = value
                        best_perturbation = perturbation.copy()
            except RetrievalUnavailable:
                session.persist()
                raise
        gauge(f"{metric_prefix}.objective").set(best)
    session.complete()

    return AttackReport(adversarial=original.perturbed(best_perturbation),
                        perturbation=best_perturbation,
                        queries=len(trace), trace=trace)
