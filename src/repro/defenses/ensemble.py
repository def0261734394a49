"""Ensemble retrieval defense (the paper's §V-D proposal).

"Ensemble models built from multiple backbones would be more robust
against most AE attacks, DUO included."  :class:`EnsembleEngine` fuses
the similarity rankings of several independently trained victim engines
by reciprocal-rank fusion, so an AE must fool *every* backbone at once
to steer the fused list.
"""

from __future__ import annotations

from collections import defaultdict

from repro.errors import RetrievalUnavailable
from repro.retrieval.engine import RetrievalEngine
from repro.retrieval.lists import RetrievalEntry, RetrievalList
from repro.video.types import Video


class EnsembleEngine:
    """Rank-fusion front over several :class:`RetrievalEngine` members.

    Duck-type compatible with :class:`RetrievalEngine` for the purposes
    of :class:`~repro.retrieval.service.RetrievalService`, detectors, and
    the evaluation harness (exposes ``retrieve``/``retrieve_batch``/
    ``gallery_size``), so batched and speculative attacks run against it.
    """

    def __init__(self, engines: list[RetrievalEngine],
                 fusion_constant: float = 10.0) -> None:
        if not engines:
            raise ValueError("ensemble needs at least one engine")
        self.engines = list(engines)
        self.fusion_constant = float(fusion_constant)

    @property
    def gallery_size(self) -> int:
        return self.engines[0].gallery_size

    def retrieve(self, video: Video, m: int) -> RetrievalList:
        """Reciprocal-rank-fusion of every member's top-``m`` list."""
        return self.retrieve_batch([video], m)[0]

    def retrieve_batch(self, videos: list[Video], m: int,
                       snapshots: list | None = None,
                       query_ids=None) -> list[RetrievalList]:
        """:meth:`retrieve` for every video; one batch per member.

        Each member embeds and searches the whole batch in one
        ``retrieve_batch`` call under the same ``query_ids``, at a
        doubled depth so fused tails are stable; the fusion then runs
        per video.  Every member
        owns its own gallery, so a gallery snapshot cannot pin the
        ensemble: ``snapshots`` must be ``None``.

        A member outage settles as :meth:`RetrievalEngine.retrieve_batch`
        does, as if each video had been retrieved in turn: members after
        the failing one search only the rows it served, the propagating
        :class:`~repro.errors.RetrievalUnavailable` carries the fused
        lists of the rows every member served (``served``,
        ``served_count``), and the fault events earlier members recorded
        for rows after the failing one are withdrawn.
        """
        if snapshots is not None:
            raise ValueError(
                "EnsembleEngine: snapshot-pinned retrieval is not "
                "supported; each member owns its own gallery")
        ids = list(range(len(videos))) if query_ids is None \
            else list(query_ids)
        plans = list({id(plan): plan for plan in
                      (engine.gallery.fault_plan for engine in self.engines)
                      if plan is not None}.values())
        marks = [len(plan.events) for plan in plans]
        depth = 2 * int(m)
        per_member, failure, count = [], None, len(videos)
        for engine in self.engines:
            try:
                per_member.append(engine.retrieve_batch(
                    videos[:count], depth, query_ids=ids[:count]))
            except RetrievalUnavailable as exc:
                failure, count = exc, exc.served_count
                per_member.append(exc.served)
        fused = [self._fuse([results[row] for results in per_member], m)
                 for row in range(count)]
        if failure is None:
            return fused
        unsent = set(ids[count + 1:])
        for plan, mark in zip(plans, marks):
            plan.events[mark:] = [event for event in plan.events[mark:]
                                  if event.query not in unsent]
        failure.served, failure.served_count = fused, count
        raise failure

    def _fuse(self, results: list[RetrievalList], m: int) -> RetrievalList:
        scores: dict[str, float] = defaultdict(float)
        labels: dict[str, int] = {}
        for result in results:
            for rank, entry in enumerate(result, start=1):
                scores[entry.video_id] += 1.0 / (self.fusion_constant + rank)
                labels[entry.video_id] = entry.label
        ranked = sorted(scores.items(), key=lambda item: -item[1])[: int(m)]
        return RetrievalList(
            [RetrievalEntry(video_id, labels[video_id], score)
             for video_id, score in ranked]
        )
