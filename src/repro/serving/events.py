"""Gallery mutation events for mutating serving timelines.

A mutating timeline interleaves tenant :class:`~repro.serving.frontend.Request`s
with owner-side gallery operations — :class:`AddVideo`,
:class:`DeleteVideo`, :class:`ReembedVideo` — each stamped with a
virtual arrival time.  The front end applies events on its event-loop
thread in arrival order and bumps the gallery version, so queries
admitted before an event keep their pinned snapshot while later ones
see the mutated gallery.

:func:`canonical_order` defines the *canonical* interleaving (events
before queries at equal timestamps; :func:`merge_timeline` is the same
order without request indices); both the front end and the sequential
reference replay (:func:`repro.qa.reference.replay_sequential`) walk
it, so the ``serving.mutating_timeline`` oracle compares identical
orderings.  :func:`generate_churn` builds a seeded random event stream
against a known set of live gallery ids, tracking liveness while
generating so every delete/re-embed targets a live video.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hashindex.compaction import CompactionPolicy
from repro.obs import counter
from repro.video.types import Video


@dataclass(frozen=True)
class GalleryEvent:
    """Base class: one owner-side gallery mutation at a virtual time."""

    arrival_s: float

    def __post_init__(self) -> None:
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be non-negative")

    def apply(self, engine) -> None:
        raise NotImplementedError


@dataclass(frozen=True)
class AddVideo(GalleryEvent):
    """Embed and insert a new video under traffic."""

    video: Video = None

    def apply(self, engine) -> None:
        engine.add_video(self.video)


@dataclass(frozen=True)
class DeleteVideo(GalleryEvent):
    """Tombstone a live gallery video."""

    video_id: str = ""

    def apply(self, engine) -> None:
        engine.remove_video(self.video_id)


@dataclass(frozen=True)
class ReembedVideo(GalleryEvent):
    """Re-embed a live gallery video (content changed upstream)."""

    video: Video = None

    def apply(self, engine) -> None:
        engine.reembed_video(self.video)


def apply_gallery_event(engine, event: GalleryEvent,
                        policy: CompactionPolicy | None = None) -> None:
    """Apply one event (plus the shared background-compaction check).

    The compaction check runs at exactly this point in *both* the
    pooled front end and the sequential reference, so compaction
    boundaries — which affect tie-breaking row order inside rebuilt
    indexes — are identical across replays.
    """
    event.apply(engine)
    counter("serving.gallery_events", kind=type(event).__name__).inc()
    if policy is not None:
        dropped = engine.gallery.maybe_compact(policy)
        if dropped:
            counter("serving.compactions").inc()
            counter("serving.compacted_rows").inc(dropped)


def canonical_order(items: list) -> list[tuple[int | None, object]]:
    """A mixed request/event timeline in canonical order.

    Each entry is ``(request index, item)``: the index is the item's
    position among the timeline's requests, ``None`` for a gallery
    event.  Stable by arrival time with events ordered before requests
    at equal timestamps (owner mutations win ties — the same convention
    a primary-replica store applies to a write racing a read).
    """
    events = [item for item in items if isinstance(item, GalleryEvent)]
    requests = [item for item in items if not isinstance(item, GalleryEvent)]
    keyed = [(event.arrival_s, 0, order, None, event)
             for order, event in enumerate(events)]
    keyed += [(request.arrival_s, 1, order, order, request)
              for order, request in enumerate(requests)]
    keyed.sort(key=lambda entry: entry[:3])
    return [(index, item) for _, _, _, index, item in keyed]


def merge_timeline(items: list) -> list:
    """The items of :func:`canonical_order`, without request indices."""
    return [item for _, item in canonical_order(items)]


def generate_churn(seed: int, gallery_ids: list[str], *,
                   adds: int = 0, deletes: int = 0, reembeds: int = 0,
                   horizon_s: float = 1.0, start_s: float = 0.0,
                   frames: int = 8, height: int = 16, width: int = 16,
                   channels: int = 3,
                   label_base: int = 50) -> list[GalleryEvent]:
    """A seeded random mutation stream against known live ids.

    Deletes and re-embeds always target a video that is still live at
    their point in the stream (the generator tracks liveness), so the
    sequential replay never raises ``KeyError``.  Event times are
    uniform over ``[start_s, start_s + horizon_s)`` and the interleaving
    of event kinds is a seeded shuffle.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0xC4]))
    kinds = ["add"] * int(adds) + ["delete"] * int(deletes) + \
        ["reembed"] * int(reembeds)
    rng.shuffle(kinds)
    times = np.sort(rng.uniform(start_s, start_s + horizon_s,
                                size=len(kinds)))
    live = list(gallery_ids)
    events: list[GalleryEvent] = []
    fresh = 0
    for kind, when in zip(kinds, times):
        when = float(when)
        if kind == "add":
            fresh += 1
            video_id = f"churn-{seed}-{fresh}"
            pixels = rng.random((frames, height, width, channels))
            events.append(AddVideo(when, Video(
                pixels=pixels, label=label_base + fresh,
                video_id=video_id)))
            live.append(video_id)
        elif kind == "delete" and live:
            victim = live.pop(int(rng.integers(len(live))))
            events.append(DeleteVideo(when, victim))
        elif kind == "reembed" and live:
            victim = live[int(rng.integers(len(live)))]
            pixels = rng.random((frames, height, width, channels))
            events.append(ReembedVideo(when, Video(
                pixels=pixels, label=label_base, video_id=victim)))
        # A delete/reembed drawn against an exhausted live set is
        # silently skipped; callers control counts.
    return events


__all__ = ["GalleryEvent", "AddVideo", "DeleteVideo", "ReembedVideo",
           "apply_gallery_event", "canonical_order", "merge_timeline",
           "generate_churn"]
