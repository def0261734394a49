"""Virtual time for the serving front end.

The scheduler never reads the wall clock: every timestamp — arrivals,
micro-batch deadlines, token-bucket refills, batch service times — lives
on a :class:`VirtualClock` that only moves when the event loop advances
it.  Two runs over the same request timeline therefore produce the same
dispatch schedule, the same admission decisions, and the same latency
histograms, bit for bit (the same discipline as
:class:`~repro.resilience.FaultPlan`'s draws keyed by logical query id).
"""

from __future__ import annotations


class VirtualClock:
    """A monotonic, manually-advanced clock in (virtual) seconds."""

    def __init__(self, start_s: float = 0.0) -> None:
        self._now_s = float(start_s)

    @property
    def now_s(self) -> float:
        return self._now_s

    def advance_to(self, t_s: float) -> float:
        """Move time forward to ``t_s`` (never backwards)."""
        t_s = float(t_s)
        if t_s < self._now_s:
            raise ValueError(
                f"virtual clock cannot rewind: now={self._now_s}, "
                f"requested {t_s}")
        self._now_s = t_s
        return self._now_s

    def advance_by(self, delta_s: float) -> float:
        """Move time forward by ``delta_s`` seconds."""
        if delta_s < 0:
            raise ValueError("virtual clock cannot rewind")
        self._now_s += float(delta_s)
        return self._now_s


__all__ = ["VirtualClock"]
