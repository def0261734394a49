"""Stateful query-pattern detection (Chen, Carlini & Wagner style [13]).

The paper's introduction notes that deployed systems "can detect certain
query accounts with 'adversarial behavior'": black-box attacks issue
long streams of *near-duplicate* queries while probing a perturbation.
:class:`StatefulQueryDetector` keeps a sliding window of recent query
fingerprints per account and flags an account once too many of its
queries fall within a small distance of an earlier one.

The fingerprint is a coarse perceptual hash (down-sampled pixel means),
so the detector needs no access to the model — it runs at the API edge.
It attaches as the service's preprocessor (``detector.preprocessor(
account)``), whose ``commit`` the service calls with exactly the issued
queries in issue order; with ``quantize_queries`` it sees the 8-bit
upload.
"""

from __future__ import annotations

from collections import defaultdict, deque

import numpy as np

from repro.video.types import Video


def query_fingerprint(video: Video, grid: int = 4) -> np.ndarray:
    """Down-sampled perceptual fingerprint of a query video.

    Averages pixels over a ``grid × grid`` spatial mesh per frame and
    channel; near-duplicate queries map to nearby fingerprints while
    unrelated videos stay far apart.
    """
    frames, height, width, channels = video.pixels.shape
    row_edges = np.linspace(0, height, grid + 1, dtype=int)
    col_edges = np.linspace(0, width, grid + 1, dtype=int)
    cells = np.empty((frames, grid, grid, channels))
    for i in range(grid):
        for j in range(grid):
            block = video.pixels[:, row_edges[i]:row_edges[i + 1],
                                 col_edges[j]:col_edges[j + 1], :]
            cells[:, i, j, :] = block.mean(axis=(1, 2))
    return cells.reshape(-1)


class StatefulQueryDetector:
    """Sliding-window near-duplicate query detector per account.

    Parameters
    ----------
    window:
        Number of recent fingerprints remembered per account.
    distance_threshold:
        Mean-absolute-difference below which two queries count as
        near-duplicates (in [0,1] pixel units).
    flag_after:
        Number of near-duplicate hits before the account is flagged.
    """

    def __init__(self, window: int = 50, distance_threshold: float = 0.05,
                 flag_after: int = 10) -> None:
        if window < 1 or flag_after < 1:
            raise ValueError("window and flag_after must be positive")
        self.window = int(window)
        self.distance_threshold = float(distance_threshold)
        self.flag_after = int(flag_after)
        self._history: dict[str, deque] = defaultdict(
            lambda: deque(maxlen=self.window))
        self._hits: dict[str, int] = defaultdict(int)
        self._observed: dict[str, int] = defaultdict(int)
        self.flagged: set[str] = set()

    def observe(self, account: str, video: Video) -> bool:
        """Record one query; returns True when the account is now flagged."""
        fingerprint = query_fingerprint(video)
        history = self._history[account]
        for previous in history:
            distance = float(np.abs(fingerprint - previous).mean())
            if distance < self.distance_threshold:
                self._hits[account] += 1
                break
        history.append(fingerprint)
        self._observed[account] += 1
        if self._hits[account] >= self.flag_after:
            self.flagged.add(account)
        return account in self.flagged

    def is_flagged(self, account: str) -> bool:
        """Whether the account has been flagged so far."""
        return account in self.flagged

    def hit_count(self, account: str) -> int:
        """Near-duplicate hits recorded for an account."""
        return self._hits[account]

    def observed_count(self, account: str) -> int:
        """Queries observed for an account so far."""
        return self._observed[account]

    def preprocessor(self, account: str) -> "_Observer":
        """A service preprocessor for ``account``: an identity transform
        whose ``commit`` observes every issued query."""
        return _Observer(self, account)


class _Observer:
    """Identity transform; ``commit`` feeds issued queries to a detector."""

    def __init__(self, detector: StatefulQueryDetector, account: str) -> None:
        self.detector, self.account = detector, account

    def __call__(self, video: Video) -> Video:
        return video

    def commit(self, videos: list[Video]) -> None:
        for video in videos:
            self.detector.observe(self.account, video)
