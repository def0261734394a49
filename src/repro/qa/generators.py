"""Seeded input-generator strategies with shrink-on-failure.

A :class:`Strategy` couples a seeded ``sample(rng) -> case`` function
(cases are plain dicts of keyword arguments) with per-key *shrinkers*:
functions mapping a value to a sequence of strictly simpler candidates.
When an oracle check fails, :func:`shrink_to_minimal` greedily descends
through one-key simplifications until no simpler case still fails —
the reported counterexample is locally minimal, which turns "pair X
disagrees on a (4, 3, 9, 9) conv" into "pair X disagrees on a
(1, 1, 3, 3) conv".

Everything is driven by an explicit ``numpy.random.Generator``; the same
seed always yields the same case, so oracle failures reproduce exactly.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator

import numpy as np


class Strategy:
    """A named, seeded case generator with optional per-key shrinkers.

    Parameters
    ----------
    name:
        Label used in failure reports.
    sample:
        ``sample(rng) -> dict`` producing one case.
    shrinkers:
        ``{key: value -> iterable of simpler values}``; keys without a
        shrinker are left untouched during minimization.
    """

    def __init__(self, name: str, sample: Callable[[np.random.Generator], dict],
                 shrinkers: dict[str, Callable] | None = None) -> None:
        self.name = name
        self._sample = sample
        self.shrinkers = dict(shrinkers or {})

    def sample(self, rng: np.random.Generator) -> dict:
        """Draw one case."""
        return self._sample(rng)

    def shrink(self, case: dict) -> Iterator[dict]:
        """Yield cases one simplification step away from ``case``."""
        for key, shrinker in self.shrinkers.items():
            if key not in case:
                continue
            for simpler in shrinker(case[key]):
                candidate = dict(case)
                candidate[key] = simpler
                yield candidate


def shrink_to_minimal(strategy: Strategy, case: dict,
                      fails: Callable[[dict], bool],
                      max_steps: int = 64) -> dict:
    """Greedily minimize a failing case.

    Repeatedly takes the first one-step simplification that still makes
    ``fails`` true, until none does (or ``max_steps`` simplifications
    were applied).  ``fails`` must be deterministic in the case.
    """
    for _ in range(int(max_steps)):
        for candidate in strategy.shrink(case):
            if fails(candidate):
                case = candidate
                break
        else:
            return case
    return case


# ---------------------------------------------------------------------- #
# Shrinkers
# ---------------------------------------------------------------------- #
def shrink_int(low: int) -> Callable[[int], Iterable[int]]:
    """Shrink an integer toward ``low``: try ``low``, then halve the gap."""
    def shrinker(value: int) -> Iterable[int]:
        value = int(value)
        out = []
        if value > low:
            out.append(low)
            halfway = low + (value - low) // 2
            if halfway not in (low, value):
                out.append(halfway)
        return out
    return shrinker


def shrink_shape(min_size: int = 1) -> Callable[[tuple], Iterable[tuple]]:
    """Shrink a shape tuple one axis at a time toward ``min_size``."""
    def shrinker(shape: tuple) -> Iterable[tuple]:
        out = []
        for axis, size in enumerate(shape):
            if size > min_size:
                smaller = list(shape)
                smaller[axis] = max(min_size, size // 2)
                out.append(tuple(smaller))
        return out
    return shrinker


def shrink_array(value: np.ndarray) -> Iterable[np.ndarray]:
    """Shrink an array: halve each axis (keeping the leading slice)."""
    out = []
    for axis, size in enumerate(value.shape):
        if size > 1:
            index = [slice(None)] * value.ndim
            index[axis] = slice(0, max(1, size // 2))
            out.append(np.ascontiguousarray(value[tuple(index)]))
    return out


# ---------------------------------------------------------------------- #
# Draw helpers (building blocks for strategy ``sample`` functions)
# ---------------------------------------------------------------------- #
def draw_gallery(rng: np.random.Generator, rows: int, dim: int
                 ) -> tuple[list[str], list[int], np.ndarray]:
    """Ids, labels, and a ``(rows, dim)`` feature matrix for an index."""
    ids = [f"v{i}" for i in range(rows)]
    labels = [int(label) for label in rng.integers(0, max(2, rows // 3),
                                                   size=rows)]
    features = rng.normal(size=(rows, dim))
    return ids, labels, features


def draw_id_list(rng: np.random.Generator, universe: int, length: int
                 ) -> list[str]:
    """A without-replacement id list over ``universe`` candidates."""
    length = min(length, universe)
    chosen = rng.choice(universe, size=length, replace=False)
    return [f"v{i}" for i in chosen]


def draw_clustered_gallery(rng: np.random.Generator, rows: int, dim: int,
                           spread: float = 0.25
                           ) -> tuple[list[str], list[int], np.ndarray]:
    """A gallery whose features cluster, as real video embeddings do.

    Rows are drawn around ``max(2, rows // 12)`` unit-normal centers
    with ``spread`` intra-cluster noise; labels are the cluster ids.
    The compressed-tier recall oracles use this instead of
    :func:`draw_gallery` because pure isotropic Gaussian rows are the
    known worst case for every ANN structure (all points are nearly
    equidistant) and say nothing about behaviour on embedding-shaped
    data.
    """
    clusters = max(2, rows // 12)
    centers = rng.normal(size=(clusters, dim))
    assignment = rng.integers(0, clusters, size=rows)
    features = centers[assignment] + spread * rng.normal(size=(rows, dim))
    ids = [f"v{i}" for i in range(rows)]
    return ids, [int(label) for label in assignment], features
