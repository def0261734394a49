"""Deterministic random-number management.

Every stochastic component in the library (dataset synthesis, model
initialization, attack search) accepts either an integer seed or a
``numpy.random.Generator``.  Centralizing the conversion here keeps
experiments reproducible end to end.
"""

from __future__ import annotations

import zlib

import numpy as np

_GLOBAL_SEED: int | None = None


def set_global_seed(seed: int) -> None:
    """Set a process-wide default seed used when a component gets none."""
    global _GLOBAL_SEED
    _GLOBAL_SEED = int(seed)
    np.random.seed(seed)


def seeded_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Return a ``numpy.random.Generator`` for ``seed``.

    Accepts an existing generator (returned unchanged), an integer, or
    ``None`` (falls back to the global seed, else OS entropy).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = _GLOBAL_SEED
    return np.random.default_rng(seed)


class SeedSequence:
    """Deterministically derive independent child seeds from a root seed.

    Used by experiment runners so that, e.g., each (dataset, model, attack)
    cell of a results table gets its own reproducible stream.

    >>> ss = SeedSequence(7)
    >>> a, b = ss.child("dataset"), ss.child("model")
    >>> a != b
    True
    >>> SeedSequence(7).child("dataset") == a
    True
    """

    def __init__(self, root: int) -> None:
        self.root = int(root)

    def child(self, *labels: object) -> int:
        """Derive a 32-bit child seed from the root seed and label path."""
        key = "/".join(str(label) for label in labels)
        mixed = np.random.SeedSequence(
            [self.root, *(ord(c) for c in key)]
        ).generate_state(1)[0]
        return int(mixed)

    def rng(self, *labels: object) -> np.random.Generator:
        """Return a generator seeded by :meth:`child`."""
        return np.random.default_rng(self.child(*labels))


def keyed_rng(seed: int, label: str, *words: int) -> np.random.Generator:
    """A Philox generator that is a pure function of ``(seed, label,
    *words)``: the key is ``(seed, crc32(label))`` and up to three words
    fill the counter's high words, so no state carries between calls."""
    counter = [0] * (4 - len(words)) + [int(w) % 2**64 for w in words[::-1]]
    return np.random.Generator(np.random.Philox(
        key=[int(seed) % 2**64, zlib.crc32(str(label).encode())],
        counter=counter))
