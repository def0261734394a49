"""Binary Hamming-code index with exact rerank.

The gallery is stored as ``nbits``-bit sign codes packed into ``uint64``
words (16 bytes per row at 128 bits, vs 8·d bytes of float features); a
search XOR+popcounts the whole code table, over-fetches the ``rerank``
nearest codes, and rescores exactly those rows against the float
features.  This is the compressed tier production deep-hash retrieval
runs on (HashNet-style), and the surface QAIR/SAAT-style hash attacks
target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.hashindex.base import Build, CompressedIndex
from repro.hashindex.codes import create_coder, hamming_topk
from repro.hashindex.store import MemmapStore
from repro.retrieval.similarity import SimilarityFn, negative_l2


@dataclass(frozen=True)
class HammingBuild(Build):
    """A :class:`Build` plus the fitted coder and the packed codes."""

    coder: object
    codes: np.ndarray


class BinaryHashIndex(CompressedIndex):
    """Packed binary codes + popcount Hamming top-k + exact rerank.

    Parameters
    ----------
    nbits:
        Code length; packed into ``ceil(nbits / 64)`` uint64 words.
    coder:
        ``"lsh"`` (sign of random projection) or ``"itq"`` (PCA + ITQ
        rotation, better recall at equal bits).
    rerank:
        Candidate depth the Hamming scan over-fetches for exact rescoring.
    """

    tier = "hamming"

    def __init__(self, nbits: int = 128, coder: str = "lsh",
                 similarity: SimilarityFn = negative_l2, rerank: int = 64,
                 rng=None, *, store: MemmapStore | None = None,
                 memmap: bool = False) -> None:
        super().__init__(similarity=similarity, rerank=rerank, rng=rng,
                         store=store, memmap=memmap)
        self.nbits = int(nbits)
        self.coder_name = str(coder)

    # ------------------------------------------------------------------ #
    def _build(self, rows: int, exact: np.ndarray, matrix: np.ndarray,
               rng: np.random.Generator) -> HammingBuild:
        coder = create_coder(self.coder_name, self.nbits, rng=rng).fit(matrix)
        codes = self._put("hamming_codes", rows, coder.encode(matrix))
        return HammingBuild(rows, exact, coder, codes)

    def _candidates(self, built: HammingBuild, queries: np.ndarray,
                    depth: int) -> list[np.ndarray]:
        indexes, _ = hamming_topk(built.coder.encode(queries), built.codes,
                                  depth)
        return list(indexes)

    def _resident_payload_bytes(self, built: HammingBuild) -> int:
        codes = 0 if self.store is not None else int(built.codes.nbytes)
        return codes + int(built.coder._projection.nbytes) \
            + int(built.coder._mean.nbytes)


__all__ = ["BinaryHashIndex"]
