"""Performance fast paths for the attack/retrieval hot loop.

Three independent optimisations, all behaviour-preserving:

* :mod:`repro.perf.gemm_conv` — im2col + GEMM kernels for conv2d/conv3d
  forward and backward with a per-shape plan cache and reusable scratch
  buffers.  GEMM always: ``repro.nn.functional`` calls these kernels for
  every conv, and the strided-``einsum`` path survives only as the
  :mod:`repro.qa.reference` oracle reference.
* :mod:`repro.perf.cache` — content-hash cache for query embeddings at
  frame granularity (:class:`EmbeddingCache`), used by the retrieval
  engine so repeated queries of unchanged videos skip the model
  forward, and a candidate that changed a few frames of a cached clip
  re-encodes only those (frame-separable victims).
* Batched candidate evaluation lives where the data lives
  (``RetrievalObjective.values``, ``ShardedGallery.search_batch``); this
  package only hosts the compute kernels those paths share.
"""

from repro.perf.cache import EmbeddingCache
from repro.perf.gemm_conv import (
    clear_plan_cache,
    plan_cache_info,
)

__all__ = [
    "EmbeddingCache",
    "clear_plan_cache",
    "plan_cache_info",
]
