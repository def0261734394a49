"""Correctness-tooling subsystem: oracles, goldens, invariants.

Three pillars (DESIGN.md §11):

* :mod:`repro.qa.oracle` + :mod:`repro.qa.pairs` — a registry of
  reference/fast implementation pairs (GEMM conv vs einsum, batched vs
  sequential search, cached vs uncached embeddings, replicated vs
  single-shard retrieval, speculative vs sequential attack steps) checked
  on seeded generated inputs with shrink-on-failure.
* :mod:`repro.qa.golden` + :mod:`repro.qa.regen` — compact JSON golden
  traces for the attack loops and one end-to-end experiment, with a
  deterministic regeneration CLI (``python -m repro.qa.regen``).  Tests
  pin each golden on the production trace-replay forward and, under
  :func:`~repro.qa.reference.eager_forwards`, on the eager reference.
* :mod:`repro.qa.invariants` — NaN/Inf autograd guards, query-budget
  conservation, metric range checks, and embed-cache coherence, usable
  as pytest helpers or opt-in runtime guards (``REPRO_QA_NANGUARD=1``).

The mutation hooks in :mod:`repro.qa.mutation` exist to prove the
harness has teeth: a deliberately perturbed conv kernel must be caught
by the oracle.
"""

from repro.qa.comparators import (
    array_digest,
    assert_close,
    assert_retrieval_lists_equal,
)
from repro.qa.concurrency import BarrierHarness, HarnessResult
from repro.qa.generators import Strategy, shrink_int, shrink_to_minimal
from repro.qa.invariants import (
    NumericalFault,
    assert_finite_graph,
    check_budget_conservation,
    check_cache_coherence,
    check_metric_ranges,
    check_snapshot_consistency,
    finite_guard,
    install_runtime_guards,
)
from repro.qa.oracle import (
    OracleFailure,
    OraclePair,
    all_pairs,
    check_pair,
    get_pair,
    register,
)
from repro.qa.reference import eager_forwards

__all__ = [
    "BarrierHarness",
    "HarnessResult",
    "NumericalFault",
    "OracleFailure",
    "OraclePair",
    "Strategy",
    "all_pairs",
    "array_digest",
    "assert_close",
    "assert_finite_graph",
    "assert_retrieval_lists_equal",
    "check_budget_conservation",
    "check_cache_coherence",
    "check_metric_ranges",
    "check_pair",
    "check_snapshot_consistency",
    "eager_forwards",
    "finite_guard",
    "get_pair",
    "install_runtime_guards",
    "register",
    "shrink_int",
    "shrink_to_minimal",
]

install_runtime_guards()
