"""The differential-oracle registry.

An :class:`OraclePair` declares a reference implementation, a fast
implementation, a seeded input :class:`~repro.qa.generators.Strategy`,
and a comparator — once.  :func:`check_pair` then drives both sides on
generated cases, and on disagreement shrinks the case to a locally
minimal counterexample before raising :class:`OracleFailure`.

Pairs register themselves at import of :mod:`repro.qa.pairs`; the
``tests/qa`` driver parametrizes one pytest per registered pair, so a
new equivalence contract needs one ``register()`` call and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.qa.comparators import assert_close
from repro.qa.generators import Strategy, shrink_to_minimal


class OracleFailure(AssertionError):
    """A reference/fast pair disagreed; carries the minimal case."""

    def __init__(self, pair_name: str, case: dict, cause: Exception) -> None:
        self.pair_name = pair_name
        self.case = case
        self.cause = cause
        summary = "\n".join(
            f"  {key} = {_summarize(value)}" for key, value in case.items())
        super().__init__(
            f"oracle pair {pair_name!r} disagreed on minimal case:\n"
            f"{summary}\n{type(cause).__name__}: {cause}")


def _summarize(value) -> str:
    if isinstance(value, np.ndarray):
        return f"ndarray(shape={value.shape}, dtype={value.dtype})"
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


@dataclass
class OraclePair:
    """One reference/fast equivalence contract.

    ``reference`` and ``fast`` both receive the case dict (expanded as
    keyword arguments) and return a comparable result; ``compare`` is
    ``compare(reference_result, fast_result)`` raising ``AssertionError``
    on mismatch (defaults to :func:`repro.qa.comparators.assert_close`).
    """

    name: str
    reference: Callable
    fast: Callable
    strategy: Strategy
    compare: Callable = assert_close
    cases: int = 4
    seed: int = 20240
    description: str = ""

    def check_case(self, case: dict) -> None:
        """Run both sides on one case and compare (raises on mismatch)."""
        self.compare(self.reference(**case), self.fast(**case))

    def _fails(self, case: dict) -> bool:
        try:
            self.check_case(case)
        except AssertionError:
            return True
        return False


_REGISTRY: dict[str, OraclePair] = {}


def register(pair: OraclePair) -> OraclePair:
    """Add a pair to the registry (name must be unique)."""
    if pair.name in _REGISTRY:
        raise ValueError(f"oracle pair {pair.name!r} already registered")
    _REGISTRY[pair.name] = pair
    return pair


def all_pairs() -> dict[str, OraclePair]:
    """Registered pairs by name (imports the built-in declarations)."""
    import repro.qa.pairs  # noqa: F401 — populates the registry

    return dict(_REGISTRY)


def get_pair(name: str) -> OraclePair:
    """Look up one registered pair."""
    pairs = all_pairs()
    if name not in pairs:
        raise KeyError(
            f"unknown oracle pair {name!r}; known: {sorted(pairs)}")
    return pairs[name]


def check_pair(pair: OraclePair, seed: int | None = None,
               cases: int | None = None) -> int:
    """Drive one pair over seeded cases; returns the number checked.

    On a disagreement the failing case is shrunk to a locally minimal
    counterexample and re-raised as :class:`OracleFailure`.
    """
    seed = pair.seed if seed is None else int(seed)
    cases = pair.cases if cases is None else int(cases)
    rng = np.random.default_rng(seed)
    for _ in range(cases):
        case = pair.strategy.sample(rng)
        try:
            pair.check_case(case)
        except AssertionError as error:
            minimal = shrink_to_minimal(pair.strategy, case, pair._fails)
            try:
                pair.check_case(minimal)
            except AssertionError as minimal_error:
                error = minimal_error
            raise OracleFailure(pair.name, minimal, error) from error
    return cases
