"""Fixtures exposing the qa invariant checkers to the test suite."""

import pytest

from repro.perf import gemm_conv
from repro.qa.invariants import (
    check_budget_conservation,
    check_cache_coherence,
    finite_guard,
)
from repro.qa.world import build_world


@pytest.fixture
def clear_conv_plans():
    """Drop the conv plan cache after a test."""
    yield
    gemm_conv.clear_plan_cache()


@pytest.fixture
def finite_autograd():
    """Run the test body under the NaN/Inf autograd guard."""
    with finite_guard():
        yield


@pytest.fixture
def budget_ledger():
    """The budget-conservation checker, for use as a teardown assertion."""
    return check_budget_conservation


@pytest.fixture
def cache_coherence():
    """The embed-cache coherence checker."""
    return check_cache_coherence


@pytest.fixture(scope="module")
def qa_world():
    """One tiny deterministic retrieval world shared per test module."""
    return build_world(31, cache_size=0)
