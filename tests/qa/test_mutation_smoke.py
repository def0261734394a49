"""Mutation smoke test: the harness must catch a deliberately broken kernel.

A 0.1% multiplicative fault injected into the GEMM conv forward is far
below anything an end-to-end smoke run would notice, but the
differential oracle must flag it — and must go green again the moment
the fault is lifted.  This is the "does the alarm actually ring" test
for the whole qa subsystem.
"""

import pytest

from repro.nn import tensor as nn_tensor
from repro.perf import gemm_conv
from repro.qa.mutation import seeded_conv_fault, seeded_fused_fault
from repro.qa.oracle import OracleFailure, get_pair, check_pair


@pytest.mark.parametrize("pair_name", ["conv2d.einsum_vs_gemm",
                                       "conv3d.einsum_vs_gemm"])
def test_conv_fault_is_caught_then_cleared(pair_name, clear_conv_plans):
    pair = get_pair(pair_name)
    with seeded_conv_fault():
        with pytest.raises(OracleFailure) as excinfo:
            check_pair(pair)
    assert excinfo.value.pair_name == pair_name
    # The fault is gone: the exact same pair passes again.
    assert check_pair(pair) == pair.cases


def test_failure_case_is_shrunk_to_minimum(clear_conv_plans):
    pair = get_pair("conv2d.einsum_vs_gemm")
    with seeded_conv_fault():
        with pytest.raises(OracleFailure) as excinfo:
            check_pair(pair)
    case = excinfo.value.case
    # The fault fires on every shape, so greedy shrinking must drive the
    # shrinkable integers all the way down.
    assert case["batch"] == 1
    assert case["in_ch"] == 1
    assert case["out_ch"] == 1


def test_fault_injection_restores_the_kernel():
    original = gemm_conv.conv_forward
    with seeded_conv_fault():
        assert gemm_conv.conv_forward is not original
    assert gemm_conv.conv_forward is original


def test_fault_restores_on_error():
    original = gemm_conv.conv_forward
    with pytest.raises(RuntimeError, match="boom"):
        with seeded_conv_fault():
            raise RuntimeError("boom")
    assert gemm_conv.conv_forward is original


def test_fused_fault_is_caught_then_cleared():
    """A corrupted fused expression must trip ``nn.fused_vs_eager``."""
    pair = get_pair("nn.fused_vs_eager")
    with seeded_fused_fault():
        with pytest.raises(OracleFailure) as excinfo:
            check_pair(pair)
    assert excinfo.value.pair_name == "nn.fused_vs_eager"
    # Fault lifted and trace caches cleared: the same pair passes again.
    assert check_pair(pair) == pair.cases


def test_fused_fault_restores_kernel_and_clears_caches():
    original = nn_tensor._ew_add
    with pytest.raises(RuntimeError, match="boom"):
        with seeded_fused_fault():
            assert nn_tensor._ew_add is not original
            raise RuntimeError("boom")
    assert nn_tensor._ew_add is original
