"""Slow reference implementations the differential oracles compare against.

Production ops have exactly one implementation each; the slower
equivalents they replaced live here, used only as the reference side of
an oracle pair (and as the historical "before" leg of the hot-path
bench).

* :func:`conv2d` / :func:`conv3d` — the strided-``einsum`` convolutions:
  a ``sliding_window_view`` over the padded input contracted with the
  weights, gradients by ``einsum`` plus one scatter-add per kernel
  offset.  Same signature and autograd contract as
  :func:`repro.nn.functional.conv2d` / ``conv3d`` (which run the im2col
  GEMM kernels of :mod:`repro.perf.gemm_conv`); outputs and gradients
  agree within ``allclose``.  They record no trace-replay rule, so a
  trace that meets one falls back to eager.
* :func:`max_pool3d` — max pooling whose backward locates each
  window's argmaxes through the 8-D ``(B, C, T', H', W', kt, kh, kw)``
  window view; :func:`repro.nn.functional.max_pool3d` computes the same
  masks and tie counts slab by slab, byte for byte.
* :func:`eager_forwards` — runs every
  :meth:`~repro.models.feature_extractor.FeatureExtractor.embed_videos`
  and :meth:`~repro.models.feature_extractor.FeatureExtractor.embed_tensor`
  inside the block on the eager forward instead of the production trace
  replay, so one scenario can be pinned on both paths.
* :class:`SequentialObjective` / :func:`sequential_attack` — one query
  per candidate (no speculated ±ε pairs, no batched NES probes): the
  reference for the evaluation path of :mod:`repro.attacks.search`.
* :func:`replay_sequential` — a serving timeline (requests, optionally
  interleaved with gallery events) replayed one query at a time against
  the bare service: the reference for
  :class:`~repro.serving.frontend.ServingFrontend`.
"""

from __future__ import annotations

import contextlib

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from repro.errors import QueryBudgetExceeded, RetrievalUnavailable
from repro.hashindex.compaction import CompactionPolicy
from repro.nn.tensor import Tensor, make_op
from repro.obs import counter
from repro.serving.admission import AdmissionController
from repro.serving.config import ServingConfig
from repro.serving.events import apply_gallery_event, canonical_order
from repro.serving.frontend import Response, ServingReport

#: Subscript letters for output positions and kernel offsets, by rank.
_POS = "thw"
_KER = "ijk"


def _expand(value, rank: int) -> tuple[int, ...]:
    if isinstance(value, (tuple, list)):
        if len(value) != rank:
            raise ValueError(f"expected {rank} values, got {value!r}")
        return tuple(int(v) for v in value)
    return (int(value),) * rank


def _conv_einsum(x: Tensor, weight: Tensor, bias: Tensor | None,
                 stride, padding, op: str) -> Tensor:
    """Rank-generic strided-einsum convolution (forward + backward)."""
    rank = weight.ndim - 2
    stride = _expand(stride, rank)
    padding = _expand(padding, rank)
    if weight.shape[1] != x.shape[1]:
        raise ValueError(f"channel mismatch: input has {x.shape[1]}, "
                         f"weight expects {weight.shape[1]}")
    kernel = weight.shape[2:]
    spatial = x.shape[2:]
    pos, ker = _POS[-rank:], _KER[:rank]
    axes = tuple(range(2, 2 + rank))
    every = (slice(None), slice(None))

    padded = np.pad(x.data, ((0, 0), (0, 0)) + tuple((p, p) for p in padding))
    windows = sliding_window_view(padded, kernel, axis=axes)[
        every + tuple(slice(None, None, s) for s in stride)]
    out = np.einsum(f"bc{pos}{ker},fc{ker}->bf{pos}", windows, weight.data,
                    optimize=True)
    if bias is not None:
        out = out + bias.data.reshape((1, -1) + (1,) * rank)
    out_spatial = out.shape[2:]

    parents = (x, weight) if bias is None else (x, weight, bias)

    def backward(grad, fwd=None):
        grad_w = None
        if weight.requires_grad:
            grad_w = np.einsum(f"bc{pos}{ker},bf{pos}->fc{ker}", windows,
                               grad, optimize=True)
        grad_x = None
        if x.requires_grad:
            grad_padded = np.zeros_like(padded)
            for offset in np.ndindex(*kernel):
                contrib = np.einsum(f"bf{pos},fc->bc{pos}", grad,
                                    weight.data[every + offset],
                                    optimize=True)
                grad_padded[every + tuple(
                    slice(o, o + n * s, s)
                    for o, n, s in zip(offset, out_spatial, stride))] += contrib
            grad_x = grad_padded[every + tuple(
                slice(p, p + n) for p, n in zip(padding, spatial))]
        if bias is None:
            return grad_x, grad_w
        grad_b = grad.sum(axis=(0,) + axes) if bias.requires_grad else None
        return grad_x, grad_w, grad_b

    return make_op(out, parents, backward, op)


def conv2d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=1, padding=0) -> Tensor:
    """Reference 2-D convolution (strided einsum); op name ``conv2d``."""
    return _conv_einsum(x, weight, bias, stride, padding, "conv2d")


def conv3d(x: Tensor, weight: Tensor, bias: Tensor | None = None,
           stride=1, padding=0) -> Tensor:
    """Reference 3-D convolution (strided einsum); op name ``conv3d``."""
    return _conv_einsum(x, weight, bias, stride, padding, "conv3d")


def max_pool3d(x: Tensor, kernel_size, stride=None) -> Tensor:
    """Reference max pooling (window-view masks); op name ``max_pool3d``."""
    kernel = _expand(kernel_size, 3)
    stride = kernel if stride is None else _expand(stride, 3)
    windows = sliding_window_view(x.data, kernel, axis=(2, 3, 4))[
        :, :, ::stride[0], ::stride[1], ::stride[2]]
    out = windows.max(axis=(5, 6, 7))
    out_spatial = out.shape[2:]

    def backward(grad, fwd=None):
        grad_x = np.zeros_like(x.data)
        # Distribute each output's gradient to the argmax inside its window.
        mask = windows == out[..., None, None, None]
        # Normalize ties so the gradient total is preserved.
        weights = mask / mask.sum(axis=(5, 6, 7), keepdims=True)
        contrib = weights * grad[..., None, None, None]
        for offset in np.ndindex(*kernel):
            grad_x[(slice(None), slice(None)) + tuple(
                slice(o, o + n * s, s)
                for o, n, s in zip(offset, out_spatial, stride))] += \
                contrib[(Ellipsis, *offset)]
        return (grad_x,)

    return make_op(out, (x,), backward, "max_pool3d")


@contextlib.contextmanager
def eager_forwards():
    """Force the eager reference forward for every embed in the block.

    Covers the no-grad video embeds and the differentiable
    ``embed_tensor`` the surrogate-gradient attacks call.  Patches the
    class methods for the whole process, so it is meant for
    single-threaded tests and oracle runs; nesting is safe.
    """
    from repro.models.feature_extractor import FeatureExtractor

    replayed = FeatureExtractor.embed_videos, FeatureExtractor.embed_tensor

    def eager(self, videos, batch_size=16, fuse=True, **cache):
        return replayed[0](self, videos, batch_size=batch_size, fuse=False,
                           **cache)

    FeatureExtractor.embed_videos = eager
    FeatureExtractor.embed_tensor = FeatureExtractor.__call__
    try:
        yield
    finally:
        FeatureExtractor.embed_videos, FeatureExtractor.embed_tensor = \
            replayed


class SequentialObjective:
    """``objective`` with one query per candidate: :meth:`speculate`
    returns nothing, so the ±ε loop sends each candidate as a real
    ``value`` query, and :meth:`values` loops ``value``.  Every other
    attribute (``queries``, ``trace``, checkpoint restores) reads and
    writes the wrapped objective."""

    def __init__(self, objective) -> None:
        object.__setattr__(self, "_objective", objective)

    def __getattr__(self, name: str):
        return getattr(self._objective, name)

    def __setattr__(self, name: str, value) -> None:
        setattr(self._objective, name, value)

    def speculate(self, candidates: list) -> list[float]:
        return []

    def values(self, candidates: list) -> list[float]:
        return [self._objective.value(candidate) for candidate in candidates]


def sequential_attack(attack):
    """A querying composed ``attack``, run on :class:`SequentialObjective`."""
    build = attack.feedback.build_objective
    attack.feedback.build_objective = \
        lambda *args: SequentialObjective(build(*args))
    return attack


def replay_sequential(items: list, service,
                      config: ServingConfig | None = None) -> ServingReport:
    """Replay a timeline one query at a time against a bare service.

    The oracle reference for
    :class:`~repro.serving.frontend.ServingFrontend`: the same admission
    rules (token buckets and tenant budgets depend only on arrival
    times, so their decisions are batching-invariant), but every
    admitted request goes straight through ``service.query`` in the
    canonical arrival order with no queueing or coalescing.  Gallery
    events in ``items`` apply at their place in that order, so each
    query sees the gallery current at its arrival.  Under a no-shed
    load the front end must match it exactly — retrieval lists,
    per-tenant served counts, applied events, and the service's query
    ledger.
    """
    config = config if config is not None else ServingConfig()
    arrivals = canonical_order(items)
    policy = CompactionPolicy(config.compact_dead_fraction,
                              config.compact_min_dead)
    admission = AdmissionController(config)
    responses: dict[int, Response] = {}
    applied = 0
    last_s = 0.0
    for index, item in arrivals:
        now = item.arrival_s
        last_s = max(last_s, now)
        if index is None:
            apply_gallery_event(service.engine, item, policy)
            applied += 1
            continue
        counter("serving.requests", tenant=item.tenant).inc()
        rejection = admission.admit(item.tenant, now)
        if rejection is not None:
            responses[index] = Response(
                item, "rejected", reason=rejection.reason,
                retry_after_s=rejection.retry_after_s, completed_s=now)
            continue
        try:
            result = service.query(item.video)
        except QueryBudgetExceeded as exc:
            admission.refund(item.tenant)
            responses[index] = Response(item, "budget",
                                        reason="global_budget", error=exc,
                                        completed_s=now)
            continue
        except RetrievalUnavailable as exc:
            admission.refund(item.tenant)
            responses[index] = Response(item, "unavailable",
                                        reason="retrieval_unavailable",
                                        error=exc, completed_s=now)
            continue
        admission.mark_served(item.tenant)
        responses[index] = Response(item, "ok", result=result,
                                    completed_s=now, latency_s=0.0,
                                    batch_size=1)
    served = sum(1 for response in responses.values() if response.ok)
    return ServingReport(
        responses=[responses[index] for index in range(len(responses))],
        served_by_tenant=admission.served_by_tenant(),
        makespan_s=last_s,
        batches=served,
        dispatched=served,
        gallery_events=applied,
    )


__all__ = ["SequentialObjective", "conv2d", "conv3d", "eager_forwards",
           "max_pool3d", "replay_sequential", "sequential_attack"]
