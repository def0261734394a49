"""Per-layer self time, recorded from the benchmark around each layer's calls.

:class:`LayerClock` wraps the entry points of every layer a query passes
through (serving front end, attack driver, retrieval service, engine,
victim model, gallery scatter, index scan, merge) and charges each call's
*self* time — its duration minus the time spent in wrapped calls it made
— to the layer's name.  Stacks are per thread, so compute on serving
worker threads is attributed to its own layers; the loop thread's wait
for a worker's result counts as ``serving.settle`` time.

Inside the victim forward, a module call hook splits model time by op
family (conv, norm, LSTM, linear, activation); module times there
are inclusive leaf-module times, a breakdown of ``model.forward``, not
separate layers.

Nothing here changes what the program computes: wrappers pass arguments
and results through unchanged and are removed by :meth:`uninstall`.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict

#: Layers in the order a query meets them; every one is reported, even
#: when a workload never enters it (its time is then 0).
LAYERS = (
    "serving.loop", "serving.admit", "serving.dispatch", "serving.settle",
    "serving.churn", "attack.driver", "attack.transfer", "attack.search",
    "service", "service.prepare", "engine.embed", "model.forward",
    "gallery.snapshot", "gallery.scatter", "index.scan", "gallery.merge",
)

#: Leaf module class → op family reported under ``op.<family>`` (the
#: victim's ResNet+LSTM has no pooling modules).
OP_FAMILIES = {
    "Conv3d": "conv", "Conv2d": "conv",
    "BatchNorm": "norm", "LayerNorm": "norm",
    "LSTM": "lstm",
    "Linear": "linear",
    "ReLU": "act", "Sigmoid": "act", "Tanh": "act",
}
OPS = ("conv", "norm", "lstm", "linear", "act")


def _targets():
    """``(owner, attribute, layer)`` for every class-level entry point."""
    from repro.attacks.strategy import composed, feedback, samplers
    from repro.attacks.strategy.bases import PixelBasis
    from repro.retrieval import engine, nodes, service
    from repro.serving import frontend

    front = frontend.ServingFrontend
    gallery = nodes.ShardedGallery
    svc = service.RetrievalService
    return [
        (front, "run", "serving.loop"),
        (front, "_admit", "serving.admit"),
        (front, "_dispatch", "serving.dispatch"),
        (front, "_dispatch_pooled", "serving.dispatch"),
        (front, "_deliver", "serving.settle"),
        (front, "_settle_flight", "serving.settle"),
        (frontend, "apply_gallery_event", "serving.churn"),
        (composed.ComposedAttack, "run", "attack.driver"),
        (samplers.TransferSampler, "sample", "attack.transfer"),
        (PixelBasis, "prepare", "attack.search"),
        (feedback.SimbaFeedback, "optimize", "attack.search"),
        (svc, "query", "service"),
        (svc, "query_batch", "service"),
        (svc, "begin_batch", "service"),
        (svc, "compute_batch", "service"),
        (svc, "speculate", "service"),
        (svc, "commit_speculated", "service"),
        (svc, "_prepare", "service.prepare"),
        (engine.RetrievalEngine, "embed_queries", "engine.embed"),
        (gallery, "snapshot", "gallery.snapshot"),
        (gallery, "search", "gallery.scatter"),
        (gallery, "search_batch", "gallery.scatter"),
        (nodes.DataNode, "search", "index.scan"),
        (nodes.DataNode, "search_batch", "index.scan"),
        (gallery, "_snapshot_search_one", "index.scan"),
        (gallery, "_snapshot_search_batch", "index.scan"),
        (gallery, "_merge", "gallery.merge"),
    ]


class LayerClock:
    """Self-time accounting for wrapped layer entry points."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._records: list[dict] = []
        self._installed: list[tuple[object, str, object]] = []
        self._saved_hook = None

    # -------------------------------------------------------------- #
    # Recording
    # -------------------------------------------------------------- #
    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            record = {"self_s": defaultdict(float), "calls": defaultdict(int),
                      "op_s": defaultdict(float)}
            with self._lock:
                self._records.append(record)
            state = self._local.state = ([], record)
        return state

    def wrap(self, layer: str, fn):
        """``fn`` with its self time charged to ``layer``."""
        clock = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack, record = clock._thread_state()
            frame = [layer, 0.0]  # [layer, time spent in wrapped children]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                record["self_s"][layer] += elapsed - frame[1]
                record["calls"][layer] += 1
                if stack:
                    stack[-1][1] += elapsed
        return timed

    def _on_module(self, module_type: str, seconds: float) -> None:
        family = OP_FAMILIES.get(module_type)
        if family is None:
            return
        stack, record = self._thread_state()
        if stack and stack[-1][0] == "model.forward":
            record["op_s"][family] += seconds

    # -------------------------------------------------------------- #
    # Install / remove
    # -------------------------------------------------------------- #
    def install(self, victim_extractor) -> None:
        """Wrap every layer entry point plus the victim's forward."""
        from repro.nn import modules

        for owner, attribute, layer in _targets():
            original = getattr(owner, attribute)
            self._installed.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(layer, original))
        # Instance-level, so the surrogate's forwards stay out of it.
        victim_extractor.embed_videos = self.wrap(
            "model.forward", victim_extractor.embed_videos)
        self._installed.append((victim_extractor, "embed_videos", None))
        self._saved_hook = modules.get_call_hook()
        modules.set_call_hook(self._on_module)

    def uninstall(self) -> None:
        """Restore every wrapped attribute and the module hook."""
        from repro.nn import modules

        modules.set_call_hook(self._saved_hook)
        for owner, attribute, original in reversed(self._installed):
            if original is None:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._installed.clear()

    # -------------------------------------------------------------- #
    # Totals
    # -------------------------------------------------------------- #
    def totals(self) -> tuple[dict, dict, dict]:
        """``(self_s, calls, op_s)`` summed over every thread."""
        self_s, calls, op_s = defaultdict(float), defaultdict(int), \
            defaultdict(float)
        with self._lock:
            for record in self._records:
                for key, value in record["self_s"].items():
                    self_s[key] += value
                for key, value in record["calls"].items():
                    calls[key] += value
                for key, value in record["op_s"].items():
                    op_s[key] += value
        return self_s, calls, op_s

    def reset(self) -> None:
        """Zero every total (wrappers stay installed)."""
        with self._lock:
            for record in self._records:
                for table in record.values():
                    table.clear()
