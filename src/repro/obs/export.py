"""Writers for observability artifacts under ``results/obs/``.

Two formats cover the two consumption modes:

* :func:`write_metrics_json` — a flat JSON report (metrics snapshot +
  span aggregates + optional extras), the sidecar every ``run_all``
  experiment emits next to its table.
* :func:`write_chrome_trace` — a Chrome-trace-format event file; open it
  at ``chrome://tracing`` (or https://ui.perfetto.dev) to see the span
  tree on a timeline.

Both accept either an absolute path or a bare name, which is resolved
under ``REPRO_OBS_DIR`` (default ``results/obs``).
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.obs.metrics import MetricsRegistry, get_registry
from repro.obs.tracing import Tracer, get_tracer
from repro.utils.envflags import env_str


def obs_dir() -> Path:
    """Output directory for observability artifacts (``REPRO_OBS_DIR``).

    Unset or blank means the default ``results/obs``.
    """
    return Path(env_str("REPRO_OBS_DIR", "results/obs"))


def _resolve(path_or_name: str | Path, suffix: str) -> Path:
    path = Path(path_or_name)
    if path.suffix != ".json":
        path = obs_dir() / f"{path.name}{suffix}"
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def metrics_report(registry: MetricsRegistry | None = None,
                   tracer: Tracer | None = None,
                   extra: dict | None = None) -> dict:
    """Build the flat JSON report without writing it."""
    registry = registry if registry is not None else get_registry()
    tracer = tracer if tracer is not None else get_tracer()
    report = {
        "generated_unix": time.time(),
        "metrics": registry.snapshot(),
        "spans": tracer.aggregate(),
        "dropped_span_records": tracer.dropped_records,
    }
    if extra:
        report["extra"] = extra
    return report


def write_metrics_json(path_or_name: str | Path,
                       registry: MetricsRegistry | None = None,
                       tracer: Tracer | None = None,
                       extra: dict | None = None) -> Path:
    """Write the flat metrics report; returns the resolved path."""
    path = _resolve(path_or_name, ".metrics.json")
    report = metrics_report(registry=registry, tracer=tracer, extra=extra)
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return path


def write_chrome_trace(path_or_name: str | Path,
                       tracer: Tracer | None = None) -> Path:
    """Write the span tree as a ``chrome://tracing`` event file."""
    tracer = tracer if tracer is not None else get_tracer()
    path = _resolve(path_or_name, ".trace.json")
    document = {
        "traceEvents": tracer.events(),
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs",
                      "dropped_records": tracer.dropped_records},
    }
    path.write_text(json.dumps(document) + "\n")
    return path
