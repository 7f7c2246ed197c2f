"""repro.obs — span tracing, rank-aware metrics, and cross-process
telemetry aggregation.

The observability layer for the parallel-training reproduction:

* :mod:`repro.obs.trace` — low-overhead span tracer (off by default,
  single attribute-check fast path) with wall-clock-anchored
  timestamps and thread-local rank context.  Its flag is the one
  observability switch: ``trace.tracing()`` turns spans and metrics
  on together, and ``trace.reset()`` clears both.
* :mod:`repro.obs.metrics` — rank-aware counters / gauges / log-bucket
  histograms that record while the tracer is on, plus the rank
  heartbeat the process-backend supervisor watches for stalls.
* :mod:`repro.obs.export` — JSONL / Chrome-trace exporters and the
  per-rank compute-vs-communication summary table.
* :mod:`repro.obs.metrics_export` — Prometheus text exposition,
  ``repro-metrics-v1`` JSONL, and the human metrics summary.
* :mod:`repro.obs.aggregate` — :class:`TraceBundle` capture/absorb for
  shipping rank telemetry (spans + metrics) from
  process-backend workers to the parent, including post-mortem on
  abort.
* :mod:`repro.obs.callback` — :class:`ObsCallback`, the engine metrics
  emitter (loss / grad norm / lr / throughput).
* :mod:`repro.obs.log` — rank-tagged stdlib logging for progress
  output.

``trace`` and ``log`` load eagerly (they are stdlib-only and imported
from the lowest layers); the rest — including ``metrics``, which is
stdlib-only too but only needed by instrumented paths — resolves
lazily so importing ``repro.obs`` stays cheap.
"""

from __future__ import annotations

from . import log, trace
from .log import configure, get_logger, progress
from .trace import Metric, Span

__all__ = [
    "trace",
    "log",
    "Span",
    "Metric",
    "configure",
    "get_logger",
    "progress",
    "TraceBundle",
    "capture",
    "absorb",
    "ObsCallback",
    "write_jsonl",
    "read_jsonl",
    "write_chrome_trace",
    "summary",
    "format_summary",
    "write_summary",
    "metrics",
    "metrics_export",
    "prometheus_exposition",
    "write_prometheus",
    "write_metrics_jsonl",
    "read_metrics_jsonl",
    "format_metrics_summary",
]

_LAZY = {
    "TraceBundle": "aggregate",
    "capture": "aggregate",
    "absorb": "aggregate",
    "ObsCallback": "callback",
    "write_jsonl": "export",
    "read_jsonl": "export",
    "write_chrome_trace": "export",
    "summary": "export",
    "format_summary": "export",
    "write_summary": "export",
    "prometheus_exposition": "metrics_export",
    "write_prometheus": "metrics_export",
    "write_metrics_jsonl": "metrics_export",
    "read_metrics_jsonl": "metrics_export",
    "format_metrics_summary": "metrics_export",
    "aggregate": "aggregate",
    "callback": "callback",
    "export": "export",
    "metrics": "metrics",
    "metrics_export": "metrics_export",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro.obs' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    return module if name == module_name else getattr(module, name)
