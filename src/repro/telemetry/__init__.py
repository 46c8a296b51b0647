"""repro.telemetry — tracing spans, metrics, and solver progress.

The observability layer of the repro: hierarchical spans over the whole
pipeline (:mod:`repro.telemetry.trace`), a process-wide metrics registry
(:mod:`repro.telemetry.metrics`), solver incumbent trajectories
(:mod:`repro.telemetry.progress`), and pluggable exporters
(:mod:`repro.telemetry.sinks`).  The JSONL trace format is published and
validated by :mod:`repro.telemetry.schema`.

Typical use from the CLI is ``--trace PATH`` / ``--metrics PATH``;
programmatic use::

    from repro import telemetry

    telemetry.configure([telemetry.JsonlSink("trace.jsonl")])
    try:
        with telemetry.span("my.workload", size=12):
            ...
    finally:
        telemetry.shutdown()

See ``docs/observability.md`` for the record schemas.
"""

from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    counter,
    gauge,
    get_registry,
    histogram,
)
from repro.telemetry.progress import ProgressEvent, SolveProgress
from repro.telemetry.sinks import (
    CollectorSink,
    JsonlSink,
    TraceRouter,
    prometheus_text,
    read_jsonl,
    render_span_tree,
    summarize_trace,
)
from repro.telemetry.trace import (
    NULL_SPAN,
    TRACE_SCHEMA_VERSION,
    SpanContext,
    SpanHandle,
    Tracer,
    add_event,
    add_sink,
    configure,
    current_context,
    drain_drop_warnings,
    enabled,
    get_tracer,
    remove_sink,
    shutdown,
    span,
)

__all__ = [
    "DEFAULT_BUCKETS",
    "NULL_SPAN",
    "TRACE_SCHEMA_VERSION",
    "CollectorSink",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricsRegistry",
    "ProgressEvent",
    "SolveProgress",
    "SpanContext",
    "SpanHandle",
    "TraceRouter",
    "Tracer",
    "add_event",
    "add_sink",
    "configure",
    "counter",
    "current_context",
    "drain_drop_warnings",
    "enabled",
    "gauge",
    "get_registry",
    "get_tracer",
    "histogram",
    "prometheus_text",
    "read_jsonl",
    "remove_sink",
    "render_span_tree",
    "shutdown",
    "span",
    "summarize_trace",
]
