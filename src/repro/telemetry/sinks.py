"""Pluggable telemetry exporters.

A *sink* is anything with an ``emit(record: dict) -> None`` method; the
tracer (:mod:`repro.telemetry.trace`) fans every span/event record out to
all configured sinks and treats a raising sink as best-effort (the record
is dropped and counted, never re-raised).  Optional ``flush()``/
``close()`` hooks are called on :func:`repro.telemetry.trace.shutdown`.

Provided sinks/exporters:

- :class:`JsonlSink` — append-only JSON Lines trace log.  Each record is
  serialized to one line and written with a single ``write`` call under a
  lock, so concurrent threads never interleave partial lines and a crash
  can clip at most the final line (the same salvage convention as
  :mod:`repro.resilience.checkpoint`).
- :class:`CollectorSink` — in-memory buffer, handy in tests.
- :class:`TraceRouter` — demultiplexes the process-wide record stream
  into per-trace sinks; the server uses it to give every job its own
  live event stream.
- :func:`prometheus_text` — text exposition of a
  :class:`~repro.telemetry.metrics.MetricsRegistry` for the CLI's
  ``--metrics PATH``.
- :func:`render_span_tree` — human-readable tree summary of a finished
  trace, for quick terminal inspection of a JSONL log.
"""

from __future__ import annotations

import io
import json
import threading
from collections.abc import Iterable, Mapping, Sequence
from pathlib import Path
from typing import Any

from repro.telemetry.metrics import MetricsRegistry


class CollectorSink:
    """Buffer records in memory (tests and in-process consumers)."""

    def __init__(self) -> None:
        self.records: list[dict[str, Any]] = []
        self._lock = threading.Lock()

    def emit(self, record: dict[str, Any]) -> None:
        """Append ``record`` to the buffer."""
        with self._lock:
            self.records.append(record)

    def clear(self) -> None:
        """Drop everything buffered so far."""
        with self._lock:
            self.records = []


class TraceRouter:
    """Demultiplex one record stream into per-trace sinks.

    A process emits one interleaved stream of span/event records; the
    router forwards each record to whatever sink its ``trace`` id is
    bound to (:meth:`bind`), falling back to ``default`` for unbound
    traces.  This is how :mod:`repro.server` gives every job its own
    live event stream while jobs from many tenants run concurrently in
    one process: each job binds its root trace id the moment it opens
    its root span.

    Thread-safe; routing an unbound trace with no default counts it in
    ``unrouted`` rather than raising (the tracer treats sinks as
    best-effort anyway).
    """

    def __init__(self, default: Any | None = None) -> None:
        self.default = default
        self.unrouted = 0
        self._routes: dict[str, Any] = {}
        self._lock = threading.Lock()

    def bind(self, trace_id: str, sink: Any) -> None:
        """Route all subsequent records of ``trace_id`` to ``sink``."""
        with self._lock:
            self._routes[trace_id] = sink

    def release(self, trace_id: str) -> Any | None:
        """Stop routing ``trace_id``; returns the sink it had, if any."""
        with self._lock:
            return self._routes.pop(trace_id, None)

    def emit(self, record: dict[str, Any]) -> None:
        """Forward one record to its trace's sink (or the default)."""
        with self._lock:
            sink = self._routes.get(record.get("trace", ""), self.default)
            if sink is None:
                self.unrouted += 1
                return
        sink.emit(record)

    def flush(self) -> None:
        with self._lock:
            sinks = [*self._routes.values(), self.default]
        for sink in sinks:
            flush = getattr(sink, "flush", None)
            if flush is not None:
                flush()


class JsonlSink:
    """Append trace records to ``path`` as JSON Lines.

    Opens lazily on first emit (so configuring tracing costs nothing if
    no span ever fires), appends — never truncates — and writes each
    record as exactly one ``write()`` call of one ``\\n``-terminated
    line, serialized under a lock.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._handle: io.TextIOWrapper | None = None
        self._closed = False

    def emit(self, record: dict[str, Any]) -> None:
        """Serialize and append one record."""
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        with self._lock:
            if self._closed:
                raise ValueError(f"JsonlSink({self.path}) is closed")
            if self._handle is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                self._handle = self.path.open("a", encoding="utf-8")
            self._handle.write(line + "\n")

    def flush(self) -> None:
        """Flush buffered lines to disk."""
        with self._lock:
            if self._handle is not None:
                self._handle.flush()

    def close(self) -> None:
        """Flush and close the underlying file."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
            self._closed = True


def _prom_name(name: str) -> str:
    """Map a dotted metric name to Prometheus charset ([a-zA-Z0-9_:])."""
    return "".join(
        ch if ch.isalnum() or ch in "_:" else "_" for ch in name
    )


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _prom_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{_prom_name(k)}="{_escape_label(str(v))}"'
        for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def _prom_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_text(registry: MetricsRegistry) -> str:
    """Render ``registry`` in the Prometheus text exposition format.

    Dots in metric names become underscores; histograms expand to the
    conventional ``_bucket``/``_sum``/``_count`` series with ``le``
    labels.
    """
    lines: list[str] = []
    seen_types: set[str] = set()
    for instrument in registry.instruments():
        name = _prom_name(instrument.name)
        if name not in seen_types:
            seen_types.add(name)
            lines.append(f"# TYPE {name} {instrument.kind}")
        snap = instrument.snapshot()
        labels = dict(instrument.labels)
        if instrument.kind == "histogram":
            for bound, count in snap["buckets"].items():
                lines.append(
                    f"{name}_bucket{_prom_labels({**labels, 'le': bound})}"
                    f" {count}"
                )
            lines.append(
                f"{name}_sum{_prom_labels(labels)}"
                f" {_prom_number(snap['sum'])}"
            )
            lines.append(
                f"{name}_count{_prom_labels(labels)} {snap['count']}"
            )
        else:
            lines.append(
                f"{name}{_prom_labels(labels)}"
                f" {_prom_number(snap['value'])}"
            )
    return "\n".join(lines) + ("\n" if lines else "")


def read_jsonl(path: str | Path) -> list[dict[str, Any]]:
    """Load a JSONL trace file, tolerating a clipped final line."""
    records: list[dict[str, Any]] = []
    text = Path(path).read_text(encoding="utf-8")
    lines = text.split("\n")
    for i, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if i == len(lines) - 1 or (
                i == len(lines) - 2 and not lines[-1].strip()
            ):
                break  # crash-clipped final line; salvage the rest
            raise
    return records


def render_span_tree(
    records: Iterable[Mapping[str, Any]],
    *,
    events: bool = True,
) -> str:
    """Render trace records as an indented human-readable tree.

    Orphan spans (parent never seen — e.g. a trace clipped mid-write)
    are rendered as extra roots, marked ``(orphan)``.
    """
    spans = [r for r in records if r.get("type") == "span"]
    event_records = [r for r in records if r.get("type") == "event"]
    by_id: dict[str, Mapping[str, Any]] = {r["span"]: r for r in spans}
    children: dict[str | None, list[Mapping[str, Any]]] = {}
    for record in spans:
        parent = record.get("parent")
        if parent is not None and parent not in by_id:
            parent = None  # orphan: promote to root, flag below
        children.setdefault(parent, []).append(record)
    for siblings in children.values():
        siblings.sort(key=lambda r: (r.get("t", 0.0), r.get("span", "")))
    span_events: dict[str, list[Mapping[str, Any]]] = {}
    for record in event_records:
        span_events.setdefault(record.get("span", ""), []).append(record)

    lines: list[str] = []

    def walk(record: Mapping[str, Any], depth: int) -> None:
        indent = "  " * depth
        status = record.get("status", "ok")
        suffix = "" if status == "ok" else f" [{status}]"
        if record.get("parent") is not None and record["parent"] not in by_id:
            suffix += " (orphan)"
        attrs = record.get("attrs") or {}
        attr_text = (
            " " + " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            if attrs
            else ""
        )
        duration = record.get("duration_s", 0.0)
        lines.append(
            f"{indent}{record.get('name', '?')}"
            f" ({duration * 1000:.1f} ms){attr_text}{suffix}"
        )
        if events:
            for ev in sorted(
                span_events.get(record.get("span", ""), []),
                key=lambda r: r.get("t", 0.0),
            ):
                ev_attrs = ev.get("attrs") or {}
                ev_text = (
                    " " + " ".join(
                        f"{k}={v}" for k, v in sorted(ev_attrs.items())
                    )
                    if ev_attrs
                    else ""
                )
                lines.append(f"{indent}  * {ev.get('name', '?')}{ev_text}")
        for child in children.get(record.get("span"), []):
            walk(child, depth + 1)

    for root in children.get(None, []):
        walk(root, 0)
    return "\n".join(lines)


def summarize_trace(path: str | Path) -> str:
    """Read a JSONL trace file and render its span tree."""
    return render_span_tree(read_jsonl(path))


__all__: Sequence[str] = (
    "CollectorSink",
    "JsonlSink",
    "prometheus_text",
    "read_jsonl",
    "render_span_tree",
    "summarize_trace",
)
