"""Hierarchical tracing spans, nested through a context variable.

A *span* is one timed region of the pipeline — a K* rung, a solver
attempt, a cache compute — with a stable ``trace_id``/``span_id`` pair,
a parent link, free-form attributes, a status and a monotonic-clock
duration.  Spans nest through a :mod:`contextvars` context variable, so
``span("kstar.rung", k=4)`` inside ``span("kstar.search")`` records the
parent link automatically, and *events* (:func:`add_event`) attach
point-in-time records — incumbent updates, checkpoint replays — to the
enclosing span.

Tracing is **off by default** and free when off: :func:`span` yields a
shared null handle without allocating, so instrumented code never
branches on "is tracing on".  :func:`configure` installs one or more
sinks (see :mod:`repro.telemetry.sinks`) and turns tracing on; a sink
that raises is disarmed for the record, the event is dropped, the
``telemetry.dropped_events`` counter increments and a warning is queued
for :func:`drain_drop_warnings` — telemetry must never fail a solve.

Worker threads need no plumbing: the
:class:`~repro.runtime.batch.BatchRunner` runs every pool task in a copy
of the caller's :mod:`contextvars` context, so spans opened by a trial
parent under the span that submitted it, and a parallel sweep yields one
coherent span tree.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from collections.abc import Iterator, Sequence
from typing import Any

#: Bump when the JSONL trace record layout changes incompatibly.
TRACE_SCHEMA_VERSION = 1

#: Maximum distinct sink-failure warnings kept for :func:`drain_drop_warnings`.
_MAX_DROP_WARNINGS = 16


def new_id(nbytes: int = 8) -> str:
    """A fresh random hex identifier (16 hex chars by default)."""
    return os.urandom(nbytes).hex()


@dataclass(frozen=True)
class SpanContext:
    """An addressable position in a trace."""

    trace_id: str
    span_id: str


class SpanHandle:
    """A live span: set attributes and attach events while it is open."""

    __slots__ = (
        "name", "context", "parent_id", "attributes",
        "status", "message", "_start_wall", "_start_mono",
    )

    def __init__(
        self,
        name: str,
        context: SpanContext,
        parent_id: str | None,
        attributes: dict[str, Any],
    ) -> None:
        self.name = name
        self.context = context
        self.parent_id = parent_id
        self.attributes = attributes
        self.status = "ok"
        self.message = ""
        self._start_wall = time.time()
        self._start_mono = time.perf_counter()

    @property
    def trace_id(self) -> str:
        """The enclosing trace's id."""
        return self.context.trace_id

    @property
    def span_id(self) -> str:
        """This span's id (cross-linked from e.g. ``SolveAttempt``)."""
        return self.context.span_id

    def set_attribute(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one attribute."""
        self.attributes[key] = value

    def set_attributes(self, **attributes: Any) -> None:
        """Attach several attributes at once."""
        self.attributes.update(attributes)

    def event(self, name: str, **attributes: Any) -> None:
        """Record a point-in-time event parented to this span."""
        _tracer.emit(
            {
                "schema": TRACE_SCHEMA_VERSION,
                "type": "event",
                "trace": self.context.trace_id,
                "span": self.context.span_id,
                "name": name,
                "t": time.time(),
                "attrs": _jsonable_attrs(attributes),
            }
        )

    def _record(self) -> dict[str, Any]:
        return {
            "schema": TRACE_SCHEMA_VERSION,
            "type": "span",
            "trace": self.context.trace_id,
            "span": self.context.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "t": self._start_wall,
            "duration_s": round(time.perf_counter() - self._start_mono, 9),
            "status": self.status,
            "message": self.message,
            "attrs": _jsonable_attrs(self.attributes),
            "pid": os.getpid(),
            "thread": threading.get_ident(),
        }


class _NullSpan:
    """Shared no-op handle yielded when tracing is off."""

    __slots__ = ()
    trace_id = ""
    span_id = ""
    status = "ok"
    message = ""

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def set_attributes(self, **attributes: Any) -> None:
        pass

    def event(self, name: str, **attributes: Any) -> None:
        pass


NULL_SPAN = _NullSpan()

_current: ContextVar[SpanContext | None] = ContextVar(
    "repro_current_span", default=None
)


def _jsonable_attrs(attributes: dict[str, Any]) -> dict[str, Any]:
    """Clamp attribute values to JSON-safe scalars (repr anything else)."""
    out: dict[str, Any] = {}
    for key, value in attributes.items():
        if value is None or isinstance(value, (bool, int, float, str)):
            out[key] = value
        elif isinstance(value, (list, tuple)):
            out[key] = [
                v if isinstance(v, (bool, int, float, str)) else repr(v)
                for v in value
            ]
        else:
            out[key] = repr(value)
    return out


class Tracer:
    """Process-wide span emitter: fan records out to configured sinks.

    One instance per process (:data:`_tracer`); :func:`configure` arms
    it, :func:`shutdown` flushes and disarms.  ``enabled`` is read
    without locking on every :func:`span` call, so the disabled fast
    path costs one attribute load.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sinks: list[Any] = []
        self.enabled = False
        self.dropped_events = 0
        self._drop_warnings: list[str] = []

    def configure(self, sinks: Sequence[Any]) -> None:
        """Install ``sinks`` and enable tracing (replaces prior sinks)."""
        with self._lock:
            self._sinks = list(sinks)
            self.enabled = bool(self._sinks)

    def add_sink(self, sink: Any) -> None:
        """Attach one more sink without disturbing the configured ones.

        Arms the tracer if it was disarmed.  This is how a long-lived
        embedder (the job server) taps the record stream while the CLI's
        ``--trace`` sink keeps writing its file.
        """
        with self._lock:
            self._sinks.append(sink)
            self.enabled = True

    def remove_sink(self, sink: Any) -> None:
        """Detach ``sink`` (idempotent); disarms when none remain."""
        with self._lock:
            self._sinks = [s for s in self._sinks if s is not sink]
            self.enabled = bool(self._sinks)

    def shutdown(self) -> None:
        """Flush and close every sink, then disable tracing."""
        with self._lock:
            sinks, self._sinks = self._sinks, []
            self.enabled = False
        for sink in sinks:
            for hook in ("flush", "close"):
                try:
                    getattr(sink, hook, lambda: None)()
                except Exception:  # noqa: BLE001 - telemetry never raises
                    pass

    def emit(self, record: dict[str, Any]) -> None:
        """Hand ``record`` to every sink; a raising sink drops the record.

        Telemetry is strictly best-effort: a sink failure (disk full,
        closed file, broken pipe) increments ``telemetry.dropped_events``
        and queues a warning, but never propagates into the solve.
        """
        if not self.enabled:
            return
        for sink in list(self._sinks):
            try:
                sink.emit(record)
            except Exception as exc:  # noqa: BLE001 - drop, never raise
                self._drop(sink, exc)

    def _drop(self, sink: Any, exc: Exception) -> None:
        from repro.telemetry.metrics import counter

        with self._lock:
            self.dropped_events += 1
            if len(self._drop_warnings) < _MAX_DROP_WARNINGS:
                self._drop_warnings.append(
                    f"telemetry sink {type(sink).__name__} failed "
                    f"({type(exc).__name__}: {exc}); event dropped"
                )
        counter("telemetry.dropped_events").inc()

    def drain_drop_warnings(self) -> list[str]:
        """Pop the queued sink-failure warnings (each returned once)."""
        with self._lock:
            warnings, self._drop_warnings = self._drop_warnings, []
        return warnings


_tracer = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer."""
    return _tracer


def configure(sinks: Sequence[Any]) -> None:
    """Enable tracing into ``sinks`` (see :mod:`repro.telemetry.sinks`)."""
    _tracer.configure(sinks)


def add_sink(sink: Any) -> None:
    """Attach one more sink to the process tracer (arming it)."""
    _tracer.add_sink(sink)


def remove_sink(sink: Any) -> None:
    """Detach a sink added with :func:`add_sink` (idempotent)."""
    _tracer.remove_sink(sink)


def shutdown() -> None:
    """Flush, close and disable tracing."""
    _tracer.shutdown()


def enabled() -> bool:
    """Whether tracing is currently armed."""
    return _tracer.enabled


def drain_drop_warnings() -> list[str]:
    """Pop queued sink-failure warnings (for result diagnostics)."""
    return _tracer.drain_drop_warnings()


@contextmanager
def span(name: str, **attributes: Any) -> Iterator[SpanHandle | _NullSpan]:
    """Open a span named ``name`` under the current span (if any).

    Free when tracing is off (yields the shared :data:`NULL_SPAN`).  An
    exception escaping the block marks the span ``status="error"`` with
    the exception text and re-raises; the span record is emitted either
    way on exit.
    """
    if not _tracer.enabled:
        yield NULL_SPAN
        return
    parent = _current.get()
    context = SpanContext(
        trace_id=parent.trace_id if parent is not None else new_id(16),
        span_id=new_id(),
    )
    handle = SpanHandle(
        name,
        context,
        parent.span_id if parent is not None else None,
        dict(attributes),
    )
    token = _current.set(context)
    try:
        yield handle
    except BaseException as exc:
        handle.status = "error"
        handle.message = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        _current.reset(token)
        _tracer.emit(handle._record())


def add_event(name: str, **attributes: Any) -> None:
    """Record a point-in-time event under the current span.

    No-op when tracing is off or no span is open (events need a parent).
    """
    if not _tracer.enabled:
        return
    context = _current.get()
    if context is None:
        return
    _tracer.emit(
        {
            "schema": TRACE_SCHEMA_VERSION,
            "type": "event",
            "trace": context.trace_id,
            "span": context.span_id,
            "name": name,
            "t": time.time(),
            "attrs": _jsonable_attrs(attributes),
        }
    )


def current_context() -> SpanContext | None:
    """The innermost open span's context (``None`` outside any span)."""
    return _current.get()
