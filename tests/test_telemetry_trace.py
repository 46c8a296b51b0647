"""Tests for the tracing spans, events and sink-failure isolation."""

import os

import pytest

from repro.telemetry.sinks import CollectorSink
from repro.telemetry.trace import (
    NULL_SPAN,
    add_event,
    configure,
    current_context,
    drain_drop_warnings,
    enabled,
    get_tracer,
    new_id,
    shutdown,
    span,
)


@pytest.fixture()
def collector():
    """Arm the tracer with one in-memory sink; disarmed by conftest."""
    sink = CollectorSink()
    configure([sink])
    return sink


class TestDisabled:
    def test_span_yields_shared_null_handle(self):
        assert not enabled()
        with span("anything", k=4) as handle:
            assert handle is NULL_SPAN
            handle.set_attribute("x", 1)  # all no-ops
            handle.set_attributes(y=2)
            handle.event("ev")
        assert handle.span_id == ""

    def test_add_event_is_a_noop(self):
        add_event("nobody.listens")
        assert current_context() is None


class TestSpans:
    def test_nesting_links_parent_and_shares_trace(self, collector):
        with span("outer") as outer:
            with span("inner", k=3) as inner:
                assert inner.trace_id == outer.trace_id
                assert inner.parent_id == outer.span_id
        # Children close (and emit) before their parent.
        names = [r["name"] for r in collector.records]
        assert names == ["inner", "outer"]
        inner_rec, outer_rec = collector.records
        assert outer_rec["parent"] is None
        assert inner_rec["parent"] == outer_rec["span"]
        assert inner_rec["attrs"] == {"k": 3}
        assert inner_rec["duration_s"] >= 0
        assert outer_rec["pid"] == os.getpid()

    def test_ids_are_fresh_hex(self, collector):
        with span("a") as a:
            pass
        with span("b") as b:
            pass
        assert len(a.trace_id) == 32 and len(a.span_id) == 16
        int(a.trace_id, 16)  # raises if not hex
        assert a.trace_id != b.trace_id  # siblings without a root split
        assert len(new_id(4)) == 8

    def test_exception_marks_error_and_reraises(self, collector):
        with pytest.raises(ValueError, match="boom"):
            with span("failing"):
                raise ValueError("boom")
        (record,) = collector.records
        assert record["status"] == "error"
        assert "ValueError: boom" in record["message"]

    def test_attributes_clamped_to_json_scalars(self, collector):
        with span("attrs", path=os.sep, items=[1, object()], obj=object()):
            pass
        attrs = collector.records[0]["attrs"]
        assert attrs["path"] == os.sep
        assert attrs["items"][0] == 1
        assert isinstance(attrs["items"][1], str)
        assert attrs["obj"].startswith("<object")

    def test_events_attach_to_enclosing_span(self, collector):
        with span("parent") as parent:
            add_event("milestone", n=17)
            parent.event("direct", ok=True)
        events = [r for r in collector.records if r["type"] == "event"]
        assert {e["name"] for e in events} == {"milestone", "direct"}
        assert all(e["span"] == parent.span_id for e in events)

    def test_event_without_open_span_is_dropped(self, collector):
        add_event("floating")
        assert collector.records == []


class TestSinkFailureIsolation:
    def test_raising_sink_never_raises_out(self):
        class Exploding:
            def emit(self, record):
                raise OSError("disk full")

        good = CollectorSink()
        configure([Exploding(), good])
        tracer = get_tracer()
        before = tracer.dropped_events
        with span("survives"):
            pass  # must not raise
        assert tracer.dropped_events == before + 1
        # The healthy sink still got the record.
        assert [r["name"] for r in good.records] == ["survives"]
        warnings = drain_drop_warnings()
        assert len(warnings) == 1
        assert "Exploding" in warnings[0]
        assert drain_drop_warnings() == []  # drained exactly once

    def test_drop_counter_increments_metric(self):
        from repro.telemetry.metrics import counter

        class Exploding:
            def emit(self, record):
                raise RuntimeError("nope")

        configure([Exploding()])
        base = counter("telemetry.dropped_events").value
        with span("dropped"):
            pass
        assert counter("telemetry.dropped_events").value == base + 1

    def test_shutdown_swallows_sink_close_errors(self):
        class BadClose:
            def emit(self, record):
                pass

            def close(self):
                raise OSError("already gone")

        configure([BadClose()])
        shutdown()  # must not raise
        assert not enabled()
