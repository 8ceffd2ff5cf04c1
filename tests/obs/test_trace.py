"""Span tracer tests: nesting, sinks, and the no-sink fast path."""

import pytest

from repro import obs

pytestmark = pytest.mark.obs


class TestSpans:
    def test_events_carry_timing_and_attrs(self):
        with obs.capture() as events:
            with obs.span("unit.work", items=3):
                pass
        assert len(events) == 1
        event = events[0]
        assert event["type"] == "span"
        assert event["name"] == "unit.work"
        assert event["items"] == 3
        assert event["seconds"] >= 0.0
        assert event["parent"] is None and event["depth"] == 0

    def test_nesting_records_parent_and_depth(self):
        with obs.capture() as events:
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
                with obs.span("sibling"):
                    pass
        by_name = {e["name"]: e for e in events}
        # Children close (and emit) before the parent.
        assert [e["name"] for e in events] == ["inner", "sibling", "outer"]
        outer = by_name["outer"]
        assert by_name["inner"]["parent"] == outer["span"]
        assert by_name["sibling"]["parent"] == outer["span"]
        assert by_name["inner"]["depth"] == 1
        assert outer["depth"] == 0

    def test_annotate_adds_attrs_mid_span(self):
        with obs.capture() as events:
            with obs.span("scan.stage") as scope:
                scope.annotate(chunks=7)
        assert events[0]["chunks"] == 7

    def test_exception_is_recorded_and_propagates(self):
        with obs.capture() as events:
            with pytest.raises(RuntimeError, match="boom"):
                with obs.span("will.fail"):
                    raise RuntimeError("boom")
        assert events[0]["error"] == "RuntimeError"

    def test_capture_restores_previous_sink(self):
        outer_events = []
        previous = obs.set_sink(outer_events.append)
        try:
            with obs.capture() as inner_events:
                with obs.span("inner.only"):
                    pass
            with obs.span("outer.only"):
                pass
        finally:
            obs.set_sink(previous)
        assert [e["name"] for e in inner_events] == ["inner.only"]
        assert [e["name"] for e in outer_events] == ["outer.only"]


class TestJsonlSink:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with obs.JsonlSink(path) as sink:
            previous = obs.set_sink(sink)
            try:
                with obs.span("stage.a", rows=10):
                    with obs.span("stage.b"):
                        pass
            finally:
                obs.set_sink(previous)
        events = obs.read_jsonl(path)
        assert [e["name"] for e in events] == ["stage.b", "stage.a"]
        assert events[1]["rows"] == 10
        assert all(e["seconds"] >= 0.0 for e in events)

    def test_close_is_idempotent_and_drops_late_events(self, tmp_path):
        sink = obs.JsonlSink(tmp_path / "spans.jsonl")
        sink({"type": "span", "name": "a", "seconds": 0.0})
        sink.close()
        sink.close()
        sink({"type": "span", "name": "late", "seconds": 0.0})   # no-op
        assert [e["name"] for e in obs.read_jsonl(sink.path)] == ["a"]


class TestNoSinkFastPath:
    def test_no_sink_returns_shared_noop(self):
        assert obs.get_sink() is None   # conftest removed any sink
        assert obs.span("x") is obs.span("y")

    def test_noop_span_keeps_the_span_protocol(self):
        """Code written against a live span runs unchanged on the no-op:
        nesting, ``annotate`` chaining and exceptions propagating."""
        scope = obs.span("x", attr=1)
        with scope as entered:
            assert entered is scope
            assert scope.annotate(more=2) is scope
            with obs.span("inner") as inner:
                assert inner is scope
        with pytest.raises(RuntimeError, match="boom"):
            with obs.span("will.fail"):
                raise RuntimeError("boom")

    def test_removing_the_sink_stops_emission_until_reinstalled(self):
        with obs.capture() as events:
            previous = obs.set_sink(None)
            with obs.span("unsunk") as scope:
                scope.annotate(more=2)
            obs.set_sink(previous)
            with obs.span("sunk"):
                pass
        assert [e["name"] for e in events] == ["sunk"]
