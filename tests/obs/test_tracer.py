"""Tracer behaviour: nesting, provenance, disabled no-op, env hook."""

import json

import pytest

from repro.obs import (NULL_SPAN, Span, Tracer, configure_from_env,
                       get_tracer)


class TestSpanNesting:
    def test_depth_and_parent_recorded(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("middle"):
                with tracer.span("inner"):
                    pass
        by_name = {s.name: s for s in tracer.spans}
        assert by_name["outer"].depth == 0
        assert by_name["outer"].parent is None
        assert by_name["middle"].depth == 1
        assert by_name["middle"].parent == "outer"
        assert by_name["inner"].depth == 2
        assert by_name["inner"].parent == "middle"

    def test_children_finish_before_parents(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_sibling_spans_share_parent(self):
        tracer = Tracer(enabled=True)
        with tracer.span("outer"):
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b = (s for s in tracer.spans if s.name in "ab")
        assert a.parent == b.parent == "outer"
        assert a.depth == b.depth == 1

    def test_current_depth_tracks_open_spans(self):
        tracer = Tracer(enabled=True)
        assert tracer.current_depth == 0
        with tracer.span("outer"):
            assert tracer.current_depth == 1
        assert tracer.current_depth == 0

    def test_stack_unwinds_on_exception(self):
        tracer = Tracer(enabled=True)
        with pytest.raises(RuntimeError):
            with tracer.span("fails"):
                raise RuntimeError("boom")
        assert tracer.current_depth == 0
        assert tracer.spans[-1].name == "fails"  # still recorded


class TestSpanTimingAndAttrs:
    def test_wall_and_cpu_time_nonnegative(self):
        tracer = Tracer(enabled=True)
        with tracer.span("work"):
            sum(range(1000))
        span = tracer.spans[0]
        assert span.wall_s >= 0.0
        assert span.cpu_s >= 0.0

    def test_provenance_attrs(self):
        tracer = Tracer(enabled=True)
        with tracer.span("simulate.net", net="n42", design="WB_DMA") as span:
            span.set(sinks=3)
        recorded = tracer.spans[0]
        assert recorded.attrs == {"net": "n42", "design": "WB_DMA",
                                  "sinks": 3}

    def test_to_dict_round_trip(self):
        tracer = Tracer(enabled=True)
        with tracer.span("stage", net="n1"):
            pass
        original = tracer.spans[0]
        restored = Span.from_dict(
            json.loads(json.dumps(original.to_dict())))
        assert restored == original


class TestDisabledTracer:
    def test_disabled_span_is_shared_null_singleton(self):
        tracer = Tracer(enabled=False)
        assert tracer.span("anything", net="x") is NULL_SPAN

    def test_disabled_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        assert tracer.spans == []
        assert tracer.current_depth == 0

    def test_null_span_set_is_noop(self):
        with Tracer(enabled=False).span("x") as span:
            assert span.set(net="n") is span

    def test_enable_disable_toggles_recording(self):
        tracer = Tracer()
        tracer.enable()
        with tracer.span("on"):
            pass
        tracer.disable()
        with tracer.span("off"):
            pass
        assert [s.name for s in tracer.spans] == ["on"]


class TestBufferBound:
    def test_overflow_drops_oldest(self):
        tracer = Tracer(enabled=True, max_spans=5)
        for i in range(8):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.spans) == 5
        assert tracer.dropped == 3
        assert [s.name for s in tracer.spans] == [f"s{i}" for i in range(3, 8)]

    def test_reset_clears_buffer_and_dropped(self):
        tracer = Tracer(enabled=True, max_spans=2)
        for i in range(4):
            with tracer.span(f"s{i}"):
                pass
        tracer.reset()
        assert tracer.spans == []
        assert tracer.dropped == 0

    def test_max_spans_must_be_positive(self):
        with pytest.raises(ValueError):
            Tracer(max_spans=0)


class TestEnvHook:
    def test_unset_env_leaves_tracer_alone(self):
        assert configure_from_env(environ={}) is False

    def test_env_var_enables_global_tracer_with_jsonl(self, tmp_path):
        trace_path = str(tmp_path / "trace.jsonl")
        tracer = get_tracer()
        assert configure_from_env(environ={"REPRO_TRACE": trace_path}) is True
        assert tracer.enabled
        with tracer.span("streamed", net="n1"):
            pass
        tracer.close()
        with open(trace_path) as handle:
            lines = [json.loads(line) for line in
                     handle.read().splitlines() if line]
        assert any(record["name"] == "streamed" for record in lines)
