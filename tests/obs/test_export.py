"""JSONL trace round-trip, profile aggregation, JSON documents."""

import json

import pytest

from repro.obs import (MetricRegistry, Tracer, aggregate_spans, dump_json,
                       format_profile, load_trace, observability_document,
                       write_trace)


def _traced(n_outer=3, n_inner=2):
    tracer = Tracer(enabled=True)
    for i in range(n_outer):
        with tracer.span("outer", index=i):
            for _ in range(n_inner):
                with tracer.span("inner", net=f"n{i}"):
                    pass
    return tracer


class TestJsonlRoundTrip:
    def test_write_then_load_preserves_spans(self, tmp_path):
        tracer = _traced()
        path = str(tmp_path / "trace.jsonl")
        written = write_trace(tracer.spans, path)
        assert written == len(tracer.spans) == 9
        assert load_trace(path) == tracer.spans

    def test_load_skips_blank_lines(self, tmp_path):
        tracer = _traced(1, 0)
        path = str(tmp_path / "trace.jsonl")
        write_trace(tracer.spans, path)
        with open(path, "a") as handle:
            handle.write("\n\n")
        assert len(load_trace(path)) == 1

    def test_malformed_line_raises_with_line_number(self, tmp_path):
        path = str(tmp_path / "bad.jsonl")
        with open(path, "w") as handle:
            handle.write('{"name": "ok", "wall_s": 1.0, "cpu_s": 1.0}\n')
            handle.write("not json\n")
        with pytest.raises(ValueError, match=":2:"):
            load_trace(path)

    def test_numpy_attrs_serialize(self, tmp_path):
        import numpy as np

        tracer = Tracer(enabled=True)
        with tracer.span("s", size=np.int64(5), value=np.float64(1.5)):
            pass
        path = str(tmp_path / "np.jsonl")
        write_trace(tracer.spans, path)
        attrs = load_trace(path)[0].attrs
        assert attrs == {"size": 5, "value": 1.5}


class TestAggregation:
    def test_counts_and_totals(self):
        tracer = _traced(3, 2)
        profiles = aggregate_spans(tracer.spans)
        assert profiles["inner"].count == 6
        assert profiles["outer"].count == 3
        # Children are fully contained in their parents.
        assert profiles["outer"].wall_s >= profiles["inner"].wall_s
        assert profiles["outer"].max_wall_s >= profiles["outer"].mean_wall_s

    def test_format_profile_lists_stages(self):
        text = format_profile(aggregate_spans(_traced().spans))
        assert "outer" in text and "inner" in text

    def test_format_profile_empty(self):
        assert "no spans recorded" in format_profile({})


class TestObservabilityDocument:
    def test_document_layout(self):
        tracer = _traced()
        registry = MetricRegistry()
        registry.counter("nets").inc(12)
        document = observability_document(tracer, registry,
                                          extra={"design": "WB_DMA"})
        assert document["design"] == "WB_DMA"
        assert document["spans_recorded"] == 9
        assert document["spans_dropped"] == 0
        assert document["metrics"]["counters"] == {"nets": 12}
        assert document["stages"]["inner"]["count"] == 6
        json.dumps(document)  # JSON-safe

    def test_dump_json_writes_file(self, tmp_path):
        path = str(tmp_path / "doc.json")
        text = dump_json({"a": 1}, path=path)
        assert json.loads(text) == {"a": 1}
        with open(path) as handle:
            assert json.loads(handle.read()) == {"a": 1}
