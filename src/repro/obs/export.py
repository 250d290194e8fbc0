"""JSON / JSONL serialization for spans and metric snapshots.

Two interchange formats:

* **JSONL traces** — one :class:`~repro.obs.tracer.Span` dict per line,
  the format streamed by ``REPRO_TRACE=path.jsonl`` and written in bulk by
  :func:`write_trace`; :func:`load_trace` round-trips it.
* **JSON documents** — a single object bundling aggregated stage timings
  and a metric snapshot (:func:`observability_document`), embedded in
  the ``repro bench`` serve report and printed by ``repro report --json``.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence

from .metrics import MetricRegistry, get_metrics
from .profile import aggregate_spans
from .tracer import Span, Tracer, get_tracer


def write_trace(spans: Iterable[Span], path: str) -> int:
    """Write spans to ``path`` as JSONL; returns the number written."""
    count = 0
    with open(path, "w") as handle:
        for span in spans:
            json.dump(span.to_dict(), handle)
            handle.write("\n")
            count += 1
    return count


def load_trace(path: str) -> List[Span]:
    """Read a JSONL trace back into :class:`Span` objects.

    Blank lines are skipped; malformed lines raise ``ValueError`` with the
    offending line number.
    """
    spans: List[Span] = []
    with open(path) as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                spans.append(Span.from_dict(json.loads(line)))
            except (json.JSONDecodeError, KeyError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed trace record: {exc}") from exc
    return spans


def observability_document(tracer: Optional[Tracer] = None,
                           registry: Optional[MetricRegistry] = None,
                           extra: Optional[Dict[str, Any]] = None
                           ) -> Dict[str, Any]:
    """One JSON-safe object with aggregated stages + metric snapshot.

    This is the shared payload of ``repro report --json`` and the
    ``observability`` section of the ``repro bench`` serve report:
    per-span-name aggregate timings (count, wall, CPU), the dropped-span
    count, and the full counter/gauge/histogram snapshot.
    """
    tracer = tracer if tracer is not None else get_tracer()
    registry = registry if registry is not None else get_metrics()
    document: Dict[str, Any] = {
        "stages": {name: profile.to_dict() for name, profile
                   in aggregate_spans(tracer.spans).items()},
        "spans_recorded": len(tracer.spans),
        "spans_dropped": tracer.dropped,
        "metrics": registry.snapshot(),
    }
    if extra:
        document.update(extra)
    return document


def dump_json(document: Dict[str, Any], path: Optional[str] = None,
              indent: int = 2) -> str:
    """Serialize a document (optionally also writing it to ``path``)."""
    text = json.dumps(document, indent=indent, sort_keys=False)
    if path is not None:
        with open(path, "w") as handle:
            handle.write(text + "\n")
    return text
