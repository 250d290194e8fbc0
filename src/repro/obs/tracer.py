"""Span-based structured tracing with wall/CPU time and provenance.

A :class:`Span` records one timed region of the pipeline — "simulate one
net", "train one epoch", "run STA over a design" — with both wall-clock and
CPU time, its nesting depth/parent, and free-form provenance attributes
(``net=``, ``design=``, ...) mirroring the error provenance carried by
:mod:`repro.robustness.errors`.

The :class:`Tracer` is deliberately zero-dependency (stdlib only) and
**disabled by default**: ``Tracer.span`` on a disabled tracer returns a
shared no-op context manager, so instrumented hot paths pay one attribute
check and nothing else.  Enable it explicitly (``get_tracer().enable()``),
through the CLI (``repro report --profile``) or through the
``REPRO_TRACE=path.jsonl`` environment hook, which streams every finished
span to a JSONL file.

Example::

    from repro.obs import get_tracer

    tracer = get_tracer()
    tracer.enable()
    with tracer.span("dataset.design", design="WB_DMA") as span:
        ...
        span.set(nets=40)
    print(tracer.spans[-1].wall_s)
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, TextIO, Union

#: Environment variable that, when set to a path, enables the global tracer
#: at import time and streams finished spans to that path as JSONL.
TRACE_ENV_VAR = "REPRO_TRACE"

#: Default bound on the in-memory span buffer; the oldest spans are dropped
#: (and counted in :attr:`Tracer.dropped`) once the buffer is full, so a
#: long-running traced process cannot grow without bound.
DEFAULT_MAX_SPANS = 100_000


@dataclass
class Span:
    """One finished timed region.

    Attributes
    ----------
    name:
        Stage name, dot-separated by convention (``"sta.analyze_design"``).
    wall_s, cpu_s:
        Elapsed wall-clock and process CPU time in seconds.
    start_wall:
        Wall-clock start, seconds from an arbitrary monotonic origin
        (``time.perf_counter``); useful for ordering, not for dates.
    depth:
        Nesting depth at the time the span was opened (0 = top level).
    parent:
        Name of the enclosing span, or ``None`` at top level.
    attrs:
        Provenance attributes (``net``, ``design``, ``epoch``, sizes ...).
    """

    name: str
    wall_s: float
    cpu_s: float
    start_wall: float
    depth: int = 0
    parent: Optional[str] = None
    attrs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe dict form (the JSONL record layout)."""
        return {
            "name": self.name,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "start_wall": self.start_wall,
            "depth": self.depth,
            "parent": self.parent,
            "attrs": _jsonable(self.attrs),
        }

    @classmethod
    def from_dict(cls, record: Dict[str, Any]) -> "Span":
        """Inverse of :meth:`to_dict` (JSONL round-trip)."""
        return cls(
            name=str(record["name"]),
            wall_s=float(record["wall_s"]),
            cpu_s=float(record["cpu_s"]),
            start_wall=float(record.get("start_wall", 0.0)),
            depth=int(record.get("depth", 0)),
            parent=record.get("parent"),
            attrs=dict(record.get("attrs", {})),
        )


def _jsonable(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """Coerce attribute values to JSON-serializable scalars."""
    out: Dict[str, Any] = {}
    for key, value in attrs.items():
        if isinstance(value, (str, bool, int, float)) or value is None:
            out[key] = value
        elif hasattr(value, "item"):  # numpy scalar without importing numpy
            out[key] = value.item()
        else:
            out[key] = str(value)
    return out


class _NullSpan:
    """Shared no-op span returned by a disabled tracer (zero overhead)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _LiveSpan:
    """Context manager recording one span into its tracer."""

    __slots__ = ("_tracer", "_name", "_attrs", "_start_wall", "_start_cpu",
                 "_depth", "_parent")

    def __init__(self, tracer: "Tracer", name: str,
                 attrs: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._attrs = attrs

    def set(self, **attrs: Any) -> "_LiveSpan":
        """Attach extra attributes (visible once the span finishes)."""
        self._attrs.update(attrs)
        return self

    def __enter__(self) -> "_LiveSpan":
        stack = self._tracer._stack
        self._depth = len(stack)
        self._parent = stack[-1] if stack else None
        stack.append(self._name)
        self._start_wall = time.perf_counter()
        self._start_cpu = time.process_time()
        return self

    def __exit__(self, *exc: object) -> bool:
        wall = time.perf_counter() - self._start_wall
        cpu = time.process_time() - self._start_cpu
        stack = self._tracer._stack
        if stack and stack[-1] == self._name:
            stack.pop()
        self._tracer._record(Span(
            name=self._name, wall_s=wall, cpu_s=cpu,
            start_wall=self._start_wall, depth=self._depth,
            parent=self._parent, attrs=self._attrs))
        return False


class Tracer:
    """Collects nested :class:`Span` records; cheap no-op while disabled.

    Parameters
    ----------
    enabled:
        Initial state.  Disabled (the default) makes :meth:`span` return the
        shared :data:`NULL_SPAN` immediately.
    max_spans:
        Bound on the in-memory buffer; overflow drops the oldest spans and
        increments :attr:`dropped`.
    jsonl_path:
        When given, every finished span is also appended to this file as one
        JSON object per line (the ``REPRO_TRACE`` streaming mode).
    """

    def __init__(self, enabled: bool = False,
                 max_spans: int = DEFAULT_MAX_SPANS,
                 jsonl_path: Optional[str] = None) -> None:
        if max_spans <= 0:
            raise ValueError("max_spans must be positive")
        self.enabled = enabled
        self.max_spans = max_spans
        self.spans: List[Span] = []
        self.dropped = 0
        self._stack: List[str] = []
        self._jsonl_path = jsonl_path
        self._jsonl_file: Optional[TextIO] = None

    # ------------------------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Union[_NullSpan, _LiveSpan]:
        """Open a timed region; use as a context manager.

        On a disabled tracer this returns the shared no-op span, costing a
        single attribute check plus the (empty) kwargs dict.
        """
        if not self.enabled:
            return NULL_SPAN
        return _LiveSpan(self, name, attrs)

    def _record(self, span: Span) -> None:
        self.spans.append(span)
        if len(self.spans) > self.max_spans:
            overflow = len(self.spans) - self.max_spans
            del self.spans[:overflow]
            self.dropped += overflow
        if self._jsonl_path is not None:
            self._write_jsonl(span)

    def _write_jsonl(self, span: Span) -> None:
        if self._jsonl_path is None:
            return
        if self._jsonl_file is None:
            self._jsonl_file = open(self._jsonl_path, "a")
        json.dump(span.to_dict(), self._jsonl_file)
        self._jsonl_file.write("\n")
        self._jsonl_file.flush()

    # ------------------------------------------------------------------
    def enable(self, jsonl_path: Optional[str] = None) -> None:
        """Turn tracing on (optionally streaming spans to a JSONL file)."""
        self.enabled = True
        if jsonl_path is not None and jsonl_path != self._jsonl_path:
            self.close()
            self._jsonl_path = jsonl_path

    def disable(self) -> None:
        """Turn tracing off; buffered spans stay readable."""
        self.enabled = False

    def reset(self) -> None:
        """Drop all buffered spans and clear the nesting stack."""
        self.spans.clear()
        self._stack.clear()
        self.dropped = 0

    def close(self) -> None:
        """Close the JSONL stream, if one is open."""
        if self._jsonl_file is not None:
            self._jsonl_file.close()
            self._jsonl_file = None

    @property
    def current_depth(self) -> int:
        """Nesting depth of the innermost open span."""
        return len(self._stack)


_GLOBAL_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer used by all built-in instrumentation."""
    return _GLOBAL_TRACER


def configure_from_env(environ: Optional[Dict[str, str]] = None) -> bool:
    """Enable the global tracer if ``REPRO_TRACE`` is set; returns whether.

    Called once at :mod:`repro.obs` import time; safe to call again (e.g.
    from tests) with a custom ``environ`` mapping.
    """
    env = os.environ if environ is None else environ
    path = env.get(TRACE_ENV_VAR, "").strip()
    if not path:
        return False
    _GLOBAL_TRACER.enable(jsonl_path=path)
    return True
