"""Versioned wire format of the ``repro serve`` timing service.

One schema (:data:`PROTOCOL_SCHEMA`) covers both directions.  A request
carries one or more *queries* — each a full RC net plus its electrical
operating point — and an optional per-request deadline budget.  A response
terminates every query with exactly one of:

* a prediction (``ok: true`` — delays/slews per sink, the serving tier,
  and the degradation trail of tiers that failed first), or
* a typed error (``ok: false`` — the taxonomy class name from
  :mod:`repro.robustness.errors` plus its net/design/stage/tier
  provenance).

No third outcome exists; the server's zero-lost-request invariant is
stated here and enforced by the chaos suite.  Parsing is strict: any
malformed payload raises :class:`~repro.robustness.errors.InputError`
with ``stage="protocol"`` so the front can answer with a typed error
instead of dropping the connection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from ..rcnet.graph import CouplingCap, RCEdge, RCNet, RCNetError, RCNode
from ..robustness.errors import (DeadlineError, EstimationError, InputError,
                                 OverloadError)

#: Wire-format version stamped into every request and response; servers
#: reject any other value so schema drift fails loudly on day one.
PROTOCOL_SCHEMA = "repro-serve/1"

#: Hard per-request query cap: a request is the batching unit, not an
#: unbounded bulk import, and admission cost must stay O(1)-ish.
MAX_QUERIES_PER_REQUEST = 1024


# ----------------------------------------------------------------------
# Net serialization
# ----------------------------------------------------------------------
def net_to_dict(net: RCNet) -> Dict[str, Any]:
    """JSON-safe encoding of an :class:`RCNet` (inverse of
    :func:`net_from_dict`)."""
    return {
        "name": net.name,
        "nodes": [{"name": node.name, "cap": node.cap} for node in net.nodes],
        "edges": [[edge.u, edge.v, edge.resistance] for edge in net.edges],
        "source": net.source,
        "sinks": list(net.sinks),
        "couplings": [[c.victim, c.aggressor_name, c.cap, c.activity]
                      for c in net.couplings],
    }


def net_from_dict(payload: Any) -> RCNet:
    """Decode and *validate* a net; raises :class:`InputError` on anything
    malformed (wrong types, dangling indices, corrupted parasitics the
    :class:`RCNet` constructor rejects)."""
    if not isinstance(payload, dict):
        raise InputError(f"net must be an object, got "
                         f"{type(payload).__name__}", stage="protocol")
    name = payload.get("name")
    if not isinstance(name, str) or not name:
        raise InputError("net needs a non-empty string 'name'",
                         stage="protocol")
    try:
        nodes = [RCNode(index=i, name=str(entry["name"]),
                        cap=float(entry["cap"]))
                 for i, entry in enumerate(payload.get("nodes", []))]
        edges = [RCEdge(u=int(u), v=int(v), resistance=float(res))
                 for u, v, res in payload.get("edges", [])]
        couplings = [CouplingCap(victim=int(n), aggressor_name=str(a),
                                 cap=float(c), activity=float(act))
                     for n, a, c, act in payload.get("couplings", [])]
        net = RCNet(name, nodes, edges,
                    source=int(payload.get("source", 0)),
                    sinks=[int(s) for s in payload.get("sinks", [])],
                    couplings=couplings)
    except InputError as exc:
        if exc.net is None:
            exc.net = name
        raise
    except (KeyError, TypeError, ValueError, RCNetError) as exc:
        raise InputError(f"malformed net encoding: {exc}", net=name,
                         stage="protocol", cause=exc) from exc
    return net


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass
class TimingQuery:
    """One net's slew/delay question: the net plus its operating point."""

    net: RCNet
    input_slew_s: float
    drive_resistance_ohm: float
    sink_loads_f: Optional[List[float]] = None

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "net": net_to_dict(self.net),
            "input_slew_s": self.input_slew_s,
            "drive_resistance_ohm": self.drive_resistance_ohm,
        }
        if self.sink_loads_f is not None:
            doc["sink_loads_f"] = list(self.sink_loads_f)
        return doc

    def cache_key(self) -> bytes:
        """Content-addressed identity of the query (BLAKE2b-128).

        Keyed over the full parasitic content and operating point — two
        queries share a key iff an estimator sees identical inputs —
        following the ``solve_key`` idiom of :mod:`repro.analysis.cache`.
        Net and node *names* are excluded: timing depends only on
        indices, and incremental-timing clients rename nets across
        iterations while the parasitics stay put — those re-queries are
        exactly what the prediction cache exists for.  Packed binary
        rather than canonical JSON: this runs once per served net.
        """
        import hashlib
        import struct

        net = self.net
        digest = hashlib.blake2b(digest_size=16)
        digest.update(struct.pack("<ddiii", self.input_slew_s,
                                  self.drive_resistance_ohm, net.num_nodes,
                                  net.num_edges, net.source))
        digest.update(struct.pack(f"<{net.num_nodes}d",
                                  *(node.cap for node in net.nodes)))
        for edge in net.edges:
            digest.update(struct.pack("<iid", edge.u, edge.v,
                                      edge.resistance))
        digest.update(struct.pack(f"<{net.num_sinks}i", *net.sinks))
        for coupling in net.couplings:
            digest.update(struct.pack("<idd", coupling.victim, coupling.cap,
                                      coupling.activity))
            digest.update(coupling.aggressor_name.encode("utf-8"))
        if self.sink_loads_f is not None:
            digest.update(struct.pack(f"<{len(self.sink_loads_f)}d",
                                      *self.sink_loads_f))
        return digest.digest()


@dataclass
class ServeRequest:
    """A parsed, validated timing request (the admission unit)."""

    queries: List[TimingQuery]
    request_id: Optional[str] = None
    deadline_ms: Optional[float] = None

    @property
    def num_nets(self) -> int:
        return len(self.queries)

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {
            "schema": PROTOCOL_SCHEMA,
            "queries": [query.to_dict() for query in self.queries],
        }
        if self.request_id is not None:
            doc["id"] = self.request_id
        if self.deadline_ms is not None:
            doc["deadline_ms"] = self.deadline_ms
        return doc

    def encode(self) -> bytes:
        return json.dumps(self.to_dict()).encode("utf-8")


def _parse_query(payload: Any, position: int) -> TimingQuery:
    if not isinstance(payload, dict):
        raise InputError(f"query {position} must be an object",
                         stage="protocol")
    net = net_from_dict(payload.get("net"))
    try:
        slew = float(payload.get("input_slew_s", 20e-12))
        resistance = float(payload.get("drive_resistance_ohm", 100.0))
    except (TypeError, ValueError) as exc:
        raise InputError(f"query {position}: non-numeric operating point",
                         net=net.name, stage="protocol", cause=exc) from exc
    if not slew > 0.0:
        raise InputError(f"query {position}: input_slew_s must be positive",
                         net=net.name, stage="protocol")
    if not resistance > 0.0:
        raise InputError(f"query {position}: drive_resistance_ohm must be "
                         f"positive", net=net.name, stage="protocol")
    loads = payload.get("sink_loads_f")
    if loads is not None:
        if not isinstance(loads, list):
            raise InputError(f"query {position}: sink_loads_f must be a list",
                             net=net.name, stage="protocol")
        try:
            loads = [float(value) for value in loads]
        except (TypeError, ValueError) as exc:
            raise InputError(f"query {position}: non-numeric sink load",
                             net=net.name, stage="protocol",
                             cause=exc) from exc
        if len(loads) != net.num_sinks:
            raise InputError(
                f"query {position}: {len(loads)} sink loads for "
                f"{net.num_sinks} sinks", net=net.name, stage="protocol")
    return TimingQuery(net, slew, resistance, loads)


def parse_request(raw: Any,
                  max_queries: int = MAX_QUERIES_PER_REQUEST) -> ServeRequest:
    """Decode bytes/str/dict into a validated :class:`ServeRequest`.

    Raises :class:`InputError` (``stage="protocol"``) on malformed JSON,
    wrong schema version, an over-long batch, or any invalid query.
    """
    if isinstance(raw, (bytes, str)):
        try:
            raw = json.loads(raw)
        except (ValueError, UnicodeDecodeError) as exc:
            raise InputError(f"request body is not valid JSON: {exc}",
                             stage="protocol", cause=exc) from exc
    if not isinstance(raw, dict):
        raise InputError("request must be a JSON object", stage="protocol")
    schema = raw.get("schema")
    if schema != PROTOCOL_SCHEMA:
        raise InputError(f"unsupported schema {schema!r} "
                         f"(this server speaks {PROTOCOL_SCHEMA})",
                         stage="protocol")
    queries_raw = raw.get("queries")
    if not isinstance(queries_raw, list) or not queries_raw:
        raise InputError("request needs a non-empty 'queries' list",
                         stage="protocol")
    if len(queries_raw) > max_queries:
        raise InputError(f"request carries {len(queries_raw)} queries; "
                         f"the per-request cap is {max_queries}",
                         stage="protocol")
    deadline_ms = raw.get("deadline_ms")
    if deadline_ms is not None:
        try:
            deadline_ms = float(deadline_ms)
        except (TypeError, ValueError) as exc:
            raise InputError("deadline_ms must be a number",
                             stage="protocol", cause=exc) from exc
        if not deadline_ms > 0.0:
            raise InputError("deadline_ms must be positive", stage="protocol")
    request_id = raw.get("id")
    if request_id is not None:
        request_id = str(request_id)
    queries = [_parse_query(entry, i) for i, entry in enumerate(queries_raw)]
    return ServeRequest(queries, request_id=request_id,
                        deadline_ms=deadline_ms)


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
def error_document(exc: BaseException) -> Dict[str, Any]:
    """Typed-error encoding: taxonomy class, message, provenance.

    Non-taxonomy exceptions are wrapped as an opaque ``InternalError`` —
    the message crosses the wire but the stack stays server-side.
    """
    if isinstance(exc, EstimationError):
        doc: Dict[str, Any] = {
            "type": type(exc).__name__,
            "message": exc.message,
            "provenance": exc.provenance(),
        }
        if isinstance(exc, OverloadError):
            doc["retry_after_ms"] = exc.retry_after_s * 1e3
        if isinstance(exc, DeadlineError) and exc.budget_s is not None:
            doc["budget_ms"] = exc.budget_s * 1e3
        return doc
    return {"type": "InternalError",
            "message": f"{type(exc).__name__}: {exc}", "provenance": {}}


@dataclass
class QueryResult:
    """Terminal outcome of one query: a prediction or a typed error."""

    ok: bool
    net: str
    tier: Optional[str] = None
    delays_s: Optional[List[float]] = None
    slews_s: Optional[List[float]] = None
    degraded: bool = False
    failures: List[Dict[str, str]] = field(default_factory=list)
    error: Optional[Dict[str, Any]] = None
    cached: bool = False

    def to_dict(self) -> Dict[str, Any]:
        if self.ok:
            return {"ok": True, "net": self.net, "tier": self.tier,
                    "delays_s": self.delays_s, "slews_s": self.slews_s,
                    "degraded": self.degraded, "failures": self.failures,
                    "cached": self.cached}
        return {"ok": False, "net": self.net, "error": self.error}


@dataclass
class ServeResponse:
    """One request's terminal answer; every query is accounted for."""

    ok: bool
    results: List[QueryResult] = field(default_factory=list)
    error: Optional[Dict[str, Any]] = None
    request_id: Optional[str] = None
    served_ms: Optional[float] = None
    shed_level: int = 0

    def to_dict(self) -> Dict[str, Any]:
        doc: Dict[str, Any] = {"schema": PROTOCOL_SCHEMA, "ok": self.ok,
                               "shed_level": self.shed_level}
        if self.request_id is not None:
            doc["id"] = self.request_id
        if self.served_ms is not None:
            doc["served_ms"] = self.served_ms
        if self.ok:
            doc["results"] = [result.to_dict() for result in self.results]
        else:
            doc["error"] = self.error
        return doc

    def encode(self) -> bytes:
        return json.dumps(self.to_dict()).encode("utf-8")


def error_response(exc: BaseException,
                   request_id: Optional[str] = None) -> ServeResponse:
    """Request-level typed failure (overload, deadline, malformed body)."""
    return ServeResponse(ok=False, error=error_document(exc),
                         request_id=request_id)


def decode_response(raw: Any) -> ServeResponse:
    """Client-side decoding; lenient about extras, strict about schema."""
    if isinstance(raw, (bytes, str)):
        try:
            raw = json.loads(raw)
        except (ValueError, UnicodeDecodeError) as exc:
            raise InputError(f"response body is not valid JSON: {exc}",
                             stage="protocol", cause=exc) from exc
    if not isinstance(raw, dict) or raw.get("schema") != PROTOCOL_SCHEMA:
        raise InputError("response is not a repro-serve/1 document",
                         stage="protocol")
    results = []
    for entry in raw.get("results") or []:
        results.append(QueryResult(
            ok=bool(entry.get("ok")), net=str(entry.get("net", "")),
            tier=entry.get("tier"), delays_s=entry.get("delays_s"),
            slews_s=entry.get("slews_s"),
            degraded=bool(entry.get("degraded", False)),
            failures=list(entry.get("failures") or []),
            error=entry.get("error"),
            cached=bool(entry.get("cached", False))))
    return ServeResponse(ok=bool(raw.get("ok")), results=results,
                         error=raw.get("error"), request_id=raw.get("id"),
                         served_ms=raw.get("served_ms"),
                         shed_level=int(raw.get("shed_level", 0)))


HTTP_STATUS = {
    "InputError": 400,
    "OverloadError": 429,
    "DeadlineError": 504,
    "InternalError": 500,
}


def http_status_for(response: ServeResponse) -> int:
    """HTTP status of a response document (200 when any query was served)."""
    if response.ok:
        return 200
    error_type = (response.error or {}).get("type", "InternalError")
    return HTTP_STATUS.get(str(error_type), 500)
