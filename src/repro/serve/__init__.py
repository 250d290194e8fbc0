"""Fault-tolerant timing-estimation service.

A long-lived serving layer over the robustness stack: a versioned JSON
protocol (:mod:`~repro.serve.protocol`), admission control with bounded
queueing, deadlines and load shedding (:mod:`~repro.serve.admission`),
request coalescing (:mod:`~repro.serve.batching`), shed-aware tier
ladders (:mod:`~repro.serve.engine`), lifecycle probes + drain + worker
supervision (:mod:`~repro.serve.lifecycle`), the HTTP front
(:mod:`~repro.serve.server`), a retrying client
(:mod:`~repro.serve.client`) and the ``repro bench`` load generator
(:mod:`~repro.serve.loadgen`).

The service contract is **total termination**: every request admitted or
rejected ends in exactly one terminal outcome — a prediction (possibly
degraded, with tier provenance) or a typed taxonomy error.  The chaos
suite under ``tests/serve/`` enforces this invariant against a live
server under injected faults; ``docs/SERVING.md`` is the operator guide.

Submodules are loaded lazily (PEP 562) so importing :mod:`repro` stays
light and the protocol layer stays usable without the model stack.
"""

_LAZY = {
    "AdmissionConfig": "admission",
    "AdmissionController": "admission",
    "SHED_ANALYTIC": "admission",
    "SHED_FULL": "admission",
    "SHED_LAST_RESORT": "admission",
    "Ticket": "admission",
    "Batch": "batching",
    "BatchCollector": "batching",
    "BatchingConfig": "batching",
    "RetryPolicy": "client",
    "ServeClientError": "client",
    "TimingClient": "client",
    "EstimationEngine": "engine",
    "Lifecycle": "lifecycle",
    "WorkerSupervisor": "lifecycle",
    "install_sigterm_drain": "lifecycle",
    "QUICK_SERVE_WORKLOAD": "loadgen",
    "THROUGHPUT_SERVE_WORKLOAD": "loadgen",
    "ServeWorkload": "loadgen",
    "format_serve_summary": "loadgen",
    "run_serve_bench": "loadgen",
    "PROTOCOL_SCHEMA": "protocol",
    "ServeRequest": "protocol",
    "ServeResponse": "protocol",
    "TimingQuery": "protocol",
    "decode_response": "protocol",
    "error_response": "protocol",
    "parse_request": "protocol",
    "ServeConfig": "server",
    "ServerHandle": "server",
    "TimingHTTPServer": "server",
    "TimingService": "server",
    "run_server": "server",
    "start_server": "server",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str) -> object:
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
