"""The long-lived timing-estimation service and its HTTP front.

:class:`TimingService` wires the robustness stack together — admission
(backpressure + deadlines + shedding), batching, the shed-aware
:class:`~repro.serve.engine.EstimationEngine`, and lifecycle supervision —
behind one synchronous :meth:`~TimingService.submit` call that *always*
returns a terminal :class:`~repro.serve.protocol.ServeResponse`.

:class:`TimingHTTPServer` is the thin socket front: a threading HTTP/1.1
server mapping the protocol onto four endpoints:

========  ==============  =================================================
method    path            behavior
========  ==============  =================================================
POST      ``/v1/timing``  timing request -> prediction or typed error
GET       ``/healthz``    liveness (200 while the process should live)
GET       ``/readyz``     readiness (503 the instant a drain begins)
GET       ``/metrics``    JSON snapshot of the ``serve.*`` instruments
POST      ``/drain``      programmatic graceful drain (also on SIGTERM)
========  ==============  =================================================

Handler threads do no estimation work themselves; they enqueue and wait,
so a slow model never starves accept() and health probes stay responsive
under full load.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Optional

from ..design.sta import WireTimingModel
from ..obs import get_metrics
from ..robustness.errors import DeadlineError, EstimationError, OverloadError
from .admission import SHED_FULL, AdmissionConfig, AdmissionController
from .batching import BatchCollector, BatchingConfig
from .engine import EstimationEngine
from .lifecycle import (DRAINING, STOPPED, Lifecycle, WorkerSupervisor,
                        install_sigterm_drain)
from .protocol import (PROTOCOL_SCHEMA, ServeRequest, ServeResponse,
                       error_response, http_status_for, parse_request)

#: Largest accepted request body; a parasitic netlist query has no
#: business being bigger, and the cap keeps a hostile client from
#: ballooning handler memory.
MAX_BODY_BYTES = 8 * 1024 * 1024


@dataclass(frozen=True)
class ServeConfig:
    """Everything the service needs, in one serializable block."""

    host: str = "127.0.0.1"
    port: int = 8731
    workers: int = 2
    max_restarts: int = 8
    persist_cache_dir: Optional[str] = None
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    batching: BatchingConfig = field(default_factory=BatchingConfig)
    expiry_sweep_s: float = 0.05


class TimingService:
    """The in-process service: submit a request, get a terminal answer."""

    def __init__(self, config: ServeConfig = ServeConfig(),
                 learned: Optional[WireTimingModel] = None,
                 engine: Optional[EstimationEngine] = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config
        self.clock = clock
        if config.persist_cache_dir:
            from ..analysis.cache import configure_solve_cache

            configure_solve_cache(512, persist_dir=config.persist_cache_dir)
        self.admission = AdmissionController(config.admission, clock=clock)
        self.engine = engine if engine is not None else EstimationEngine(
            learned, clock=clock)
        self.collector = BatchCollector(self.admission, config.batching,
                                        clock=clock)
        self.lifecycle = Lifecycle()
        self.supervisor = WorkerSupervisor(self._worker_loop, config.workers,
                                           max_restarts=config.max_restarts)
        self._sweeper: Optional[threading.Thread] = None
        self._stop_sweeper = threading.Event()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "TimingService":
        self.supervisor.start()
        self._stop_sweeper.clear()
        self._sweeper = threading.Thread(target=self._sweep_loop,
                                         name="serve-expiry-sweep",
                                         daemon=True)
        self._sweeper.start()
        self.lifecycle.mark_ready()
        return self

    def drain(self) -> None:
        """Stop admitting; in-flight and queued work still completes."""
        self.lifecycle.begin_drain()
        self.admission.stop_accepting()

    def stop(self, drain: bool = True, timeout: float = 10.0) -> None:
        if drain:
            self.drain()
            deadline = time.monotonic() + timeout
            while self.admission.depth and time.monotonic() < deadline:
                time.sleep(0.01)
        else:
            self.admission.stop_accepting()
        self.supervisor.stop(join_timeout=timeout)
        self._stop_sweeper.set()
        if self._sweeper is not None:
            self._sweeper.join(timeout=1.0)
        self.lifecycle.mark_stopped()

    def _sweep_loop(self) -> None:
        # Queued tickets must hit their deadlines even if every worker is
        # wedged on a pathologically slow tier; this thread is the
        # guarantee (cancellation is cooperative everywhere else).
        while not self._stop_sweeper.wait(self.config.expiry_sweep_s):
            self.admission.expire_queued()

    # ------------------------------------------------------------------
    # Worker loop (supervised; see lifecycle.WorkerSupervisor)
    # ------------------------------------------------------------------
    def _worker_loop(self, worker_id: int) -> None:
        while True:
            state = self.lifecycle.state
            if state == STOPPED:
                return
            batch = self.collector.collect(poll_s=0.05)
            if batch is None:
                if not self.admission.accepting and not self.admission.depth:
                    return  # drained dry: exit cleanly
                continue
            shed = self.admission.shed_level()
            start = self.clock()
            try:
                healthy = self.engine.serve_batch(batch, shed)
            except (KeyboardInterrupt, SystemExit) as exc:
                # Worker crash: contain it.  Finish the batch on the
                # tier that cannot fail (serial-retry idiom), hand the
                # supervisor a respawn, and let this thread die.
                self._contain_crash(batch, worker_id, exc)
                return
            except BaseException as exc:  # repro-lint: disable=ERR002
                self._contain_crash(batch, worker_id, exc)
                return
            elapsed = self.clock() - start
            if shed == SHED_FULL and batch.tickets:
                per_request = elapsed / len(batch.tickets)
                self.admission.record_serve(healthy == len(batch.tickets),
                                            per_request)

    def _contain_crash(self, batch: Any, worker_id: int,
                       exc: BaseException) -> None:
        reason = f"{type(exc).__name__}: {exc}"
        try:
            self.engine.serve_batch_last_resort(batch, reason)
        finally:
            self.supervisor.report_crash(worker_id, reason)

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(self, request: ServeRequest) -> ServeResponse:
        """Synchronous serve: admission -> batch -> engine -> response.

        Total by construction: overload and drain reject here with typed
        errors; an admitted ticket is answered by a worker, the expiry
        sweep, or — if every other mechanism wedges — the bounded wait
        below.  The caller always gets a ``ServeResponse``.
        """
        try:
            ticket = self.admission.submit(request)
        except OverloadError as exc:
            get_metrics().counter("serve.requests").inc()
            return error_response(exc, request.request_id)
        if ticket.deadline_at is not None:
            wait = max(ticket.deadline_at - self.clock(), 0.0) \
                + 2.0 * self.config.expiry_sweep_s
        else:
            wait = self.config.admission.max_deadline_s + 1.0
        if not ticket.done.wait(timeout=wait):
            budget = request.deadline_ms
            ticket.finish(error_response(DeadlineError(
                "deadline expired awaiting a worker",
                budget_s=None if budget is None else budget / 1e3,
                stage="serve"), request.request_id))
        response = ticket.response
        assert response is not None  # finish() always sets it before done
        return response

    def submit_raw(self, body: bytes) -> ServeResponse:
        """Parse + serve; malformed bodies become typed error responses."""
        try:
            request = parse_request(body)
        except EstimationError as exc:
            get_metrics().counter("serve.requests").inc()
            return error_response(exc)
        return self.submit(request)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health_document(self) -> Dict[str, Any]:
        # Workers exit once a drain runs the queue dry — that is the
        # drain working, not a crash; liveness must hold to the end so
        # the orchestrator never kills a still-draining process early.
        workers_alive = (self.supervisor.alive_count() > 0
                         or self.lifecycle.state == DRAINING)
        return {
            "schema": PROTOCOL_SCHEMA,
            "healthy": self.lifecycle.healthy(workers_alive),
            "ready": self.lifecycle.ready() and self.admission.accepting,
            "lifecycle": self.lifecycle.snapshot(),
            "admission": self.admission.snapshot(),
            "workers": self.supervisor.snapshot(),
            "tiers": self.engine.tier_counters(),
        }


# ----------------------------------------------------------------------
# HTTP front
# ----------------------------------------------------------------------
class _TimingHandler(BaseHTTPRequestHandler):
    """Maps the versioned protocol onto HTTP; one instance per request."""

    server: "TimingHTTPServer"
    protocol_version = "HTTP/1.1"

    def log_message(self, format: str, *args: Any) -> None:
        # Access logging is metrics' job; stderr chatter helps nobody.
        get_metrics().counter("serve.http_requests").inc()

    def _send_json(self, status: int, document: Dict[str, Any],
                   headers: Optional[Dict[str, str]] = None) -> None:
        body = json.dumps(document).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    # ------------------------------------------------------------------
    def do_GET(self) -> None:
        service = self.server.service
        if self.path == "/healthz":
            document = service.health_document()
            self._send_json(200 if document["healthy"] else 503, document)
        elif self.path == "/readyz":
            document = service.health_document()
            self._send_json(200 if document["ready"] else 503, document)
        elif self.path == "/metrics":
            self._send_json(200, get_metrics().snapshot())
        else:
            self._send_json(404, {"error": f"no such path {self.path!r}"})

    def do_POST(self) -> None:
        service = self.server.service
        if self.path == "/drain":
            service.drain()
            self._send_json(202, {"draining": True})
            return
        if self.path != "/v1/timing":
            self._send_json(404, {"error": f"no such path {self.path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            length = -1
        if length < 0 or length > MAX_BODY_BYTES:
            response = error_response(OverloadError(
                f"request body missing/oversized (cap {MAX_BODY_BYTES} "
                f"bytes)", retry_after_s=0.0))
            self._send_json(413, response.to_dict())
            return
        body = self.rfile.read(length)
        response = service.submit_raw(body)
        status = http_status_for(response)
        headers = {}
        retry_after_ms = (response.error or {}).get("retry_after_ms") \
            if response.error else None
        if retry_after_ms is not None:
            headers["Retry-After"] = f"{max(retry_after_ms, 0.0) / 1e3:.3f}"
        self._send_json(status, response.to_dict(), headers)


class TimingHTTPServer(ThreadingHTTPServer):
    """Threading HTTP front bound to one :class:`TimingService`."""

    daemon_threads = True

    def __init__(self, service: TimingService, host: str, port: int) -> None:
        self.service = service
        super().__init__((host, port), _TimingHandler)

    @property
    def port(self) -> int:
        return int(self.server_address[1])


class ServerHandle:
    """A started service + HTTP front, stoppable as one unit."""

    def __init__(self, service: TimingService,
                 http_server: TimingHTTPServer,
                 thread: threading.Thread) -> None:
        self.service = service
        self.http = http_server
        self._thread = thread

    @property
    def port(self) -> int:
        return self.http.port

    def stop(self, drain: bool = True, timeout: float = 10.0) -> None:
        self.service.stop(drain=drain, timeout=timeout)
        self.http.shutdown()
        self.http.server_close()
        self._thread.join(timeout=2.0)


def start_server(config: ServeConfig = ServeConfig(),
                 learned: Optional[WireTimingModel] = None,
                 engine: Optional[EstimationEngine] = None) -> ServerHandle:
    """Start service + HTTP front; ``port=0`` binds an ephemeral port."""
    service = TimingService(config, learned=learned, engine=engine).start()
    http_server = TimingHTTPServer(service, config.host, config.port)
    thread = threading.Thread(target=http_server.serve_forever,
                              name="serve-http", daemon=True)
    thread.start()
    return ServerHandle(service, http_server, thread)


def run_server(config: ServeConfig,
               learned: Optional[WireTimingModel] = None) -> int:
    """Blocking CLI entry: serve until SIGTERM/SIGINT, then drain."""
    handle = start_server(config, learned=learned)
    drained = threading.Event()

    def _drain() -> None:
        handle.service.drain()
        drained.set()

    sigterm_ok = install_sigterm_drain(_drain)
    print(f"repro serve: listening on "
          f"http://{config.host}:{handle.port} "
          f"({config.workers} workers, SIGTERM drain "
          f"{'installed' if sigterm_ok else 'unavailable'})")
    try:
        while not drained.is_set():
            drained.wait(0.2)
            if handle.service.lifecycle.state in (DRAINING, STOPPED):
                break
    except KeyboardInterrupt:
        print("repro serve: interrupt — draining")
    handle.stop(drain=True)
    print("repro serve: drained and stopped")
    return 0


__all__ = ["MAX_BODY_BYTES", "ServeConfig", "ServerHandle", "TimingService",
           "TimingHTTPServer", "run_server", "start_server"]
