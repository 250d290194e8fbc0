"""``repro bench``: closed-loop load generation against the timing service.

Spawns ``clients`` closed-loop threads, each posting ``requests_per_client``
multi-net timing requests (seeded :func:`~repro.rcnet.topology.random_net`
parasitics) through the real HTTP front via :class:`TimingClient`, then
reports latency percentiles from the same log2
:class:`~repro.obs.metrics.Histogram` the service itself uses, plus
throughput and the terminal-outcome census.

The census is the bench-side statement of the zero-lost-request invariant:
``sent == ok + degraded + rejected + deadline + error + transport`` must
hold exactly, and the report records ``lost`` (any shortfall) so a
regression shows up as a nonzero number in ``SERVE_BENCH_<date>.json``
(and a nonzero ``repro bench`` exit status), not a silent gap.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..obs import get_metrics
from ..obs.export import dump_json, observability_document
from ..obs.metrics import Histogram
from ..obs.tracer import get_tracer
from .client import RetryPolicy, ServeClientError, TimingClient
from .protocol import ServeRequest, TimingQuery

#: Terminal outcomes a request can land in (the census keys).
OUTCOMES = ("ok", "degraded", "rejected", "deadline", "error", "transport")

#: Schema id of the report :func:`write_serve_report` writes.
SERVE_BENCH_SCHEMA = "repro-serve-bench/1"


@dataclass(frozen=True)
class ServeWorkload:
    """Pinned load-generation workload, serialized into the report."""

    name: str
    clients: int = 8
    requests_per_client: int = 25
    nets_per_request: int = 8
    net_nodes: Tuple[int, int] = (6, 24)
    deadline_ms: Optional[float] = 2000.0
    seed: int = 7
    workers: int = 2   # service worker threads
    #: Size of the shared query pool clients draw from.  ``None`` makes
    #: every query unique (cold-cache behavior); a finite pool models the
    #: incremental-timing access pattern — the same nets re-queried every
    #: optimization iteration — which is what the prediction cache and
    #: request batching are for.
    unique_queries: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "clients": self.clients,
            "requests_per_client": self.requests_per_client,
            "nets_per_request": self.nets_per_request,
            "net_nodes": list(self.net_nodes),
            "deadline_ms": self.deadline_ms,
            "seed": self.seed,
            "workers": self.workers,
            "unique_queries": self.unique_queries,
        }


#: CI smoke run: small enough for the serve-smoke job's time budget.
QUICK_SERVE_WORKLOAD = ServeWorkload(
    name="serve-quick", clients=4, requests_per_client=6,
    nets_per_request=4, net_nodes=(5, 12))

#: The default run: incremental-timing shape (a shared pool of
#: repeatedly re-queried nets, large coalesceable requests).
THROUGHPUT_SERVE_WORKLOAD = ServeWorkload(
    name="serve-throughput", clients=6, requests_per_client=30,
    nets_per_request=48, net_nodes=(5, 14), workers=4, unique_queries=128)


def _build_pool(workload: ServeWorkload) -> List[TimingQuery]:
    """The shared query pool (deterministic from the workload seed)."""
    import numpy as np

    from ..rcnet.topology import random_net

    rng = np.random.default_rng(workload.seed)
    size = workload.unique_queries
    if size is None:
        size = (workload.clients * workload.requests_per_client
                * workload.nets_per_request)
    pool = []
    for j in range(size):
        net = random_net(rng, name=f"pool{j}",
                         n_nodes_range=workload.net_nodes,
                         n_sinks_range=(1, 4))
        pool.append(TimingQuery(
            net=net,
            input_slew_s=float(rng.uniform(5e-12, 8e-11)),
            drive_resistance_ohm=float(rng.uniform(50.0, 400.0))))
    return pool


def _build_requests(workload: ServeWorkload, client_index: int,
                    pool: List[TimingQuery]) -> List[ServeRequest]:
    """Deterministic request stream for one client thread.

    With ``unique_queries`` unset each query is drawn exactly once, so
    every request is cold; with a finite pool clients re-draw from it
    with replacement, the incremental-timing pattern.
    """
    import numpy as np

    rng = np.random.default_rng(workload.seed * 1009 + client_index + 1)
    requests = []
    cursor = client_index * workload.requests_per_client \
        * workload.nets_per_request
    for i in range(workload.requests_per_client):
        if workload.unique_queries is None:
            queries = pool[cursor:cursor + workload.nets_per_request]
            cursor += workload.nets_per_request
        else:
            picks = rng.integers(0, len(pool),
                                 size=workload.nets_per_request)
            queries = [pool[int(p)] for p in picks]
        requests.append(ServeRequest(
            queries=list(queries), deadline_ms=workload.deadline_ms,
            request_id=f"bench-c{client_index}-r{i}"))
    return requests


class _ClientStats:
    """Per-thread tallies, merged after the barrier (no shared locks)."""

    def __init__(self) -> None:
        self.outcomes = {key: 0 for key in OUTCOMES}
        self.nets_ok = 0
        self.nets_cached = 0
        self.latencies_s: List[float] = []
        self.tiers: Dict[str, int] = {}


def _run_client(host: str, port: int, workload: ServeWorkload,
                client_index: int, stats: _ClientStats,
                pool: List[TimingQuery]) -> None:
    client = TimingClient(host=host, port=port,
                          policy=RetryPolicy(max_attempts=3,
                                             base_backoff_s=0.02))
    for request in _build_requests(workload, client_index, pool):
        start = time.perf_counter()
        try:
            response = client.submit(request)
        except ServeClientError:
            stats.outcomes["transport"] += 1
            continue
        stats.latencies_s.append(time.perf_counter() - start)
        if response.ok:
            degraded = any(r.degraded for r in response.results or [])
            stats.outcomes["degraded" if degraded else "ok"] += 1
            for result in response.results or []:
                if result.ok:
                    stats.nets_ok += 1
                    if result.cached:
                        stats.nets_cached += 1
                    tier = result.tier or "?"
                    stats.tiers[tier] = stats.tiers.get(tier, 0) + 1
        else:
            kind = (response.error or {}).get("type", "InternalError")
            if kind == "OverloadError":
                stats.outcomes["rejected"] += 1
            elif kind == "DeadlineError":
                stats.outcomes["deadline"] += 1
            else:
                stats.outcomes["error"] += 1


def run_serve_bench(workload: ServeWorkload,
                    host: Optional[str] = None,
                    port: Optional[int] = None) -> Dict[str, Any]:
    """Run the load workload; returns the ``repro-serve-bench/1`` document.

    With neither ``host`` nor ``port`` an in-process service is started on
    an ephemeral port and torn down afterwards (the self-contained CI
    path); with both, the external server there is load-tested.  One
    without the other raises :class:`ValueError`.
    """
    from .server import ServeConfig, start_server

    if (host is None) != (port is None):
        raise ValueError("an external server needs both host and port")
    registry = get_metrics()
    registry.reset()
    handle = None
    if host is None:
        config = ServeConfig(host="127.0.0.1", port=0,
                             workers=workload.workers)
        handle = start_server(config)
        host, port = "127.0.0.1", handle.port
    try:
        pool = _build_pool(workload)
        stats = [_ClientStats() for _ in range(workload.clients)]
        threads = [threading.Thread(target=_run_client,
                                    args=(host, port, workload, i, stats[i],
                                          pool),
                                    name=f"loadgen-{i}", daemon=True)
                   for i in range(workload.clients)]
        start_wall = time.perf_counter()
        start_cpu = time.process_time()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall_s = time.perf_counter() - start_wall
        cpu_s = time.process_time() - start_cpu
    finally:
        if handle is not None:
            handle.stop(drain=True, timeout=10.0)

    outcomes = {key: sum(s.outcomes[key] for s in stats) for key in OUTCOMES}
    sent = workload.clients * workload.requests_per_client
    answered = sum(outcomes.values())
    lost = sent - answered

    latency = Histogram("serve.bench_latency_s")
    for per_client in stats:
        for seconds in per_client.latencies_s:
            latency.observe(max(seconds, 1e-9))
    tiers: Dict[str, int] = {}
    for per_client in stats:
        for tier, count in per_client.tiers.items():
            tiers[tier] = tiers.get(tier, 0) + count
    nets_ok = sum(s.nets_ok for s in stats)

    import platform

    import numpy as np

    document: Dict[str, Any] = {
        "schema": SERVE_BENCH_SCHEMA,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "numpy": np.__version__,
        },
        "workload": workload.to_dict(),
        "results": {
            "serve": {
                "wall_s": wall_s,
                "cpu_s": cpu_s,
                "requests_sent": sent,
                "outcomes": outcomes,
                "lost_requests": lost,
                "nets_requested": sent * workload.nets_per_request,
                "nets_ok": nets_ok,
                "nets_cached": sum(s.nets_cached for s in stats),
                "throughput_nets_per_s": (nets_ok / wall_s
                                          if wall_s > 0 else 0.0),
                "throughput_requests_per_s": (answered / wall_s
                                              if wall_s > 0 else 0.0),
                "latency_ms": {
                    "p50": (latency.percentile(50.0) * 1e3
                            if latency.count else 0.0),
                    "p90": (latency.percentile(90.0) * 1e3
                            if latency.count else 0.0),
                    "p99": (latency.percentile(99.0) * 1e3
                            if latency.count else 0.0),
                    "max": latency.max * 1e3 if latency.count else 0.0,
                },
                "tiers": tiers,
            },
        },
        "observability": observability_document(get_tracer(), registry),
    }
    return document


def write_serve_report(document: Dict[str, Any], out_dir: str = ".") -> str:
    """Write ``document`` as ``<out_dir>/SERVE_BENCH_<date>.json``."""
    date = document["created_utc"][:10]
    path = os.path.join(out_dir, f"SERVE_BENCH_{date}.json")
    dump_json(document, path=path)
    return path


def format_serve_summary(document: Dict[str, Any]) -> str:
    """Human digest printed after ``repro bench``."""
    serve = document["results"]["serve"]
    wall = serve["wall_s"]
    lat = serve["latency_ms"]
    lines = [f"serve bench workload {document['workload']['name']!r} "
             f"({document['created_utc']})",
             f"  {serve['requests_sent']} requests in {wall:.3f}s, "
             f"lost {serve['lost_requests']}",
             f"  outcomes {serve['outcomes']}",
             f"  latency p50/p90/p99 {lat['p50']:.2f}/{lat['p90']:.2f}/"
             f"{lat['p99']:.2f} ms (max {lat['max']:.2f})",
             f"  throughput {serve['throughput_nets_per_s']:.1f} nets/s "
             f"({serve['throughput_requests_per_s']:.1f} req/s), "
             f"{serve['nets_cached']}/{serve['nets_ok']} cached, "
             f"tiers {serve['tiers']}"]
    return "\n".join(lines)


__all__ = ["OUTCOMES", "QUICK_SERVE_WORKLOAD", "SERVE_BENCH_SCHEMA",
           "THROUGHPUT_SERVE_WORKLOAD", "ServeWorkload",
           "format_serve_summary", "run_serve_bench", "write_serve_report"]
