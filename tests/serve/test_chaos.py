"""The chaos gate: injected faults against a LIVE service, zero lost requests.

Every scenario starts a real service (worker threads + HTTP front on an
ephemeral port), fires concurrent client load while a fault is active,
and asserts the zero-lost-request invariant: every request submitted
terminates in exactly one of the typed outcomes — a prediction (possibly
degraded, with provenance), a typed taxonomy error, or a client-side
transport failure.  No fourth bucket, no silent drops.

Faults injected: a pathologically slow tier, corrupted parasitics on the
wire, a NaN-weights model tier, worker crashes mid-batch, and an
overload storm against a tiny queue.
"""

import threading

import numpy as np

from repro.design.sta import AWEWireModel
from repro.robustness.faultinject import FaultInjector
from repro.serve.client import RetryPolicy, ServeClientError, TimingClient
from repro.serve.engine import EstimationEngine
from repro.serve.protocol import ServeRequest, TimingQuery, net_to_dict
from repro.serve.server import ServeConfig, start_server
from repro.serve.admission import AdmissionConfig

from .conftest import make_queries

OUTCOME_KEYS = ("ok", "degraded", "rejected", "deadline", "error",
                "transport")


def fire(port, request_batches, max_attempts=1, timeout_s=30.0):
    """Concurrent closed-loop clients; returns the terminal-outcome census.

    One thread per batch; every ``submit`` is tallied into exactly one
    outcome bucket.  The census total equals the number of requests sent
    by construction *of the client contract* — the assertion that makes
    this a gate is ``assert census totals == sent`` in each test.
    """
    census = {key: 0 for key in OUTCOME_KEYS}
    responses = []
    lock = threading.Lock()

    def client_loop(batch):
        client = TimingClient(
            host="127.0.0.1", port=port, timeout_s=timeout_s,
            policy=RetryPolicy(max_attempts=max_attempts,
                               base_backoff_s=0.01))
        for request in batch:
            try:
                response = client.submit(request)
            except ServeClientError:
                with lock:
                    census["transport"] += 1
                continue
            with lock:
                responses.append(response)
                if response.ok:
                    if any(r.degraded for r in response.results):
                        census["degraded"] += 1
                    else:
                        census["ok"] += 1
                else:
                    kind = (response.error or {}).get("type")
                    if kind == "OverloadError":
                        census["rejected"] += 1
                    elif kind == "DeadlineError":
                        census["deadline"] += 1
                    else:
                        census["error"] += 1

    threads = [threading.Thread(target=client_loop, args=(batch,))
               for batch in request_batches]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return census, responses


def batches(clients, per_client, nets=2, deadline_ms=10_000.0, seed0=20):
    return [[ServeRequest(queries=make_queries(nets, seed=seed0 + c * 97
                                               + r),
                          deadline_ms=deadline_ms,
                          request_id=f"c{c}r{r}")
             for r in range(per_client)]
            for c in range(clients)]


def assert_zero_lost(census, sent):
    answered = sum(census.values())
    assert answered == sent, (
        f"lost {sent - answered} of {sent} requests: {census}")


def assert_total_termination(responses):
    """Every query of every answered request has exactly one outcome."""
    for response in responses:
        if response.ok:
            for result in response.results:
                assert result.ok or (
                    isinstance(result.error, dict)
                    and "type" in result.error)
        else:
            assert isinstance(response.error, dict)
            assert "type" in response.error


class TestSlowTierChaos:
    def test_stalling_tier_degrades_but_never_loses(self):
        injector = FaultInjector(seed=5)
        # Every third call through the slow tier stalls well past the
        # per-net budget; the chain must time it out and degrade.
        engine = EstimationEngine(
            net_timeout=0.05,
            extra_tiers=[injector.slow_tier(AWEWireModel(), delay_s=0.25,
                                            every=3)])
        handle = start_server(ServeConfig(port=0, workers=2), engine=engine)
        try:
            load = batches(clients=4, per_client=4)
            census, responses = fire(handle.port, load, max_attempts=2)
        finally:
            handle.stop(drain=False, timeout=10.0)
        assert_zero_lost(census, 16)
        assert_total_termination(responses)
        assert census["ok"] + census["degraded"] + census["deadline"] == 16


class TestCorruptedNetChaos:
    def test_poisoned_parasitics_answered_with_typed_outcomes(self):
        injector = FaultInjector(seed=9)
        clean = make_queries(2, seed=31)
        load = []
        for c in range(3):
            requests = []
            for r in range(4):
                queries = make_queries(2, seed=200 + c * 13 + r)
                if r % 2 == 0:
                    mode = ("nan_resistance", "nan_cap", "inf_cap",
                            "negative_resistance")[(c + r) % 4]
                    bad = injector.corrupt_rc_values(queries[0].net,
                                                     mode=mode)
                    queries[0] = TimingQuery(
                        net=bad, input_slew_s=queries[0].input_slew_s,
                        drive_resistance_ohm=queries[
                            0].drive_resistance_ohm)
                requests.append(ServeRequest(
                    queries=queries + clean, deadline_ms=10_000.0,
                    request_id=f"corrupt-{c}-{r}"))
            load.append(requests)
        handle = start_server(ServeConfig(port=0, workers=2))
        try:
            census, responses = fire(handle.port, load)
        finally:
            handle.stop(drain=False, timeout=10.0)
        assert_zero_lost(census, 12)
        assert_total_termination(responses)
        # Corruption must never look like success-without-provenance:
        # each poisoned request either failed parse (typed InputError,
        # counted under "error") or came back degraded/served through
        # the ladder.
        assert census["transport"] == 0

    def test_wire_level_garbage_net_is_typed_not_dropped(self, live_server):
        import http.client
        import json

        query = make_queries(1, seed=40)[0]
        doc = net_to_dict(query.net)
        doc["edges"][0] = [0, 99, 100.0]      # dangling node index
        payload = json.dumps({
            "schema": "repro-serve/1",
            "queries": [{"net": doc, "input_slew_s": 1e-11,
                         "drive_resistance_ohm": 100.0}]}).encode()
        connection = http.client.HTTPConnection("127.0.0.1",
                                                live_server.port,
                                                timeout=10.0)
        try:
            connection.request("POST", "/v1/timing", body=payload)
            response = connection.getresponse()
            body = json.loads(response.read())
        finally:
            connection.close()
        assert response.status == 400
        assert body["error"]["type"] == "InputError"


class TestNaNWeightsChaos:
    def test_nan_model_tier_degrades_every_request(self):
        class _NaNWeightsTier:
            name = "poisoned-learned"

            def wire_timing(self, net, input_slew, sink_loads,
                            drive_resistance, context=None):
                n = net.num_sinks
                return (np.full(n, float("nan")),
                        np.full(n, float("nan")))

        engine = EstimationEngine(extra_tiers=[_NaNWeightsTier()])
        handle = start_server(ServeConfig(port=0, workers=2), engine=engine)
        try:
            load = batches(clients=3, per_client=4)
            census, responses = fire(handle.port, load)
        finally:
            handle.stop(drain=False, timeout=10.0)
        assert_zero_lost(census, 12)
        assert_total_termination(responses)
        # The NaN tier can never serve: every answered prediction must
        # carry degradation provenance naming it.
        for response in responses:
            assert response.ok
            for result in response.results:
                assert result.ok
                assert np.isfinite(result.delays_s).all()
                if not result.cached:
                    assert any(f["tier"] == "poisoned-learned"
                               for f in result.failures)


class TestWorkerCrashChaos:
    def test_crashing_workers_respawn_and_answers_keep_flowing(self):
        crash_every = 7
        calls = [0]
        call_lock = threading.Lock()

        class _CrashingTier:
            """Takes down its whole worker thread every N-th net."""

            name = "crashy"

            def wire_timing(self, net, input_slew, sink_loads,
                            drive_resistance, context=None):
                with call_lock:
                    calls[0] += 1
                    count = calls[0]
                if count % crash_every == 0:
                    raise SystemExit("chaos: worker killed mid-batch")
                n = net.num_sinks
                return np.full(n, 2e-12), np.full(n, 3e-12)

        engine = EstimationEngine(extra_tiers=[_CrashingTier()],
                                  cache_size=0)
        handle = start_server(
            ServeConfig(port=0, workers=2, max_restarts=64), engine=engine)
        try:
            load = batches(clients=4, per_client=5)
            census, responses = fire(handle.port, load)
            restarts = handle.service.supervisor.restarts
        finally:
            handle.stop(drain=False, timeout=10.0)
        assert_zero_lost(census, 20)
        assert_total_termination(responses)
        assert restarts >= 1                 # the supervisor earned its keep
        # Crash recovery serves on the terminal tier: some answers are
        # degraded, none are lost.
        assert census["ok"] + census["degraded"] == 20


class TestOverloadChaos:
    def test_storm_against_tiny_queue_rejects_honestly(self):
        class _GlacialTier:
            name = "glacial"

            def wire_timing(self, net, input_slew, sink_loads,
                            drive_resistance, context=None):
                import time

                time.sleep(0.05)
                n = net.num_sinks
                return np.full(n, 2e-12), np.full(n, 3e-12)

        engine = EstimationEngine(extra_tiers=[_GlacialTier()],
                                  net_timeout=None, cache_size=0)
        config = ServeConfig(
            port=0, workers=1,
            admission=AdmissionConfig(max_queue=2, shed_depth=1,
                                      shed_hard_depth=2,
                                      default_deadline_s=5.0))
        handle = start_server(config, engine=engine)
        try:
            load = batches(clients=8, per_client=4, nets=1,
                           deadline_ms=5000.0)
            census, responses = fire(handle.port, load)
        finally:
            handle.stop(drain=False, timeout=10.0)
        assert_zero_lost(census, 32)
        assert_total_termination(responses)
        # The storm must produce real backpressure, and the queue bound
        # means most of the flood is answered *somehow* — shed tiers,
        # rejections, or deadline errors — never buffered into oblivion.
        assert census["rejected"] > 0
        assert census["ok"] + census["degraded"] > 0


class TestDrainUnderLoad:
    def test_mid_load_drain_loses_nothing(self):
        handle = start_server(ServeConfig(port=0, workers=2))
        load = batches(clients=3, per_client=6, nets=1)

        def delayed_drain():
            handle.service.drain()

        try:
            drainer = threading.Timer(0.05, delayed_drain)
            drainer.start()
            census, responses = fire(handle.port, load)
            drainer.join()
        finally:
            handle.stop(drain=True, timeout=10.0)
        assert_zero_lost(census, 18)
        assert_total_termination(responses)
        # Requests racing the drain split between served and rejected;
        # both are terminal, neither is silence.
        served = census["ok"] + census["degraded"]
        assert served + census["rejected"] + census["deadline"] == 18


class TestLockWatchdogChaos:
    """The runtime half of ``lint --concurrency``: a chaos-shaped load with
    every named lock instrumented.  Two assertions make this a gate —
    the run itself stays inversion-free (the watchdog counts every
    inversion it raises, even one a serve worker catches and answers as
    a degraded net), and the observed acquisition orders compose
    acyclically with the *static* lock graph, so neither view hides a
    deadlock the other would catch."""

    def test_watchdog_chaos_run_is_inversion_free_and_acyclic(
            self, monkeypatch):
        from pathlib import Path

        from repro.lint import build_lock_graph
        from repro.obs import WATCHDOG_ENV, get_lock_watchdog
        from repro.obs.lockwatch import WatchedLock

        monkeypatch.setenv(WATCHDOG_ENV, "1")
        watchdog = get_lock_watchdog()
        watchdog.reset()
        # Construct the engine AFTER flipping the env: the gate is read at
        # lock-creation time, so only post-flip structures are watched.
        engine = EstimationEngine()
        assert isinstance(engine.cache._lock, WatchedLock)
        handle = start_server(ServeConfig(port=0, workers=2), engine=engine)
        try:
            load = batches(clients=4, per_client=4)
            census, responses = fire(handle.port, load)
        finally:
            handle.stop(drain=True, timeout=10.0)
            observed = set(watchdog.edges())
            inversions = watchdog.inversions()
            watchdog.reset()
        assert inversions == 0, f"{inversions} lock-order inversion(s)"
        assert_zero_lost(census, 16)
        assert_total_termination(responses)
        assert census["ok"] + census["degraded"] == 16
        # Watched locks are leaf-like by design (the only locks nested
        # inside them are the deliberately-plain instrument locks), so an
        # empty observed-edge set is the *expected* healthy outcome — but
        # it is also what a dead watchdog would report.  Disambiguate by
        # probing: a nested acquisition on fresh named locks, created
        # under the same env gate, must be recorded.
        from repro.obs import named_lock

        probe_outer = named_lock("chaos.probe_outer")
        probe_inner = named_lock("chaos.probe_inner")
        assert isinstance(probe_outer, WatchedLock)
        try:
            with probe_outer:
                with probe_inner:
                    pass
            assert ("chaos.probe_outer",
                    "chaos.probe_inner") in watchdog.edges()
        finally:
            watchdog.reset()

        repo = Path(__file__).resolve().parents[2]
        static = build_lock_graph([str(repo / "src" / "repro")])
        combined = set(static.edges) | observed
        adjacency = {}
        for outer, inner in combined:
            adjacency.setdefault(outer, set()).add(inner)

        def reaches(start, goal, seen):
            for nxt in adjacency.get(start, ()):
                if nxt == goal:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    if reaches(nxt, goal, seen):
                        return True
            return False

        for outer, inner in sorted(combined):
            assert not reaches(inner, outer, {inner}), (
                f"static+observed lock orders form a cycle through "
                f"{outer} -> {inner}")
