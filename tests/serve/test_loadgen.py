"""``repro bench``: census integrity, report shape and exit status."""

import copy
import json
import re

import numpy as np
import pytest

from repro.cli import main
from repro.serve import loadgen
from repro.serve.loadgen import (OUTCOMES, QUICK_SERVE_WORKLOAD,
                                 SERVE_BENCH_SCHEMA,
                                 THROUGHPUT_SERVE_WORKLOAD, ServeWorkload,
                                 _build_pool, _build_requests,
                                 format_serve_summary, run_serve_bench)


@pytest.fixture(scope="module")
def document():
    tiny = ServeWorkload(name="serve-test", clients=2,
                         requests_per_client=3, nets_per_request=2,
                         net_nodes=(5, 9), workers=2)
    return run_serve_bench(tiny)


class TestWorkloadDeterminism:
    def test_pool_is_deterministic_from_seed(self):
        workload = ServeWorkload(name="d", clients=2, requests_per_client=2,
                                 nets_per_request=2, unique_queries=8)
        a, b = _build_pool(workload), _build_pool(workload)
        assert len(a) == len(b) == 8
        assert [q.cache_key() for q in a] == [q.cache_key() for q in b]

    def test_cold_workload_queries_are_disjoint_per_client(self):
        workload = ServeWorkload(name="cold", clients=2,
                                 requests_per_client=2, nets_per_request=3)
        pool = _build_pool(workload)
        seen = set()
        for c in range(workload.clients):
            for request in _build_requests(workload, c, pool):
                for query in request.queries:
                    key = query.cache_key()
                    assert key not in seen
                    seen.add(key)

    def test_finite_pool_redraws_with_replacement(self):
        workload = ServeWorkload(name="warm", clients=1,
                                 requests_per_client=8, nets_per_request=8,
                                 unique_queries=4)
        pool = _build_pool(workload)
        keys = {q.cache_key()
                for request in _build_requests(workload, 0, pool)
                for q in request.queries}
        assert len(keys) <= 4

    def test_workload_dict_declares_serve_mode(self):
        # The schema id names the report kind; the workload block holds
        # only the load knobs.
        assert SERVE_BENCH_SCHEMA == "repro-serve-bench/1"
        doc = QUICK_SERVE_WORKLOAD.to_dict()
        assert doc["name"] == "serve-quick"
        assert "mode" not in doc and "jobs" not in doc
        assert THROUGHPUT_SERVE_WORKLOAD.to_dict()["unique_queries"] == 128


class TestBenchRun:
    def test_zero_lost_and_census_total(self, document):
        serve = document["results"]["serve"]
        assert document["schema"] == SERVE_BENCH_SCHEMA
        assert serve["lost_requests"] == 0
        assert sum(serve["outcomes"].values()) == serve["requests_sent"] == 6
        assert set(serve["outcomes"]) == set(OUTCOMES)

    def test_environment_block_records_execution_config(self, document):
        env = document["environment"]
        assert set(env) == {"python", "platform", "numpy"}
        assert env["numpy"] == np.__version__

    def test_summary_renders(self, document):
        text = format_serve_summary(document)
        assert "serve-test" in text and "latency p50/p90/p99" in text


class TestBenchCli:
    def test_quick_bench_writes_report_and_exits_zero(self, tmp_path,
                                                      capsys):
        assert main(["bench", "--quick", "-o", str(tmp_path)]) == 0
        [path] = tmp_path.iterdir()
        assert re.fullmatch(r"SERVE_BENCH_\d{4}-\d{2}-\d{2}\.json",
                            path.name)
        report = json.loads(path.read_text())
        assert report["schema"] == SERVE_BENCH_SCHEMA
        assert path.name == f"SERVE_BENCH_{report['created_utc'][:10]}.json"
        assert report["workload"]["name"] == "serve-quick"
        assert report["results"]["serve"]["lost_requests"] == 0
        assert "wrote" in capsys.readouterr().out

    def test_lost_request_exits_one(self, tmp_path, monkeypatch, document,
                                    capsys):
        lossy = copy.deepcopy(document)
        lossy["results"]["serve"]["outcomes"]["ok"] -= 1
        lossy["results"]["serve"]["lost_requests"] = 1
        monkeypatch.setattr(loadgen, "run_serve_bench",
                            lambda workload, host=None, port=None: lossy)
        assert main(["bench", "--quick", "-o", str(tmp_path)]) == 1
        assert "1 request(s) lost" in capsys.readouterr().err
        assert len(list(tmp_path.iterdir())) == 1  # the report is kept

    @pytest.mark.parametrize("half", [["--port", "1"],
                                      ["--host", "127.0.0.1"]])
    def test_host_without_port_is_a_usage_error(self, half, tmp_path,
                                                monkeypatch, capsys):
        """One of --host/--port alone must not load-test a fresh
        in-process service in place of the named server."""
        def unreachable(*args, **kwargs):
            raise AssertionError("no load run may start")

        monkeypatch.setattr(loadgen, "run_serve_bench", unreachable)
        assert main(["bench", "--quick", "-o", str(tmp_path)] + half) == 2
        assert "--host and --port" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("host, port", [(None, 1), ("127.0.0.1", None)])
    def test_run_serve_bench_rejects_half_an_address(self, host, port):
        with pytest.raises(ValueError, match="both host and port"):
            run_serve_bench(QUICK_SERVE_WORKLOAD, host=host, port=port)
