"""Incremental analysis cache: counters across cold, warm, and dirty runs."""

import json


PACKAGE = {
    "pkg/__init__.py": "from .tasks import label_net\n",
    "pkg/tasks.py": '''\
        from .helpers import noisy


        def label_net(item):
            return noisy(item)
    ''',
    "pkg/helpers.py": '''\
        def noisy(item):
            return item + 1
    ''',
    "pkg/standalone.py": '''\
        from repro.robustness.errors import NumericalError


        def solve(matrix):
            raise NumericalError("matrix is singular")
    ''',
}

EDITED_HELPERS = '''\
    def noisy(item):
        return item + 2
'''


class TestIncrementalCache:
    def test_cold_run_analyzes_everything(self, deep_lint, tmp_path):
        cache = str(tmp_path / "cache.json")
        findings, stats = deep_lint(PACKAGE, cache_path=cache)
        assert stats.modules_total == 4
        assert stats.modules_analyzed == 4
        assert stats.modules_cached == 0
        assert not stats.cache_loaded
        assert [f.rule for f in findings] == ["FLOW003"]

    def test_warm_run_serves_all_from_cache(self, deep_lint, tmp_path):
        cache = str(tmp_path / "cache.json")
        cold_findings, _ = deep_lint(PACKAGE, cache_path=cache)
        warm_findings, stats = deep_lint(PACKAGE, cache_path=cache)
        assert stats.cache_loaded
        assert stats.modules_analyzed == 0
        assert stats.modules_cached == 4
        # Cached findings replay identically.
        assert [(f.rule, f.line) for f in warm_findings] \
            == [(f.rule, f.line) for f in cold_findings]

    def test_edit_dirties_module_and_transitive_importers(self, deep_lint,
                                                          tmp_path):
        cache = str(tmp_path / "cache.json")
        deep_lint(PACKAGE, cache_path=cache)
        edited = dict(PACKAGE, **{"pkg/helpers.py": EDITED_HELPERS})
        _, stats = deep_lint(edited, cache_path=cache)
        # helpers changed; tasks imports helpers; __init__ imports tasks.
        # standalone imports neither, so it alone is served from cache.
        assert stats.modules_analyzed == 3
        assert stats.modules_cached == 1

    def test_cache_file_is_versioned_json(self, deep_lint, tmp_path):
        cache = tmp_path / "cache.json"
        deep_lint(PACKAGE, cache_path=str(cache))
        raw = json.loads(cache.read_text(encoding="utf-8"))
        assert "version" in raw or "schema" in raw

    def test_incompatible_cache_falls_back_to_cold(self, deep_lint, tmp_path):
        cache = tmp_path / "cache.json"
        cache.write_text(json.dumps({"version": -1, "modules": {}}),
                         encoding="utf-8")
        _, stats = deep_lint(PACKAGE, cache_path=str(cache))
        assert not stats.cache_loaded
        assert stats.modules_analyzed == 4

    def test_no_cache_path_never_writes(self, deep_lint, tmp_path):
        before = {p.name for p in tmp_path.iterdir()}
        deep_lint(PACKAGE, cache_path=None)
        after = {p.name for p in tmp_path.iterdir()}
        assert after - before == {"pkg"}


LOCKED = {
    "pkg/store.py": '''\
        import threading


        class Store:
            def __init__(self):
                self._a = threading.Lock()
                self._b = threading.Lock()

            def forward(self):
                with self._a:
                    with self._b:
                        pass

            def backward(self):
                with self._b:
                    with self._a:
                        pass
    ''',
}


class TestPackToggleInvalidation:
    """The cache key covers the enabled pack set (regression).

    A cache written by a plain ``--deep`` run must not be replayed
    verbatim once ``--concurrency`` joins: the old entries carry no pack
    models and their findings lists are silently missing pack results.
    The fingerprint now includes the pack set and each pack's version, so
    any toggle invalidates the whole cache.
    """

    def test_enabling_a_pack_invalidates_a_deep_only_cache(self, deep_lint,
                                                           tmp_path):
        cache = str(tmp_path / "cache.json")
        deep_lint(LOCKED, cache_path=cache)                     # cold
        _, warm = deep_lint(LOCKED, cache_path=cache)           # warm
        assert warm.cache_loaded and warm.modules_analyzed == 0

        findings, stats = deep_lint(LOCKED, cache_path=cache,
                                    concurrency=True)
        # The stale deep-only cache must NOT be served: pack toggles
        # change the fingerprint, forcing a cold re-analysis that can
        # actually see the lock-order cycle.
        assert not stats.cache_loaded
        assert stats.modules_analyzed == 1
        assert [f.rule for f in findings] == ["LOCK001", "LOCK001"]

    def test_warm_pack_run_replays_models_without_parsing(self, deep_lint,
                                                          tmp_path):
        cache = str(tmp_path / "cache.json")
        deep_lint(LOCKED, cache_path=cache, concurrency=True)
        findings, stats = deep_lint(LOCKED, cache_path=cache,
                                    concurrency=True)
        assert stats.cache_loaded
        assert stats.modules_analyzed == 0
        assert stats.modules_parsed == 0  # models came from the cache
        assert stats.concurrency["models_reused"] == 1
        assert stats.concurrency["models_extracted"] == 0
        # Pack findings are assembled fresh from cached models, never
        # replayed from stale per-module finding lists.
        assert [f.rule for f in findings] == ["LOCK001", "LOCK001"]

    def test_disabling_the_pack_invalidates_again(self, deep_lint, tmp_path):
        cache = str(tmp_path / "cache.json")
        deep_lint(LOCKED, cache_path=cache, concurrency=True)
        findings, stats = deep_lint(LOCKED, cache_path=cache)
        assert not stats.cache_loaded
        assert findings == []  # no pack, no pack findings
