"""The CONC pack: lock-order, guarded-by, thread-escape, and the graph.

Every rule gets a positive fixture (the finding fires on the exact line)
and a negative twin (the disciplined version stays clean), because the
concurrency tier's value is precision: a lint that cries wolf on correct
locking gets suppressed wholesale.  The lock graph itself is covered by a
synthetic golden here and a real serve-subsystem golden in
``test_serve_lock_graph_golden``.
"""

import textwrap
from pathlib import Path

import pytest

from repro.lint import DeepAnalyzer, build_lock_graph, dump_lock_graph

REPO = Path(__file__).resolve().parents[2]
GOLDEN = Path(__file__).parent / "goldens" / "serve_lock_graph.txt"


@pytest.fixture
def conc_lint(tmp_path, monkeypatch):
    """Write a package of snippets, run deep+concurrency, return findings.

    ``conc(files)`` -> ``(findings, stats)``; files map relative paths to
    source text.
    """
    monkeypatch.chdir(tmp_path)

    def conc(files):
        for name, source in files.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source), encoding="utf-8")
        analyzer = DeepAnalyzer(concurrency=True)
        return analyzer.analyze(sorted(files))

    return conc


@pytest.fixture
def graph_of(tmp_path, monkeypatch):
    """Write snippets and return their standalone lock graph."""
    monkeypatch.chdir(tmp_path)

    def build(files):
        for name, source in files.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source), encoding="utf-8")
        return build_lock_graph(sorted(files))

    return build


def _rules(findings):
    return sorted(f.rule for f in findings)


# ----------------------------------------------------------------------
# LOCK001: lock-order cycles
# ----------------------------------------------------------------------
INVERTED = """\
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
"""


def test_lock001_reports_inverted_nesting(conc_lint):
    findings, stats = conc_lint({"pkg/store.py": INVERTED})
    lock001 = [f for f in findings if f.rule == "LOCK001"]
    # Both edges of the 2-cycle are reported, each at its own with-site.
    assert len(lock001) == 2
    assert all(f.severity == "error" for f in lock001)
    assert all("Store._a" in f.message and "Store._b" in f.message
               for f in lock001)
    assert stats.concurrency["lock_edges"] == 2


def test_lock001_clean_on_consistent_order(conc_lint):
    consistent = INVERTED.replace(
        "with self._b:\n                with self._a:",
        "with self._a:\n                with self._b:")
    findings, stats = conc_lint({"pkg/store.py": consistent})
    assert _rules(findings) == []
    assert stats.concurrency["lock_edges"] == 1


def test_lock001_cycle_through_transitive_call(conc_lint):
    """The closing edge may live in a callee two hops away."""
    files = {
        "pkg/a.py": """\
            import threading

            from . import b


            class Alpha:
                def __init__(self):
                    self._lock = threading.Lock()

                def poke(self):
                    with self._lock:
                        b.deposit()

                def grab(self):
                    with self._lock:
                        pass
        """,
        "pkg/b.py": """\
            import threading

            from . import a

            _LOCK = threading.Lock()
            ALPHA = a.Alpha()


            def deposit():
                with _LOCK:
                    pass


            def sweep():
                with _LOCK:
                    _helper()


            def _helper():
                ALPHA.grab()
        """,
        "pkg/__init__.py": "",
    }
    findings, _ = conc_lint(files)
    lock001 = [f for f in findings if f.rule == "LOCK001"]
    assert lock001, "cross-module cycle must be found"
    assert any("pkg.b._LOCK" in f.message for f in lock001)


# ----------------------------------------------------------------------
# LOCK002: callbacks under a lock
# ----------------------------------------------------------------------
CALLBACK = """\
    import threading


    class Notifier:
        def __init__(self, on_event):
            self.on_event = on_event
            self._lock = threading.Lock()

        def fire(self):
            with self._lock:
                self.on_event()

        def run(self, fn):
            with self._lock:
                fn()
"""


def test_lock002_flags_injected_attribute_and_parameter(conc_lint):
    findings, _ = conc_lint({"pkg/notify.py": CALLBACK})
    lock002 = [f for f in findings if f.rule == "LOCK002"]
    assert len(lock002) == 2
    messages = " | ".join(f.message for f in lock002)
    assert "injected attribute 'self.on_event'" in messages
    assert "parameter 'fn'" in messages
    assert all(f.severity == "warning" for f in lock002)


def test_lock002_clean_when_called_outside_lock(conc_lint):
    clean = """\
        import threading


        class Notifier:
            def __init__(self, on_event):
                self.on_event = on_event
                self._lock = threading.Lock()

            def fire(self):
                with self._lock:
                    pending = True
                if pending:
                    self.on_event()
    """
    findings, _ = conc_lint({"pkg/notify.py": clean})
    assert _rules(findings) == []


def test_lock002_suppressible_inline(conc_lint):
    suppressed = CALLBACK.replace(
        "self.on_event()",
        "self.on_event()  # repro-lint: disable=LOCK002 non-blocking")
    findings, stats = conc_lint({"pkg/notify.py": suppressed})
    assert len([f for f in findings if f.rule == "LOCK002"]) == 1
    assert stats.suppressed == 1


# ----------------------------------------------------------------------
# GUARD001: declared and inferred guards
# ----------------------------------------------------------------------
GUARDED = """\
    import threading


    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = {}  # repro-guarded-by: _lock

        def put(self, key, value):
            with self._lock:
                self._items[key] = value

        def peek(self, key):
            return self._items.get(key)
"""


def test_guard001_flags_unlocked_access_to_annotated_attr(conc_lint):
    findings, _ = conc_lint({"pkg/box.py": GUARDED})
    guard = [f for f in findings if f.rule == "GUARD001"]
    assert len(guard) == 1
    assert guard[0].severity == "error"
    assert "Box._items" in guard[0].message
    assert "Box.peek" in guard[0].message


def test_guard001_clean_when_every_access_holds_the_lock(conc_lint):
    clean = GUARDED.replace(
        "        return self._items.get(key)",
        "        with self._lock:\n"
        "            return self._items.get(key)")
    findings, _ = conc_lint({"pkg/box.py": clean})
    assert _rules(findings) == []


def test_guard001_rejects_annotation_naming_missing_lock(conc_lint):
    bad = GUARDED.replace("repro-guarded-by: _lock",
                          "repro-guarded-by: _mutex")
    findings, _ = conc_lint({"pkg/box.py": bad})
    assert any(f.rule == "GUARD001" and "no such lock" in f.message
               for f in findings)


def test_guard001_dotted_annotation_documents_external_guard(conc_lint):
    """``Owner._lock`` marks an externally-serialized field: unchecked."""
    external = """\
        import threading


        class Inner:
            def __init__(self):
                self.count = 0  # repro-guarded-by: Owner._lock

            def bump(self):
                self.count += 1


        class Owner:
            def __init__(self):
                self._lock = threading.Lock()
                self.inner = Inner()

            def bump(self):
                with self._lock:
                    self.inner.bump()
    """
    findings, _ = conc_lint({"pkg/ext.py": external})
    assert _rules(findings) == []


def test_guard001_locked_suffix_requires_caller_lock(conc_lint):
    locked = """\
        import threading


        class Pool:
            def __init__(self):
                self._lock = threading.Lock()
                self._slots = []  # repro-guarded-by: _lock

            def _grow_locked(self):
                self._slots.append(object())

            def grow(self):
                self._grow_locked()

            def grow_safely(self):
                with self._lock:
                    self._grow_locked()
    """
    findings, _ = conc_lint({"pkg/pool.py": locked})
    guard = [f for f in findings if f.rule == "GUARD001"]
    assert len(guard) == 1
    assert "Pool.grow" in guard[0].message
    assert "_locked suffix" in guard[0].message


def test_guard001_infers_guard_from_majority_usage(conc_lint):
    inferred = """\
        import threading


        class Tally:
            def __init__(self):
                self._lock = threading.Lock()
                self.rows = []

            def add(self, row):
                with self._lock:
                    self.rows.append(row)

            def drop(self):
                with self._lock:
                    self.rows.clear()

            def skim(self):
                return self.rows[-1]
    """
    findings, _ = conc_lint({"pkg/tally.py": inferred})
    guard = [f for f in findings if f.rule == "GUARD001"]
    assert len(guard) == 1
    assert guard[0].severity == "warning"
    assert "Tally.skim" in guard[0].message
    assert "repro-guarded-by" in guard[0].message


# ----------------------------------------------------------------------
# ESCAPE001: thread escape
# ----------------------------------------------------------------------
ESCAPE = """\
    import threading

    RESULTS = []


    def worker():
        RESULTS.append(1)


    def launch():
        thread = threading.Thread(target=worker)
        thread.start()
        return thread
"""


def test_escape001_flags_unlocked_global_mutation(conc_lint):
    findings, _ = conc_lint({"pkg/jobs.py": ESCAPE})
    escape = [f for f in findings if f.rule == "ESCAPE001"]
    assert len(escape) == 1
    assert "RESULTS.append()" in escape[0].message
    assert "thread spawn" in escape[0].message


def test_escape001_clean_under_module_lock(conc_lint):
    clean = ESCAPE.replace(
        "RESULTS = []",
        "RESULTS = []\n_RESULTS_LOCK = threading.Lock()").replace(
        "    RESULTS.append(1)",
        "    with _RESULTS_LOCK:\n        RESULTS.append(1)")
    findings, _ = conc_lint({"pkg/jobs.py": clean})
    assert _rules(findings) == []


def test_escape001_reaches_through_transitive_calls(conc_lint):
    deep = """\
        import threading

        STATE = {}


        def _inner():
            STATE["k"] = 1


        def _outer():
            _inner()


        def launch(pool):
            pool.submit(_outer)
    """
    findings, _ = conc_lint({"pkg/deep.py": deep})
    escape = [f for f in findings if f.rule == "ESCAPE001"]
    assert len(escape) == 1
    assert "submit spawn" in escape[0].message


def test_escape001_thread_target_global_rebind(conc_lint):
    rebind = """\
        import threading

        TOTAL = 0


        def bump():
            global TOTAL
            TOTAL += 1


        def run():
            thread = threading.Thread(target=bump)
            thread.start()
            return thread
    """
    findings, _ = conc_lint({"pkg/rebind.py": rebind})
    escape = [f for f in findings if f.rule == "ESCAPE001"]
    assert len(escape) == 1
    assert "TOTAL" in escape[0].message
    assert "thread spawn" in escape[0].message


def test_escape001_ignores_local_shadows(conc_lint):
    shadowed = """\
        import threading

        RESULTS = []


        def worker():
            RESULTS = []
            RESULTS.append(1)
            return RESULTS


        def launch():
            threading.Thread(target=worker).start()
    """
    findings, _ = conc_lint({"pkg/shadow.py": shadowed})
    assert _rules(findings) == []


# ----------------------------------------------------------------------
# The lock graph
# ----------------------------------------------------------------------
def test_condition_aliases_to_its_underlying_lock(graph_of):
    graph = graph_of({"pkg/cond.py": """\
        import threading


        class Queue:
            def __init__(self):
                self._lock = threading.Lock()
                self._not_empty = threading.Condition(self._lock)

            def wake(self):
                with self._not_empty:
                    pass
    """})
    # The Condition is not a distinct node: acquiring it is acquiring
    # the underlying lock, exactly as at runtime.
    assert "Queue._lock" in graph.locks
    assert "Queue._not_empty" not in graph.locks


def test_named_lock_counts_as_lock_constructor(graph_of):
    graph = graph_of({"pkg/named.py": """\
        from repro.obs import named_lock


        class Cache:
            def __init__(self):
                self._lock = named_lock("Cache._lock")
    """})
    assert graph.locks["Cache._lock"] == ("Lock", "pkg.named")


def test_graph_dump_golden_is_stable(graph_of, tmp_path):
    files = {"pkg/pair.py": """\
        import threading

        _REGISTRY = threading.Lock()


        class Worker:
            def __init__(self):
                self._lock = threading.RLock()

            def enroll(self):
                with self._lock:
                    with _REGISTRY:
                        pass
    """}
    graph = graph_of(files)
    assert graph.dump() == (
        "lock-graph: 2 lock(s), 1 edge(s)\n"
        "lock Worker._lock (RLock) defined-in pkg.pair\n"
        "lock pkg.pair._REGISTRY (Lock) defined-in pkg.pair\n"
        "edge Worker._lock -> pkg.pair._REGISTRY via pkg.pair:Worker.enroll")
    # Dumping twice (and re-building) is byte-identical.
    assert graph.dump() == graph_of(files).dump()


def test_serve_lock_graph_golden():
    """The real serving stack's lock graph, pinned.

    No line numbers appear in the dump, so this golden only moves when a
    lock is added/removed/renamed or a nesting edge changes — exactly the
    diffs a reviewer must see.  Regenerate with::

        PYTHONPATH=src python -c "from repro.lint import dump_lock_graph; \\
            print(dump_lock_graph([...files below...]))"
    """
    files = [str(REPO / "src" / "repro" / rel) for rel in (
        "serve/admission.py", "serve/engine.py", "serve/lifecycle.py",
        "obs/metrics.py", "obs/lockwatch.py")]
    expected = GOLDEN.read_text(encoding="utf-8").rstrip("\n")
    assert dump_lock_graph(files) == expected


def test_repo_lock_graph_is_acyclic():
    """Global invariant: no lock-order cycles anywhere in src/repro."""
    graph = build_lock_graph([str(REPO / "src" / "repro")])
    for outer, inner in graph.edges:
        assert graph.cycle_path(inner, outer) is None, (
            f"lock-order cycle through {outer} -> {inner}")
    assert len(graph.locks) >= 9


# ----------------------------------------------------------------------
# Wiring: stats, report, CLI surface
# ----------------------------------------------------------------------
def test_stats_carry_concurrency_block(conc_lint):
    findings, stats = conc_lint({"pkg/store.py": INVERTED})
    assert stats.concurrency == {
        "modules": 1, "findings": 2, "locks": 2, "lock_edges": 2}
    assert "CONC" in stats.as_dict()["packs"]


def test_plain_deep_run_has_no_concurrency_block(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "mod.py").write_text("x = 1\n", encoding="utf-8")
    analyzer = DeepAnalyzer()
    _, stats = analyzer.analyze(["mod.py"])
    assert stats.concurrency is None
    assert "CONC" not in stats.as_dict()["packs"]
