"""Per-rule positive/negative fixtures: every rule fires, and only when
it should."""

from tests.lint.conftest import rule_names


class TestDET001LegacyGlobalRng:
    def test_legacy_api_fires(self, lint_snippet):
        result = lint_snippet("""
            import numpy as np

            def draw():
                np.random.seed(0)
                return np.random.rand(3)
        """, select=["DET001"])
        assert rule_names(result) == ["DET001", "DET001"]

    def test_unseeded_default_rng_fires(self, lint_snippet):
        result = lint_snippet("""
            import numpy as np

            def draw():
                return np.random.default_rng().random()
        """, select=["DET001"])
        assert rule_names(result) == ["DET001"]
        assert "without a seed" in result.findings[0].message

    def test_module_level_rng_fires_even_when_seeded(self, lint_snippet):
        result = lint_snippet("""
            import numpy as np

            GEN = np.random.default_rng(7)
        """, select=["DET001"])
        assert rule_names(result) == ["DET001"]
        assert "module scope" in result.findings[0].message

    def test_seeded_generator_parameter_is_clean(self, lint_snippet):
        result = lint_snippet("""
            import numpy as np

            def draw(rng: np.random.Generator, seed: int):
                local = np.random.default_rng(seed)
                return rng.normal() + local.random()
        """, select=["DET001"])
        assert result.findings == []

    def test_function_default_executes_at_import_time(self, lint_snippet):
        result = lint_snippet("""
            import numpy as np

            def draw(rng=np.random.default_rng(0)):
                return rng.random()
        """, select=["DET001"])
        assert rule_names(result) == ["DET001"]


class TestDET002StdlibRandom:
    def test_import_fires(self, lint_snippet):
        result = lint_snippet("import random\n", select=["DET002"])
        assert rule_names(result) == ["DET002"]

    def test_from_import_fires(self, lint_snippet):
        result = lint_snippet("from random import choice\n",
                              select=["DET002"])
        assert rule_names(result) == ["DET002"]

    def test_numpy_random_import_is_clean(self, lint_snippet):
        result = lint_snippet("import numpy.random\n", select=["DET002"])
        assert result.findings == []


class TestDET003WallClock:
    def test_time_time_in_pipeline_fires(self, lint_snippet):
        result = lint_snippet("""
            import time

            def label_key():
                return time.time()
        """, name="features/keys.py", select=["DET003"])
        assert rule_names(result) == ["DET003"]

    def test_perf_counter_is_clean(self, lint_snippet):
        result = lint_snippet("""
            import time

            def measure():
                return time.perf_counter()
        """, name="features/keys.py", select=["DET003"])
        assert result.findings == []

    def test_obs_module_is_exempt(self, lint_snippet):
        result = lint_snippet("""
            import time

            def stamp():
                return time.time()
        """, name="obs/tracer_fixture.py", select=["DET003"])
        assert result.findings == []


class TestDET004SetIteration:
    def test_for_over_set_call_fires(self, lint_snippet):
        result = lint_snippet("""
            def emit(items):
                for item in set(items):
                    print(item)
        """, select=["DET004"])
        assert rule_names(result) == ["DET004"]

    def test_comprehension_over_set_literal_fires(self, lint_snippet):
        result = lint_snippet("rows = [x for x in {1, 2, 3}]\n",
                              select=["DET004"])
        assert rule_names(result) == ["DET004"]

    def test_sorted_set_is_clean(self, lint_snippet):
        result = lint_snippet("""
            def emit(items):
                for item in sorted(set(items)):
                    print(item)
                return 3 in set(items), len({1, 2})
        """, select=["DET004"])
        assert result.findings == []


class TestNUM001UnguardedLinalg:
    def test_raw_solve_outside_analysis_fires(self, lint_snippet):
        result = lint_snippet("""
            import numpy as np

            def project(a, b):
                return np.linalg.solve(a, b)
        """, name="features/proj.py", select=["NUM001"])
        assert rule_names(result) == ["NUM001"]

    def test_from_import_alias_fires(self, lint_snippet):
        result = lint_snippet("""
            from numpy import linalg

            def invert(a):
                return linalg.inv(a)
        """, name="features/proj.py", select=["NUM001"])
        assert rule_names(result) == ["NUM001"]

    def test_analysis_module_is_allowed(self, lint_snippet):
        result = lint_snippet("""
            import numpy as np

            def solve(a, b):
                return np.linalg.solve(a, b)
        """, name="analysis/solver.py", select=["NUM001"])
        assert result.findings == []

    def test_guards_module_is_allowed(self, lint_snippet):
        result = lint_snippet("""
            import numpy as np

            def guarded(a):
                return np.linalg.eigvalsh(a)
        """, name="robustness/guards.py", select=["NUM001"])
        assert result.findings == []


class TestNUM002FloatEquality:
    def test_float_literal_equality_fires_in_scope(self, lint_snippet):
        result = lint_snippet("""
            def degenerate(x):
                return x == 0.5
        """, name="analysis/check.py", select=["NUM002"])
        assert rule_names(result) == ["NUM002"]
        assert result.findings[0].severity == "warning"

    def test_integer_equality_is_clean(self, lint_snippet):
        result = lint_snippet("""
            def is_source(node, source):
                return node == source or node == 0
        """, name="rcnet/check.py", select=["NUM002"])
        assert result.findings == []

    def test_out_of_scope_module_is_clean(self, lint_snippet):
        result = lint_snippet("""
            def threshold(p):
                return p != 0.5
        """, name="nn/dropout_fixture.py", select=["NUM002"])
        assert result.findings == []


class TestERR001BareExcept:
    def test_bare_except_fires(self, lint_snippet):
        result = lint_snippet("""
            def run(task):
                try:
                    task()
                except:
                    pass
        """, select=["ERR001"])
        assert rule_names(result) == ["ERR001"]

    def test_typed_except_is_clean(self, lint_snippet):
        result = lint_snippet("""
            def run(task):
                try:
                    task()
                except ValueError:
                    pass
        """, select=["ERR001"])
        assert result.findings == []


class TestERR002BroadExceptContract:
    def test_swallowing_handler_fires(self, lint_snippet):
        result = lint_snippet("""
            def run(task, log):
                try:
                    task()
                except Exception as exc:
                    log(exc)
        """, select=["ERR002"])
        assert rule_names(result) == ["ERR002"]

    def test_reraise_satisfies_contract(self, lint_snippet):
        result = lint_snippet("""
            def run(task):
                try:
                    task()
                except Exception:
                    raise
        """, select=["ERR002"])
        assert result.findings == []

    def test_taxonomy_conversion_satisfies_contract(self, lint_snippet):
        result = lint_snippet("""
            from repro.robustness.errors import ModelError

            def run(task, record):
                try:
                    task()
                except Exception as exc:
                    record(ModelError("degraded", cause=exc))
        """, select=["ERR002"])
        assert result.findings == []

    def test_tuple_catch_including_exception_fires(self, lint_snippet):
        result = lint_snippet("""
            def run(task):
                try:
                    task()
                except (ValueError, Exception):
                    pass
        """, select=["ERR002"])
        assert rule_names(result) == ["ERR002"]
