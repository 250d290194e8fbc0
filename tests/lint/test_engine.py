"""Engine semantics: suppression comments, rule selection, parse errors,
sorting, and the baseline workflow."""

import json

import pytest

from repro.lint import (
    LintRunner,
    load_baseline,
    write_baseline,
)
from repro.lint.baseline import BaselineEntry, BaselineError, apply_baseline
from repro.lint.engine import module_name, suppressed_lines

BARE_EXCEPT = """
def run(task):
    try:
        task()
    except:
        pass
"""


class TestSuppression:
    def test_named_suppression_silences_rule(self, lint_snippet):
        result = lint_snippet("""
            def run(task):
                try:
                    task()
                except:  # repro-lint: disable=ERR001
                    pass
        """)
        assert result.findings == []
        assert result.suppressed == 1

    def test_blanket_suppression_silences_everything(self, lint_snippet):
        result = lint_snippet("""
            import random  # repro-lint: disable
        """)
        assert result.findings == []
        assert result.suppressed == 1

    def test_suppression_for_other_rule_does_not_apply(self, lint_snippet):
        result = lint_snippet("""
            def run(task):
                try:
                    task()
                except:  # repro-lint: disable=DET001
                    pass
        """)
        assert [f.rule for f in result.findings] == ["ERR001"]

    def test_multiple_rules_in_one_comment(self):
        source = "x = 1  # repro-lint: disable=ERR001, DET004\n"
        assert suppressed_lines(source) == {1: {"ERR001", "DET004"}}

    def test_blanket_marker_parses_to_star(self):
        assert suppressed_lines("x = 1  # repro-lint: disable\n") == \
            {1: {"*"}}

    def test_multiline_statement_covered_end_to_end(self):
        # A disable anywhere in a logical line covers every physical
        # line of the statement — findings anchor to the first line, the
        # comment often fits only on the last.
        source = (
            "value = compute(\n"
            "    alpha,\n"
            "    beta,\n"
            ")  # repro-lint: disable=FLOW003\n")
        lines = suppressed_lines(source)
        assert lines[1] == {"FLOW003"}
        assert lines[4] == {"FLOW003"}

    def test_multiline_comment_on_first_line_also_covers_all(self):
        source = (
            "value = compute(  # repro-lint: disable=FLOW002\n"
            "    alpha,\n"
            ")\n")
        assert suppressed_lines(source) == {1: {"FLOW002"},
                                            2: {"FLOW002"},
                                            3: {"FLOW002"}}

    def test_decorator_comment_covers_the_decorated_def(self):
        source = (
            "@app.route('/x')  # repro-lint: disable=FLOW003\n"
            "def handler():\n"
            "    pass\n")
        lines = suppressed_lines(source)
        assert lines[1] == {"FLOW003"}
        assert lines[2] == {"FLOW003"}  # the def header it decorates
        assert 3 not in lines           # the body is NOT blanketed

    def test_standalone_comment_still_covers_only_its_own_line(self):
        source = (
            "# repro-lint: disable=DET002\n"
            "import random\n")
        assert suppressed_lines(source) == {1: {"DET002"}}

    def test_multiline_suppression_end_to_end(self, lint_snippet):
        # The DET001 finding anchors at the call line (3); the disable
        # sits on the statement's closing bracket one line later.
        result = lint_snippet("""
            import numpy as np
            values = [
                np.random.rand(4),
            ]  # repro-lint: disable=DET001
        """)
        assert result.findings == []
        assert result.suppressed == 1


class TestRuleSelection:
    def test_select_limits_rules(self, lint_snippet):
        result = lint_snippet(
            "import random\n" + BARE_EXCEPT, select=["DET002"])
        assert [f.rule for f in result.findings] == ["DET002"]

    def test_ignore_drops_rules(self, lint_snippet):
        result = lint_snippet(
            "import random\n" + BARE_EXCEPT, ignore=["ERR001"])
        assert [f.rule for f in result.findings] == ["DET002"]

    def test_unknown_select_name_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            LintRunner(select=["NOPE999"])

    def test_unknown_ignore_name_raises(self):
        with pytest.raises(ValueError, match="unknown rule"):
            LintRunner(ignore=["NOPE999"])


class TestParseErrors:
    def test_syntax_error_reports_lint000(self, lint_snippet):
        result = lint_snippet("def broken(:\n")
        assert [f.rule for f in result.findings] == ["LINT000"]
        assert result.findings[0].severity == "error"

    def test_null_byte_reports_lint000(self, tmp_path):
        path = tmp_path / "nulls.py"
        path.write_bytes(b"x = 1\x00\n")
        result = LintRunner().run([str(path)])
        assert [f.rule for f in result.findings] == ["LINT000"]
        assert "null bytes" in result.findings[0].message

    def test_undecodable_bytes_report_lint000(self, tmp_path):
        path = tmp_path / "latin.py"
        path.write_bytes(b"name = '\xff\xfe'\n")
        result = LintRunner().run([str(path)])
        assert [f.rule for f in result.findings] == ["LINT000"]
        assert "cannot read file" in result.findings[0].message


class TestDiscovery:
    def test_exclude_glob_drops_file(self, tmp_path):
        (tmp_path / "keep.py").write_text("import random\n",
                                          encoding="utf-8")
        (tmp_path / "scratch_gen.py").write_text("import random\n",
                                                 encoding="utf-8")
        result = LintRunner(select=["DET002"],
                            exclude=["scratch_*.py"]).run([str(tmp_path)])
        assert {f.path.rsplit("/", 1)[-1] for f in result.findings} \
            == {"keep.py"}

    def test_skip_dirs_are_never_walked(self, tmp_path):
        for skipped in (".hidden", "__pycache__", "demo.egg-info"):
            sub = tmp_path / skipped
            sub.mkdir()
            (sub / "junk.py").write_text("import random\n", encoding="utf-8")
        (tmp_path / "real.py").write_text("import random\n",
                                          encoding="utf-8")
        result = LintRunner(select=["DET002"]).run([str(tmp_path)])
        assert result.files_checked == 1
        assert len(result.findings) == 1

    def test_explicit_file_beats_exclude_dir_walk(self, tmp_path):
        # An explicitly named file is linted even when a directory walk
        # would have excluded it.
        path = tmp_path / "scratch_gen.py"
        path.write_text("import random\n", encoding="utf-8")
        result = LintRunner(select=["DET002"],
                            exclude=["other_*.py"]).run([str(path)])
        assert len(result.findings) == 1


class TestOrdering:
    def test_findings_sorted_by_location(self, tmp_path):
        (tmp_path / "b.py").write_text(
            "import random\n", encoding="utf-8")
        (tmp_path / "a.py").write_text(
            "import random\nimport random as r\n", encoding="utf-8")
        result = LintRunner(select=["DET002"]).run([str(tmp_path)])
        locations = [(f.path, f.line) for f in result.findings]
        assert locations == sorted(locations)
        assert len(locations) == 3


class TestModuleName:
    def test_src_prefix_is_stripped(self):
        assert module_name("src/repro/analysis/elmore.py") == \
            "repro.analysis.elmore"

    def test_plain_path_keeps_segments(self):
        assert module_name("tools/gen_metrics_doc.py") == \
            "tools.gen_metrics_doc"


class TestBaseline:
    def test_round_trip_suppresses_matching_finding(self, tmp_path,
                                                    lint_snippet):
        result = lint_snippet(BARE_EXCEPT)
        assert len(result.findings) == 1
        baseline_path = tmp_path / "baseline.json"
        write_baseline(str(baseline_path), result.findings,
                       justification="legacy handler, tracked in #12")
        entries = load_baseline(str(baseline_path))
        assert len(entries) == 1
        assert entries[0].justification == "legacy handler, tracked in #12"

        rerun = lint_snippet(BARE_EXCEPT)
        active, baselined, stale = apply_baseline(rerun.findings, entries)
        assert active == []
        assert baselined == 1
        assert stale == []

    def test_edited_line_makes_entry_stale(self, lint_snippet):
        result = lint_snippet(BARE_EXCEPT)
        entry = BaselineEntry(rule="ERR001", path=result.findings[0].path,
                              snippet="except ValueError:")
        active, baselined, stale = apply_baseline(result.findings, [entry])
        assert len(active) == 1
        assert baselined == 0
        assert stale == [entry]

    def test_line_drift_does_not_invalidate_entry(self, tmp_path):
        code = "def run(task):\n    try:\n        task()\n" \
               "    except:\n        pass\n"
        path = tmp_path / "drift.py"
        path.write_text(code, encoding="utf-8")
        runner = LintRunner(select=["ERR001"])
        entry_findings = runner.run([str(path)]).findings
        entries = [BaselineEntry(f.rule, f.path, f.snippet)
                   for f in entry_findings]
        # Push the handler three lines down; the stripped-line key holds.
        path.write_text("import os\nimport sys\nimport json\n" + code,
                        encoding="utf-8")
        result = runner.run([str(path)], baseline=entries)
        assert result.findings == []
        assert result.baselined == 1
        assert result.stale_baseline == []

    def test_missing_baseline_is_empty(self, tmp_path):
        assert load_baseline(str(tmp_path / "absent.json")) == []

    def test_wrong_schema_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "other/9", "entries": []}),
                        encoding="utf-8")
        with pytest.raises(BaselineError, match="repro-lint-baseline/1"):
            load_baseline(str(path))

    def test_malformed_json_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(BaselineError, match="cannot read"):
            load_baseline(str(path))

    def test_baselined_run_exits_clean(self, tmp_path):
        path = tmp_path / "legacy.py"
        path.write_text("import random\n", encoding="utf-8")
        runner = LintRunner(select=["DET002"])
        first = runner.run([str(path)])
        assert first.exit_code == 1
        entries = [BaselineEntry(f.rule, f.path, f.snippet)
                   for f in first.findings]
        second = runner.run([str(path)], baseline=entries)
        assert second.exit_code == 0
        assert second.baselined == 1
