"""Reporter goldens: the JSON document is byte-stable for a fixed input."""

import json

from repro.lint import LintRunner, default_rules, render_json, render_text
from repro.lint.report import rule_catalogue

SOURCE = """\
import random


def run(task):
    try:
        task()
    except:
        pass
"""

GOLDEN = {
    "schema": "repro-lint/6",
    "files_checked": 1,
    "findings": [
        {
            "rule": "DET002",
            "severity": "error",
            "path": "mod.py",
            "line": 1,
            "col": 0,
            "message": "stdlib `random` is process-global RNG state; use "
                       "a seeded np.random.Generator parameter instead",
            "snippet": "import random",
        },
        {
            "rule": "ERR001",
            "severity": "error",
            "path": "mod.py",
            "line": 7,
            "col": 4,
            "message": "bare except: catches KeyboardInterrupt/SystemExit; "
                       "name the exception types (narrowest that works)",
            "snippet": "except:",
        },
    ],
    "counts": {"DET002": 1, "ERR001": 1},
    "suppressed": 0,
    "baselined": 0,
    "stale_baseline": [],
    "packs": [],
    "deep": None,
    "concurrency": None,
    "exit_code": 1,
}


def _result(tmp_path, monkeypatch):
    (tmp_path / "mod.py").write_text(SOURCE, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return LintRunner(select=["DET002", "ERR001"]).run(["mod.py"])


def test_json_report_golden(tmp_path, monkeypatch):
    result = _result(tmp_path, monkeypatch)
    rendered = render_json(result)
    assert json.loads(rendered) == GOLDEN
    # Canonical rendering: sorted keys, indented, trailing newline,
    # byte-stable across repeated renders.
    assert rendered == json.dumps(GOLDEN, indent=2, sort_keys=True) + "\n"
    assert render_json(result) == rendered


def test_text_report_rows_and_summary(tmp_path, monkeypatch):
    result = _result(tmp_path, monkeypatch)
    lines = render_text(result).splitlines()
    assert lines[0].startswith("mod.py:1:0: DET002 error:")
    assert lines[1].startswith("mod.py:7:4: ERR001 error:")
    assert lines[-1] == "2 finding(s) in 1 file(s)"


def test_text_report_clean_run(tmp_path, monkeypatch):
    (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    result = LintRunner().run(["ok.py"])
    assert render_text(result) == "clean: 0 finding(s) in 1 file(s)"


def test_rule_catalogue_lists_every_rule():
    rules = default_rules()
    catalogue = rule_catalogue(rules)
    for rule in rules:
        assert rule.name in catalogue
    assert len(catalogue.splitlines()) == len(rules)
