"""`repro lint` CLI contract: exit codes, formats, baseline workflow."""

import json

import pytest

from repro.cli import main

DIRTY = "import random\n"
CLEAN = "x = 1\n"


def _write(tmp_path, name, source):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return str(path)


def test_clean_run_exits_zero(tmp_path, capsys):
    path = _write(tmp_path, "ok.py", CLEAN)
    assert main(["lint", path]) == 0
    assert "clean:" in capsys.readouterr().out


def test_findings_exit_one(tmp_path, capsys):
    path = _write(tmp_path, "bad.py", DIRTY)
    assert main(["lint", path]) == 1
    assert "DET002" in capsys.readouterr().out


def test_json_format(tmp_path, capsys):
    path = _write(tmp_path, "bad.py", DIRTY)
    assert main(["lint", path, "--format", "json"]) == 1
    document = json.loads(capsys.readouterr().out)
    assert document["schema"] == "repro-lint/5"
    assert document["counts"] == {"DET002": 1}


def test_output_file(tmp_path, capsys):
    path = _write(tmp_path, "bad.py", DIRTY)
    out = tmp_path / "report.json"
    assert main(["lint", path, "--format", "json",
                 "--output", str(out)]) == 1
    on_disk = json.loads(out.read_text(encoding="utf-8"))
    assert on_disk == json.loads(capsys.readouterr().out)


def test_select_and_ignore(tmp_path, capsys):
    path = _write(tmp_path, "bad.py", DIRTY)
    assert main(["lint", path, "--select", "ERR001"]) == 0
    assert main(["lint", path, "--ignore", "DET002"]) == 0
    capsys.readouterr()


def test_unknown_rule_is_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "ok.py", CLEAN)
    assert main(["lint", path, "--select", "NOPE999"]) == 2
    assert "unknown rule" in capsys.readouterr().err


def test_corrupt_baseline_is_usage_error(tmp_path, capsys):
    path = _write(tmp_path, "ok.py", CLEAN)
    baseline = _write(tmp_path, "base.json", "{broken")
    assert main(["lint", path, "--baseline", baseline]) == 2
    assert "cannot read baseline" in capsys.readouterr().err


def test_write_baseline_then_clean(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "bad.py", DIRTY)
    baseline = str(tmp_path / "baseline.json")
    assert main(["lint", "bad.py", "--baseline", baseline,
                 "--write-baseline"]) == 0
    assert "wrote 1 finding(s)" in capsys.readouterr().out
    document = json.loads((tmp_path / "baseline.json").read_text())
    assert document["schema"] == "repro-lint-baseline/1"
    assert len(document["entries"]) == 1

    # The grandfathered finding no longer fails the run...
    assert main(["lint", "bad.py", "--baseline", baseline]) == 0
    assert "1 baselined" in capsys.readouterr().out
    # ...but a fresh violation still does.
    _write(tmp_path, "worse.py", "from random import choice\n")
    assert main(["lint", "bad.py", "worse.py", "--baseline", baseline]) == 1


def test_stale_baseline_entry_is_reported(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "bad.py", DIRTY)
    baseline = str(tmp_path / "baseline.json")
    assert main(["lint", "bad.py", "--baseline", baseline,
                 "--write-baseline"]) == 0
    _write(tmp_path, "bad.py", CLEAN)  # fix the violation
    assert main(["lint", "bad.py", "--baseline", baseline]) == 0
    assert "stale baseline entry" in capsys.readouterr().out


def test_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in ("DET001", "DET002", "DET003", "DET004", "NUM001",
                 "NUM002", "ERR001", "ERR002", "PAR001", "PAR002",
                 "DOC001"):
        assert name in out


def test_list_rules_includes_deep_tier(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for name in ("FLOW001", "FLOW002", "FLOW003", "FLOW004",
                 "SHAPE001", "SHAPE002", "UNIT001"):
        assert name in out


FLOW_DIRTY = '''\
from repro.robustness.errors import NumericalError


def solve(matrix):
    raise NumericalError("matrix is singular")
'''


def test_deep_tier_flags_flow_findings(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "sim.py", FLOW_DIRTY)
    assert main(["lint", "sim.py", "--deep", "--cache", "off"]) == 1
    assert "FLOW003" in capsys.readouterr().out


def test_deep_tier_off_by_default(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "sim.py", FLOW_DIRTY)
    assert main(["lint", "sim.py"]) == 0
    capsys.readouterr()


def test_deep_cache_file_round_trip(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "sim.py", FLOW_DIRTY)
    cache = tmp_path / "lint-cache.json"
    argv = ["lint", "sim.py", "--deep", "--cache", str(cache),
            "--format", "json"]
    assert main(argv) == 1
    cold = json.loads(capsys.readouterr().out)
    assert cache.is_file()
    assert main(argv) == 1
    warm = json.loads(capsys.readouterr().out)
    assert warm["counts"] == cold["counts"] == {"FLOW003": 1}


def test_exclude_flag_skips_files(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "bad.py", DIRTY)
    assert main(["lint", ".", "--exclude", "bad.py"]) == 0
    capsys.readouterr()


def _git(tmp_path, *argv):
    import subprocess
    subprocess.run(["git", "-C", str(tmp_path),
                    "-c", "user.email=lint@example.com",
                    "-c", "user.name=lint", *argv],
                   check=True, capture_output=True)


def test_changed_mode_restricts_to_git_diff(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "steady.py", DIRTY)   # dirty but untouched since commit
    _write(tmp_path, "edited.py", CLEAN)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    _write(tmp_path, "edited.py", DIRTY)   # the only change since HEAD
    assert main(["lint", ".", "--changed"]) == 1
    out = capsys.readouterr().out
    assert "edited.py" in out
    assert "steady.py" not in out


def test_changed_mode_with_no_changes_is_clean(tmp_path, capsys,
                                               monkeypatch):
    monkeypatch.chdir(tmp_path)
    _write(tmp_path, "steady.py", DIRTY)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-q", "-m", "seed")
    assert main(["lint", ".", "--changed"]) == 0
    assert "no changed python files" in capsys.readouterr().out


def test_report_without_inputs_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["report"])
    assert exit_info.value.code == 2
    assert "--verilog" in capsys.readouterr().err
