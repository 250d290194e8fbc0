"""Shared fixture helpers for the lint suite: write-and-lint snippets."""

import textwrap

import pytest

from repro.lint import DeepAnalyzer, LintConfig, LintRunner


@pytest.fixture
def lint_snippet(tmp_path):
    """Write a code snippet to a (possibly nested) path and lint it.

    Returns ``lint(code, name="snippet.py", select=None, ignore=None)``
    -> :class:`repro.lint.LintResult`.  ``name`` may contain directories
    (``"analysis/foo.py"``) so scoped rules see the right module segments.
    """

    def lint(code, name="snippet.py", select=None, ignore=None):
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(code), encoding="utf-8")
        runner = LintRunner(select=select, ignore=ignore)
        return runner.run([str(path)])

    return lint


@pytest.fixture
def deep_lint(tmp_path, monkeypatch):
    """Write a package of snippets and run the deep tier over it.

    Returns ``deep(files, cache_path=None, config=None, **packs)`` ->
    ``(findings, stats)`` where ``files`` maps relative paths (package
    layout, e.g. ``"pkg/tasks.py"``) to source text.  Re-invoking with the
    same ``cache_path`` exercises the incremental cache; ``**packs``
    forwards the pack toggle (``concurrency=True``).
    """
    monkeypatch.chdir(tmp_path)

    def deep(files, cache_path=None, config=None, **packs):
        for name, source in files.items():
            path = tmp_path / name
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source), encoding="utf-8")
        analyzer = DeepAnalyzer(config=config or LintConfig(),
                                cache_path=cache_path, **packs)
        return analyzer.analyze(sorted(files))

    return deep


def rule_names(result):
    """Sorted rule names of a result's active findings."""
    return sorted(finding.rule for finding in result.findings)
