"""DOC001: internal markdown link checking, standalone and in the linter."""

import textwrap

from repro.lint import LintRunner
from repro.lint.docrules import (
    anchors_of,
    check_markdown_tree,
    github_slug,
    link_targets,
)


def test_github_slug():
    assert github_slug("Quick Start") == "quick-start"
    assert github_slug("The `repro lint` CLI") == "the-repro-lint-cli"
    assert github_slug("A & B, twice!") == "a-b-twice"


def test_anchors_of_dedups_repeats(tmp_path):
    page = tmp_path / "page.md"
    page.write_text("# Setup\n\n## Setup\n\n## Other\n", encoding="utf-8")
    assert anchors_of(str(page)) == {"setup", "setup-1", "other"}


def test_link_targets_skips_fenced_code(tmp_path):
    page = tmp_path / "page.md"
    page.write_text(textwrap.dedent("""\
        [real](target.md)
        ```
        [fake](inside-fence.md)
        ```
        [after](other.md)
    """), encoding="utf-8")
    assert list(link_targets(str(page))) == [(1, "target.md"),
                                             (5, "other.md")]


def test_check_markdown_tree_reports_broken_and_missing(tmp_path):
    (tmp_path / "ok.md").write_text("# Here\n", encoding="utf-8")
    (tmp_path / "index.md").write_text(textwrap.dedent("""\
        [fine](ok.md)
        [fine anchor](ok.md#here)
        [broken file](missing.md)
        [broken anchor](ok.md#nowhere)
        [external](https://example.com/missing)
    """), encoding="utf-8")
    problems = check_markdown_tree(str(tmp_path))
    assert problems == [
        ("index.md", 3, "broken link -> missing.md"),
        ("index.md", 4, "missing anchor -> ok.md#nowhere"),
    ]


def test_doc001_fires_through_linter(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text("x = 1\n", encoding="utf-8")
    (pkg / "README.md").write_text("[gone](missing.md)\n", encoding="utf-8")
    result = LintRunner(select=["DOC001"]).run([str(pkg)])
    assert [f.rule for f in result.findings] == ["DOC001"]
    assert "missing.md" in result.findings[0].message


def test_doc001_clean_tree(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text("x = 1\n", encoding="utf-8")
    (pkg / "README.md").write_text("# Fine\n[self](#fine)\n",
                                   encoding="utf-8")
    result = LintRunner(select=["DOC001"]).run([str(pkg)])
    assert result.findings == []
