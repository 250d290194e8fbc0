"""Non-AST lint rules: internal documentation link checking (DOC001).

Part of the linter, so ``repro lint`` is the single static-analysis entry
point (tier-1's self-check runs it over the whole repository).  It scans
every markdown file under a root for inline links/images
(``[text](target)``) and reference definitions (``[label]: target``),
resolves relative targets against the containing file, and reports
targets whose file or in-file ``#fragment`` anchor does not exist.
External links (``http(s)://``, ``mailto:``) are ignored — CI must not
depend on the network.

GitHub-style anchors are derived from headings: lowercase, spaces to
hyphens, punctuation dropped.  Fragment checks are best-effort (formatting
inside headings is stripped before slugging).
"""

from __future__ import annotations

import os
import re
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from .engine import ProjectRule, Finding, display_path, SKIP_DIRS

INLINE_LINK = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
REFERENCE_DEF = re.compile(r"^\[[^\]]+\]:\s+(\S+)", re.MULTILINE)
HEADING = re.compile(r"^#{1,6}\s+(.+?)\s*$", re.MULTILINE)
FENCE = re.compile(r"```.*?```", re.DOTALL)
_SCHEME = re.compile(r"^[a-z][a-z0-9+.-]*:")  # http:, mailto:, ...


def markdown_files(root: str) -> Iterator[str]:
    """Every ``*.md`` under ``root`` (sorted walk, VCS/cache dirs skipped)."""
    if os.path.isfile(root):
        if root.lower().endswith(".md"):
            yield root
        return
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames[:] = sorted(d for d in dirnames if d not in SKIP_DIRS)
        for name in sorted(filenames):
            if name.lower().endswith(".md"):
                yield os.path.join(dirpath, name)


def github_slug(heading: str) -> str:
    """GitHub's anchor slug of a heading (best-effort)."""
    text = re.sub(r"[`*_]|\[|\]|\([^)]*\)", "", heading).strip().lower()
    text = re.sub(r"[^\w\s-]", "", text, flags=re.UNICODE)
    return re.sub(r"[\s]+", "-", text)


def anchors_of(path: str) -> Set[str]:
    """Anchor slugs available in one markdown file (with -1/-2 dedup)."""
    with open(path, encoding="utf-8") as handle:
        text = FENCE.sub("", handle.read())
    slugs: Set[str] = set()
    counts: Dict[str, int] = {}
    for match in HEADING.finditer(text):
        slug = github_slug(match.group(1))
        n = counts.get(slug, 0)
        counts[slug] = n + 1
        slugs.add(slug if n == 0 else f"{slug}-{n}")
    return slugs


def link_targets(path: str) -> Iterator[Tuple[int, str]]:
    """``(line, target)`` of every internal-looking link in one file."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    # Blank out fenced code (keeping newlines so line numbers survive).
    text = FENCE.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)
    for pattern in (INLINE_LINK, REFERENCE_DEF):
        for match in pattern.finditer(text):
            line = text.count("\n", 0, match.start()) + 1
            yield line, match.group(1)


def check_markdown_tree(root: str) -> List[Tuple[str, int, str]]:
    """Broken internal links under ``root`` as ``(path, line, message)``.

    ``path`` is relative to ``root``; the list is sorted by file then line.
    """
    problems: List[Tuple[str, int, str]] = []
    for path in markdown_files(root):
        rel = os.path.relpath(path, root if os.path.isdir(root)
                              else os.path.dirname(root) or ".")
        for line, target in link_targets(path):
            if _SCHEME.match(target):
                continue
            base, _, fragment = target.partition("#")
            if base:
                resolved = os.path.normpath(
                    os.path.join(os.path.dirname(path), base))
                if not os.path.exists(resolved):
                    problems.append((rel, line, f"broken link -> {target}"))
                    continue
            else:
                resolved = path
            if fragment and resolved.lower().endswith(".md"):
                if github_slug(fragment) not in anchors_of(resolved):
                    problems.append((rel, line,
                                     f"missing anchor -> {target}"))
    return sorted(problems)


class DocLinkRule(ProjectRule):
    """DOC001 — every internal markdown link must resolve.

    The documentation tree is scanned from the common ancestor of the
    lint input paths (``repro lint src tools`` from the repo root covers
    README, docs/ and every package doc), so a rename that orphans a link
    fails the same gate as a code-invariant violation.
    """

    name = "DOC001"
    slug = "broken-doc-link"
    summary = "internal markdown link to a missing file or anchor"

    def check_project(self, paths: Sequence[str]) -> Iterator[Finding]:
        existing = [os.path.abspath(p) for p in paths if os.path.exists(p)]
        if not existing:
            return
        root = os.path.commonpath(existing)
        if os.path.isfile(root):
            root = os.path.dirname(root) or "."
        for rel, line, message in check_markdown_tree(root):
            yield Finding(
                rule=self.name, severity=self.severity,
                path=display_path(os.path.join(root, rel)),
                line=line, col=0,
                message=f"{message} (documentation must stay navigable; "
                        f"fix the target or the link)")
