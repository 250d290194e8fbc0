"""Visitor engine of the repo linter: files, rules, suppressions, results.

The engine is deliberately small and dependency-free: it discovers Python
files, parses each one to an :mod:`ast` tree, runs every active rule over
the tree (a single walk, dispatching nodes by type), honours inline
``# repro-lint: disable=RULE`` suppressions gathered from the token stream,
subtracts baselined (grandfathered) findings, and folds everything into a
:class:`LintResult` the reporters render.

Two rule kinds exist:

* :class:`Rule` — AST rules; implement :meth:`Rule.visit` (called for every
  node whose type appears in :attr:`Rule.node_types`) and/or
  :meth:`Rule.check_module` (called once per module, for whole-module
  analyses such as tracking module-level state).
* :class:`ProjectRule` — non-AST rules run once over the whole input path
  set (the doc-link rule lives here).

Unparsable files surface as findings of the pseudo-rule :data:`PARSE_RULE`
instead of crashing the run — a linter that dies on the file it should
report is useless in CI.
"""

from __future__ import annotations

import ast
import io
import os
import re
import tokenize
from dataclasses import dataclass, field
from fnmatch import fnmatch
from pathlib import PurePath
from typing import (TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional,
                    Sequence, Set, Tuple)

from .baseline import BaselineEntry, apply_baseline

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (deep -> engine)
    from .deep import DeepAnalyzer, DeepStats

#: Directory names never descended into during file discovery.
SKIP_DIRS = frozenset({".git", "__pycache__", ".pytest_cache", ".hypothesis",
                       ".mypy_cache", ".eggs", "build", "dist",
                       "node_modules"})

#: Pseudo-rule name attached to findings about unparsable Python files.
PARSE_RULE = "LINT000"

SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: ``# repro-lint: disable=DET001,ERR002 optional justification text`` or
#: ``# repro-lint: disable`` (suppresses every rule on that line).
_SUPPRESS = re.compile(
    r"#\s*repro-lint:\s*disable(?:=(?P<rules>[A-Za-z0-9_]+"
    r"(?:\s*,\s*[A-Za-z0-9_]+)*))?")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    severity: str
    path: str
    line: int
    col: int
    message: str
    snippet: str = ""

    def location(self) -> str:
        return f"{self.path}:{self.line}:{self.col}"

    def as_dict(self) -> Dict[str, object]:
        return {"rule": self.rule, "severity": self.severity,
                "path": self.path, "line": self.line, "col": self.col,
                "message": self.message, "snippet": self.snippet}


@dataclass
class ModuleContext:
    """Everything a rule may need about the module under analysis."""

    path: str
    module: str
    tree: ast.Module
    lines: List[str]

    def snippet(self, line: int) -> str:
        """The stripped source text of ``line`` (1-based), or ``""``."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def segments(self) -> Tuple[str, ...]:
        """Dotted-module segments, for scope checks (``repro.analysis.awe``
        -> ``("repro", "analysis", "awe")``)."""
        return tuple(self.module.split(".")) if self.module else ()


class Rule:
    """Base class of every lint rule.

    Subclasses set the class attributes and implement :meth:`visit` (per
    node) and/or :meth:`check_module` (once per module).  Rules must be
    stateless across modules — the runner reuses one instance for the whole
    run.
    """

    name: str = "RULE000"
    slug: str = ""
    severity: str = SEVERITY_ERROR
    summary: str = ""
    #: Node types :meth:`visit` wants to see; empty means "no per-node hook".
    node_types: Tuple[type, ...] = ()

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        """Findings for one node of a type listed in :attr:`node_types`."""
        return iter(())

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        """Whole-module findings (module-level state, cross-node analyses)."""
        return iter(())

    def finding(self, ctx: ModuleContext, line: int, col: int,
                message: str) -> Finding:
        """Build a finding of this rule at a location inside ``ctx``."""
        return Finding(rule=self.name, severity=self.severity, path=ctx.path,
                       line=line, col=col, message=message,
                       snippet=ctx.snippet(line))


class ProjectRule(Rule):
    """Non-AST rule run once over the entire input path set."""

    def check_project(self, paths: Sequence[str]) -> Iterator[Finding]:
        return iter(())


@dataclass
class LintResult:
    """Outcome of one lint run, ready for rendering.

    ``findings`` are the *active* violations — after inline suppressions
    and the baseline are subtracted.  ``stale_baseline`` lists baseline
    entries that no longer match any finding (candidates for deletion).
    """

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0
    baselined: int = 0
    stale_baseline: List[BaselineEntry] = field(default_factory=list)
    #: Deep-tier counters when the run included ``--deep``, else ``None``.
    deep: Optional["DeepStats"] = None

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def counts(self) -> Dict[str, int]:
        """Active findings per rule name."""
        table: Dict[str, int] = {}
        for finding in self.findings:
            table[finding.rule] = table.get(finding.rule, 0) + 1
        return table


def module_name(path: str) -> str:
    """Best-effort dotted module name of a file path.

    Everything up to (and including) the last ``src`` path component is
    stripped, so ``src/repro/analysis/awe.py`` maps to
    ``repro.analysis.awe`` regardless of the working directory.  Paths
    without a ``src`` component keep all their (non-relative) parts —
    enough for the segment-based scope checks the rules perform.
    """
    parts = [p for p in PurePath(os.path.normpath(path)).parts
             if p not in (".", "..", "/", os.sep)]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "src" in parts:
        cut = len(parts) - 1 - parts[::-1].index("src")
        parts = parts[cut + 1:]
    return ".".join(parts)


def display_path(path: str) -> str:
    """Path as reported in findings: cwd-relative POSIX style when possible."""
    relative = os.path.relpath(path)
    chosen = path if relative.startswith("..") else relative
    return PurePath(os.path.normpath(chosen)).as_posix()


def _skip_dir(name: str) -> bool:
    """Directories never descended into: the fixed set, hidden directories
    (``.venv``, ``.tox``, ...) and setuptools ``*.egg-info`` droppings."""
    return (name in SKIP_DIRS or name.startswith(".")
            or name.endswith(".egg-info"))


def excluded(path: str, patterns: Sequence[str]) -> bool:
    """Whether a file path matches any ``--exclude`` glob.

    Patterns match the POSIX display path (``src/repro/cli.py``), the
    basename, or any trailing subpath — so ``cli.py``, ``src/repro/*.py``
    and ``repro/cli.py`` all exclude the same file.
    """
    display = PurePath(os.path.normpath(path)).as_posix()
    parts = display.split("/")
    for pattern in patterns:
        if fnmatch(display, pattern) or fnmatch(parts[-1], pattern):
            return True
        if any(fnmatch("/".join(parts[i:]), pattern)
               for i in range(len(parts))):
            return True
    return False


def python_files(paths: Sequence[str],
                 exclude: Sequence[str] = ()) -> List[str]:
    """Sorted ``.py`` files under the given files/directories.

    ``exclude`` globs (from ``--exclude`` and ``[tool.repro-lint]``) drop
    discovered files; paths given *explicitly* as files are kept even when
    a glob matches — an explicit argument outranks a config default.
    """
    found: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            found.append(path)
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(d for d in dirnames if not _skip_dir(d))
            for name in sorted(filenames):
                if not name.endswith(".py"):
                    continue
                candidate = os.path.join(dirpath, name)
                if not excluded(candidate, exclude):
                    found.append(candidate)
    return sorted(found)


def suppressed_lines(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule names suppressed there (``"*"`` = all).

    Comments are read from the token stream, so strings containing the
    marker text do not suppress anything.  A disable comment anywhere in a
    **logical line** (a statement continued over several physical lines —
    an open bracket, a backslash continuation) suppresses the whole
    statement's line range, so the comment can sit on the closing paren of
    a multi-line call and still cover the reported first line.  A comment
    on a **decorator** line extends over the decorated ``def``/``class``
    header it precedes (rules report decorated definitions at the ``def``
    line).  A file that cannot be tokenized yields no suppressions (its
    parse failure is reported separately).
    """
    table: Dict[int, Set[str]] = {}
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        return table

    # Group tokens into logical lines: NEWLINE ends a statement, NL is a
    # mere physical break inside one.  Each group keeps its physical line
    # span, the rules from any disable comments inside it, and whether it
    # is a decorator line (first significant token is the ``@`` operator).
    groups: List[Tuple[int, int, Set[str], bool]] = []
    start: Optional[int] = None
    end = 0
    rules: Set[str] = set()
    decorator = False
    first_significant = True
    for token in tokens:
        if token.type in (tokenize.INDENT, tokenize.DEDENT,
                          tokenize.ENDMARKER):
            continue
        if token.type == tokenize.COMMENT:
            match = _SUPPRESS.search(token.string)
            if match is not None:
                names = match.group("rules")
                rules.update({"*"} if names is None else
                             {part.strip() for part in names.split(",")
                              if part.strip()})
                # A comment outside any statement (its own line) applies
                # to its own physical line, as before.
                if start is None:
                    table.setdefault(token.start[0], set()).update(rules)
            if start is None:
                rules = set()
            continue
        if token.type == tokenize.NL:
            continue
        if token.type == tokenize.NEWLINE:
            if start is not None:
                groups.append((start, max(end, token.start[0]), rules,
                               decorator))
            start, rules, decorator = None, set(), False
            first_significant = True
            continue
        if start is None:
            start = token.start[0]
        if first_significant:
            decorator = (token.type == tokenize.OP
                         and token.string == "@")
            first_significant = False
        end = token.end[0]
    if start is not None:  # unterminated final statement
        groups.append((start, end, rules, decorator))

    # Decorator lines chain onto the following group (more decorators or
    # the def/class header), so a disable above the decorator stack covers
    # the definition line itself.
    for index, (first, last, found, decorator) in enumerate(groups):
        if not found:
            continue
        span_last = last
        cursor = index
        while decorator and cursor + 1 < len(groups):
            cursor += 1
            nxt = groups[cursor]
            span_last = nxt[1]
            decorator = nxt[3]
        for line in range(first, span_last + 1):
            table.setdefault(line, set()).update(found)
    return table


class LintRunner:
    """Runs a rule set over paths and folds findings into a result.

    Parameters
    ----------
    rules:
        Rule instances to run (default: the full registry from
        :func:`repro.lint.rules.default_rules`).
    select:
        When non-empty, only rules whose name appears here run.
    ignore:
        Rule names removed after ``select`` is applied.  Unknown names in
        either set raise ``ValueError`` — a typo that silently disables
        nothing (or everything) is itself a lint-grade bug.
    """

    def __init__(self, rules: Optional[Sequence[Rule]] = None,
                 select: Optional[Iterable[str]] = None,
                 ignore: Optional[Iterable[str]] = None,
                 exclude: Sequence[str] = (),
                 extra_rule_names: Iterable[str] = ()) -> None:
        if rules is None:
            from .rules import default_rules
            rules = default_rules()
        known = {rule.name for rule in rules} | set(extra_rule_names)
        selected = set(select) if select else set()
        ignored = set(ignore) if ignore else set()
        unknown = sorted((selected | ignored) - known)
        if unknown:
            raise ValueError(f"unknown rule name(s): {', '.join(unknown)}")
        active = [rule for rule in rules
                  if (not selected or rule.name in selected)
                  and rule.name not in ignored]
        self.rules: List[Rule] = active
        self.exclude: Tuple[str, ...] = tuple(exclude)
        self._selected = selected
        self._ignored = ignored

    def _rule_active(self, name: str) -> bool:
        """select/ignore applied to rules not instantiated here (deep)."""
        if self._selected and name not in self._selected:
            return False
        return name not in self._ignored

    # ------------------------------------------------------------------
    def run(self, paths: Sequence[str],
            baseline: Sequence[BaselineEntry] = (),
            deep: Optional["DeepAnalyzer"] = None) -> LintResult:
        """Lint ``paths``; subtract suppressions and ``baseline`` entries.

        When ``deep`` is given, its whole-program findings (already
        suppression-filtered by the analyzer) join the per-file findings
        *before* the baseline applies, so FLOW and CONC findings can be
        grandfathered and reported exactly like the classic rules.
        """
        ast_rules = [r for r in self.rules if not isinstance(r, ProjectRule)]
        project_rules = [r for r in self.rules if isinstance(r, ProjectRule)]
        result = LintResult()
        collected: List[Finding] = []
        files = python_files(paths, self.exclude)
        for path in files:
            result.files_checked += 1
            collected.extend(self._lint_file(path, ast_rules, result))
        for rule in project_rules:
            collected.extend(rule.check_project(paths))
        if deep is not None:
            deep_findings, stats = deep.analyze(files)
            collected.extend(f for f in deep_findings
                             if self._rule_active(f.rule))
            result.suppressed += stats.suppressed
            result.deep = stats
        collected.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        active, baselined, stale = apply_baseline(collected, baseline)
        result.findings = active
        result.baselined = baselined
        result.stale_baseline = stale
        return result

    def _lint_file(self, path: str, rules: Sequence[Rule],
                   result: LintResult) -> List[Finding]:
        display = display_path(path)
        try:
            with open(path, encoding="utf-8") as handle:
                source = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            return [Finding(rule=PARSE_RULE, severity=SEVERITY_ERROR,
                            path=display, line=1, col=0,
                            message=f"cannot read file: {exc}")]
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            return [Finding(rule=PARSE_RULE, severity=SEVERITY_ERROR,
                            path=display, line=exc.lineno or 1,
                            col=exc.offset or 0,
                            message=f"syntax error: {exc.msg}")]
        except ValueError as exc:
            # ast.parse raises bare ValueError (not SyntaxError) for e.g.
            # null bytes in the source; report, don't crash the run.
            return [Finding(rule=PARSE_RULE, severity=SEVERITY_ERROR,
                            path=display, line=1, col=0,
                            message=f"cannot parse file: {exc}")]
        ctx = ModuleContext(path=display, module=module_name(path),
                            tree=tree, lines=source.splitlines())
        findings: List[Finding] = []
        for node in ast.walk(tree):
            for rule in rules:
                if rule.node_types and isinstance(node, rule.node_types):
                    findings.extend(rule.visit(node, ctx))
        for rule in rules:
            findings.extend(rule.check_module(ctx))
        suppressions = suppressed_lines(source)
        kept: List[Finding] = []
        for finding in findings:
            names = suppressions.get(finding.line, set())
            if "*" in names or finding.rule in names:
                result.suppressed += 1
            else:
                kept.append(finding)
        return kept
