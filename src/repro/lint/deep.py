"""The ``--deep`` tier driver: summaries, then the rule packs.

One :class:`DeepAnalyzer` run does, in order:

1. **parse and summarize** each input module once
   (:func:`parse_modules`; a :class:`~repro.lint.symbols.ModuleSummary`
   holds its import aliases and function names);
2. **analyze** each module with the FLOW pack (:mod:`.flowrules`);
3. run the opt-in whole-program CONC pack (:mod:`.concurrency`), which
   resolves calls across modules through a symbol table over every
   summary.

Every run is cold: nothing is persisted between runs, so the findings
are always those of the current input set.  :class:`DeepStats` counts
the modules analyzed and the findings suppressed inline; the JSON
report's ``deep`` block carries it.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .engine import (Finding, display_path, module_name, suppressed_lines)
from .flowrules import check_raise_provenance, check_resource_paths
from .symbols import ModuleSummary, summarize_module

#: Names of the always-on deep rule packs, for reports and
#: ``--list-rules``.
PACKS = ("FLOW",)

#: The optional whole-program pack.
CONC_PACK = "CONC"


@dataclass
class DeepStats:
    """How much work one deep run did."""

    modules_analyzed: int = 0   # input modules that parsed
    suppressed: int = 0         # deep findings removed by inline disables
    #: ``{"modules": .., "findings": .., "locks": .., "lock_edges": ..}``
    #: when the CONC pack ran this run, else ``None``.
    concurrency: Optional[Dict[str, int]] = None

    def as_dict(self) -> Dict[str, object]:
        packs = list(PACKS)
        if self.concurrency is not None:
            packs.append(CONC_PACK)
        document: Dict[str, object] = {
            "modules_analyzed": self.modules_analyzed,
            "suppressed": self.suppressed,
            "packs": packs,
        }
        if self.concurrency is not None:
            document["concurrency"] = dict(self.concurrency)
        return document


@dataclass
class ModuleParse:
    """One input module that parsed: its source, tree and summary.

    ``summary.path`` is the path findings report.
    """

    source: str
    tree: ast.Module
    summary: ModuleSummary


def parse_modules(files: Sequence[str]) -> Dict[str, ModuleParse]:
    """Read, parse and summarize every input module, by module name.

    Files that cannot be read or parsed are left out; the classic tier
    reports them as LINT000.
    """
    parsed: Dict[str, ModuleParse] = {}
    for path in files:
        module = module_name(path)
        if not module:
            continue
        try:
            with open(path, "rb") as handle:
                source = handle.read().decode("utf-8")
            tree = ast.parse(source, filename=path)
        except (OSError, UnicodeDecodeError, SyntaxError, ValueError):
            continue
        parsed[module] = ModuleParse(source, tree, summarize_module(
            module, display_path(path), tree,
            os.path.basename(path) == "__init__.py"))
    return parsed


class DeepAnalyzer:
    """Whole-program analysis over one input set."""

    def __init__(self, concurrency: bool = False) -> None:
        self.concurrency = concurrency

    def analyze(self, files: Sequence[str]
                ) -> Tuple[List[Finding], DeepStats]:
        """Deep findings (suppression-filtered) plus run counters."""
        parsed = parse_modules(files)
        stats = DeepStats(modules_analyzed=len(parsed))
        findings: List[Finding] = []
        for state in parsed.values():
            lines = state.source.splitlines()
            findings.extend(check_resource_paths(state.summary, state.tree,
                                                 lines))
            findings.extend(check_raise_provenance(state.summary, state.tree,
                                                   lines))
        findings = _filter_suppressed(findings, parsed, stats)
        if self.concurrency:
            findings.extend(self._run_concurrency(parsed, stats))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings, stats

    @staticmethod
    def _run_concurrency(parsed: Dict[str, ModuleParse],
                         stats: DeepStats) -> List[Finding]:
        """The CONC pack: whole-program rules over every module."""
        from .concurrency import run_concurrency

        findings, graph = run_concurrency(parsed)
        kept = _filter_suppressed(findings, parsed, stats)
        stats.concurrency = {
            "modules": len(parsed),
            "findings": len(kept),
            "locks": len(graph.locks),
            "lock_edges": len(graph.edges),
        }
        _record_concurrency_metrics(stats.concurrency)
        return kept


def _filter_suppressed(findings: List[Finding],
                       parsed: Dict[str, ModuleParse],
                       stats: DeepStats) -> List[Finding]:
    """Apply inline ``# repro-lint: disable`` to pack findings."""
    kept: List[Finding] = []
    by_path = {state.summary.path: state for state in parsed.values()}
    disabled: Dict[str, Dict[int, Set[str]]] = {}
    for finding in findings:
        state = by_path.get(finding.path)
        if state is not None:
            if finding.path not in disabled:
                disabled[finding.path] = suppressed_lines(state.source)
            names = disabled[finding.path].get(finding.line, set())
            if "*" in names or finding.rule in names:
                stats.suppressed += 1
                continue
        kept.append(finding)
    return kept


def _record_concurrency_metrics(counts: Dict[str, int]) -> None:
    """Bump ``lint.concurrency.*`` counters, if the obs package is usable.

    The lint package is deliberately dependency-free; observability is a
    best-effort extra (obs pulls numpy transitively via its bench module's
    callers, and a stripped checkout may not ship it at all).
    """
    try:
        from repro.obs import get_metrics
    except ImportError:  # pragma: no cover - stripped environment
        return
    metrics = get_metrics()
    metrics.counter("lint.concurrency.modules").inc(counts["modules"])
    metrics.counter("lint.concurrency.findings").inc(counts["findings"])
    metrics.counter("lint.concurrency.lock_edges").inc(
        counts["lock_edges"])


@dataclass(frozen=True)
class DeepRuleInfo:
    """Catalogue row of one deep rule (shape-compatible with ``Rule``)."""

    name: str
    slug: str
    severity: str
    summary: str


#: The deep rules, for ``--list-rules``, ``--select`` and ``--ignore``.
DEEP_RULE_CATALOGUE: Tuple[DeepRuleInfo, ...] = (
    DeepRuleInfo("FLOW002", "resource-path-leak", "warning",
                 "Span/pool/file has a CFG path to exit that skips close"),
    DeepRuleInfo("FLOW003", "error-without-provenance", "error",
                 "taxonomy error raised without net/design/stage context"),
)

DEEP_RULE_NAMES: Tuple[str, ...] = tuple(
    info.name for info in DEEP_RULE_CATALOGUE)
