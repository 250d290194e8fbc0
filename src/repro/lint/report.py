"""Text and JSON renderers for lint results.

The JSON document (schema ``repro-lint/5``) is the machine interface CI
consumes and archives; it is rendered with sorted keys and a stable field
set so reports diff cleanly across runs.  Version 2 added the deep-tier
block: ``packs`` (which analysis packs exist) and ``cache`` (the
incremental-analysis counters — how many modules were re-analyzed vs
served from the summary cache), both ``null``-free only when ``--deep``
ran.  Version 3 adds the ``concurrency`` block — the CONC pack's
whole-program counters (modules swept, lock nodes, lock-order edges,
findings) when ``--concurrency`` ran, else ``null`` — and lists ``CONC``
in ``packs`` for such runs.  Version 4 added ``perf`` and ``arch``
blocks; version 5 drops them again with the packs that filled them.
The text renderer is for humans at the terminal: one
``path:line:col: RULE severity: message`` row per finding plus a summary
line.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence

from .engine import LintResult, Rule

REPORT_SCHEMA = "repro-lint/5"


def render_text(result: LintResult) -> str:
    """Human-readable report: one row per finding plus a summary."""
    lines: List[str] = []
    for finding in result.findings:
        lines.append(f"{finding.location()}: {finding.rule} "
                     f"{finding.severity}: {finding.message}")
    for entry in result.stale_baseline:
        lines.append(f"stale baseline entry: {entry.rule} at {entry.path} "
                     f"({entry.snippet!r}) no longer matches — remove it")
    tail = (f"{len(result.findings)} finding(s) in "
            f"{result.files_checked} file(s)")
    extras: List[str] = []
    if result.suppressed:
        extras.append(f"{result.suppressed} suppressed inline")
    if result.baselined:
        extras.append(f"{result.baselined} baselined")
    if result.deep is not None:
        extras.append(f"deep: {result.deep.modules_analyzed} analyzed, "
                      f"{result.deep.modules_cached} from cache")
        if result.deep.concurrency is not None:
            conc = result.deep.concurrency
            extras.append(f"concurrency: {conc['locks']} lock(s), "
                          f"{conc['lock_edges']} order edge(s)")
    if extras:
        tail += " (" + ", ".join(extras) + ")"
    lines.append(tail if result.findings else f"clean: {tail}")
    return "\n".join(lines)


def report_document(result: LintResult) -> Dict[str, object]:
    """The ``repro-lint/5`` report as a JSON-safe dict."""
    deep: Optional[Dict[str, object]] = None
    packs: List[str] = []
    concurrency: Optional[Dict[str, object]] = None
    if result.deep is not None:
        stats = result.deep.as_dict()
        packs = list(stats.pop("packs", []))
        raw_conc = stats.pop("concurrency", None)
        if isinstance(raw_conc, dict):
            concurrency = raw_conc
        deep = stats
    return {
        "schema": REPORT_SCHEMA,
        "files_checked": result.files_checked,
        "findings": [finding.as_dict() for finding in result.findings],
        "counts": result.counts(),
        "suppressed": result.suppressed,
        "baselined": result.baselined,
        "stale_baseline": [entry.as_dict()
                           for entry in result.stale_baseline],
        "packs": packs,
        "cache": deep,
        "concurrency": concurrency,
        "exit_code": result.exit_code,
    }


def render_json(result: LintResult) -> str:
    """Canonical JSON rendering (sorted keys, 2-space indent, newline)."""
    return json.dumps(report_document(result), indent=2, sort_keys=True) + "\n"


def rule_catalogue(rules: Sequence[Rule]) -> str:
    """``--list-rules`` table: name, severity, one-line summary."""
    lines = [f"{rule.name}  {rule.slug:<26} {rule.severity:<8} "
             f"{rule.summary}" for rule in rules]
    return "\n".join(lines)
