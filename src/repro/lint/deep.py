"""The ``--deep`` tier driver: summaries, rule packs, incremental cache.

One :class:`DeepAnalyzer` run does, in order:

1. **hash** every input file (BLAKE2b of the raw bytes);
2. **summarize** the modules whose hash is new or changed (parse + extract
   a :class:`~repro.lint.symbols.ModuleSummary`), reusing cached summaries
   for everything else;
3. **propagate dirtiness** along *reverse* import edges: a module is dirty
   when its own content changed or when anything it (transitively) imports
   is dirty — exactly the set whose cross-module findings could differ;
4. **analyze** dirty modules with the three deep rule packs (FLOW via
   :mod:`.flowrules`, SHAPE via :mod:`.shapes`, UNIT via :mod:`.units`)
   over a symbol table built from *all* summaries, and
   reuse cached findings for clean modules;
5. run the opt-in whole-program CONC pack (:mod:`.concurrency`).  Its
   per-module lock *models* ride the same cache by content hash; its
   *findings* are always assembled fresh, because one edge anywhere can
   change a whole-program verdict (a LOCK001 cycle);
6. **persist** the cache: one JSON file mapping module name to
   ``{hash, summary, findings[, concurrency]}`` plus a config
   fingerprint covering the analysis version, the **enabled pack set and
   per-pack rule versions** and the unit declarations — so toggling
   ``--concurrency`` (or bumping any pack) invalidates everything, while
   a one-module edit re-analyzes only that module and its importers.

Counters (:class:`DeepStats`) expose exactly how much work was done —
``modules_analyzed`` vs ``modules_cached``, and ``modules_parsed`` (the
number of source files actually fed to ``ast.parse`` this run; a warm
run with every pack enabled parses zero) — which is what the incremental
tests and the JSON report's ``cache`` block consume.

Cached entries for modules *outside* the current input set are retained
untouched and their summaries still feed the symbol table.  That is what
makes ``repro lint --changed --deep`` sound enough to be useful: the
changed file is re-analyzed against the rest of the project as of its last
full run, at a fraction of the cost.
"""

from __future__ import annotations

import ast
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .config import LintConfig, default_config
from .engine import (Finding, display_path, module_name, suppressed_lines)
from .flowrules import (check_anonymous_raises, check_raise_provenance,
                        check_resource_paths)
from .shapes import check_call_edges
from .symbols import ModuleSummary, SymbolTable, summarize_module
from .units import UnitDeclarations, check_units, load_declarations

#: Bump when any deep pack's semantics change: stale caches self-invalidate.
#: v2: the cache fingerprint covers the enabled pack set + per-pack
#: versions.  v3: module summaries no longer carry import sites.  v4: nor
#: call sites, RNG sources or process-pool map sites.
ANALYSIS_VERSION = "repro-lint-deep/4"

#: Default cache location, relative to the working directory.
DEFAULT_CACHE = ".repro-lint-cache.json"

#: Names of the always-on deep rule packs, for reports and
#: ``--list-rules``.
PACKS = ("FLOW", "SHAPE", "UNIT")

#: The optional whole-program pack.
CONC_PACK = "CONC"


@dataclass
class DeepStats:
    """How much work one deep run actually did."""

    modules_total: int = 0      # modules in the current input set
    modules_analyzed: int = 0   # re-analyzed this run (dirty)
    modules_cached: int = 0     # findings served from the cache (clean)
    modules_retained: int = 0   # cache-only modules kept for resolution
    modules_parsed: int = 0     # files actually ast.parse'd this run
    suppressed: int = 0         # deep findings removed by inline disables
    cache_loaded: bool = False  # a compatible cache file was read
    cache_path: Optional[str] = None
    #: ``{"modules": .., "findings": .., "locks": .., "lock_edges": ..,
    #: "models_reused": .., "models_extracted": ..}`` when the CONC pack
    #: ran this run, else ``None``.
    concurrency: Optional[Dict[str, int]] = None

    def as_dict(self) -> Dict[str, object]:
        packs = list(PACKS)
        if self.concurrency is not None:
            packs.append(CONC_PACK)
        document: Dict[str, object] = {
            "modules_total": self.modules_total,
            "modules_analyzed": self.modules_analyzed,
            "modules_cached": self.modules_cached,
            "modules_retained": self.modules_retained,
            "modules_parsed": self.modules_parsed,
            "suppressed": self.suppressed,
            "cache_loaded": self.cache_loaded,
            "cache_path": self.cache_path,
            "packs": packs,
        }
        if self.concurrency is not None:
            document["concurrency"] = dict(self.concurrency)
        return document


@dataclass
class _ModuleState:
    """Working state of one input module during a run."""

    module: str
    path: str
    display: str
    source: str
    content_hash: str
    is_package: bool
    summary: Optional[ModuleSummary] = None
    tree: Optional[ast.Module] = None
    changed: bool = False
    findings: List[Finding] = field(default_factory=list)


def content_hash(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


class DeepAnalyzer:
    """Whole-program analysis with a content-hash incremental cache."""

    def __init__(self, config: Optional[LintConfig] = None,
                 cache_path: Optional[str] = DEFAULT_CACHE,
                 concurrency: bool = False) -> None:
        self.config = config if config is not None else default_config()
        self.cache_path = cache_path
        self.concurrency = concurrency
        self.declarations: UnitDeclarations = load_declarations(
            self.config.unit_declarations_path())
        self._parses = 0

    # ------------------------------------------------------------------
    def config_fingerprint(self) -> str:
        """Hash of everything besides file content that shapes findings.

        Covers the enabled pack set and each enabled pack's rule version,
        so toggling a tier flag or bumping one pack never serves that
        pack's (or another tier's) stale summaries or models.
        """
        packs = list(PACKS)
        versions: Dict[str, str] = {"deep": ANALYSIS_VERSION}
        if self.concurrency:
            from .concurrency import CONC_PACK_VERSION

            packs.append(CONC_PACK)
            versions["conc"] = CONC_PACK_VERSION
        payload = json.dumps({
            "version": ANALYSIS_VERSION,
            "packs": packs,
            "pack_versions": versions,
            "scopes": list(self.declarations.scopes),
            "names": {k: list(v)
                      for k, v in sorted(self.declarations.names.items())},
            "suffixes": {k: list(v) for k, v
                         in sorted(self.declarations.suffixes.items())},
        }, sort_keys=True)
        return content_hash(payload.encode("utf-8"))

    def analyze(self, files: Sequence[str]
                ) -> Tuple[List[Finding], DeepStats]:
        """Deep findings (suppression-filtered) plus run counters."""
        stats = DeepStats(cache_path=self.cache_path)
        self._parses = 0
        cached = self._load_cache(stats)
        states = self._read_modules(files)
        stats.modules_total = len(states)

        # Summaries: reuse for unchanged content, recompute for the rest.
        for state in states.values():
            entry = cached.get(state.module)
            if entry is not None \
                    and entry.get("hash") == state.content_hash:
                try:
                    state.summary = ModuleSummary.from_dict(entry["summary"])
                    continue
                except (KeyError, TypeError, ValueError):
                    pass  # corrupt entry: fall through to re-summarize
            state.changed = True
            self._parse(state)
            if state.tree is not None:
                state.summary = summarize_module(
                    state.module, state.display, state.tree,
                    state.source.splitlines(), state.is_package)

        summaries = {state.module: state.summary
                     for state in states.values()
                     if state.summary is not None}
        retained: Dict[str, Dict[str, object]] = {}
        for module, entry in cached.items():
            if module in states:
                continue
            try:
                summaries.setdefault(
                    module, ModuleSummary.from_dict(entry["summary"]))
                retained[module] = entry
            except (KeyError, TypeError, ValueError):
                continue
        stats.modules_retained = len(retained)

        dirty = self._propagate_dirty(states, summaries)
        table = SymbolTable(summaries)

        findings: List[Finding] = []
        fresh_cache: Dict[str, Dict[str, object]] = dict(retained)
        for module in sorted(states):
            state = states[module]
            if state.summary is None:
                continue  # unparsable: the classic tier reports LINT000
            if module in dirty:
                if state.tree is None:
                    self._parse(state)
                if state.tree is None:
                    continue
                state.findings = self._analyze_module(state, table)
                stats.modules_analyzed += 1
            else:
                entry = cached.get(module, {})
                state.findings = _findings_from_cache(entry)
                stats.modules_cached += 1
            fresh_cache[module] = {
                "hash": state.content_hash,
                "summary": state.summary.as_dict(),
                "findings": [f.as_dict() for f in state.findings],
            }
            findings.extend(self._apply_suppressions(state, stats))

        if self.concurrency:
            findings.extend(self._run_concurrency(
                states, table, cached, dirty, fresh_cache, stats))
        stats.modules_parsed = self._parses
        self._write_cache(fresh_cache)
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings, stats

    # ------------------------------------------------------------------
    # Whole-program packs
    # ------------------------------------------------------------------
    def _run_concurrency(self, states: Dict[str, _ModuleState],
                         table: SymbolTable,
                         cached: Dict[str, Dict[str, object]],
                         dirty: Set[str],
                         fresh_cache: Dict[str, Dict[str, object]],
                         stats: DeepStats) -> List[Finding]:
        """The CONC pack: whole-program rules over cacheable lock models.

        LOCK001 is a property of the *current* input set (one new edge
        anywhere can close a cycle whose other edges live in unchanged
        modules), so findings are recomputed every run — but the
        per-module lock *model* is a pure function of module content and
        rides the incremental cache, so a warm run re-parses nothing.
        """
        from .concurrency import (ModuleConcurrency,
                                  extract_module_concurrency,
                                  run_concurrency_models)

        models: Dict[str, ModuleConcurrency] = {}
        sources: Dict[str, Sequence[str]] = {}
        reused = extracted = 0
        for module, state in states.items():
            if state.summary is None:
                continue
            lines = state.source.splitlines()
            model: Optional[ModuleConcurrency] = None
            if module not in dirty:
                raw = cached.get(module, {}).get("concurrency")
                if isinstance(raw, dict):
                    try:
                        model = ModuleConcurrency.from_dict(raw)
                        reused += 1
                    except (KeyError, TypeError, ValueError):
                        model = None
            if model is None:
                if state.tree is None:
                    self._parse(state)
                if state.tree is None:
                    continue
                model = extract_module_concurrency(
                    state.summary, state.tree, lines, state.display)
                extracted += 1
            models[module] = model
            sources[module] = lines
            if module in fresh_cache:
                fresh_cache[module]["concurrency"] = model.as_dict()
        findings, graph = run_concurrency_models(table, models, sources)
        kept = self._filter_suppressed(findings, states, stats)
        stats.concurrency = {
            "modules": len(models),
            "findings": len(kept),
            "locks": len(graph.locks),
            "lock_edges": len(graph.edges),
            "models_reused": reused,
            "models_extracted": extracted,
        }
        _record_concurrency_metrics(stats.concurrency)
        return kept

    def _filter_suppressed(self, findings: List[Finding],
                           states: Dict[str, _ModuleState],
                           stats: DeepStats) -> List[Finding]:
        """Apply inline ``# repro-lint: disable`` to pack findings."""
        kept: List[Finding] = []
        by_display = {state.display: state for state in states.values()}
        cache: Dict[str, Dict[int, Set[str]]] = {}
        for finding in findings:
            state = by_display.get(finding.path)
            if state is not None:
                if finding.path not in cache:
                    cache[finding.path] = suppressed_lines(state.source)
                names = cache[finding.path].get(finding.line, set())
                if "*" in names or finding.rule in names:
                    stats.suppressed += 1
                    continue
            kept.append(finding)
        return kept

    # ------------------------------------------------------------------
    def _read_modules(self, files: Sequence[str]) -> Dict[str, _ModuleState]:
        states: Dict[str, _ModuleState] = {}
        for path in files:
            try:
                with open(path, "rb") as handle:
                    data = handle.read()
                source = data.decode("utf-8")
            except (OSError, UnicodeDecodeError):
                continue  # the classic tier reports LINT000 for these
            module = module_name(path)
            if not module:
                continue
            states[module] = _ModuleState(
                module=module, path=path, display=display_path(path),
                source=source, content_hash=content_hash(data),
                is_package=os.path.basename(path) == "__init__.py")
        return states

    def _parse(self, state: _ModuleState) -> None:
        self._parses += 1
        try:
            state.tree = ast.parse(state.source, filename=state.path)
        except (SyntaxError, ValueError):
            state.tree = None

    @staticmethod
    def _propagate_dirty(states: Dict[str, _ModuleState],
                         summaries: Dict[str, ModuleSummary]) -> Set[str]:
        """Changed modules plus every transitive importer of one."""
        importers: Dict[str, Set[str]] = {}
        for module, summary in summaries.items():
            for dep in summary.imported_modules:
                if dep in summaries and dep != module:
                    importers.setdefault(dep, set()).add(module)
        dirty: Set[str] = {m for m, s in states.items() if s.changed}
        frontier = list(dirty)
        while frontier:
            module = frontier.pop()
            for importer in importers.get(module, ()):
                if importer not in dirty:
                    dirty.add(importer)
                    frontier.append(importer)
        return dirty

    def _analyze_module(self, state: _ModuleState,
                        table: SymbolTable) -> List[Finding]:
        assert state.summary is not None and state.tree is not None
        summary, tree = state.summary, state.tree
        lines = state.source.splitlines()
        findings: List[Finding] = []
        findings.extend(check_resource_paths(summary, tree, lines))
        findings.extend(check_raise_provenance(summary, tree, lines))
        findings.extend(check_anonymous_raises(summary, tree, lines))
        findings.extend(check_call_edges(
            state.display, tree, lines,
            lambda written: self._resolve_callee(table, summary.module,
                                                 written),
            {name: fn.contract for name, fn in summary.functions.items()
             if fn.contract is not None}))
        findings.extend(check_units(summary.module, state.display, tree,
                                    lines, self.declarations))
        return findings

    @staticmethod
    def _resolve_callee(table: SymbolTable, module: str, written: str):
        resolved = table.resolve(module, written)
        if resolved is None:
            return None
        fn = table.function(*resolved)
        if fn is None:
            return None
        defining, symbol = resolved
        return fn, f"{defining.split('.')[-1]}.{symbol}"

    @staticmethod
    def _apply_suppressions(state: _ModuleState,
                            stats: DeepStats) -> List[Finding]:
        if not state.findings:
            return []
        table = suppressed_lines(state.source)
        kept: List[Finding] = []
        for finding in state.findings:
            names = table.get(finding.line, set())
            if "*" in names or finding.rule in names:
                stats.suppressed += 1
            else:
                kept.append(finding)
        return kept

    # ------------------------------------------------------------------
    def _load_cache(self, stats: DeepStats) -> Dict[str, Dict[str, object]]:
        if self.cache_path is None or not os.path.isfile(self.cache_path):
            return {}
        try:
            with open(self.cache_path, encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, UnicodeDecodeError, ValueError):
            return {}
        if not isinstance(document, dict) \
                or document.get("schema") != ANALYSIS_VERSION \
                or document.get("config") != self.config_fingerprint():
            return {}
        modules = document.get("modules")
        if not isinstance(modules, dict):
            return {}
        stats.cache_loaded = True
        return {str(name): entry for name, entry in modules.items()
                if isinstance(entry, dict)}

    def _write_cache(self, modules: Dict[str, Dict[str, object]]) -> None:
        if self.cache_path is None:
            return
        document = {
            "schema": ANALYSIS_VERSION,
            "config": self.config_fingerprint(),
            "modules": {name: modules[name] for name in sorted(modules)},
        }
        try:
            with open(self.cache_path, "w", encoding="utf-8") as handle:
                json.dump(document, handle, indent=1, sort_keys=True)
                handle.write("\n")
        except OSError:
            pass  # a read-only checkout must not break linting


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


def _findings_from_cache(entry: Dict[str, object]) -> List[Finding]:
    raw = entry.get("findings")
    if not isinstance(raw, list):
        return []
    findings: List[Finding] = []
    for item in raw:
        if not isinstance(item, dict):
            continue
        try:
            findings.append(Finding(
                rule=str(item["rule"]), severity=str(item["severity"]),
                path=str(item["path"]), line=int(item["line"]),
                col=int(item["col"]), message=str(item["message"]),
                snippet=str(item.get("snippet", ""))))
        except (KeyError, TypeError, ValueError):
            continue
    return findings


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
    DeepRuleInfo("FLOW004", "anonymous-error-drops-provenance", "warning",
                 "bare ValueError/RuntimeError raised where net/design "
                 "provenance is in scope"),
    DeepRuleInfo("SHAPE001", "shape-contract-mismatch", "error",
                 "argument shape contradicts the callee's repro-shape "
                 "contract"),
    DeepRuleInfo("SHAPE002", "dtype-contract-mismatch", "error",
                 "argument dtype contradicts the callee's repro-shape "
                 "contract"),
    DeepRuleInfo("UNIT001", "unit-mismatch", "error",
                 "ohm/farad/second quantities combined incompatibly"),
)

DEEP_RULE_NAMES: Tuple[str, ...] = tuple(
    info.name for info in DEEP_RULE_CATALOGUE)
