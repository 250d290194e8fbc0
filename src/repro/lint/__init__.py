"""`repro.lint` — AST-based invariant linter for this repository.

Generic linters check style; this package checks the invariants the
reproduction's correctness actually rests on: deterministic (jobs- and
import-order-invariant) RNG and iteration discipline in the golden-label
pipeline, guarded linear algebra, the typed error-contract of
:mod:`repro.robustness.errors`, spawn-safe :func:`repro.parallel.parallel_map`
usage, and navigable documentation.  See docs/LINTING.md for the rule
catalogue, the suppression/baseline workflow, and how to add a rule.

On top of the per-file rules sits the **deep tier** (``--deep``): a
whole-program pass that builds per-module summaries (:mod:`.symbols`),
a project call graph (:mod:`.callgraph`), per-function CFGs (:mod:`.cfg`)
and a forward dataflow engine (:mod:`.dataflow`), then runs the FLOW
(:mod:`.flowrules`), SHAPE (:mod:`.shapes`) and UNIT (:mod:`.units`) rule
packs over them.  Summaries and findings are cached per content hash
(:mod:`.deep`), so a warm run re-analyzes only edited modules and their
transitive importers.  The opt-in CONC pack (:mod:`.concurrency`, lock
discipline) rides the same machinery.

Typical use is through the CLI::

    repro lint src tools                       # text report, exit 1 on findings
    repro lint src tools --deep                # + FLOW/SHAPE/UNIT packs
    repro lint src tools --concurrency         # + CONC pack (implies --deep)
    repro lint src tools --deep --changed      # PR fast path (git diff gate)
    repro lint src --select ERR001,ERR002      # only the error-contract rules
    repro lint src tools --format json         # machine-readable repro-lint/5
    repro lint src tools --write-baseline      # grandfather current findings

and programmatically::

    from repro.lint import DeepAnalyzer, LintRunner, load_baseline
    result = LintRunner().run(["src", "tools"],
                              baseline=load_baseline("lint-baseline.json"),
                              deep=DeepAnalyzer())
    assert result.exit_code == 0, result.findings
"""

from .baseline import (BASELINE_SCHEMA, DEFAULT_BASELINE, BaselineEntry,
                       BaselineError, apply_baseline, load_baseline,
                       write_baseline)
from .callgraph import CallGraph
from .cfg import CFG, build_cfg, dump_cfg, function_cfgs
from .concurrency import (CONC_RULE_NAMES, LockGraph, build_lock_graph,
                          dump_lock_graph)
from .config import ConfigError, LintConfig, default_config, load_config
from .deep import (ANALYSIS_VERSION, DEEP_RULE_NAMES, DeepAnalyzer,
                   DeepStats)
from .engine import (PARSE_RULE, Finding, LintResult, LintRunner,
                     ModuleContext, ProjectRule, Rule, module_name,
                     python_files, suppressed_lines)
from .report import (REPORT_SCHEMA, render_json, render_text,
                     report_document, rule_catalogue)
from .rules import TAXONOMY_ERRORS, default_rules
from .shapes import ShapeContract, parse_contract_text
from .symbols import ModuleSummary, SymbolTable, summarize_module
from .units import DeclarationError, UnitDeclarations, load_declarations

__all__ = [
    "ANALYSIS_VERSION", "BASELINE_SCHEMA", "CFG", "CONC_RULE_NAMES",
    "CallGraph", "ConfigError", "DEEP_RULE_NAMES", "DEFAULT_BASELINE",
    "BaselineEntry", "BaselineError", "DeclarationError", "DeepAnalyzer",
    "DeepStats", "Finding", "LintConfig", "LintResult", "LintRunner",
    "LockGraph", "ModuleContext", "ModuleSummary", "PARSE_RULE",
    "ProjectRule", "REPORT_SCHEMA", "Rule", "ShapeContract", "SymbolTable",
    "TAXONOMY_ERRORS", "UnitDeclarations", "apply_baseline",
    "build_cfg", "build_lock_graph", "default_config", "default_rules",
    "dump_cfg", "dump_lock_graph", "function_cfgs", "load_baseline",
    "load_config", "load_declarations", "module_name", "parse_contract_text",
    "python_files", "render_json", "render_text", "report_document",
    "rule_catalogue", "summarize_module", "suppressed_lines",
    "write_baseline",
]
