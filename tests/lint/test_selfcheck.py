"""Self-application: the repo must stay clean under its own linter.

This is the acceptance gate the CI ``static-analysis`` job enforces;
keeping it in tier-1 means a violation fails locally before it fails in
CI, with the same baseline semantics (`lint-baseline.json` at the repo
root, empty today).
"""

import os
from pathlib import Path

import pytest

from repro.lint import (CONC_RULE_NAMES, DEEP_RULE_NAMES, DEFAULT_BASELINE,
                        DeepAnalyzer, LintRunner, load_baseline, load_config)
from tests.lint.test_layers import LAYERS, observed_layer_graph

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def repo_lint():
    """Every tier CI runs (per-file, FLOW/SHAPE/UNIT, CONC), in one pass.

    Inline suppressions (the documented clock-under-lock sites among
    them) are allowed; new findings are not.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(REPO)
        config = load_config(str(REPO))
        deep = DeepAnalyzer(config=config, cache_path=None, concurrency=True)
        return LintRunner(exclude=config.exclude).run(
            ["src", "tools"], baseline=load_baseline(DEFAULT_BASELINE),
            deep=deep)


def _details(findings):
    return "\n".join(
        f"{f.location()}: {f.rule}: {f.message}" for f in findings)


def test_repo_is_lint_clean(repo_lint):
    assert repo_lint.exit_code == 0, (
        f"repo lint findings:\n{_details(repo_lint.findings)}")
    # Every baseline entry must still match something; stale entries mean
    # the debt was paid and the entry should be deleted.
    assert repo_lint.stale_baseline == []
    assert repo_lint.files_checked > 50


def test_repo_is_deep_clean(repo_lint):
    """The whole-program tier (FLOW/SHAPE/UNIT) must also stay clean."""
    deep = [f for f in repo_lint.findings if f.rule in DEEP_RULE_NAMES]
    assert deep == [], f"deep lint findings:\n{_details(deep)}"
    assert repo_lint.deep is not None
    assert repo_lint.deep.modules_analyzed > 50


def test_repo_is_concurrency_clean(repo_lint):
    """The CONC pack (lock-order, guarded-by, thread-escape) stays clean."""
    conc_findings = [f for f in repo_lint.findings
                     if f.rule in CONC_RULE_NAMES]
    assert conc_findings == [], (
        f"concurrency findings:\n{_details(conc_findings)}")
    assert repo_lint.deep is not None
    conc = repo_lint.deep.concurrency
    assert conc is not None and conc["modules"] > 50
    # The serving stack's locks are modeled: the graph is non-trivial.
    assert conc["locks"] >= 9
    assert conc["lock_edges"] >= 3


def test_repo_is_arch_clean():
    """Every module-scope import across layers is an edge of ``LAYERS``.

    Move a new cross-layer import into the function that needs it, or
    add its edge to the table in ``test_layers.py``.
    """
    observed = observed_layer_graph()
    assert set(observed) <= set(LAYERS), "undeclared layer(s): " + ", ".join(
        sorted(set(observed) - set(LAYERS)))
    new = sorted(f"{layer} -> {target}"
                 for layer, targets in observed.items()
                 for target in targets - LAYERS.get(layer, set()))
    assert new == [], "layer edges missing from LAYERS: " + ", ".join(new)


def test_committed_baseline_is_well_formed():
    entries = load_baseline(os.path.join(str(REPO), DEFAULT_BASELINE))
    for entry in entries:
        assert entry.justification.strip(), (
            f"baseline entry {entry.key()} lacks a justification")
