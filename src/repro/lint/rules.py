"""The repo's invariant rule pack.

Every rule encodes a discipline this codebase actually depends on — the
kind of silent-correctness property a generic linter has no opinion on but
whose violation corrupts golden labels, training runs, or the degradation
accounting:

==========  ==========================================================
DET001      no process-global / unseeded / import-time NumPy RNG use
DET002      no ``random`` stdlib module (process-global RNG)
DET003      no wall-clock reads in deterministic pipeline modules
DET004      no iteration over sets (hash-randomized order)
NUM001      no raw ``np.linalg`` solves outside the guarded modules
NUM002      no ``==``/``!=`` against float literals in numeric modules
ERR001      no bare ``except:``
ERR002      broad ``except Exception`` must re-raise or use the taxonomy
DOC001      internal markdown links must resolve (non-AST rule)
==========  ==========================================================

Rules are heuristics over the AST, not a type system: they catch the
patterns this repo has been bitten by, and anything they cannot prove is
left alone.  Intentional violations carry an inline
``# repro-lint: disable=RULE`` waiver with a justification (see
docs/LINTING.md).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Tuple

from .docrules import DocLinkRule
from .engine import SEVERITY_WARNING, Finding, ModuleContext, Rule

#: Exception types of :mod:`repro.robustness.errors`; constructing (or
#: raising) one inside a broad handler satisfies the ERR002 contract.
TAXONOMY_ERRORS = ("EstimationError", "InputError", "NumericalError",
                   "ModelError")

#: Legacy ``np.random`` module-level functions that mutate process-global
#: RNG state.  ``default_rng``/``SeedSequence``/``Generator`` are the
#: sanctioned replacements and are absent on purpose.
LEGACY_NP_RANDOM = frozenset({
    "seed", "rand", "randn", "randint", "random", "random_sample", "ranf",
    "sample", "uniform", "normal", "standard_normal", "choice", "shuffle",
    "permutation", "beta", "gamma", "poisson", "exponential", "binomial",
    "get_state", "set_state"})

#: ``np.linalg`` operations that must run behind the guard wrappers of
#: :mod:`repro.robustness.guards` / :mod:`repro.analysis` (condition-number
#: checks, typed NumericalError conversion).
LINALG_OPS = frozenset({"solve", "inv", "pinv", "eig", "eigh", "eigvals",
                        "eigvalsh", "lstsq", "cholesky", "svd",
                        "matrix_power", "tensorsolve", "tensorinv"})


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for an attribute chain rooted at a plain name, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _is_np_random(dotted: str) -> bool:
    head = dotted.split(".")
    return len(head) >= 2 and head[0] in ("np", "numpy") \
        and head[1] == "random"


def _import_time_nodes(body: Sequence[ast.stmt]) -> Iterator[ast.AST]:
    """All nodes whose code executes when the module is imported.

    Function and lambda *bodies* are skipped (they run later, on call);
    their decorators and default-argument expressions do execute at import
    time and are included.  Class bodies execute at import time too.
    """
    stack: List[ast.AST] = []
    stack.extend(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(node.decorator_list)
            stack.extend(node.args.defaults)
            stack.extend(d for d in node.args.kw_defaults if d is not None)
            continue
        if isinstance(node, ast.Lambda):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def _has_segment(ctx: ModuleContext, segments: Sequence[str]) -> bool:
    parts = ctx.segments()
    return any(segment in parts for segment in segments)


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class LegacyGlobalRngRule(Rule):
    """DET001 — NumPy RNG use that breaks run-to-run reproducibility.

    Three shapes are flagged: the legacy process-global API
    (``np.random.seed`` / ``np.random.rand`` / ...), ``default_rng()``
    called without a seed, and *any* ``np.random`` call at module scope
    (import-time RNG state makes results depend on import order).  The
    sanctioned pattern is a seeded ``np.random.Generator`` passed as a
    parameter, with independent streams from ``SeedSequence.spawn``.
    """

    name = "DET001"
    slug = "legacy-global-rng"
    summary = "process-global, unseeded, or import-time NumPy RNG use"
    node_types = (ast.Call,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        dotted = dotted_name(node.func)
        if dotted is None or not _is_np_random(dotted):
            return
        tail = dotted.split(".")[-1]
        if tail in LEGACY_NP_RANDOM:
            yield self.finding(
                ctx, node.lineno, node.col_offset,
                f"{dotted}() uses the process-global RNG; pass a seeded "
                f"np.random.Generator parameter instead")
        elif tail == "default_rng" and not node.args and not node.keywords:
            yield self.finding(
                ctx, node.lineno, node.col_offset,
                "np.random.default_rng() without a seed is nondeterministic;"
                " derive the seed from the workload seed "
                "(np.random.SeedSequence.spawn)")

    def check_module(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in _import_time_nodes(ctx.tree.body):
            if not isinstance(node, ast.Call):
                continue
            dotted = dotted_name(node.func)
            if dotted is None or not _is_np_random(dotted):
                continue
            if dotted.split(".")[-1] in LEGACY_NP_RANDOM:
                continue  # already flagged by the per-node hook
            yield self.finding(
                ctx, node.lineno, node.col_offset,
                f"{dotted}() at module scope creates RNG state at import "
                f"time; construct generators inside the code that uses them")


class StdlibRandomRule(Rule):
    """DET002 — the ``random`` stdlib module is process-global RNG state."""

    name = "DET002"
    slug = "stdlib-random"
    summary = "import of the process-global `random` stdlib module"
    node_types = (ast.Import, ast.ImportFrom)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        names: List[str] = []
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module] if node.module else []
        for name in names:
            if name == "random" or name.startswith("random."):
                yield self.finding(
                    ctx, node.lineno, node.col_offset,
                    "stdlib `random` is process-global RNG state; use a "
                    "seeded np.random.Generator parameter instead")


class WallClockRule(Rule):
    """DET003 — wall-clock reads inside deterministic pipeline modules.

    ``time.time()`` / ``datetime.now()`` in a label, hash, or feature path
    makes output depend on when it ran; timestamps belong to the
    observability layer (``repro.obs``) and the CLI, which are excluded.
    ``time.perf_counter()`` (duration, not date) stays legal everywhere.
    """

    name = "DET003"
    slug = "wall-clock-in-pipeline"
    summary = "wall-clock read (time.time / datetime.now) in pipeline code"
    node_types = (ast.Call,)

    def __init__(self,
                 exempt_segments: Optional[Tuple[str, ...]] = None) -> None:
        #: Module segments where wall-clock reads are the *job* (telemetry,
        #: bench stamping, user-facing CLI) rather than a determinism
        #: hazard.  Configured via ``[tool.repro-lint] det003-exempt``.
        if exempt_segments is None:
            from .config import default_config
            exempt_segments = default_config().det003_exempt
        self.exempt_segments: Tuple[str, ...] = exempt_segments

    _CLOCKS = frozenset({
        "time.time", "time.time_ns", "datetime.now", "datetime.utcnow",
        "datetime.today", "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "date.today", "datetime.date.today"})

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        if _has_segment(ctx, self.exempt_segments):
            return
        dotted = dotted_name(node.func)
        if dotted in self._CLOCKS:
            yield self.finding(
                ctx, node.lineno, node.col_offset,
                f"{dotted}() reads the wall clock inside a pipeline module; "
                f"timestamps belong in repro.obs / the CLI (use "
                f"time.perf_counter() for durations)")


class SetIterationRule(Rule):
    """DET004 — iterating a set feeds hash-randomized order downstream.

    Set iteration order varies across processes (PYTHONHASHSEED), so a
    ``for`` loop or comprehension over a set feeding ordered output — a
    report, a feature vector, a BLAKE2b content key — is a determinism bug
    even when each element is individually correct.  Sort first
    (``sorted(...)``) or keep a list.  Membership tests and ``len(set())``
    remain free.
    """

    name = "DET004"
    slug = "unordered-set-iteration"
    summary = "iteration over a set (hash-randomized order)"
    node_types = (ast.For, ast.comprehension)

    @staticmethod
    def _is_set_expr(node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ("set", "frozenset"))

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        iter_expr = node.iter if isinstance(node, (ast.For,
                                                   ast.comprehension)) \
            else None
        if iter_expr is None or not self._is_set_expr(iter_expr):
            return
        yield self.finding(
            ctx, iter_expr.lineno, iter_expr.col_offset,
            "iterating a set yields hash-randomized order; wrap it in "
            "sorted(...) before feeding ordered output or content hashes")


# ----------------------------------------------------------------------
# Numerical safety
# ----------------------------------------------------------------------
class UnguardedLinalgRule(Rule):
    """NUM001 — raw linear algebra outside the guarded modules.

    ``np.linalg.solve``/``eigh``/``inv`` on a near-singular operator
    silently returns garbage within float tolerance; this repo's contract
    is that such calls live in :mod:`repro.analysis` (next to the
    condition-number checks) or :mod:`repro.robustness.guards` (the typed
    wrappers) so failures become :class:`NumericalError` instead of wrong
    timing numbers.
    """

    name = "NUM001"
    slug = "unguarded-linalg"
    summary = "raw np.linalg call outside repro.analysis / guards"
    node_types = (ast.Call,)
    #: Modules allowed to touch np.linalg directly: any module under a
    #: segment in ``allowed_segments`` or whose last segment is listed in
    #: ``allowed_modules``.
    allowed_segments: Tuple[str, ...] = ("analysis",)
    allowed_modules: Tuple[str, ...] = ("guards",)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Call)
        dotted = dotted_name(node.func)
        if dotted is None:
            return
        parts = dotted.split(".")
        if parts[-1] not in LINALG_OPS or "linalg" not in parts[:-1]:
            return
        if _has_segment(ctx, self.allowed_segments):
            return
        if ctx.segments() and ctx.segments()[-1] in self.allowed_modules:
            return
        yield self.finding(
            ctx, node.lineno, node.col_offset,
            f"raw {dotted}() outside repro.analysis/guards; use the guard "
            f"wrappers of repro.robustness.guards (typed NumericalError, "
            f"condition-number check) instead")


class FloatEqualityRule(Rule):
    """NUM002 — ``==``/``!=`` against a float literal in numeric modules.

    Exact float equality is almost never what timing math means: values
    arrive through solves and quadrature sums, so ``x == 0.1`` is
    satisfied or missed by rounding noise.  Compare against a tolerance
    (``math.isclose``, ``np.isclose``) or restructure.  Comparisons in
    non-numeric modules and against integer literals are left alone; the
    deliberate exact-zero sentinel guards elsewhere in the repo sit
    outside this rule's scope for that reason.
    """

    name = "NUM002"
    slug = "float-equality"
    severity = SEVERITY_WARNING
    summary = "exact ==/!= against a float literal in numeric modules"
    node_types = (ast.Compare,)
    #: Module segments considered "numeric" (the paper's math core).
    scope_segments: Tuple[str, ...] = ("analysis", "rcnet")

    @staticmethod
    def _float_literal(node: ast.AST) -> bool:
        return isinstance(node, ast.Constant) and type(node.value) is float

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.Compare)
        if self.scope_segments and not _has_segment(ctx, self.scope_segments):
            return
        operands = [node.left] + list(node.comparators)
        for op, right in zip(node.ops, node.comparators):
            if not isinstance(op, (ast.Eq, ast.NotEq)):
                continue
            if any(self._float_literal(x) for x in operands):
                yield self.finding(
                    ctx, node.lineno, node.col_offset,
                    "exact float equality is brittle under rounding; use "
                    "math.isclose/np.isclose or an explicit tolerance")
                return


# ----------------------------------------------------------------------
# Error contracts
# ----------------------------------------------------------------------
class BareExceptRule(Rule):
    """ERR001 — ``except:`` swallows KeyboardInterrupt and SystemExit."""

    name = "ERR001"
    slug = "bare-except"
    summary = "bare except: catches KeyboardInterrupt/SystemExit"
    node_types = (ast.ExceptHandler,)

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.ExceptHandler)
        if node.type is None:
            yield self.finding(
                ctx, node.lineno, node.col_offset,
                "bare except: catches KeyboardInterrupt/SystemExit; name "
                "the exception types (narrowest that works)")


class BroadExceptContractRule(Rule):
    """ERR002 — broad handlers must keep failures typed and traceable.

    ``except Exception`` is allowed only when the handler re-raises
    (possibly converted) or routes the failure through the
    :mod:`repro.robustness.errors` taxonomy so provenance (net, design,
    stage) survives.  Designed swallow-and-degrade sites carry an inline
    ``# repro-lint: disable=ERR002`` waiver with a justification.
    """

    name = "ERR002"
    slug = "broad-except-contract"
    summary = "except Exception without re-raise or taxonomy conversion"
    node_types = (ast.ExceptHandler,)

    @staticmethod
    def _catches_broad(type_node: Optional[ast.expr]) -> bool:
        if type_node is None:
            return False  # ERR001's territory
        candidates = type_node.elts if isinstance(type_node, ast.Tuple) \
            else [type_node]
        return any(isinstance(c, ast.Name)
                   and c.id in ("Exception", "BaseException")
                   for c in candidates)

    @staticmethod
    def _satisfies_contract(body: Sequence[ast.stmt]) -> bool:
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Raise):
                    return True
                if isinstance(node, ast.Call):
                    dotted = dotted_name(node.func)
                    if dotted is not None \
                            and dotted.split(".")[-1] in TAXONOMY_ERRORS:
                        return True
        return False

    def visit(self, node: ast.AST, ctx: ModuleContext) -> Iterator[Finding]:
        assert isinstance(node, ast.ExceptHandler)
        if not self._catches_broad(node.type):
            return
        if self._satisfies_contract(node.body):
            return
        yield self.finding(
            ctx, node.lineno, node.col_offset,
            "broad except Exception neither re-raises nor converts to the "
            "repro.robustness.errors taxonomy; type the failure (keeping "
            "net/stage provenance) or attach a justified "
            "`# repro-lint: disable=ERR002` waiver")


# ----------------------------------------------------------------------
def default_rules() -> List[Rule]:
    """One fresh instance of every rule, in catalogue order."""
    return [
        LegacyGlobalRngRule(),
        StdlibRandomRule(),
        WallClockRule(),
        SetIterationRule(),
        UnguardedLinalgRule(),
        FloatEqualityRule(),
        BareExceptRule(),
        BroadExceptContractRule(),
        DocLinkRule(),
    ]
