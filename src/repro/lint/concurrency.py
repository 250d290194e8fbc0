"""The ``--concurrency`` tier: lock model, guarded-by, thread escape.

The serving stack made the process genuinely concurrent, and the
sequential FLOW pack cannot see the failure modes that matter there:
inconsistent lock acquisition orders, shared mutable state touched
off-lock, and module state captured by worker threads.  This pass adds
the CONC pack with three analyses over the same module set the deep
tier reads:

* **Lock model + lock-order graph** — ``threading.Lock/RLock/Condition``
  (and :func:`repro.obs.lockwatch.named_lock`) attributes and module
  globals are lock *nodes*, identified by stable names
  (``"PredictionCache._lock"`` for instance locks, the dotted module path
  for module locks) that match the runtime watchdog's lock names.  A
  ``with self._lock:`` region (or nested ``with``) acquired while another
  lock is held, or a call made under a lock whose (transitive) callee
  acquires one, contributes an ordered edge.  LOCK001 reports every edge
  that participates in a cycle — a potential deadlock.  LOCK002 reports a
  call to an *injected* callable (a constructor-parameter attribute or a
  function parameter) made while holding a lock: callbacks under a lock
  re-enter user code with the lock held.
* **Guarded-by inference (GUARD001)** — a ``# repro-guarded-by: <lock>``
  trailing comment on an attribute assignment in ``__init__`` declares
  that the attribute may only be touched under that same-class lock; every
  access outside ``__init__`` that does not hold the guard is an error.
  Unannotated mutable attributes are *inferred* guarded when at least two
  accesses hold exactly one common lock while another access holds none
  (a warning).  Methods whose name ends in ``_locked`` are assumed to run
  with the class's lock held, and calling one without the lock is itself
  a finding.  A dotted annotation value (``Owner._lock``) documents an
  *external* guard (the owner serializes access) and is recorded but not
  checked — ``_CircuitBreaker`` is the canonical case.
* **Thread-escape analysis (ESCAPE001)** — functions reaching a spawn
  site (``threading.Thread(target=...)``, ``executor.submit``,
  ``WorkerSupervisor``) are closed over the resolved call graph; any
  mutation of module-level state (a ``global`` rebind, a store through a
  module name, a mutating method on a mutable global) on such a path
  without *any* lock held is flagged.

LOCK001 is a whole-program property of the current input set, so every
run extracts each module's lock model from its AST and checks the whole
set.  Soundness limits, documented in docs/LINTING.md: lock identity is
per *class attribute*, not per instance; ``with``-based regions are
tracked lexically (explicit ``acquire()`` counts as an acquisition event
for ordering, but does not open a region); reads of module globals are
not flagged, only writes.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Set, Tuple)

from .deep import DeepRuleInfo, ModuleParse, parse_modules
from .engine import Finding, SEVERITY_ERROR, SEVERITY_WARNING, python_files
from .symbols import ModuleSummary, SymbolTable, canonical_name, dotted_name

__all__ = ["CONC_RULE_CATALOGUE", "CONC_RULE_NAMES", "LockGraph",
           "ModuleConcurrency", "build_lock_graph", "dump_lock_graph",
           "extract_module_concurrency", "run_concurrency"]

#: Trailing-comment grammar declaring an attribute's guard.  A bare name
#: is a lock attribute of the same class (checked); a dotted name is an
#: external guard (documented, unchecked).
GUARDED_BY = re.compile(
    r"#\s*repro-guarded-by:\s*(?P<lock>[A-Za-z_][A-Za-z0-9_.]*)")

#: Canonical callable names that construct a lock object.
_LOCK_CTORS = {
    "threading.Lock": "Lock",
    "threading.RLock": "RLock",
    "threading.Condition": "Condition",
}
_LOCK_CTOR_TAILS = {"named_lock": "Lock"}

#: Constructor/display values treated as mutable containers for the
#: guarded-by inference and the escape analysis.
_MUTABLE_CTORS = frozenset({
    "dict", "list", "set", "deque", "OrderedDict", "defaultdict",
    "Counter", "bytearray"})

#: Method tails that mutate their receiver in place.
_MUTATING_TAILS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert", "add",
    "update", "setdefault", "pop", "popleft", "popitem", "remove",
    "discard", "clear", "move_to_end", "sort", "reverse"})

#: Maximum functions visited per escape-closure / acquire-closure walk.
_CLOSURE_CAP = 512

#: Special-cased return types for chains the symbol table cannot resolve.
_RETURN_TYPES = {
    "get_metrics": {"counter": "Counter", "gauge": "Gauge",
                    "histogram": "Histogram"},
}


# ----------------------------------------------------------------------
# Per-module model
# ----------------------------------------------------------------------
@dataclass
class LockDecl:
    """One declared lock: a class attribute or a module-level global."""

    node: str            # stable graph node id, e.g. "PredictionCache._lock"
    kind: str            # "Lock" | "RLock" | "Condition"
    line: int
    alias_of: Optional[str] = None  # Condition(self.x) aliases node of x


@dataclass
class AttrAccess:
    """One ``self.<attr>`` touch inside a method."""

    attr: str
    method: str
    line: int
    col: int
    write: bool
    locks: FrozenSet[str]


@dataclass
class ClassModel:
    """Concurrency-relevant digest of one class."""

    name: str
    module: str
    line: int
    locks: Dict[str, LockDecl] = field(default_factory=dict)
    guarded_by: Dict[str, str] = field(default_factory=dict)
    external_guards: Dict[str, str] = field(default_factory=dict)
    mutable_attrs: Dict[str, int] = field(default_factory=dict)
    attr_types: Dict[str, str] = field(default_factory=dict)
    injected_attrs: Set[str] = field(default_factory=set)
    methods: Set[str] = field(default_factory=set)
    accesses: List[AttrAccess] = field(default_factory=list)

    def lock_nodes(self) -> Set[str]:
        return {decl.alias_of or decl.node for decl in self.locks.values()}


@dataclass
class CallUnderLocks:
    """One call site with the lexically held lock set."""

    written: str
    line: int
    col: int
    locks: FrozenSet[str]


@dataclass
class AcquireEvent:
    """One lock acquisition with the locks already held at that point."""

    node: str
    line: int
    col: int
    held: FrozenSet[str]


@dataclass
class GlobalWrite:
    """One mutation of module-level state inside a function."""

    target: str
    line: int
    col: int
    locks: FrozenSet[str]


@dataclass
class SpawnSite:
    """One place where a callable escapes to another thread."""

    kind: str            # "thread" | "submit" | "supervisor"
    target: str          # written dotted name of the escaping callable
    function: str        # qualname of the spawning function
    line: int
    col: int


@dataclass
class FunctionModel:
    """Concurrency-relevant digest of one function or method."""

    qualname: str
    module: str
    line: int
    cls: Optional[str] = None
    params: List[str] = field(default_factory=list)
    acquires: List[AcquireEvent] = field(default_factory=list)
    calls: List[CallUnderLocks] = field(default_factory=list)
    global_writes: List[GlobalWrite] = field(default_factory=list)
    local_types: Dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleConcurrency:
    """Everything the CONC rules need about one module."""

    module: str
    display: str
    classes: Dict[str, ClassModel] = field(default_factory=dict)
    functions: Dict[str, FunctionModel] = field(default_factory=dict)
    module_locks: Dict[str, LockDecl] = field(default_factory=dict)
    module_names: Set[str] = field(default_factory=set)
    mutable_globals: Dict[str, int] = field(default_factory=dict)
    global_types: Dict[str, str] = field(default_factory=dict)
    spawns: List[SpawnSite] = field(default_factory=list)


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
def _ctor_name(summary: ModuleSummary, value: ast.expr) -> Optional[str]:
    """Canonical dotted name of the constructor called by ``value``.

    Sees through a conditional expression (``a if p else B()``) because
    dependency-injection idioms wrap the default construction that way.
    """
    if isinstance(value, ast.IfExp):
        return (_ctor_name(summary, value.body)
                or _ctor_name(summary, value.orelse))
    if not isinstance(value, ast.Call):
        return None
    written = dotted_name(value.func)
    if written is None:
        return None
    return canonical_name(summary, written)


def _lock_kind(canonical: Optional[str]) -> Optional[str]:
    if canonical is None:
        return None
    kind = _LOCK_CTORS.get(canonical)
    if kind is not None:
        return kind
    return _LOCK_CTOR_TAILS.get(canonical.split(".")[-1])


def _registry_type(value: ast.expr) -> Optional[str]:
    """Type of ``get_metrics().counter(...)``-style instrument globals."""
    if not (isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and isinstance(value.func.value, ast.Call)):
        return None
    inner = dotted_name(value.func.value.func)
    if inner is None:
        return None
    table = _RETURN_TYPES.get(inner.split(".")[-1])
    if table is None:
        return None
    return table.get(value.func.attr)


def _is_mutable_value(summary: ModuleSummary, value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp,
                          ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        written = dotted_name(value.func)
        if written is not None:
            return written.split(".")[-1] in _MUTABLE_CTORS
    return False


def _root_name(node: ast.expr) -> Optional[str]:
    """Leftmost plain name of an attribute/subscript chain."""
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _guard_annotations(lines: Sequence[str]) -> Dict[int, str]:
    """line number -> declared guard for every annotated source line."""
    table: Dict[int, str] = {}
    for index, text in enumerate(lines, start=1):
        match = GUARDED_BY.search(text)
        if match is not None:
            table[index] = match.group("lock")
    return table


class _FunctionScanner:
    """Walks one function body tracking the lexically held lock set."""

    def __init__(self, mc: ModuleConcurrency, summary: ModuleSummary,
                 fn: FunctionModel, cls: Optional[ClassModel]) -> None:
        self.mc = mc
        self.summary = summary
        self.fn = fn
        self.cls = cls
        self.locals: Set[str] = set(fn.params)
        self.globals_declared: Set[str] = set()

    # -- lock identity --------------------------------------------------
    def _lock_of(self, expr: ast.expr) -> Optional[str]:
        """Graph node id of the lock object ``expr`` names, if any."""
        written = dotted_name(expr)
        if written is None:
            return None
        if written.startswith("self.") and self.cls is not None:
            attr = written[len("self."):]
            decl = self.cls.locks.get(attr)
            if decl is not None:
                return decl.alias_of or decl.node
            return None
        if written in self.mc.module_locks and written not in self.locals:
            decl = self.mc.module_locks[written]
            return decl.alias_of or decl.node
        return None

    # -- pre-pass: local names ------------------------------------------
    def collect_locals(self, node: ast.AST) -> None:
        """Names assigned anywhere in the function (nested scopes included
        — conservative: shadowed names never count as module globals)."""
        for inner in ast.walk(node):
            if isinstance(inner, ast.Global):
                self.globals_declared.update(inner.names)
            elif isinstance(inner, ast.Name) \
                    and isinstance(inner.ctx, ast.Store):
                self.locals.add(inner.id)
        self.locals -= self.globals_declared
        # Local constructor types, for one-hop method resolution.
        for inner in ast.walk(node):
            if isinstance(inner, ast.Assign) and len(inner.targets) == 1 \
                    and isinstance(inner.targets[0], ast.Name):
                ctor = _ctor_name(self.summary, inner.value)
                if ctor is not None:
                    self.fn.local_types[inner.targets[0].id] = \
                        ctor.split(".")[-1]

    # -- the walk -------------------------------------------------------
    def scan(self, body: Sequence[ast.stmt],
             held: FrozenSet[str]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                continue  # nested scope: analyzed separately, if at all
            if isinstance(stmt, (ast.With, ast.AsyncWith)):
                acquired: List[str] = []
                for item in stmt.items:
                    self._scan_expr(item.context_expr, held)
                    node = self._lock_of(item.context_expr)
                    if node is not None:
                        self.fn.acquires.append(AcquireEvent(
                            node, stmt.lineno, stmt.col_offset, held))
                        acquired.append(node)
                self.scan(stmt.body, held | frozenset(acquired))
                continue
            for expr in self._own_expressions(stmt):
                self._scan_expr(expr, held)
            self._scan_stores(stmt, held)
            for child in self._child_bodies(stmt):
                self.scan(child, held)

    @staticmethod
    def _child_bodies(stmt: ast.stmt) -> Iterable[Sequence[ast.stmt]]:
        for name in ("body", "orelse", "finalbody"):
            child = getattr(stmt, name, None)
            if child:
                yield child
        for handler in getattr(stmt, "handlers", []) or []:
            yield handler.body

    @staticmethod
    def _own_expressions(stmt: ast.stmt) -> Iterable[ast.expr]:
        """Expression roots belonging to ``stmt`` itself (not sub-blocks)."""
        for name, value in ast.iter_fields(stmt):
            if name in ("body", "orelse", "finalbody", "handlers"):
                continue
            if isinstance(value, ast.expr):
                yield value
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.expr):
                        yield item

    def _scan_expr(self, expr: ast.expr, held: FrozenSet[str]) -> None:
        for node in ast.walk(expr):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Call):
                self._record_call(node, held)
            elif isinstance(node, ast.Attribute):
                self._record_attr(node, held, write=not isinstance(
                    node.ctx, ast.Load))

    def _record_attr(self, node: ast.Attribute, held: FrozenSet[str],
                     write: bool) -> None:
        if self.cls is None or not isinstance(node.value, ast.Name) \
                or node.value.id != "self":
            return
        self.cls.accesses.append(AttrAccess(
            attr=node.attr, method=self.fn.qualname, line=node.lineno,
            col=node.col_offset, write=write, locks=held))

    def _record_call(self, node: ast.Call, held: FrozenSet[str]) -> None:
        written = dotted_name(node.func)
        if written is None:
            return
        self.fn.calls.append(CallUnderLocks(
            written, node.lineno, node.col_offset, held))
        canonical = canonical_name(self.summary, written)
        tail = canonical.split(".")[-1]
        # Explicit acquire() counts as an ordering event (no region).
        if tail == "acquire" and "." in written:
            node_id = self._lock_of(
                node.func.value if isinstance(node.func, ast.Attribute)
                else node.func)
            if node_id is not None:
                self.fn.acquires.append(AcquireEvent(
                    node_id, node.lineno, node.col_offset, held))
        # Mutating method on a mutable module global.
        if isinstance(node.func, ast.Attribute) \
                and node.func.attr in _MUTATING_TAILS:
            root = _root_name(node.func.value)
            if root is not None and root not in self.locals \
                    and root in self.mc.mutable_globals:
                self.fn.global_writes.append(GlobalWrite(
                    f"{root}.{node.func.attr}()", node.lineno,
                    node.col_offset, held))
        # Spawn sites.
        self._record_spawn(node, canonical, held)

    def _record_spawn(self, node: ast.Call, canonical: str,
                      held: FrozenSet[str]) -> None:
        tail = canonical.split(".")[-1]
        target: Optional[ast.expr] = None
        kind: Optional[str] = None
        if tail == "Thread" and (canonical.startswith("threading.")
                                 or canonical == "Thread"):
            kind = "thread"
            for keyword in node.keywords:
                if keyword.arg == "target":
                    target = keyword.value
        elif tail == "submit" and isinstance(node.func, ast.Attribute):
            kind = "submit"
            target = node.args[0] if node.args else None
        elif tail == "WorkerSupervisor":
            kind = "supervisor"
            target = node.args[0] if node.args else None
            for keyword in node.keywords:
                if keyword.arg == "target":
                    target = keyword.value
        if kind is None or target is None:
            return
        written = dotted_name(target)
        if written is None:
            return
        self.mc.spawns.append(SpawnSite(kind, written, self.fn.qualname,
                                        node.lineno, node.col_offset))

    def _scan_stores(self, stmt: ast.stmt, held: FrozenSet[str]) -> None:
        """Module-global mutations through assignment statements."""
        targets: List[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        elif isinstance(stmt, ast.Delete):
            targets = list(stmt.targets)
        for target in targets:
            if isinstance(target, ast.Tuple):
                targets.extend(target.elts)
                continue
            if isinstance(target, ast.Name):
                if target.id in self.globals_declared:
                    self.fn.global_writes.append(GlobalWrite(
                        target.id, stmt.lineno, stmt.col_offset, held))
            elif isinstance(target, (ast.Attribute, ast.Subscript)):
                root = _root_name(target)
                if root == "self" or root is None:
                    continue
                if root not in self.locals and root in self.mc.module_names:
                    suffix = "[...]" if isinstance(target, ast.Subscript) \
                        else f".{target.attr}"
                    self.fn.global_writes.append(GlobalWrite(
                        f"{root}{suffix}", stmt.lineno, stmt.col_offset,
                        held))


def extract_module_concurrency(summary: ModuleSummary, tree: ast.Module,
                               lines: Sequence[str]) -> ModuleConcurrency:
    """Build the per-module concurrency model from a parsed tree."""
    mc = ModuleConcurrency(module=summary.module, display=summary.path)
    guards = _guard_annotations(lines)
    # Module-level names, locks, mutable globals, instrument types.
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            mc.module_names.add(stmt.name)
            continue
        if isinstance(stmt, ast.Assign):
            names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
        elif isinstance(stmt, ast.AnnAssign) \
                and isinstance(stmt.target, ast.Name):
            names = [stmt.target.id] if stmt.value is not None else []
        else:
            continue
        value = stmt.value
        assert value is not None
        for name in names:
            mc.module_names.add(name)
            kind = _lock_kind(_ctor_name(summary, value))
            if kind is not None:
                mc.module_locks[name] = LockDecl(
                    node=f"{summary.module}.{name}", kind=kind,
                    line=stmt.lineno)
                continue
            if _is_mutable_value(summary, value):
                mc.mutable_globals[name] = stmt.lineno
            instrument = _registry_type(value)
            ctor = _ctor_name(summary, value)
            if instrument is not None:
                mc.global_types[name] = instrument
            elif ctor is not None:
                mc.global_types[name] = ctor.split(".")[-1]
    # Classes.
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            mc.classes[stmt.name] = _extract_class(
                summary, mc, stmt, guards)
    # Functions (top-level and methods).
    for qualname, node, cls_name in _function_defs(tree):
        cls = mc.classes.get(cls_name) if cls_name else None
        fn = FunctionModel(
            qualname=qualname, module=summary.module, line=node.lineno,
            cls=cls_name,
            params=[a.arg for a in (node.args.posonlyargs + node.args.args
                                    + node.args.kwonlyargs)
                    if a.arg != "self"])
        scanner = _FunctionScanner(mc, summary, fn, cls)
        scanner.collect_locals(node)
        held: FrozenSet[str] = frozenset()
        if cls is not None and qualname.split(".")[-1].endswith("_locked"):
            held = frozenset(cls.lock_nodes())
        scanner.scan(node.body, held)
        mc.functions[qualname] = fn
    return mc


def _function_defs(tree: ast.Module
                   ) -> Iterable[Tuple[str, ast.FunctionDef, Optional[str]]]:
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node, None
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item, node.name


def _extract_class(summary: ModuleSummary, mc: ModuleConcurrency,
                   node: ast.ClassDef,
                   guards: Dict[int, str]) -> ClassModel:
    model = ClassModel(name=node.name, module=summary.module,
                       line=node.lineno)
    for item in node.body:
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
            model.methods.add(item.name)
    init = next((item for item in node.body
                 if isinstance(item, ast.FunctionDef)
                 and item.name in ("__init__", "__post_init__")), None)
    init_params = set()
    if init is not None:
        init_params = {a.arg for a in (init.args.posonlyargs
                                       + init.args.args
                                       + init.args.kwonlyargs)
                       if a.arg != "self"}
        for stmt in ast.walk(init):
            if not isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                continue
            targets = stmt.targets if isinstance(stmt, ast.Assign) \
                else [stmt.target]
            value = stmt.value
            if value is None:
                continue
            for target in targets:
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                attr = target.attr
                self_line = stmt.lineno
                kind = _lock_kind(_ctor_name(summary, value))
                if kind is not None:
                    alias = None
                    if kind == "Condition" and isinstance(value, ast.Call) \
                            and value.args:
                        aliased = dotted_name(value.args[0])
                        if aliased is not None \
                                and aliased.startswith("self."):
                            alias = (f"{node.name}."
                                     f"{aliased[len('self.'):]}")
                    model.locks[attr] = LockDecl(
                        node=f"{node.name}.{attr}", kind=kind,
                        line=self_line, alias_of=alias)
                if _is_mutable_value(summary, value):
                    model.mutable_attrs[attr] = self_line
                ctor = _ctor_name(summary, value)
                instrument = _registry_type(value)
                if instrument is not None:
                    model.attr_types[attr] = instrument
                elif ctor is not None:
                    model.attr_types[attr] = ctor.split(".")[-1]
                if isinstance(value, ast.Name) and value.id in init_params:
                    model.injected_attrs.add(attr)
                # A multi-line initializer may carry the annotation on any
                # of its physical lines (commonly the closing brace).
                guard = None
                last = getattr(stmt, "end_lineno", None) or self_line
                for line in range(self_line, last + 1):
                    guard = guards.get(line)
                    if guard is not None:
                        break
                if guard is not None:
                    if "." in guard:
                        model.external_guards[attr] = guard
                    else:
                        model.guarded_by[attr] = guard
    # Dataclass-style annotated fields can carry guard comments too.
    for item in node.body:
        if isinstance(item, ast.AnnAssign) \
                and isinstance(item.target, ast.Name):
            guard = guards.get(item.lineno)
            if guard is not None:
                if "." in guard:
                    model.external_guards[item.target.id] = guard
                else:
                    model.guarded_by[item.target.id] = guard
    return model


# ----------------------------------------------------------------------
# Cross-module resolution
# ----------------------------------------------------------------------
class _Project:
    """Index of every module's concurrency model plus call resolution."""

    def __init__(self, table: SymbolTable,
                 modules: Dict[str, ModuleConcurrency]) -> None:
        self.table = table
        self.modules = modules
        self.class_index: Dict[str, Tuple[str, ClassModel]] = {}
        for module, mc in modules.items():
            for name, cls in mc.classes.items():
                self.class_index.setdefault(name, (module, cls))
        self._acquire_memo: Dict[Tuple[str, str], FrozenSet[str]] = {}

    def function(self, module: str, qualname: str
                 ) -> Optional[FunctionModel]:
        mc = self.modules.get(module)
        return mc.functions.get(qualname) if mc else None

    # -- call resolution ------------------------------------------------
    def resolve_call(self, module: str, fn: FunctionModel,
                     written: str) -> Optional[Tuple[str, str]]:
        """``(module, qualname)`` of the callee, when resolvable."""
        mc = self.modules.get(module)
        if mc is None:
            return None
        if written.startswith("self."):
            rest = written[len("self."):]
            if fn.cls is None:
                return None
            cls = mc.classes.get(fn.cls)
            if cls is None:
                return None
            if "." not in rest:
                if rest in cls.methods:
                    return module, f"{fn.cls}.{rest}"
                return None
            attr, _, meth = rest.partition(".")
            if "." in meth:
                return None
            return self._method_of(cls.attr_types.get(attr), meth)
        head, _, rest = written.partition(".")
        if head in fn.local_types and rest and "." not in rest:
            return self._method_of(fn.local_types[head], rest)
        if head in mc.global_types and rest and "." not in rest:
            return self._method_of(mc.global_types[head], rest)
        resolved = self.table.resolve(module, written)
        if resolved is not None:
            target_module, symbol = resolved
            if self.function(target_module, symbol) is not None:
                return target_module, symbol
        # Constructor call -> __init__ of a known class.
        summary = self.table.module(module)
        if summary is not None:
            canonical = canonical_name(summary, written)
            tail = canonical.split(".")[-1]
            entry = self.class_index.get(tail)
            if entry is not None:
                target_module, cls = entry
                if "__init__" in cls.methods:
                    return target_module, f"{cls.name}.__init__"
        return None

    def _method_of(self, type_name: Optional[str],
                   method: str) -> Optional[Tuple[str, str]]:
        if type_name is None:
            return None
        entry = self.class_index.get(type_name)
        if entry is None:
            return None
        module, cls = entry
        if method in cls.methods:
            return module, f"{cls.name}.{method}"
        return None

    # -- transitive acquires --------------------------------------------
    def transitive_acquires(self, module: str,
                            qualname: str) -> FrozenSet[str]:
        """Every lock node the function may acquire, transitively."""
        key = (module, qualname)
        memo = self._acquire_memo.get(key)
        if memo is not None:
            return memo
        self._acquire_memo[key] = frozenset()  # cycle guard
        acquired: Set[str] = set()
        seen: Set[Tuple[str, str]] = set()
        stack = [key]
        while stack and len(seen) < _CLOSURE_CAP:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            fn = self.function(*current)
            if fn is None:
                continue
            acquired.update(event.node for event in fn.acquires)
            for call in fn.calls:
                callee = self.resolve_call(current[0], fn, call.written)
                if callee is not None and callee not in seen:
                    stack.append(callee)
        result = frozenset(acquired)
        self._acquire_memo[key] = result
        return result


# ----------------------------------------------------------------------
# The lock-order graph
# ----------------------------------------------------------------------
@dataclass
class LockGraph:
    """Global acquisition-order graph over stable lock node ids."""

    #: node id -> (kind, defining module)
    locks: Dict[str, Tuple[str, str]] = field(default_factory=dict)
    #: (outer, inner) -> (module, display, qualname, line, col) first site
    edges: Dict[Tuple[str, str],
                Tuple[str, str, str, int, int]] = field(default_factory=dict)

    def successors(self, node: str) -> List[str]:
        return [inner for outer, inner in self.edges if outer == node]

    def cycle_path(self, start: str, goal: str) -> Optional[List[str]]:
        """A path ``start -> ... -> goal`` through the edges, if any."""
        stack: List[Tuple[str, List[str]]] = [(start, [start])]
        visited: Set[str] = set()
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            if node in visited:
                continue
            visited.add(node)
            for nxt in sorted(self.successors(node)):
                stack.append((nxt, path + [nxt]))
        return None

    def dump(self) -> str:
        """Stable text rendering (no line numbers, so goldens survive
        unrelated edits)."""
        lines = [f"lock-graph: {len(self.locks)} lock(s), "
                 f"{len(self.edges)} edge(s)"]
        for node in sorted(self.locks):
            kind, module = self.locks[node]
            lines.append(f"lock {node} ({kind}) defined-in {module}")
        for (outer, inner) in sorted(self.edges):
            module, _, qualname, _, _ = self.edges[(outer, inner)]
            lines.append(f"edge {outer} -> {inner} "
                         f"via {module}:{qualname}")
        return "\n".join(lines)


def _build_graph(project: _Project) -> LockGraph:
    graph = LockGraph()
    for module, mc in project.modules.items():
        for cls in mc.classes.values():
            for decl in cls.locks.values():
                if decl.alias_of is None:
                    graph.locks[decl.node] = (decl.kind, module)
        for decl in mc.module_locks.values():
            if decl.alias_of is None:
                graph.locks[decl.node] = (decl.kind, module)
    for module, mc in project.modules.items():
        for fn in mc.functions.values():
            for event in fn.acquires:
                for outer in event.held:
                    if outer != event.node:
                        graph.edges.setdefault(
                            (outer, event.node),
                            (module, mc.display, fn.qualname,
                             event.line, event.col))
            for call in fn.calls:
                if not call.locks:
                    continue
                callee = project.resolve_call(module, fn, call.written)
                if callee is None:
                    continue
                for inner in project.transitive_acquires(*callee):
                    for outer in call.locks:
                        if outer != inner:
                            graph.edges.setdefault(
                                (outer, inner),
                                (module, mc.display, fn.qualname,
                                 call.line, call.col))
    return graph


# ----------------------------------------------------------------------
# Rules
# ----------------------------------------------------------------------
def _finding(rule: str, severity: str, display: str, line: int, col: int,
             message: str, lines: Optional[Sequence[str]] = None) -> Finding:
    snippet = ""
    if lines and 1 <= line <= len(lines):
        snippet = lines[line - 1].strip()
    return Finding(rule=rule, severity=severity, path=display, line=line,
                   col=col, message=message, snippet=snippet)


def _check_lock_order(project: _Project, graph: LockGraph,
                      sources: Dict[str, Sequence[str]]) -> List[Finding]:
    """LOCK001: every edge that participates in a cycle."""
    findings: List[Finding] = []
    for (outer, inner), site in sorted(graph.edges.items()):
        if outer == inner:
            continue
        back = graph.cycle_path(inner, outer)
        if back is None:
            continue
        module, display, qualname, line, col = site
        cycle = " -> ".join([outer] + back)
        findings.append(_finding(
            "LOCK001", SEVERITY_ERROR, display, line, col,
            f"lock-order cycle: {qualname} acquires {inner} while "
            f"holding {outer}, closing the cycle {cycle}",
            sources.get(module)))
    return findings


def _check_callbacks_under_lock(
        project: _Project,
        sources: Dict[str, Sequence[str]]) -> List[Finding]:
    """LOCK002: injected callables invoked while a lock is held."""
    findings: List[Finding] = []
    for module, mc in sorted(project.modules.items()):
        lines = sources.get(module)
        for fn in mc.functions.values():
            cls = mc.classes.get(fn.cls) if fn.cls else None
            for call in fn.calls:
                if not call.locks:
                    continue
                injected = None
                if call.written in fn.params:
                    injected = f"parameter {call.written!r}"
                elif cls is not None and call.written.startswith("self."):
                    attr = call.written[len("self."):]
                    if "." not in attr and attr in cls.injected_attrs:
                        injected = f"injected attribute 'self.{attr}'"
                if injected is None:
                    continue
                held = ", ".join(sorted(call.locks))
                findings.append(_finding(
                    "LOCK002", SEVERITY_WARNING, mc.display, call.line,
                    call.col,
                    f"{fn.qualname} calls {injected} while holding "
                    f"{held}; callbacks under a lock re-enter user code "
                    f"with the lock held", lines))
    return findings


def _check_guarded_by(project: _Project,
                      sources: Dict[str, Sequence[str]]) -> List[Finding]:
    """GUARD001: annotated and inferred guard escapes."""
    findings: List[Finding] = []
    exempt = ("__init__", "__post_init__", "__del__")
    for module, mc in sorted(project.modules.items()):
        lines = sources.get(module)
        for cls in mc.classes.values():
            lock_nodes = cls.lock_nodes()
            # Annotated attributes: every off-guard access is an error.
            for attr, lock_attr in sorted(cls.guarded_by.items()):
                decl = cls.locks.get(lock_attr)
                if decl is None:
                    findings.append(_finding(
                        "GUARD001", SEVERITY_ERROR, mc.display, cls.line, 0,
                        f"{cls.name}.{attr} declares guard {lock_attr!r} "
                        f"but {cls.name} has no such lock attribute",
                        lines))
                    continue
                guard = decl.alias_of or decl.node
                for access in cls.accesses:
                    if access.attr != attr:
                        continue
                    method = access.method.split(".")[-1]
                    if method in exempt or method.endswith("_locked"):
                        continue
                    if guard not in access.locks:
                        kind = "written" if access.write else "read"
                        findings.append(_finding(
                            "GUARD001", SEVERITY_ERROR, mc.display,
                            access.line, access.col,
                            f"{cls.name}.{attr} is guarded by {guard} "
                            f"but {kind} in {access.method} without it",
                            lines))
            # Calls to *_locked methods made without the class lock.
            for fn in mc.functions.values():
                if fn.cls != cls.name:
                    continue
                for call in fn.calls:
                    if not call.written.startswith("self."):
                        continue
                    target = call.written[len("self."):]
                    if "." in target or not target.endswith("_locked") \
                            or target not in cls.methods:
                        continue
                    if lock_nodes and not (set(call.locks) & lock_nodes):
                        findings.append(_finding(
                            "GUARD001", SEVERITY_WARNING, mc.display,
                            call.line, call.col,
                            f"{fn.qualname} calls self.{target}() without "
                            f"holding {', '.join(sorted(lock_nodes))} — "
                            f"the _locked suffix promises the caller "
                            f"holds the lock", lines))
            # Inference for unannotated mutable attributes.
            covered = set(cls.guarded_by) | set(cls.external_guards)
            for attr in sorted(set(cls.mutable_attrs) - covered):
                guarded: Dict[str, int] = {}
                unguarded: List[AttrAccess] = []
                for access in cls.accesses:
                    if access.attr != attr:
                        continue
                    method = access.method.split(".")[-1]
                    if method in exempt or method.endswith("_locked"):
                        continue
                    if len(access.locks) >= 1:
                        for node in access.locks:
                            guarded[node] = guarded.get(node, 0) + 1
                    else:
                        unguarded.append(access)
                dominant = [node for node, count in guarded.items()
                            if count >= 2]
                if len(dominant) == 1 and unguarded:
                    access = unguarded[0]
                    kind = "written" if access.write else "read"
                    findings.append(_finding(
                        "GUARD001", SEVERITY_WARNING, mc.display,
                        access.line, access.col,
                        f"{cls.name}.{attr} is {kind} in {access.method} "
                        f"without {dominant[0]}, which guards its other "
                        f"{guarded[dominant[0]]} access(es) — annotate "
                        f"with '# repro-guarded-by: ...' or take the "
                        f"lock", lines))
    return findings


def _resolve_spawn_target(project: _Project, module: str,
                          spawn: SpawnSite) -> Optional[Tuple[str, str]]:
    mc = project.modules[module]
    fn = mc.functions.get(spawn.function)
    if fn is None:
        return None
    return project.resolve_call(module, fn, spawn.target)


def _check_thread_escape(project: _Project,
                         sources: Dict[str, Sequence[str]]) -> List[Finding]:
    """ESCAPE001: unguarded module-state mutation on a thread path."""
    roots: List[Tuple[Tuple[str, str], SpawnSite, str]] = []
    for module, mc in sorted(project.modules.items()):
        for spawn in mc.spawns:
            resolved = _resolve_spawn_target(project, module, spawn)
            if resolved is not None:
                roots.append((resolved, spawn, module))
    findings: List[Finding] = []
    reported: Set[Tuple[str, int, int]] = set()
    for root, spawn, spawn_module in roots:
        seen: Set[Tuple[str, str]] = set()
        stack = [root]
        while stack and len(seen) < _CLOSURE_CAP:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            fn = project.function(*current)
            if fn is None:
                continue
            mc = project.modules[current[0]]
            lines = sources.get(current[0])
            for write in fn.global_writes:
                if write.locks:
                    continue
                site = (mc.display, write.line, write.col)
                if site in reported:
                    continue
                reported.add(site)
                findings.append(_finding(
                    "ESCAPE001", SEVERITY_ERROR, mc.display, write.line,
                    write.col,
                    f"{fn.qualname} mutates module-level state "
                    f"({write.target}) without a lock, and it is "
                    f"reachable from the {spawn.kind} spawn of "
                    f"{root[1]} at {spawn_module}:{spawn.line}", lines))
            for call in fn.calls:
                callee = project.resolve_call(current[0], fn, call.written)
                if callee is not None and callee not in seen:
                    stack.append(callee)
    findings.sort(key=lambda f: (f.path, f.line, f.col))
    return findings


# ----------------------------------------------------------------------
# Drivers
# ----------------------------------------------------------------------
def run_concurrency(parsed: Dict[str, ModuleParse]
                    ) -> Tuple[List[Finding], LockGraph]:
    """Run the CONC pack over parsed modules; returns findings + graph.

    ``parsed`` maps module names to their parsed modules
    (:func:`~repro.lint.deep.parse_modules`).  The rules are
    whole-program: one edge anywhere can close a LOCK001 cycle.
    """
    sources: Dict[str, Sequence[str]] = {
        module: state.source.splitlines() for module, state in parsed.items()}
    project = _project(parsed, sources)
    graph = _build_graph(project)
    findings: List[Finding] = []
    findings.extend(_check_lock_order(project, graph, sources))
    findings.extend(_check_callbacks_under_lock(project, sources))
    findings.extend(_check_guarded_by(project, sources))
    findings.extend(_check_thread_escape(project, sources))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings, graph


def build_lock_graph(files: Sequence[str]) -> LockGraph:
    """Standalone lock-order graph over a set of Python files.

    The entry point for goldens and the watchdog cross-check: parses the
    files, builds summaries and the concurrency models, and returns the
    graph without running the finding rules.
    """
    parsed = parse_modules(python_files(files))
    return _build_graph(_project(parsed, {
        module: state.source.splitlines()
        for module, state in parsed.items()}))


def _project(parsed: Dict[str, ModuleParse],
             sources: Dict[str, Sequence[str]]) -> _Project:
    """Symbol table and per-module lock models of the parsed modules."""
    table = SymbolTable({module: state.summary
                         for module, state in parsed.items()})
    return _Project(table, {
        module: extract_module_concurrency(state.summary, state.tree,
                                           sources[module])
        for module, state in parsed.items()})


def dump_lock_graph(files: Sequence[str]) -> str:
    """Stable text dump of :func:`build_lock_graph` (golden-friendly)."""
    return build_lock_graph(files).dump()


# ----------------------------------------------------------------------
# Catalogue
# ----------------------------------------------------------------------
CONC_RULE_CATALOGUE: Tuple[DeepRuleInfo, ...] = (
    DeepRuleInfo("LOCK001", "lock-order-cycle", "error",
                 "two locks are acquired in contradictory orders "
                 "(potential deadlock)"),
    DeepRuleInfo("LOCK002", "callback-under-lock", "warning",
                 "injected callable invoked while a lock is held"),
    DeepRuleInfo("GUARD001", "guard-escape", "error",
                 "attribute accessed outside its repro-guarded-by (or "
                 "inferred) lock"),
    DeepRuleInfo("ESCAPE001", "thread-escape", "error",
                 "module state mutated without a lock on a "
                 "thread-reachable path"),
)

CONC_RULE_NAMES: Tuple[str, ...] = tuple(
    info.name for info in CONC_RULE_CATALOGUE)
