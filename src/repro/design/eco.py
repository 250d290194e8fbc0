"""ECO timing: replay netlist edits, re-time only the affected cone.

The paper's closing claim is that a fast wire estimator enables
*incremental* timing optimization on routed designs: a net changes, and
only the paths downstream of that change should pay for re-analysis.
This module is that loop, built on three pieces:

* the :class:`~repro.design.netlist.Netlist` edit API (driver resize,
  sink-pin reconnect, R/C scaling, buffer insertion), each mutation
  returning a typed :class:`~repro.design.netlist.NetEdit` record of what
  went stale;
* :class:`IncrementalSTAEngine`, the STA stage kernel with its memo kept
  across calls; the memo is keyed on the exact input slew, so a hit
  replays the very floats a cold pass would recompute — bitwise
  identical, never merely close;
* a fanout-cone index from net name to the timing paths crossing it, so
  an edit maps to precisely the paths that must be re-timed.

The headline invariant is the **parity contract**: after any sequence of
edits, :meth:`ECOTimingEngine.results` is bitwise identical — arrivals,
slews, and per-stage breakdowns — to a cold full
:class:`~repro.design.sta.STAEngine` pass over the edited netlist.
:meth:`ECOTimingEngine.verify_parity` checks it directly and is wired
into the CLI (``repro sta --incremental --verify``) and CI.

Edit scripts are JSON documents with schema :data:`EDIT_SCHEMA`::

    {"schema": "repro-eco-edits/1",
     "edits": [
       {"op": "resize_gate", "gate": "g3", "cell": "INV_X4"},
       {"op": "reconnect_sink", "net": "n5", "sink_index": 1,
        "new_pin": "B"},
       {"op": "scale_net_rc", "net": "n2", "r_factor": 1.2,
        "c_factor": 0.8},
       {"op": "insert_buffer", "net": "n7", "sink_index": 0,
        "cell": "BUF_X2"}]}

Replay counters land in the ``incremental.*`` metric family (see
docs/METRICS.md and docs/ECO.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..analysis.cache import SolveCache, get_solve_cache, solve_key
from ..analysis.mna import capacitance_vector
from ..liberty.library import Library
from ..obs import get_metrics
from ..robustness.errors import InputError
from .incremental import IncrementalSTAEngine
from .netlist import NetEdit, Netlist
from .sta import PathTiming, STAEngine, WireTimingModel

__all__ = ["EDIT_SCHEMA", "EditCommand", "EditOutcome", "ECOTimingEngine",
           "load_edit_script", "apply_edit_command", "compare_timing"]

#: Version tag every edit-script document must carry.
EDIT_SCHEMA = "repro-eco-edits/1"

_EDITS_APPLIED = get_metrics().counter("incremental.edits_applied")
_PATHS_RETIMED = get_metrics().counter("incremental.paths_retimed")
_PATHS_REUSED = get_metrics().counter("incremental.paths_reused")
_STAGES_REUSED = get_metrics().counter("incremental.stages_reused")
_STALE_DROPPED = get_metrics().counter("incremental.stale_entries_dropped")
_SOLVES_INVALIDATED = get_metrics().counter("incremental.solves_invalidated")
_CONE_SIZE = get_metrics().histogram("incremental.cone_size")


# ----------------------------------------------------------------------
# Edit scripts
# ----------------------------------------------------------------------
#: Required (and optional, mapped to defaults) JSON fields per operation.
_OP_FIELDS: Dict[str, Tuple[Tuple[str, type], ...]] = {
    "resize_gate": (("gate", str), ("cell", str)),
    "reconnect_sink": (("net", str), ("sink_index", int), ("new_pin", str)),
    "scale_net_rc": (("net", str),),
    "insert_buffer": (("net", str), ("sink_index", int), ("cell", str)),
}


@dataclass(frozen=True)
class EditCommand:
    """One validated entry of an edit script (not yet applied)."""

    op: str
    params: Dict[str, object] = field(default_factory=dict)


def load_edit_script(document: object) -> List[EditCommand]:
    """Validate a parsed edit-script JSON document into commands.

    Raises :class:`InputError` on a wrong schema tag, a non-list
    ``edits`` field, an unknown operation, or missing/badly-typed
    per-operation fields — nothing is applied partially.
    """
    if not isinstance(document, dict):
        raise InputError(f"edit script must be a JSON object, got "
                         f"{type(document).__name__}", stage="eco")
    schema = document.get("schema")
    if schema != EDIT_SCHEMA:
        raise InputError(f"edit script schema must be {EDIT_SCHEMA!r}, "
                         f"got {schema!r}", stage="eco")
    edits = document.get("edits")
    if not isinstance(edits, list):
        raise InputError("edit script field 'edits' must be a list",
                         stage="eco")
    commands: List[EditCommand] = []
    for position, entry in enumerate(edits):
        if not isinstance(entry, dict):
            raise InputError(f"edit #{position} must be an object",
                             stage="eco")
        op = entry.get("op")
        if op not in _OP_FIELDS:
            raise InputError(
                f"edit #{position}: unknown op {op!r} "
                f"(known: {sorted(_OP_FIELDS)})", stage="eco")
        params: Dict[str, object] = {}
        for name, kind in _OP_FIELDS[op]:
            if name not in entry:
                raise InputError(f"edit #{position} ({op}): missing field "
                                 f"{name!r}", stage="eco")
            value = entry[name]
            if not isinstance(value, kind) or isinstance(value, bool):
                raise InputError(
                    f"edit #{position} ({op}): field {name!r} must be "
                    f"{kind.__name__}, got {type(value).__name__}",
                    stage="eco")
            params[name] = value
        if op == "scale_net_rc":
            for factor in ("r_factor", "c_factor"):
                raw = entry.get(factor, 1.0)
                if not isinstance(raw, (int, float)) or isinstance(raw, bool):
                    raise InputError(
                        f"edit #{position} ({op}): field {factor!r} must "
                        f"be a number", stage="eco")
                params[factor] = float(raw)
        commands.append(EditCommand(op, params))
    return commands


def apply_edit_command(netlist: Netlist, library: Library,
                       command: EditCommand) -> NetEdit:
    """Apply one validated command to ``netlist``; returns its edit record.

    ``library`` resolves cell names for resize and buffer-insertion
    operations; an unknown cell surfaces as a typed :class:`InputError`.
    """
    params = command.params

    def cell(name: object):
        try:
            return library.cell(str(name))
        except KeyError as exc:
            raise InputError(f"{command.op}: {exc}", design=netlist.name,
                             stage="eco", cause=exc) from exc

    if command.op == "resize_gate":
        return netlist.resize_gate(str(params["gate"]), cell(params["cell"]))
    if command.op == "reconnect_sink":
        return netlist.reconnect_sink(str(params["net"]),
                                      int(params["sink_index"]),  # type: ignore[arg-type]
                                      str(params["new_pin"]))
    if command.op == "scale_net_rc":
        return netlist.scale_net_rc(str(params["net"]),
                                    r_factor=float(params["r_factor"]),  # type: ignore[arg-type]
                                    c_factor=float(params["c_factor"]))  # type: ignore[arg-type]
    if command.op == "insert_buffer":
        return netlist.insert_buffer(str(params["net"]),
                                     int(params["sink_index"]),  # type: ignore[arg-type]
                                     cell(params["cell"]))
    raise InputError(f"unknown edit op {command.op!r}", stage="eco")


# ----------------------------------------------------------------------
# The replay engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EditOutcome:
    """What one edit replay actually did."""

    edit: NetEdit
    retimed_paths: Tuple[int, ...]
    stages_reused: int
    stale_entries_dropped: int
    solves_invalidated: int

    @property
    def cone_size(self) -> int:
        return len(self.retimed_paths)


class ECOTimingEngine:
    """Incremental re-timing of a netlist under an edit sequence.

    Usage: construct, run :meth:`full_pass` once to establish the
    baseline (and warm the stage memo), then alternate netlist edit
    calls with :meth:`apply` on the returned records.  :attr:`results`
    always reflects the current netlist, bitwise equal to what a cold
    full pass would produce.

    Parameters mirror :class:`IncrementalSTAEngine`.  ``solve_cache``
    overrides the process-wide :class:`~repro.analysis.cache.SolveCache`
    for eigensolve hygiene (tests inject their own).
    """

    def __init__(self, netlist: Netlist, wire_model: WireTimingModel,
                 launch_slew: float = 20e-12, lenient_pins: bool = False,
                 solve_cache: Optional[SolveCache] = None) -> None:
        self.netlist = netlist
        self.engine = IncrementalSTAEngine(netlist, wire_model, launch_slew,
                                           lenient_pins=lenient_pins)
        self._solve_cache = solve_cache
        self._results: Optional[List[PathTiming]] = None
        # fanout-cone index: net name -> indices of paths crossing it.
        self._cone_index: Dict[str, Set[int]] = {}

    # -- baseline ----------------------------------------------------------
    def full_pass(self) -> List[PathTiming]:
        """Time every recorded path, fill the memo, build the cone index."""
        self._results = self.engine.analyze_paths()
        self._cone_index = {}
        self._index_paths(range(len(self.netlist.paths)))
        return list(self._results)

    @property
    def results(self) -> List[PathTiming]:
        """Current per-path timings (same order as ``netlist.paths``)."""
        if self._results is None:
            raise InputError("ECOTimingEngine: run full_pass() before "
                             "reading results", design=self.netlist.name,
                             stage="eco")
        return list(self._results)

    # -- cone index --------------------------------------------------------
    def _index_paths(self, indices) -> None:
        for index in indices:
            for stage in self.netlist.paths[index].stages:
                self._cone_index.setdefault(stage.net, set()).add(index)

    def _reindex_paths(self, indices: Sequence[int]) -> None:
        stale = set(indices)
        for members in self._cone_index.values():
            members -= stale
        self._index_paths(stale)

    def cone(self, net_names: Sequence[str]) -> Set[int]:
        """Indices of the paths crossing any of ``net_names``."""
        affected: Set[int] = set()
        for name in net_names:
            affected |= self._cone_index.get(name, set())
        return affected

    # -- edit replay -------------------------------------------------------
    def apply(self, edit: NetEdit) -> EditOutcome:
        """Propagate one already-applied netlist edit through the timing.

        Drops exactly the stage-memo entries for the edit's dirty nets
        (and the dead eigensolve, when the edit rewrote an RC network),
        re-binds the dirty nets that lie on timed paths in one
        :meth:`~repro.design.sta.WireTimingModel.bind_many` call, then
        re-times the union of the dirty nets' fanout cones and the
        structurally rewritten paths together, level by level
        (:meth:`~repro.design.sta.StageTimer.time_paths`).  Everything
        else is served from the warm memo.
        """
        if self._results is None:
            raise InputError("ECOTimingEngine: run full_pass() before "
                             "applying edits", design=self.netlist.name,
                             stage="eco")
        dropped = self.engine.invalidate_nets(edit.dirty_nets)
        solves = self._invalidate_solves(edit)
        if edit.rewritten_paths:
            # Structural edits changed these paths' stage lists; refresh
            # their cone-index rows before computing the dirty set.
            self._reindex_paths(edit.rewritten_paths)
        self.engine.bind_nets(name for name in edit.dirty_nets
                              if self._cone_index.get(name))
        dirty = sorted(self.cone(edit.dirty_nets)
                       | set(edit.rewritten_paths))
        hits_before = self.engine.hits
        timings = self.engine.time_paths([self.netlist.paths[index]
                                          for index in dirty])
        for index, timing in zip(dirty, timings):
            self._results[index] = timing
        stages_reused = self.engine.hits - hits_before
        _EDITS_APPLIED.inc()
        _PATHS_RETIMED.inc(len(dirty))
        _PATHS_REUSED.inc(len(self._results) - len(dirty))
        _STAGES_REUSED.inc(stages_reused)
        _STALE_DROPPED.inc(dropped)
        _SOLVES_INVALIDATED.inc(solves)
        _CONE_SIZE.observe(len(dirty))
        return EditOutcome(edit=edit, retimed_paths=tuple(dirty),
                           stages_reused=stages_reused,
                           stale_entries_dropped=dropped,
                           solves_invalidated=solves)

    def _invalidate_solves(self, edit: NetEdit) -> int:
        """Drop the eigensolve primed for an edit's pre-edit RC network.

        Best-effort hygiene: the key is recomputed from the old topology
        and the *current* receiver loads, which is exact immediately
        after the edit (loads are untouched by an RC rewrite).  A missing
        entry is not an error — the cache may simply never have seen the
        net.
        """
        if edit.old_rcnet is None:
            return 0
        net = self.netlist.nets.get(edit.target)
        if net is None:
            return 0
        cache = self._solve_cache if self._solve_cache is not None \
            else get_solve_cache()
        driver = self.netlist.gates[net.driver]
        caps = capacitance_vector(edit.old_rcnet, miller_factor=None,
                                  sink_loads=self.netlist.sink_loads(net))
        key = solve_key(edit.old_rcnet, caps, driver.cell.drive_resistance)
        return int(cache.invalidate(key))

    # -- parity ------------------------------------------------------------
    def verify_parity(self) -> List[str]:
        """Bitwise-compare current results against a cold full STA pass.

        Returns a list of human-readable mismatch descriptions — empty
        means the parity contract holds.  The cold engine uses the same
        wire model, launch slew and pin strictness, so any difference is
        a dirty-propagation bug, not a modeling choice.
        """
        cold = STAEngine(self.netlist, self.engine.wire_model,
                         self.engine.launch_slew,
                         lenient_pins=self.engine.lenient_pins
                         ).analyze_design()
        return compare_timing(self.results, cold.paths)


def compare_timing(incremental: Sequence[PathTiming],
                   cold: Sequence[PathTiming]) -> List[str]:
    """Bitwise comparison of two per-path timing lists.

    Every float is compared with ``==`` (no tolerance), and each stage's
    wire-model tier must match too: the ECO parity contract demands the
    incremental replay reproduce a cold pass exactly, which the shared
    exact-slew stage kernel makes possible.
    """
    problems: List[str] = []
    if len(incremental) != len(cold):
        return [f"path count differs: {len(incremental)} != {len(cold)}"]
    for a, b in zip(incremental, cold):
        prefix = f"path {a.path_name!r}"
        if a.path_name != b.path_name:
            problems.append(f"{prefix}: name mismatch ({b.path_name!r})")
            continue
        for attr in ("arrival", "gate_delay_total", "wire_delay_total"):
            left, right = getattr(a, attr), getattr(b, attr)
            if left != right:
                problems.append(f"{prefix}: {attr} {left!r} != {right!r}")
        if len(a.stages) != len(b.stages):
            problems.append(f"{prefix}: stage count {len(a.stages)} != "
                            f"{len(b.stages)}")
            continue
        for position, (sa, sb) in enumerate(zip(a.stages, b.stages)):
            for attr in ("gate", "net", "gate_delay", "wire_delay",
                         "slew_out", "tier"):
                left, right = getattr(sa, attr), getattr(sb, attr)
                if left != right:
                    problems.append(f"{prefix} stage {position}: {attr} "
                                    f"{left!r} != {right!r}")
    return problems
