"""Static timing analysis over synthetic designs.

Path arrival time is the sum of gate delays (NLDM table interpolation, as in
the paper) and wire delays (pluggable: golden simulator, Elmore, D2M, or a
learned estimator).  This is the machinery behind Table V: swapping the wire
model changes arrival-time accuracy and runtime while the gate side stays
fixed.  One stage kernel, :class:`StageTimer`, times every stage for every
engine, level by level along the paths, and computes each distinct stage
once per memo.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

import numpy as np

from ..analysis.awe import awe2_timing
from ..analysis.d2m import d2m_delays
from ..analysis.elmore import elmore_delays
from ..analysis.simulator import GoldenTimer
from ..features.path_features import NetContext
from ..liberty.ceff import effective_capacitance
from ..obs import get_metrics, get_tracer, named_lock
from ..liberty.cell import Cell
from ..rcnet.graph import RCNet
from ..robustness.errors import (EstimationError, InputError, ModelError,
                                 NumericalError)
from .netlist import Netlist, PathStage, TimingPath

_LN9 = float(np.log(9.0))  # 10%-90% swing of a single-pole response.

_STAGES_TIMED = get_metrics().counter("sta.stages_timed")
_PATHS_TIMED = get_metrics().counter("sta.paths_timed")


def resolve_arc_pin(cell: Cell, input_pin: str, *, net: Optional[str] = None,
                    design: Optional[str] = None, lenient: bool = True) -> str:
    """Resolve a path stage's input pin to one of ``cell``'s timing arcs.

    Strict mode (``lenient=False``) raises a typed :class:`InputError`
    with net/design provenance when the pin has no arc.  Lenient mode
    preserves the legacy behavior of timing the stage through the cell's
    first arc, for netlists produced before arc pins were validated.
    """
    if input_pin in cell.arcs:
        return input_pin
    if lenient:
        return next(iter(cell.arcs))
    raise InputError(
        f"cell {cell.name!r} has no timing arc for pin {input_pin!r} "
        f"(arcs: {sorted(cell.arcs)}); pass lenient_pins=True to time "
        f"the stage through the first arc instead",
        net=net, design=design, stage="sta")


#: One net's per-sink ``(delays, slews)`` (s) and the tier that served
#: them (``None`` for a model without tiers).
WireTiming = Tuple[np.ndarray, np.ndarray, Optional[str]]
#: A wire model bound to one net: input slew (s) -> its :data:`WireTiming`.
WireBinding = Callable[[float], WireTiming]
#: One call for :meth:`WireTimingModel.time_many`: a binding and the input
#: slew (s) to call it at.
WireCall = Tuple[WireBinding, float]
#: A call's :data:`WireTiming`, or the exception the call raised.
WireResult = Union[WireTiming, Exception]


class BindRequest(NamedTuple):
    """One net for :meth:`WireTimingModel.bind_many`: the arguments of
    :meth:`WireTimingModel.bind`.  It also serves as the
    :class:`~repro.analysis.batch.WirePrimeRequest` of a ``prime_nets``
    pass."""

    net: RCNet
    sink_loads: np.ndarray  # farads, aligned with net.sinks
    drive_resistance: float  # ohms
    context: Optional[NetContext] = None


class WireTimingModel(ABC):
    """Interface every wire-delay engine exposes to the STA core.

    :meth:`wire_timing` times one net at one input slew.  The STA kernel
    reaches a model through two batch calls: :meth:`bind_many`, once per
    pass (or edit) for the slew-free work of its nets, and
    :meth:`time_many`, once per path level for the per-slew calls of the
    level's missed stages.  A model overrides either to share work across
    nets; each result must stay bitwise its per-net counterpart's.
    """

    @abstractmethod
    def wire_timing(self, net: RCNet, input_slew: float,
                    sink_loads: np.ndarray, drive_resistance: float,
                    context: Optional[NetContext] = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(delays, slews)`` per sink, both in seconds.

        ``context`` carries the driving/receiving cells; analytic models
        ignore it, learned models need it for feature extraction.
        """

    def bind(self, net: RCNet, sink_loads: np.ndarray,
             drive_resistance: float,
             context: Optional[NetContext] = None) -> WireBinding:
        """This model's timing of one net, as a function of input slew.

        A model overrides this to do its slew-free work once per net; a
        call of the binding must return what :meth:`wire_timing` returns
        at that slew, bitwise, plus the tier that served the call.
        ``context.input_slew`` is ignored: each call substitutes its own
        slew.  This default runs :meth:`wire_timing` on every call and
        reports tier ``None``.
        """
        def timing(input_slew: float
                   ) -> Tuple[np.ndarray, np.ndarray, Optional[str]]:
            at_slew = None if context is None \
                else replace(context, input_slew=input_slew)
            return (*self.wire_timing(net, input_slew, sink_loads,
                                      drive_resistance, context=at_slew),
                    None)
        return timing

    def bind_many(self, requests: Sequence[BindRequest]
                  ) -> List[WireBinding]:
        """:meth:`bind` of many nets in one call, one binding per request.

        A model overrides this to share slew-free work across nets; each
        binding must equal its request's :meth:`bind` bitwise, so a net
        bound alone (an ECO edit, a lazy miss) times exactly as it does
        bound with others (a cold pass).  This default maps :meth:`bind`.
        """
        return [self.bind(*request) for request in requests]

    def time_many(self, calls: Sequence[WireCall]) -> List[WireResult]:
        """Each ``(binding, input_slew)`` call of this model's bindings.

        A model overrides this to share per-slew work across the nets of
        one call; each result must equal its binding's own call at that
        slew bitwise.  A call that raises returns its exception in its
        place, as ``asyncio.gather(..., return_exceptions=True)`` does, so
        the caller raises it with that call's own provenance and the other
        calls keep their results.  This default calls each binding in turn.
        """
        results: List[WireResult] = []
        for binding, input_slew in calls:
            try:
                results.append(binding(input_slew))
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as exc:  # repro-lint: disable=ERR002 returned in place; StageTimer raises it typed
                results.append(exc)
        return results

    @property
    def name(self) -> str:
        return type(self).__name__


class GoldenWireModel(WireTimingModel):
    """Wire timing from the exact transient simulator (sign-off reference)."""

    def __init__(self, timer: Optional[GoldenTimer] = None) -> None:
        self._template = timer or GoldenTimer()
        self._cache: Dict[float, GoldenTimer] = {}

    def _timer(self, drive_resistance: float) -> GoldenTimer:
        timer = self._cache.get(drive_resistance)
        if timer is None:
            t = self._template
            timer = GoldenTimer(
                drive_resistance=drive_resistance, vdd=t.vdd, si_mode=t.si_mode,
                si_strength=t.si_strength,
                delay_threshold=t.delay_threshold,
                slew_low=t.slew_low, slew_high=t.slew_high)
            self._cache[drive_resistance] = timer
        return timer

    def wire_timing(self, net: RCNet, input_slew: float,
                    sink_loads: np.ndarray, drive_resistance: float,
                    context: Optional[NetContext] = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
        result = self._timer(drive_resistance).analyze(net, input_slew, sink_loads)
        return result.delays(), result.slews()

    def prime_nets(self, requests: Sequence["object"]) -> int:
        """Batch-fill the eigendecomposition cache for upcoming queries.

        One grouped ``eigh`` across all requested nets replaces the
        per-net decompositions the later :meth:`wire_timing` calls would
        run; the results land in the shared
        :class:`~repro.analysis.cache.SolveCache`, so the per-net queries
        become cache hits with bitwise-identical timing.
        """
        from ..analysis.batch import prime_solve_cache

        return prime_solve_cache(requests)

    def bind_many(self, requests: Sequence[BindRequest]
                  ) -> List[WireBinding]:
        """Bindings whose calls hit the solve cache, filled for every
        request by one :meth:`prime_nets` pass first."""
        self.prime_nets(requests)
        return super().bind_many(requests)


class ElmoreWireModel(WireTimingModel):
    """First-moment analytical wire timing (fast, pessimistic).

    Sink slew uses the standard single-pole degradation model
    ``slew_out = sqrt(slew_in^2 + (ln 9 * elmore)^2)``.
    """

    def wire_timing(self, net: RCNet, input_slew: float,
                    sink_loads: np.ndarray, drive_resistance: float,
                    context: Optional[NetContext] = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
        delays = elmore_delays(net, sink_loads=sink_loads)[list(net.sinks)]
        slews = np.sqrt(input_slew ** 2 + (_LN9 * delays) ** 2)
        return delays, slews


class AWEWireModel(WireTimingModel):
    """Two-pole AWE analytical wire timing (tighter than Elmore/D2M).

    Step-response delay and slew from the [1/2] Pade model; the input slew
    is composed in quadrature like the single-pole models.
    """

    def wire_timing(self, net: RCNet, input_slew: float,
                    sink_loads: np.ndarray, drive_resistance: float,
                    context: Optional[NetContext] = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
        sinks = list(net.sinks)
        delays, step_slews = awe2_timing(net, sink_loads=sink_loads,
                                         nodes=sinks)
        slews = np.sqrt(input_slew ** 2 + step_slews[sinks] ** 2)
        return delays[sinks], slews

    def prime_nets(self, requests: Sequence["object"]) -> int:
        """Batch-fill the AWE step-response cache for upcoming queries.

        Step responses do not depend on the input slew, so one batched
        moment/fit/crossing pass caches every requested net; the per-stage
        :meth:`wire_timing` calls then hit the cache with arrays bitwise
        equal to what they would have computed.
        """
        from ..analysis.batch import prime_awe

        return prime_awe(requests)

    def bind_many(self, requests: Sequence[BindRequest]
                  ) -> List[WireBinding]:
        """Bindings whose calls hit the AWE step cache, filled for every
        request by one :meth:`prime_nets` pass first."""
        self.prime_nets(requests)
        return super().bind_many(requests)


class D2MWireModel(WireTimingModel):
    """Two-moment analytical wire timing (less pessimistic than Elmore)."""

    def wire_timing(self, net: RCNet, input_slew: float,
                    sink_loads: np.ndarray, drive_resistance: float,
                    context: Optional[NetContext] = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
        delays = d2m_delays(net, sink_loads=sink_loads)[list(net.sinks)]
        slews = np.sqrt(input_slew ** 2 + (_LN9 * delays) ** 2)
        return delays, slews


@dataclass
class StageTiming:
    """Timing breakdown of one path stage.

    ``tier`` is the wire-model degradation provenance: the tier the wire
    model's binding returned for this stage (``None`` for plain models).
    """

    gate: str
    net: str
    gate_delay: float
    wire_delay: float
    slew_out: float
    tier: Optional[str] = None


@dataclass
class PathTiming:
    """Arrival-time result of one timing path."""

    path_name: str
    arrival: float
    gate_delay_total: float
    wire_delay_total: float
    stages: List[StageTiming] = field(default_factory=list)


@dataclass
class STAReport:
    """Design-level STA result with a wall-clock runtime split.

    ``gate_seconds`` and ``wire_seconds`` reproduce the runtime columns of
    Table V: time spent in library lookups/ceff reduction versus in the
    wire-timing engine.  The wire column is the wire model's
    :meth:`WireTimingModel.bind_many` call, which binds every net of the
    pass at once (a learned model's feature extraction and encoder, an
    analytic model's batched solves), plus its
    :meth:`WireTimingModel.time_many` calls, one per path level (a
    learned model's heads, once per path count).
    """

    design: str
    wire_model: str
    paths: List[PathTiming]
    gate_seconds: float
    wire_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.gate_seconds + self.wire_seconds

    def arrivals(self) -> np.ndarray:
        return np.array([p.arrival for p in self.paths])


#: Stage memo key: (net, driver cell name, resolved arc pin, exact input
#: slew).  While the netlist is unchanged these fix every input of a
#: stage's timing, so a hit replays the very floats a recomputation gives.
StageKey = Tuple[str, str, str, float]
#: Stage memo entry: (gate delay, per-sink wire delays, per-sink slews,
#: wire-model tier that served the stage).
StageEntry = Tuple[float, np.ndarray, np.ndarray, Optional[str]]
#: Net memo key: (net, driver cell name), the stage key without the parts
#: that only the gate lookup and the wire model's slew input read.  The
#: memo holds it net first, ``{net: {driver cell name: entry}}``.
NetKey = Tuple[str, str]
#: Net memo entry: (effective capacitance, wire-model binding, slew-model
#: binding or ``None``).
NetEntry = Tuple[float, WireBinding, Optional[WireBinding]]


class StageTimer:
    """The stage-timing kernel behind every STA engine, with two memos.

    A stage is timed as effective capacitance -> NLDM gate lookup -> the
    wire model's timing at the gate's output slew (plus the optional
    ``slew_model``), and the result is memoized under :data:`StageKey`.
    Timing paths share prefixes, so a stage reached by many paths is
    computed once and replayed on every later visit.  A second memo,
    under :data:`NetKey`, holds each net's slew-free work: its effective
    capacitance and the models' bindings.  :meth:`bind_nets` fills it
    with one :meth:`WireTimingModel.bind_many` call per model for a whole
    pass, or for an edit's dirty nets.

    :meth:`time_paths` times paths level by level, where level k is the
    k-th stage of every path that has one: level k's input slews are
    level k-1's output slews.  A level's stage keys are looked up
    together; its misses bind their nets not bound yet in one
    ``bind_many`` call per model, look up their gates, and time their
    wires in one :meth:`WireTimingModel.time_many` call per model.  A
    cold :class:`STAEngine` pass is this kernel run from empty memos;
    :class:`~repro.design.incremental.IncrementalSTAEngine` is this
    kernel with its memos kept across calls.  Both memos are indexed by
    net, so invalidating a net is a lookup, not a scan.

    Parameters are those of :class:`STAEngine`, except that pins default
    to strict.  ``hits`` and ``misses`` count stage-memo lookups, and
    ``wire_seconds`` is the time spent inside ``wire_model``: its
    ``bind_many`` and ``time_many`` calls, the wire column of Table V.
    Effective capacitance counts in the gate column.
    """

    def __init__(self, netlist: Netlist, wire_model: WireTimingModel,
                 launch_slew: float = 20e-12,
                 slew_model: Optional[WireTimingModel] = None,
                 lenient_pins: bool = False) -> None:
        self.netlist = netlist
        self.wire_model = wire_model
        self.launch_slew = launch_slew
        self.slew_model = slew_model
        self.lenient_pins = lenient_pins
        # An incremental memo is shared by concurrent callers of one
        # IncrementalSTAEngine; only the dict/counter operations run under
        # the lock — stage computation happens outside it.
        self._lock = named_lock("StageTimer._lock")
        self._cache: Dict[StageKey, StageEntry] = {}  # repro-guarded-by: _lock
        # The stage keys in _cache, by net (dicts as ordered sets).
        self._stage_keys: Dict[str, Dict[StageKey, None]] = {}  # repro-guarded-by: _lock
        self._nets: Dict[str, Dict[str, NetEntry]] = {}  # repro-guarded-by: _lock
        self.hits = 0  # repro-guarded-by: _lock
        self.misses = 0  # repro-guarded-by: _lock
        self.wire_seconds = 0.0  # repro-guarded-by: _lock

    def time_paths(self, paths: Sequence[TimingPath]) -> List[PathTiming]:
        """Arrival time at each path's endpoint, with per-stage breakdown.

        Paths are timed level by level (see the class docstring); each
        path's sums run over its own stages in order, so a path's timing
        does not depend on the paths timed with it.
        """
        design = self.netlist.name
        slews = [self.launch_slew] * len(paths)
        timed: List[List[StageTiming]] = [[] for _ in paths]
        active = [i for i, path in enumerate(paths) if path.stages]
        level = 0
        while active:
            stages = [paths[i].stages[level] for i in active]
            entries = self._time_level(stages, [slews[i] for i in active])
            for i, stage, entry in zip(active, stages, entries):
                gate_delay, delays, out_slews, tier = entry
                wire_delay = float(delays[stage.sink_index])
                slew = float(out_slews[stage.sink_index])
                if not (math.isfinite(gate_delay)
                        and math.isfinite(wire_delay)
                        and math.isfinite(slew)):
                    raise NumericalError(
                        "non-finite stage timing", net=stage.net,
                        design=design, sink=stage.sink_index, stage="sta",
                        tier=tier)
                timed[i].append(StageTiming(stage.gate, stage.net,
                                            gate_delay, wire_delay, slew,
                                            tier=tier))
                slews[i] = slew
            level += 1
            active = [i for i in active if len(paths[i].stages) > level]
        return [_path_timing(path.name, stages)
                for path, stages in zip(paths, timed)]

    def _time_level(self, stages: Sequence[PathStage],
                    slews: Sequence[float]) -> List[StageEntry]:
        """Timing of each stage entered at its slew: one memo lookup per
        stage, and the misses computed together."""
        keys: List[StageKey] = []
        cells: List[Cell] = []
        for stage, slew in zip(stages, slews):
            cell = self.netlist.gates[stage.gate].cell
            pin = resolve_arc_pin(cell, stage.input_pin, net=stage.net,
                                  design=self.netlist.name,
                                  lenient=self.lenient_pins)
            keys.append((stage.net, cell.name, pin, slew))
            cells.append(cell)
        found: Dict[StageKey, StageEntry] = {}
        missed: Dict[StageKey, Tuple[Cell, Optional[NetEntry]]] = {}
        with self._lock:
            for key, cell in zip(keys, cells):
                entry = self._cache.get(key)
                if entry is not None:
                    found[key] = entry
                    self.hits += 1
                elif key in missed:
                    self.hits += 1  # computed below, as a later visit's hit
                else:
                    self.misses += 1
                    missed[key] = cell, self._nets.get(key[0], {}).get(
                        key[1])
        # Computed outside the lock: two threads missing on the same key
        # may both compute it (identical results; last store wins), which
        # beats serializing every wire-timing evaluation.
        if missed:
            found.update(self._compute(missed))
        return [found[key] for key in keys]

    def _compute(self, missed: Dict[StageKey,
                                    Tuple[Cell, Optional[NetEntry]]]
                 ) -> Dict[StageKey, StageEntry]:
        """Time and memoize the missed stages, with one ``time_many`` call
        per model; nets not bound yet are bound first, together."""
        unbound = {key[:2]: cell for key, (cell, net) in missed.items()
                   if net is None}
        bound = dict(zip(unbound, self._bind(list(unbound.items())))) \
            if unbound else {}
        nets: List[NetEntry] = []
        gate_delays: List[float] = []
        drive_slews: List[float] = []
        for key, (cell, net) in missed.items():
            net = net if net is not None else bound[key[:2]]
            gate_delay, drive_slew = cell.delay_and_slew(key[3], net[0],
                                                         key[2])
            nets.append(net)
            gate_delays.append(gate_delay)
            drive_slews.append(drive_slew)
        start = time.perf_counter()
        wire = self.wire_model.time_many(
            [(net[1], slew) for net, slew in zip(nets, drive_slews)])
        wire_seconds = time.perf_counter() - start
        slew_results = None if self.slew_model is None \
            else self.slew_model.time_many(
                [(net[2], slew) for net, slew in zip(nets, drive_slews)])
        entries: Dict[StageKey, StageEntry] = {}
        for i, key in enumerate(missed):
            delays, slews, tier = self._checked(wire[i], self.wire_model,
                                                key[0])
            if slew_results is not None:
                _, slews, _ = self._checked(slew_results[i],
                                            self.slew_model, key[0])
            entries[key] = (gate_delays[i], delays, slews, tier)
        with self._lock:
            self._cache.update(entries)
            for key in entries:
                self._stage_keys.setdefault(key[0], {})[key] = None
            self.wire_seconds += wire_seconds
        return entries

    def _checked(self, result: WireResult, model: WireTimingModel,
                 net: str) -> WireTiming:
        """``result``, or its exception raised typed with the stage's
        net and design."""
        if not isinstance(result, Exception):
            return result
        if isinstance(result, EstimationError):
            raise result  # already typed with provenance
        raise ModelError(
            f"wire model {model.name!r} failed: "
            f"{type(result).__name__}: {result}", net=net,
            design=self.netlist.name, stage="sta", cause=result) from result

    def bind_nets(self, names: Iterable[str]) -> None:
        """Bind the models to each named net and its current driver.

        Nets already in the net memo are skipped, and the rest are bound
        with one :meth:`WireTimingModel.bind_many` call per model.
        """
        todo: Dict[NetKey, Cell] = {}
        for name in names:
            cell = self.netlist.gates[self.netlist.nets[name].driver].cell
            todo[(name, cell.name)] = cell
        with self._lock:
            todo = {key: cell for key, cell in todo.items()
                    if key[1] not in self._nets.get(key[0], ())}
        if todo:
            self._bind(list(todo.items()))

    def _bind(self, todo: Sequence[Tuple[NetKey, Cell]]) -> List[NetEntry]:
        """Bind the models to each ``(net, driver cell)`` of ``todo`` with
        one ``bind_many`` call per model; memoize and return the entries."""
        loads: List[float] = []
        requests: List[BindRequest] = []
        for (name, _), cell in todo:
            net = self.netlist.nets[name]
            sink_loads = self.netlist.sink_loads(net)
            loads.append(effective_capacitance(
                net.rcnet, cell.drive_resistance, sink_loads))
            # Bindings take their slew per call; the context's is unused.
            context = NetContext(
                input_slew=self.launch_slew, drive_cell=cell,
                load_cells=[self.netlist.gates[l.gate].cell
                            for l in net.loads])
            requests.append(BindRequest(net.rcnet, sink_loads,
                                        cell.drive_resistance, context))
        start = time.perf_counter()
        wire = self.wire_model.bind_many(requests)
        slew: Sequence[Optional[WireBinding]] = [None] * len(requests) \
            if self.slew_model is None \
            else self.slew_model.bind_many(requests)
        wire_seconds = time.perf_counter() - start
        entries = list(zip(loads, wire, slew))
        with self._lock:
            for ((name, cell_name), _), entry in zip(todo, entries):
                self._nets.setdefault(name, {})[cell_name] = entry
            self.wire_seconds += wire_seconds
        return entries


def _path_timing(name: str, stages: List[StageTiming]) -> PathTiming:
    """A path's timing from its stages, summed in path order."""
    arrival = 0.0
    gate_total = 0.0
    wire_total = 0.0
    for stage in stages:
        arrival += stage.gate_delay + stage.wire_delay
        gate_total += stage.gate_delay
        wire_total += stage.wire_delay
    return PathTiming(name, arrival, gate_total, wire_total, stages)


class STAEngine:
    """Propagates arrival times along recorded timing paths.

    Every call runs the :class:`StageTimer` kernel from an empty memo, so
    a stage shared by several paths is computed once per call and the
    engine keeps no state between calls.

    Parameters
    ----------
    netlist:
        The design under analysis.
    wire_model:
        Any :class:`WireTimingModel` implementation; provides the wire
        *delays* summed into arrival times.
    launch_slew:
        Transition time at the launch flip-flop output, seconds.
    slew_model:
        Optional separate engine for the *propagated slews* (and hence the
        gate operating points).  The paper's Table V protocol computes
        arrival as "the cumulative addition of our estimated wire delay
        and cell delay from the timing library", i.e. cell delays come
        from the sign-off report's operating points — reproduce that with
        ``slew_model=GoldenWireModel()``.  When ``None`` the wire model's
        own slews propagate (full self-consistent mode).
    lenient_pins:
        When True (legacy default), a stage whose ``input_pin`` has no
        timing arc is timed through the cell's first arc; when False such
        a stage raises a typed :class:`InputError` (see
        :func:`resolve_arc_pin`).
    """

    def __init__(self, netlist: Netlist, wire_model: WireTimingModel,
                 launch_slew: float = 20e-12,
                 slew_model: Optional[WireTimingModel] = None,
                 lenient_pins: bool = True) -> None:
        if launch_slew <= 0.0:
            raise ValueError("launch_slew must be positive")
        self.netlist = netlist
        self.wire_model = wire_model
        self.launch_slew = launch_slew
        self.slew_model = slew_model
        self.lenient_pins = lenient_pins

    def _timer(self) -> StageTimer:
        return StageTimer(self.netlist, self.wire_model, self.launch_slew,
                          slew_model=self.slew_model,
                          lenient_pins=self.lenient_pins)

    def path_arrival(self, path: TimingPath) -> PathTiming:
        """Arrival time at the path endpoint, with per-stage breakdown."""
        timing = self._timer().time_paths([path])[0]
        _PATHS_TIMED.inc()
        _STAGES_TIMED.inc(len(timing.stages))
        return timing

    def analyze_design(self) -> STAReport:
        """Arrival times of every recorded path, with a runtime split.

        The pass binds every net of its paths in one
        :meth:`WireTimingModel.bind_many` call, then times the paths
        level by level (:meth:`StageTimer.time_paths`).  The wire column
        is the time spent inside the wire model, that call plus one
        :meth:`WireTimingModel.time_many` call per level; the gate column
        is the rest of the pass, mirroring Table V's Gate/Wire columns.
        """
        model = self.wire_model
        paths = list(self.netlist.paths)
        with get_tracer().span("sta.analyze_design", design=self.netlist.name,
                               wire_model=model.name,
                               paths=len(paths)) as span:
            timer = self._timer()
            start = time.perf_counter()
            timer.bind_nets(stage.net for path in paths
                            for stage in path.stages)
            timings = timer.time_paths(paths)
            total = time.perf_counter() - start
            wire_seconds = timer.wire_seconds
            _PATHS_TIMED.inc(len(timings))
            _STAGES_TIMED.inc(sum(len(timing.stages) for timing in timings))
            span.set(gate_seconds=total - wire_seconds,
                     wire_seconds=wire_seconds)
        return STAReport(
            design=self.netlist.name,
            wire_model=model.name,
            paths=timings,
            gate_seconds=total - wire_seconds,
            wire_seconds=wire_seconds,
        )
