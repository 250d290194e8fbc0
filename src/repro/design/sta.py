"""Static timing analysis over synthetic designs.

Path arrival time is the sum of gate delays (NLDM table interpolation, as in
the paper) and wire delays (pluggable: golden simulator, Elmore, D2M, or a
learned estimator).  This is the machinery behind Table V: swapping the wire
model changes arrival-time accuracy and runtime while the gate side stays
fixed.  One stage kernel, :class:`StageTimer`, times every stage for every
engine and computes each distinct stage once per memo.
"""

from __future__ import annotations

import math
import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field, replace
from typing import (Callable, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple)

import numpy as np

from ..analysis.awe import awe2_timing
from ..analysis.d2m import d2m_delays
from ..analysis.elmore import elmore_delays
from ..analysis.simulator import GoldenTimer
from ..features.path_features import NetContext
from ..liberty.ceff import effective_capacitance
from ..obs import get_metrics, get_tracer, named_lock
from ..parallel import parallel_map
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
    with net/design provenance when the pin has no arc — consistent with
    the FLOW004 lint rule, which flags exactly this silent substitution.
    Lenient mode preserves the legacy behavior of timing the stage
    through the cell's first arc, for netlists produced before arc pins
    were validated.
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


#: A wire model bound to one net: input slew (s) -> per-sink
#: ``(delays, slews)`` (s).
WireBinding = Callable[[float], Tuple[np.ndarray, np.ndarray]]


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
    """Interface every wire-delay engine exposes to the STA core."""

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
        at that slew, bitwise.  ``context.input_slew`` is ignored: each
        call substitutes its own slew.  This default runs
        :meth:`wire_timing` on every call.
        """
        def timing(input_slew: float) -> Tuple[np.ndarray, np.ndarray]:
            at_slew = None if context is None \
                else replace(context, input_slew=input_slew)
            return self.wire_timing(net, input_slew, sink_loads,
                                    drive_resistance, context=at_slew)
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

    ``tier`` is the wire-model degradation provenance: which tier of a
    fallback-capable model served this stage (``None`` for plain models).
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
    analytic model's batched solves), plus its per-slew calls.
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
#: that only the gate lookup and the wire model's slew input read.
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
    pass, or for an edit's dirty nets; a stage on a net not bound yet
    binds it alone.  A stage miss on a bound net costs one NLDM lookup
    plus one binding call.  A cold :class:`STAEngine` pass is this kernel
    run from empty memos;
    :class:`~repro.design.incremental.IncrementalSTAEngine` is this
    kernel with its memos kept across calls.

    Parameters are those of :class:`STAEngine`, except that pins default
    to strict.  ``hits`` and ``misses`` count stage-memo lookups, and
    ``wire_seconds`` is the time spent inside ``wire_model``: its
    ``bind_many`` calls plus its per-slew calls on the missed stages, the
    wire column of Table V.  Effective capacitance counts in the gate
    column.
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
        # An incremental memo is shared between a serve batch window and
        # concurrent edit threads; only the dict/counter operations run
        # under the lock — stage computation happens outside it.
        self._lock = named_lock("StageTimer._lock")
        self._cache: Dict[StageKey, StageEntry] = {}  # repro-guarded-by: _lock
        self._nets: Dict[NetKey, NetEntry] = {}  # repro-guarded-by: _lock
        self.hits = 0  # repro-guarded-by: _lock
        self.misses = 0  # repro-guarded-by: _lock
        self.wire_seconds = 0.0  # repro-guarded-by: _lock

    def stage_timing(self, stage: PathStage, slew: float) -> StageEntry:
        """Timing of ``stage`` entered at input slew ``slew``, memoized."""
        gate = self.netlist.gates[stage.gate]
        design = self.netlist.name
        pin = resolve_arc_pin(gate.cell, stage.input_pin, net=stage.net,
                              design=design, lenient=self.lenient_pins)
        key = (stage.net, gate.cell.name, pin, slew)
        with self._lock:
            entry = self._cache.get(key)
            if entry is not None:
                self.hits += 1
                return entry
            self.misses += 1
            bound = self._nets.get(key[:2])

        # Computed outside the lock: two threads missing on the same key
        # may both compute it (identical results; last store wins), which
        # beats serializing every wire-timing evaluation.
        if bound is None:
            bound = self._bind([(key[:2], gate.cell)])[0]
        gate_delay, drive_slew = gate.cell.delay_and_slew(slew, bound[0], pin)
        start = time.perf_counter()
        try:
            delays, slews = bound[1](drive_slew)
        except EstimationError:
            raise  # already typed with provenance
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception as exc:
            raise ModelError(
                f"wire model {self.wire_model.name!r} failed: "
                f"{type(exc).__name__}: {exc}", net=stage.net,
                design=design, stage="sta", cause=exc) from exc
        wire_seconds = time.perf_counter() - start
        tier = getattr(self.wire_model, "last_tier", None)
        if bound[2] is not None:
            _, slews = bound[2](drive_slew)
        entry = (gate_delay, delays, slews, tier)
        with self._lock:
            self._cache[key] = entry
            self.wire_seconds += wire_seconds
        return entry

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
                    if key not in self._nets}
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
            self._nets.update(zip((key for key, _ in todo), entries))
            self.wire_seconds += wire_seconds
        return entries

    def path_arrival(self, path: TimingPath) -> PathTiming:
        """Arrival time at the path endpoint, with per-stage breakdown."""
        arrival = 0.0
        gate_total = 0.0
        wire_total = 0.0
        slew = self.launch_slew
        stages: List[StageTiming] = []
        for stage in path.stages:
            gate_delay, delays, slews, tier = self.stage_timing(stage, slew)
            wire_delay = float(delays[stage.sink_index])
            slew = float(slews[stage.sink_index])
            if not (math.isfinite(gate_delay) and math.isfinite(wire_delay)
                    and math.isfinite(slew)):
                raise NumericalError(
                    "non-finite stage timing", net=stage.net,
                    design=self.netlist.name, sink=stage.sink_index,
                    stage="sta", tier=tier)
            arrival += gate_delay + wire_delay
            gate_total += gate_delay
            wire_total += wire_delay
            stages.append(StageTiming(stage.gate, stage.net, gate_delay,
                                      wire_delay, slew, tier=tier))
        return PathTiming(path.name, arrival, gate_total, wire_total, stages)


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
        timing = self._timer().path_arrival(path)
        _PATHS_TIMED.inc()
        _STAGES_TIMED.inc(len(timing.stages))
        return timing

    def analyze_design(self, jobs: int = 1) -> STAReport:
        """Arrival times of every recorded path, with a runtime split.

        The serial pass binds every net of its paths in one
        :meth:`WireTimingModel.bind_many` call, then times the paths.
        The wire column is the time spent inside the wire model, that
        call plus the per-slew calls of each computed stage; the gate
        column is the rest of the pass, mirroring Table V's Gate/Wire
        columns.

        ``jobs > 1`` analyzes paths across worker processes (the netlist
        and wire model ship to each worker once, and each worker keeps
        its own stage memo and binds each net on its first stage).
        Arrival times and the per-stage tier
        provenance in the report are identical to the serial path;
        in-model degradation counters (e.g. a FallbackChain's ``stats``)
        accumulate inside the workers and are not merged back — read
        provenance from the report's ``stages`` instead.
        """
        model = self.wire_model
        paths = list(self.netlist.paths)
        with get_tracer().span("sta.analyze_design", design=self.netlist.name,
                               wire_model=model.name,
                               paths=len(paths), jobs=jobs) as span:
            if jobs == 1 or len(paths) < 2:
                # Serial runs see every stage up front, so every net of
                # the pass is bound in one bind_many call.
                timer = self._timer()
                start = time.perf_counter()
                timer.bind_nets(stage.net for path in paths
                                for stage in path.stages)
                timings = [timer.path_arrival(p) for p in paths]
                total = time.perf_counter() - start
                wire_seconds = timer.wire_seconds
            else:
                results = parallel_map(
                    _timed_path, list(range(len(paths))), jobs=jobs,
                    initializer=_init_sta_worker,
                    initargs=(self.netlist, model, self.launch_slew,
                              self.slew_model, self.lenient_pins),
                    label="sta_paths")
                timings = [timing for timing, _, _ in results]
                wire_seconds = sum(w for _, w, _ in results)
                total = sum(t for _, _, t in results)
            # Counted in the parent for both branches: worker processes
            # own separate metric registries.
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


# Per-worker stage kernel installed once by the pool initializer, so the
# netlist and wire model ship per worker instead of per path, and the
# worker's stage memo serves every path it times.
_WORKER_TIMER: Optional[StageTimer] = None


def _init_sta_worker(netlist: Netlist, wire_model: WireTimingModel,
                     launch_slew: float,
                     slew_model: Optional[WireTimingModel],
                     lenient_pins: bool = True) -> None:
    global _WORKER_TIMER
    _WORKER_TIMER = StageTimer(netlist, wire_model, launch_slew,
                               slew_model=slew_model,
                               lenient_pins=lenient_pins)


def _timed_path(index: int) -> Tuple[PathTiming, float, float]:
    """Worker entry point: ``(timing, wire_seconds, total_seconds)`` of one
    path, by index into the shipped netlist."""
    timer = _WORKER_TIMER
    wire_before = timer.wire_seconds
    start = time.perf_counter()
    timing = timer.path_arrival(timer.netlist.paths[index])
    return (timing, timer.wire_seconds - wire_before,
            time.perf_counter() - start)
