"""Batched spectral solver engine: many small nets, one LAPACK call.

The pipeline's hot path is spectral analysis of *tiny* matrices — the
``simulator.matrix_size`` histogram puts nets at 6-28 nodes — which is
exactly the regime where per-net Python overhead (argument checking,
wrapper frames, allocation) dwarfs the O(n^3) work.  This module collects
nets, groups them by matrix size, and pushes dense ``(k, n, n)`` stacks
through the batched ``numpy.linalg`` gufuncs:

* :class:`BatchedEigenEngine` — stacked ``eigh`` over same-size groups,
  fanning results out into the content-addressed
  :class:`~repro.analysis.cache.SolveCache` so later single-net lookups
  still hit;
* :func:`golden_analyze_many` — the whole golden-label pipeline (moment
  horizon, eigendecomposition, bracket scan, lockstep crossing bisection)
  over a batch of nets;
* :func:`prime_awe` — bulk step-response computation filling the
  :class:`~repro.analysis.awe.AWEStepCache` before an STA or serving pass
  queries nets one at a time.

Bitwise contract
----------------
Every default path here is **bitwise identical** to its scalar
counterpart, which is what lets the batch layer slide under the existing
cache and test surface unnoticed:

* ``numpy.linalg.eigh``/``solve`` on a ``(k, n, n)`` stack loop LAPACK
  over the leading axis — slice ``i`` equals the single-matrix call, so a
  scalar solve is literally a batch of one (groups are *exact-size*; no
  padding, no mixed arithmetic);
* the crossing search shares :func:`repro.analysis.simulator.lockstep_crossings`
  and :func:`repro.analysis.awe._first_crossings_masked`, whose per-pair
  freeze masks make every answer independent of what else shares the
  batch.

Units: resistances ohm, capacitances farad, all times seconds.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..obs import get_metrics, get_tracer
from ..rcnet.graph import RCNet
from ..robustness.errors import EstimationError, InputError
from ..robustness.guards import require_finite, symmetric_condition
from .awe import (_first_crossings_masked, _wanted_nodes, fit_step_params,
                  get_awe_cache, step_key)
from .cache import SolveCache, get_solve_cache, solve_key
from .elmore import elmore_delays
from .mna import capacitance_vector, conductance_matrix, reduce_source
from .moments import stacked_moments
from .simulator import (_MAX_CONDITION, CrossingWork, EigenSolve,
                        GoldenTimer, SinkTiming, TransientSolution,
                        WireTimingResult, eigendecompose, lockstep_crossings)

__all__ = ["SolveRequest", "BatchedEigenEngine", "GoldenNetJob",
           "golden_analyze_many", "WirePrimeRequest", "prime_awe",
           "prime_solve_cache"]

# Batch-shape observability (documented in docs/OBSERVABILITY.md; the
# per-size latency histograms are named ``batch.bucket_seconds.<n>``).
_GROUPS = get_metrics().counter("batch.groups")
_OCCUPANCY = get_metrics().histogram("batch.occupancy")
_SCALAR_FALLBACKS = get_metrics().counter("batch.scalar_fallbacks")
_NETS_SOLVED = get_metrics().counter("batch.nets_solved")
_AWE_PRIMED = get_metrics().counter("batch.awe_primed")

# Shared with the scalar simulator so both paths tell one coherent story
# (a net decomposed by the batch engine counts exactly once, either here
# or inside the scalar fallback's own eigendecompose call).
_DECOMPOSITIONS = get_metrics().counter("simulator.eigendecompositions")
_CROSSINGS = get_metrics().counter("simulator.crossing_searches")
_NETS_ANALYZED = get_metrics().counter("simulator.nets_analyzed")
_MATRIX_SIZE = get_metrics().histogram("simulator.matrix_size")

_MIN_CAP = 1e-20  # same junction-node floor as the scalar simulator


@dataclass(frozen=True)
class SolveRequest:
    """One net's eigendecomposition inputs for :class:`BatchedEigenEngine`.

    ``caps`` is the assembled capacitance vector (farads) *before* the
    minimum-cap floor — the same array :meth:`GoldenTimer.solve` hands to
    the scalar path, so the cache key and the floored operator match.
    """

    net: RCNet
    caps: np.ndarray
    drive_resistance: float  # ohms


class BatchedEigenEngine:
    """Size-grouped stacked eigendecomposition over many RC nets.

    A drop-in provider for the scalar path: results are
    :class:`~repro.analysis.simulator.EigenSolve` objects, cache lookups
    and fan-out go through the same content-addressed
    :class:`~repro.analysis.cache.SolveCache` (memory + persistent tier),
    and any slice the batch cannot handle bitwise-identically —
    ill-conditioned operators that need the cap-floor escalation ladder,
    or a LAPACK failure anywhere in the stack — falls back to the scalar
    :func:`~repro.analysis.simulator.eigendecompose`, counted by
    ``batch.scalar_fallbacks``.  Groups are by exact matrix size, so every
    result is bitwise equal to the scalar path.

    Parameters
    ----------
    cache:
        Explicit :class:`SolveCache` (defaults to the process-wide one at
        each call, so ``configure_solve_cache`` keeps working).
    """

    def __init__(self, cache: Optional[SolveCache] = None) -> None:
        self._cache = cache

    # ------------------------------------------------------------------
    def solve_many(self, requests: Sequence[SolveRequest]
                   ) -> List[Union[EigenSolve, EstimationError]]:
        """Eigendecompose every request; one result-or-typed-error each.

        Cache hits are answered first; the misses are grouped by size and
        solved through one stacked ``eigh`` per group, then
        fanned out into individual cache entries.  Duplicate keys inside
        one batch are computed once — the repeats resolve through the
        cache afterwards, exactly as repeated scalar calls would.
        """
        cache = self._cache if self._cache is not None else get_solve_cache()
        results: List[Optional[Union[EigenSolve, EstimationError]]] = \
            [None] * len(requests)
        pending: List[Tuple[int, SolveRequest, Optional[bytes]]] = []
        deferred: List[Tuple[int, SolveRequest, bytes]] = []
        batch_keys: Dict[bytes, bool] = {}
        for index, request in enumerate(requests):
            r_drv = request.drive_resistance
            if not (math.isfinite(r_drv) and r_drv > 0.0):
                results[index] = InputError(
                    "drive_resistance must be positive and finite",
                    net=request.net.name, stage="simulate")
                continue
            key: Optional[bytes] = None
            if cache.enabled:
                key = solve_key(request.net, request.caps, r_drv)
                if key in batch_keys:
                    # Same content earlier in this batch: solve once, let
                    # the duplicate resolve through the cache below (same
                    # hit/miss accounting as repeated scalar calls).
                    deferred.append((index, request, key))
                    continue
                batch_keys[key] = True
                solve = cache.get(key)
                if solve is not None:
                    results[index] = solve
                    continue
            pending.append((index, request, key))

        groups: Dict[int, List[Tuple[int, SolveRequest, Optional[bytes]]]] = {}
        for entry in pending:
            groups.setdefault(entry[1].net.num_nodes, []).append(entry)
        for size in sorted(groups):
            members = groups[size]
            _GROUPS.inc()
            _OCCUPANCY.observe(len(members))
            started = time.perf_counter()
            self._solve_group(size, members, results, cache)
            get_metrics().histogram(
                f"batch.bucket_seconds.{size}").observe(
                max(time.perf_counter() - started, 1e-12))

        for index, request, key in deferred:
            solve = cache.get(key)
            if solve is None:  # pragma: no cover - tiny/disabled caches
                solve_or_error = self._solve_scalar(request)
                _SCALAR_FALLBACKS.inc()
                results[index] = solve_or_error
            else:
                results[index] = solve
        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _solve_group(self, size: int,
                     members: Sequence[Tuple[int, SolveRequest,
                                             Optional[bytes]]],
                     results: List[Optional[Union[EigenSolve,
                                                  EstimationError]]],
                     cache: SolveCache) -> None:
        """Stacked eigh over one same-size group, with fan-out."""
        stack = np.zeros((len(members), size, size), dtype=np.float64)
        prepared: List[Optional[Tuple[int, SolveRequest, Optional[bytes],
                                      np.ndarray, np.ndarray]]] = []
        for slot, (index, request, key) in enumerate(members):
            net = request.net
            try:
                require_finite(request.caps, "capacitance vector",
                               net=net.name, stage="simulate")
                g = conductance_matrix(net)
            except EstimationError as exc:
                results[index] = exc
                prepared.append(None)
                continue
            g[net.source, net.source] += 1.0 / request.drive_resistance
            floored = np.maximum(request.caps, _MIN_CAP)
            inv_sqrt_c = 1.0 / np.sqrt(floored)
            m = (inv_sqrt_c[:, None] * g) * inv_sqrt_c[None, :]
            stack[slot] = 0.5 * (m + m.T)  # exact symmetry before eigh
            prepared.append((index, request, key, floored, inv_sqrt_c))

        solved = [entry for entry in prepared if entry is not None]
        if not solved:
            return
        keep = [slot for slot, entry in enumerate(prepared)
                if entry is not None]
        try:
            eigenvalues, vectors = np.linalg.eigh(stack[keep])
        except np.linalg.LinAlgError:
            # One hopeless slice poisons the whole stacked call; replay
            # every member through the scalar retry ladder instead.
            for index, request, key, _, _ in solved:
                _SCALAR_FALLBACKS.inc()
                outcome = self._solve_scalar(request)
                results[index] = outcome
                if key is not None and isinstance(outcome, EigenSolve):
                    cache.put(key, outcome)
            return
        for row, (index, request, key, floored, inv_sqrt_c) in \
                enumerate(solved):
            w = eigenvalues[row]
            if symmetric_condition(w) <= _MAX_CONDITION:
                solve = EigenSolve(floored, inv_sqrt_c, w.copy(),
                                   vectors[row].copy())
                _DECOMPOSITIONS.inc()
                _MATRIX_SIZE.observe(request.net.num_nodes)
                _NETS_SOLVED.inc()
                results[index] = solve
                if key is not None:
                    cache.put(key, solve)
                continue
            # Ill-conditioned at the base cap floor: the scalar path would
            # escalate the floor; replay it exactly (it does its own
            # decomposition counting).
            _SCALAR_FALLBACKS.inc()
            outcome = self._solve_scalar(request)
            results[index] = outcome
            if key is not None and isinstance(outcome, EigenSolve):
                cache.put(key, outcome)

    @staticmethod
    def _solve_scalar(request: SolveRequest
                      ) -> Union[EigenSolve, EstimationError]:
        """Scalar fallback: identical to the non-batched code path."""
        net = request.net
        try:
            g = conductance_matrix(net)
            g[net.source, net.source] += 1.0 / request.drive_resistance
            return eigendecompose(net, g, request.caps)
        except EstimationError as exc:
            return exc


# ----------------------------------------------------------------------
# Batched golden labeling
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GoldenNetJob:
    """One net's golden-timing query, as :meth:`GoldenTimer.analyze` takes it.

    ``timer`` carries the operating point (drive resistance, vdd,
    thresholds, SI mode); jobs in one batch may use different timers.
    ``elmore`` optionally supplies the precomputed per-node Elmore vector
    (``elmore_delays(net, sink_loads=sink_loads)``, seconds) used for the
    settling horizon — the feature pipeline already holds it, and reusing
    it skips one reduce-and-solve per net without changing a bit.
    """

    timer: GoldenTimer
    net: RCNet
    input_slew: float  # seconds
    sink_loads: Optional[np.ndarray] = None  # farads, aligned with sinks
    elmore: Optional[np.ndarray] = None  # seconds, per node


def golden_analyze_many(jobs: Sequence[GoldenNetJob],
                        engine: Optional[BatchedEigenEngine] = None
                        ) -> List[Union[WireTimingResult, Exception]]:
    """Golden wire timing for a batch of nets — bitwise equal to scalar.

    Runs the exact :meth:`GoldenTimer.analyze` pipeline with the per-net
    LAPACK calls hoisted into stacks: capacitance assembly and SI
    injection per net, one grouped ``eigh`` across the batch, per-net
    bracket scans, then a single :func:`lockstep_crossings` bisection over
    every (net, node, level) triple.  Each job yields either a
    :class:`WireTimingResult` or the same typed exception the scalar call
    would have raised (``EstimationError`` subclasses, or the raw
    ``numpy.linalg.LinAlgError`` that a singular Elmore system produces) —
    one bad net never poisons its batchmates.
    """
    engine = engine if engine is not None else BatchedEigenEngine()
    results: List[Optional[Union[WireTimingResult, Exception]]] = \
        [None] * len(jobs)
    requests: List[SolveRequest] = []
    prepared: List[Optional[Tuple[np.ndarray, Optional[np.ndarray],
                                  float, Optional[np.ndarray]]]] = []
    with get_tracer().span("simulate.batch", nets=len(jobs)):
        for index, job in enumerate(jobs):
            timer, net = job.timer, job.net
            _NETS_ANALYZED.inc()
            try:
                loads = None if job.sink_loads is None \
                    else np.asarray(job.sink_loads, dtype=np.float64)
                caps = capacitance_vector(net, miller_factor=None,
                                          sink_loads=loads)
                if not (math.isfinite(job.input_slew)
                        and job.input_slew > 0.0):
                    raise InputError(
                        "input_slew must be positive and finite",
                        net=net.name, stage="simulate")
                ramp_time = job.input_slew / (timer.slew_high
                                              - timer.slew_low)
                if not (math.isfinite(ramp_time) and ramp_time > 0.0):
                    raise InputError(
                        "ramp_time must be positive and finite",
                        net=net.name, stage="simulate")
                injection = None
                if timer.si_mode and net.couplings:
                    injection = np.zeros(net.num_nodes)
                    slope = timer.vdd / ramp_time
                    for coupling in net.couplings:
                        injection[coupling.victim] -= (
                            timer.si_strength * coupling.activity
                            * coupling.cap * slope)
            except EstimationError as exc:
                results[index] = exc
                prepared.append(None)
                continue
            prepared.append((caps, loads, ramp_time, injection))
            requests.append(SolveRequest(net, caps, timer.drive_resistance))

        solves = engine.solve_many(requests)
        crossing_work: List[CrossingWork] = []
        work_meta: List[Tuple[int, GoldenNetJob, np.ndarray]] = []
        cursor = 0
        for index, job in enumerate(jobs):
            prep = prepared[index]
            if prep is None:
                continue
            caps, loads, ramp_time, injection = prep
            solve = solves[cursor]
            cursor += 1
            if isinstance(solve, Exception):
                results[index] = solve
                continue
            timer, net = job.timer, job.net
            try:
                solution = TransientSolution(
                    net, timer.drive_resistance, timer.vdd, ramp_time,
                    caps, injection=injection, solve=solve)
                # Same settling horizon as GoldenTimer._horizon.
                total_cap = float(caps.sum())
                elmore = job.elmore if job.elmore is not None \
                    else elmore_delays(net, sink_loads=loads)
                tau = timer.drive_resistance * total_cap \
                    + float(elmore.max())
                horizon = solution.ramp_time + 40.0 * max(tau, 1e-15)

                v_mid = timer.delay_threshold * timer.vdd
                v_lo = timer.slew_low * timer.vdd
                v_hi = timer.slew_high * timer.vdd
                probes = [net.source, *net.sinks]
                nodes = np.asarray(
                    [node for node in probes for _ in range(3)],
                    dtype=np.intp)
                levels = np.asarray([v_mid, v_lo, v_hi] * len(probes))
                _CROSSINGS.inc(int(nodes.size))
                lo, hi = solution.bracket_crossings(nodes, levels, horizon)
            except (EstimationError, np.linalg.LinAlgError) as exc:
                results[index] = exc
                continue
            crossing_work.append(CrossingWork(solution, nodes, levels,
                                              lo, hi))
            work_meta.append((index, job, nodes))

        all_times = lockstep_crossings(crossing_work)
        for (index, job, nodes), times in zip(work_meta, all_times):
            net = job.net
            t_src_mid, t_src_lo, t_src_hi = times[0], times[1], times[2]
            result = WireTimingResult(
                net.name, source_slew=float(t_src_hi - t_src_lo))
            for i, sink in enumerate(net.sinks):
                t_mid, t_lo, t_hi = times[3 + 3 * i: 6 + 3 * i]
                result.sink_timings.append(SinkTiming(
                    sink=sink, delay=float(t_mid - t_src_mid),
                    slew=float(t_hi - t_lo)))
            try:
                require_finite(result.delays(), "golden delays",
                               net=net.name, stage="simulate")
                require_finite(result.slews(), "golden slews",
                               net=net.name, stage="simulate")
            except EstimationError as exc:
                results[index] = exc
                continue
            results[index] = result
    return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Cache prime passes (STA path levels, serving batch windows)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WirePrimeRequest:
    """One net a wire-timing pass is about to query.

    Collected by STA (all nets on the paths under analysis) and by the
    serving engine (all queries of a batch window), then handed to a
    model's ``prime_nets`` hook so the batch layer can fill the relevant
    cache in bulk before the per-net queries start.
    """

    net: RCNet
    sink_loads: np.ndarray  # farads, aligned with net.sinks
    drive_resistance: float  # ohms


def prime_awe(requests: Sequence[WirePrimeRequest], slew_low: float = 0.1,
              slew_high: float = 0.9) -> int:
    """Fill the AWE step cache for every request's sink nodes, batched.

    Computes exactly what ``awe2_timing(net, sink_loads, nodes=net.sinks)``
    would cache — same moment recursion (size-grouped stacks), same Padé
    fits, same per-element crossing bisection — so a later scalar lookup
    hits with bitwise-identical arrays.  Nets whose two-pole response
    never settles are skipped (the scalar query then recomputes and raises
    the same tier failure it always did).  Returns the number of nets
    primed; never raises for an individual bad net.
    """
    cache = get_awe_cache()
    if not cache.enabled or not requests:
        return 0
    todo: List[Tuple[bytes, RCNet, np.ndarray, List[int]]] = []
    seen: Dict[bytes, bool] = {}
    for request in requests:
        net = request.net
        try:
            loads = np.asarray(request.sink_loads, dtype=np.float64)
            wanted = _wanted_nodes(net, net.sinks)
            key = step_key(net, loads, slew_low, slew_high, wanted)
        except EstimationError:
            continue
        if key in seen or cache.contains(key):
            continue
        seen[key] = True
        todo.append((key, net, loads, wanted))
    if not todo:
        return 0

    # Stage 1: moment matrices through size-grouped stacked solves.
    groups: Dict[int, List[int]] = {}
    systems: List[Optional[object]] = []
    for position, (key, net, loads, wanted) in enumerate(todo):
        try:
            system = reduce_source(net, None, loads)
        except EstimationError:
            systems.append(None)
            continue
        systems.append(system)
        groups.setdefault(len(system.nodes), []).append(position)
    m_full: List[Optional[np.ndarray]] = [None] * len(todo)
    for size in sorted(groups):
        positions = groups[size]
        _GROUPS.inc()
        _OCCUPANCY.observe(len(positions))
        started = time.perf_counter()
        g_stack = np.stack([systems[p].g for p in positions])
        caps_stack = np.stack([systems[p].caps for p in positions])
        try:
            stacked = stacked_moments(g_stack, caps_stack, order=3)
        except np.linalg.LinAlgError:
            # A singular system anywhere in the stack: drop the whole
            # group; scalar queries will report the failure per net.
            continue
        finally:
            get_metrics().histogram(
                f"batch.bucket_seconds.{size}").observe(
                max(time.perf_counter() - started, 1e-12))
        for row, position in enumerate(positions):
            net = todo[position][1]
            full = np.zeros((3, net.num_nodes), dtype=np.float64)
            full[:, systems[position].nodes] = stacked[row]
            m_full[position] = full

    # Stage 2: Padé fits per net, then one crossing bisection across all.
    fits: List[Tuple[int, np.ndarray, np.ndarray, List[int], int]] = []
    params_flat: List[Tuple[float, ...]] = []
    for position, (key, net, loads, wanted) in enumerate(todo):
        m = m_full[position]
        if m is None:
            continue
        delays = np.zeros(net.num_nodes)
        slews = np.zeros(net.num_nodes)
        fitted, params = fit_step_params(m, wanted, slew_low, slew_high,
                                         delays, slews)
        fits.append((position, delays, slews, fitted, len(params_flat)))
        params_flat.extend(params)
    if params_flat:
        p1, p2, r1, r2, guesses = (np.array(column)
                                   for column in zip(*params_flat))
        times, ok = _first_crossings_masked(
            p1, p2, r1, r2, guesses,
            np.array([0.5, slew_low, slew_high]))
    primed = 0
    for position, delays, slews, fitted, offset in fits:
        key = todo[position][0]
        if fitted:
            rows = slice(offset, offset + len(fitted))
            if not np.all(ok[rows]):
                continue  # non-settling fit: leave for the scalar path
            delays[fitted] = times[rows, 0]
            slews[fitted] = times[rows, 2] - times[rows, 1]
        cache.put(key, delays, slews)
        primed += 1
    _AWE_PRIMED.inc(primed)
    return primed


def prime_solve_cache(requests: Sequence[WirePrimeRequest],
                      engine: Optional[BatchedEigenEngine] = None) -> int:
    """Fill the golden :class:`SolveCache` for every request, batched.

    The golden-tier analogue of :func:`prime_awe`: one grouped ``eigh``
    replaces the per-net decompositions a later scalar
    :meth:`GoldenTimer.solve` would run.  Returns the number of nets whose
    decomposition is now cached; bad nets are skipped, never raised.
    """
    cache = get_solve_cache()
    if not cache.enabled or not requests:
        return 0
    engine = engine if engine is not None else BatchedEigenEngine()
    solve_requests = []
    for request in requests:
        try:
            caps = capacitance_vector(
                request.net, miller_factor=None,
                sink_loads=np.asarray(request.sink_loads,
                                      dtype=np.float64))
        except EstimationError:
            continue
        solve_requests.append(SolveRequest(request.net, caps,
                                           request.drive_resistance))
    outcomes = engine.solve_many(solve_requests)
    return sum(1 for outcome in outcomes
               if isinstance(outcome, EigenSolve))
