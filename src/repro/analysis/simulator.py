"""Golden wire-timing reference: exact transient simulation of the RC net.

This module substitutes for the paper's sign-off timer (PrimeTime SI).  A
sign-off timer's wire delay is, at its core, the solution of the net's MNA
system driven by the driver output waveform; we compute that solution
*exactly*:

1. assemble ``C dv/dt = -G v + b u(t)`` with a Thevenin driver (ramp source
   behind a drive resistance) and, in SI mode, Miller-factor-scaled coupling
   capacitance modelling aggressor activity;
2. symmetrize with ``y = C^{1/2} v`` and eigendecompose the resulting
   symmetric positive-definite operator once per net — the decomposition is
   hoisted into a reusable :class:`EigenSolve` and memoized across queries
   (and across content-identical nets) by :mod:`repro.analysis.cache`;
3. evaluate the closed-form modal response to the piecewise-linear input at
   any time point, and bisect threshold crossings to sub-femtosecond
   tolerance.

Because the response is evaluated in closed form, the resulting delays and
slews are exact for the modelled circuit — a true golden reference, free of
integration error.

Units: resistances are ohms, capacitances farads, voltages volts, and every
time quantity (input slew, ramp time, horizon, delays, slews) is seconds.
Eigenvalues of the symmetrized operator are 1/seconds.

The crossing search is shared with the batched engine
(:mod:`repro.analysis.batch`): :meth:`TransientSolution.bracket_crossings`
scans one net, and :func:`lockstep_crossings` bisects any number of nets'
bracketed pairs in one flat vectorized loop with per-pair freeze masks, so
a batch of one is bitwise identical to a batch of many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import get_metrics, get_tracer
from ..rcnet.graph import OHM, RCNet
from ..robustness.errors import InputError, NumericalError
from ..robustness.guards import require_finite, symmetric_condition
from .cache import get_solve_cache, solve_key
from .elmore import elmore_delays
from .mna import capacitance_vector, conductance_matrix

# Always-on health counters (one integer add each; see repro.obs.metrics).
_NETS_ANALYZED = get_metrics().counter("simulator.nets_analyzed")
_DECOMPOSITIONS = get_metrics().counter("simulator.eigendecompositions")
_CAP_RETRIES = get_metrics().counter("simulator.cap_floor_retries")
_CROSSINGS = get_metrics().counter("simulator.crossing_searches")
_MATRIX_SIZE = get_metrics().histogram("simulator.matrix_size")

_MIN_CAP = 1e-20  # Farads; regularizes pure-junction (zero-cap) nodes.
# Numerical-health policy of the symmetrized operator: when its condition
# number exceeds _MAX_CONDITION, the minimum-cap floor is escalated by
# _CAP_ESCALATION (stiffening the fastest modes) up to _MAX_CAP_RETRIES
# times before the net is declared numerically hopeless.
_MAX_CONDITION = 1e12
_CAP_ESCALATION = 1e3
_MAX_CAP_RETRIES = 3


@dataclass(frozen=True)
class SinkTiming:
    """Golden timing of one wire path (source to one sink)."""

    sink: int
    delay: float
    slew: float


@dataclass
class WireTimingResult:
    """Golden timing of a whole net.

    Attributes
    ----------
    net_name:
        Name of the analyzed net.
    source_slew:
        Slew measured at the net source node (after the driver), seconds.
    sink_timings:
        One :class:`SinkTiming` per sink, aligned with ``net.sinks``.
    """

    net_name: str
    source_slew: float
    sink_timings: List[SinkTiming] = field(default_factory=list)

    def timing_for(self, sink: int) -> SinkTiming:
        for timing in self.sink_timings:
            if timing.sink == sink:
                return timing
        raise KeyError(f"no timing recorded for sink {sink}")

    def delays(self) -> np.ndarray:
        return np.array([t.delay for t in self.sink_timings])

    def slews(self) -> np.ndarray:
        return np.array([t.slew for t in self.sink_timings])


@dataclass(frozen=True)
class EigenSolve:
    """Reusable eigendecomposition of one net's symmetrized MNA operator.

    This is the expensive part of a :class:`TransientSolution` — everything
    that depends only on (topology, R, C, driver) and not on the input
    waveform.  Repeated timing queries on the same net (STA path
    re-analysis, throughput loops, separate slew models) reuse one
    ``EigenSolve`` instead of re-decomposing; the
    :mod:`~repro.analysis.cache` LRU shares it across content-identical
    nets.  Treat all arrays as immutable.
    """

    caps: np.ndarray          # cap vector after the _MIN_CAP floor, farads
    inv_sqrt_c: np.ndarray    # C^{-1/2} diagonal
    eigenvalues: np.ndarray   # of C^{-1/2} (G + g_drv e e^T) C^{-1/2}
    q: np.ndarray             # orthonormal eigenvectors, columns


def eigendecompose(net: RCNet, g: np.ndarray,
                   caps: np.ndarray) -> EigenSolve:
    """Eigendecompose the symmetrized operator, with regularized retry.

    Starting from the ``_MIN_CAP`` floor, the cap floor is escalated
    whenever the operator is too ill-conditioned for the closed-form
    solution to carry precision; a net that stays hopeless after
    ``_MAX_CAP_RETRIES`` escalations raises a typed
    :class:`~repro.robustness.errors.NumericalError` carrying its name.
    """
    require_finite(caps, "capacitance vector", net=net.name,
                   stage="simulate")
    _DECOMPOSITIONS.inc()
    _MATRIX_SIZE.observe(net.num_nodes)
    min_cap = _MIN_CAP
    condition = float("inf")
    for attempt in range(_MAX_CAP_RETRIES + 1):
        if attempt:
            _CAP_RETRIES.inc()
        floored = np.maximum(caps, min_cap)
        inv_sqrt_c = 1.0 / np.sqrt(floored)
        m = (inv_sqrt_c[:, None] * g) * inv_sqrt_c[None, :]
        m = 0.5 * (m + m.T)  # enforce exact symmetry before eigh
        try:
            eigenvalues, q = np.linalg.eigh(m)
        except np.linalg.LinAlgError:
            min_cap *= _CAP_ESCALATION
            continue
        condition = symmetric_condition(eigenvalues)
        if condition <= _MAX_CONDITION:
            return EigenSolve(floored, inv_sqrt_c, eigenvalues, q)
        min_cap *= _CAP_ESCALATION
    raise NumericalError(
        f"symmetrized MNA operator stays ill-conditioned "
        f"(cond={condition:.3e}) after {_MAX_CAP_RETRIES} cap-floor "
        f"escalations", net=net.name, stage="simulate")


class TransientSolution:
    """Closed-form modal solution of one net's transient response.

    Construction performs the eigendecomposition (unless a precomputed
    :class:`EigenSolve` is supplied); :meth:`voltage_at` then evaluates any
    node voltage at any time exactly.
    """

    def __init__(self, net: RCNet, drive_resistance: float, vdd: float,
                 ramp_time: float, caps: np.ndarray,
                 injection: Optional[np.ndarray] = None,
                 solve: Optional[EigenSolve] = None) -> None:
        if not (math.isfinite(drive_resistance) and drive_resistance > 0.0):
            raise InputError("drive_resistance must be positive and finite",
                             net=net.name, stage="simulate")
        if not (math.isfinite(ramp_time) and ramp_time > 0.0):
            raise InputError("ramp_time must be positive and finite",
                             net=net.name, stage="simulate")
        self.net = net
        self.vdd = vdd
        self.ramp_time = ramp_time

        g_drv = 1.0 / drive_resistance
        b = np.zeros(net.num_nodes)
        b[net.source] = g_drv

        if solve is None:
            g = conductance_matrix(net)
            g[net.source, net.source] += g_drv
            with get_tracer().span("simulate.decompose", net=net.name,
                                   nodes=net.num_nodes):
                solve = eigendecompose(net, g, caps)
        self.solve = solve
        inv_sqrt_c, q = solve.inv_sqrt_c, solve.q
        # G + g_drv e e^T is PD, so all eigenvalues are strictly positive;
        # clamp against roundoff.
        self._lam = np.maximum(solve.eigenvalues, 1e-6 / ramp_time * 1e-6)
        self._q = q
        self._beta = q.T @ (inv_sqrt_c * b)
        self._inv_sqrt_c = inv_sqrt_c
        self._slope = vdd / ramp_time
        # Aggressor charge injection (amperes per node), active during the
        # ramp window.  Modal coordinates: constant forcing term gamma.
        if injection is None:
            self._gamma = np.zeros(net.num_nodes)
        else:
            injection = np.asarray(injection, dtype=np.float64)
            if injection.shape != (net.num_nodes,):
                raise InputError("injection must have one current per node",
                                 net=net.name, stage="simulate")
            self._gamma = q.T @ (inv_sqrt_c * injection)
        # Modal state at the end of the ramp (start state is zero).
        self._z_ramp_end = self._z_during_ramp(ramp_time)

    # -- input waveform -------------------------------------------------
    def input_at(self, t: float) -> float:
        """Driver-side ideal ramp voltage at time ``t``."""
        if t <= 0.0:
            return 0.0
        if t >= self.ramp_time:
            return self.vdd
        return self._slope * t

    # -- modal solutions --------------------------------------------------
    def _z_during_ramp(self, t: float) -> np.ndarray:
        """Modal coordinates during the ramp segment (zero initial state).

        For dz/dt = -lam z + beta * c * t + gamma:
        z(t) = beta*c * (t/lam - (1 - exp(-lam t))/lam^2)
               + gamma * (1 - exp(-lam t))/lam.
        """
        lam = self._lam
        expf = -np.expm1(-lam * t)  # 1 - exp(-lam t), accurate for small args
        return (self._beta * self._slope * (t / lam - expf / lam ** 2)
                + self._gamma * expf / lam)

    def _z_after_ramp(self, t: float) -> np.ndarray:
        """Modal coordinates after the ramp (input held at vdd)."""
        lam = self._lam
        dt = t - self.ramp_time
        decay = np.exp(-lam * dt)
        steady = self._beta * self.vdd / lam
        return steady + (self._z_ramp_end - steady) * decay

    def _modal_at(self, ts: np.ndarray) -> np.ndarray:
        """Modal coordinates at every time in ``ts`` — shape (len(ts), N).

        The batched form of :meth:`_z_during_ramp`/:meth:`_z_after_ramp`;
        one vectorized evaluation replaces a Python-level loop over time
        points, which is what makes the crossing search cheap.
        """
        ts = np.asarray(ts, dtype=np.float64)
        lam = self._lam
        z = np.zeros((ts.size, lam.size))
        ramp = (ts > 0.0) & (ts <= self.ramp_time)
        if np.any(ramp):
            t = ts[ramp, None]
            expf = -np.expm1(-lam[None, :] * t)
            z[ramp] = (self._beta * self._slope * (t / lam - expf / lam ** 2)
                       + self._gamma * expf / lam)
        after = ts > self.ramp_time
        if np.any(after):
            dt = ts[after, None] - self.ramp_time
            decay = np.exp(-lam[None, :] * dt)
            steady = self._beta * self.vdd / lam
            z[after] = steady + (self._z_ramp_end - steady) * decay
        return z

    def voltage_at(self, t: float) -> np.ndarray:
        """Exact node voltage vector at time ``t`` (volts)."""
        if t <= 0.0:
            return np.zeros(self.net.num_nodes)
        z = self._z_during_ramp(t) if t <= self.ramp_time else self._z_after_ramp(t)
        return self._inv_sqrt_c * (self._q @ z)

    def node_voltage_at(self, node: int, t: float) -> float:
        """Exact voltage of one node at time ``t`` (volts)."""
        if t <= 0.0:
            return 0.0
        z = self._z_during_ramp(t) if t <= self.ramp_time else self._z_after_ramp(t)
        return float(self._inv_sqrt_c[node] * (self._q[node] @ z))

    def voltages_at(self, nodes: Sequence[int],
                    ts: np.ndarray) -> np.ndarray:
        """Voltages of ``nodes`` at every time in ``ts`` — shape (T, M)."""
        nodes = np.asarray(nodes, dtype=np.intp)
        z = self._modal_at(ts)
        return (z @ self._q[nodes].T) * self._inv_sqrt_c[nodes]

    # -- crossing search ---------------------------------------------------
    def bracket_crossings(self, nodes: Sequence[int],
                          levels: Sequence[float],
                          horizon: float) -> Tuple[np.ndarray, np.ndarray]:
        """Bracket every ``(node, level)`` crossing with one coarse scan.

        A 256-point forward sweep over ``[0, horizon]`` finds, for each
        pair, the first grid interval whose right edge is at or above the
        level; returns ``(lo, hi)`` bracket arrays for
        :func:`lockstep_crossings`.  Raises a typed
        :class:`~repro.robustness.errors.NumericalError` for the first
        pair whose voltage never reaches its level within ``horizon``.
        """
        nodes = np.asarray(nodes, dtype=np.intp)
        levels = np.asarray(levels, dtype=np.float64)
        samples = 256
        ts = np.linspace(0.0, horizon, samples + 1)
        scan = self.voltages_at(nodes, ts[1:]) >= levels
        reached = scan.any(axis=0)
        if not np.all(reached):
            bad = int(np.argmin(reached))
            raise NumericalError(
                f"node never reached {levels[bad]:.3f} V within "
                f"{horizon:.3e} s",
                net=self.net.name, sink=int(nodes[bad]), stage="simulate")
        first = scan.argmax(axis=0)
        # Grid point before the first crossing (0.0 at index 0) and the
        # crossing grid point itself.
        return ts[first], ts[1:][first]

    def crossing_times(self, nodes: Sequence[int], levels: Sequence[float],
                       horizon: float, tol: float = 1e-18) -> np.ndarray:
        """First times each ``(node, level)`` pair crosses, batched.

        :meth:`bracket_crossings` brackets every (monotone-in-practice)
        crossing in one vectorized sweep, then all pairs bisect in
        lockstep to ``tol`` seconds through :func:`lockstep_crossings` —
        the same primitive the batched engine runs across many nets, so
        the scalar path is literally a batch of one.
        """
        nodes = np.asarray(nodes, dtype=np.intp)
        levels = np.asarray(levels, dtype=np.float64)
        _CROSSINGS.inc(int(nodes.size))
        lo, hi = self.bracket_crossings(nodes, levels, horizon)
        return lockstep_crossings(
            [CrossingWork(self, nodes, levels, lo, hi)], tol=tol)[0]

    def crossing_time(self, node: int, level: float, horizon: float,
                      tol: float = 1e-18) -> float:
        """First time the node voltage crosses ``level`` volts.

        Single-pair convenience wrapper over :meth:`crossing_times`.
        """
        return float(self.crossing_times([node], [level], horizon, tol)[0])


@dataclass(frozen=True)
class CrossingWork:
    """One solution's bracketed ``(node, level)`` pairs, ready to bisect."""

    solution: TransientSolution
    nodes: np.ndarray    # (p,) node indices
    levels: np.ndarray   # (p,) threshold voltages, volts
    lo: np.ndarray       # (p,) bracket left edges, seconds
    hi: np.ndarray       # (p,) bracket right edges, seconds


def lockstep_crossings(work: Sequence[CrossingWork],
                       tol: float = 1e-18) -> List[np.ndarray]:
    """Bisect all bracketed crossings of all work items in one flat loop.

    Every (node, level) pair refines independently — per-pair freeze masks
    instead of shared early stops — so each answer depends only on its own
    bracket, never on what else shares the batch.  The modal dot products
    run through ``np.add.reduceat`` over ragged per-pair mode segments:
    the one reduction primitive whose per-segment sums are independent of
    neighbouring segments.  A batch of one is therefore bitwise identical
    to any larger batch, which is exactly the invariance the
    batched-vs-scalar property tests pin down.

    Returns one times array per work item, aligned with its pairs.
    """
    counts = [int(item.nodes.size) for item in work]
    if sum(counts) == 0:
        return [np.empty(0) for _ in work]
    # Flatten the (pair, mode) structure: per-mode arrays hold each pair's
    # modal constants back to back; ``offsets`` marks the segment starts.
    lam_p, lam2_p, bs_p, gamma_p, steady_p, zre_p = [], [], [], [], [], []
    rows_p, rt_p, scale_p, level_p, lo_p, hi_p, len_p = [], [], [], [], [], [], []
    for item in work:
        sol = item.solution
        pairs = int(item.nodes.size)
        if pairs == 0:
            continue
        lam = sol._lam
        lam_p.append(np.tile(lam, pairs))
        lam2_p.append(np.tile(lam ** 2, pairs))
        bs_p.append(np.tile(sol._beta * sol._slope, pairs))
        gamma_p.append(np.tile(sol._gamma, pairs))
        steady_p.append(np.tile(sol._beta * sol.vdd / lam, pairs))
        zre_p.append(np.tile(sol._z_ramp_end, pairs))
        rows_p.append(sol._q[item.nodes].ravel())
        rt_p.append(np.full(pairs * lam.size, sol.ramp_time))
        scale_p.append(sol._inv_sqrt_c[item.nodes])
        level_p.append(np.asarray(item.levels, dtype=np.float64))
        lo_p.append(np.asarray(item.lo, dtype=np.float64))
        hi_p.append(np.asarray(item.hi, dtype=np.float64))
        len_p.append(np.full(pairs, lam.size, dtype=np.intp))
    lam_f = np.concatenate(lam_p)
    lam2_f = np.concatenate(lam2_p)
    bs_f = np.concatenate(bs_p)
    gamma_f = np.concatenate(gamma_p)
    steady_f = np.concatenate(steady_p)
    zre_f = np.concatenate(zre_p)
    rows_f = np.concatenate(rows_p)
    rt_f = np.concatenate(rt_p)
    scale = np.concatenate(scale_p)
    level = np.concatenate(level_p)
    lo = np.concatenate(lo_p)
    hi = np.concatenate(hi_p)
    seg_len = np.concatenate(len_p)
    offsets = np.zeros(seg_len.size, dtype=np.intp)
    np.cumsum(seg_len[:-1], out=offsets[1:])
    z = np.empty_like(lam_f)
    active = (hi - lo) > tol
    while np.any(active):
        # Frozen pairs keep evaluating at ``hi`` (their state no longer
        # changes); only active pairs move their brackets.
        mid = np.where(active, 0.5 * (lo + hi), hi)
        t = np.repeat(mid, seg_len)
        ramp = t <= rt_f
        tr = t[ramp]
        lamr = lam_f[ramp]
        expf = -np.expm1(-lamr * tr)
        z[ramp] = (bs_f[ramp] * (tr / lamr - expf / lam2_f[ramp])
                   + gamma_f[ramp] * expf / lamr)
        after = ~ramp
        dt = t[after] - rt_f[after]
        decay = np.exp(-lam_f[after] * dt)
        z[after] = steady_f[after] + (zre_f[after] - steady_f[after]) * decay
        v = np.add.reduceat(z * rows_f, offsets) * scale
        ge = v >= level
        hi = np.where(active & ge, mid, hi)
        lo = np.where(active & ~ge, mid, lo)
        active = (hi - lo) > tol
    times = 0.5 * (lo + hi)
    out: List[np.ndarray] = []
    start = 0
    for count in counts:
        out.append(times[start:start + count])
        start += count
    return out


class GoldenTimer:
    """Sign-off-quality wire timing engine (PrimeTime-SI substitute).

    Parameters
    ----------
    drive_resistance:
        Thevenin resistance of the driving cell, ohms.
    vdd:
        Supply voltage (thresholds are relative, so the value only sets the
        scale), volts.
    si_mode:
        When ``True``, crosstalk is modelled dynamically: every coupling
        capacitance injects aggressor switching current
        ``i = -si_strength * activity * C_c * dV/dt`` at its victim node
        during the input transition (worst-case opposite-phase aggressors,
        the sign-off assumption).  The resulting delay push-out depends on
        *where* on the net each aggressor couples — global structural
        information that no per-path scalar feature carries, which is
        precisely the signal the paper's graph learning exploits.
    si_strength:
        Scale of the aggressor injection (ignored when ``si_mode=False``).
    delay_threshold, slew_low, slew_high:
        Measurement thresholds as fractions of ``vdd``.  Defaults (50%,
        10%, 90%) match common sign-off settings.

    Notes
    -----
    Linear RC nets respond symmetrically to rising and falling inputs, so
    rise and fall timing coincide; the ``transition`` argument of
    :meth:`analyze` exists for API parity with sign-off timers.
    """

    def __init__(self, drive_resistance: float = 100.0 * OHM, vdd: float = 0.8,
                 si_mode: bool = True, si_strength: float = 1.0,
                 delay_threshold: float = 0.5, slew_low: float = 0.1,
                 slew_high: float = 0.9) -> None:
        if not 0.0 < slew_low < delay_threshold < slew_high < 1.0:
            raise ValueError("thresholds must satisfy 0 < low < mid < high < 1")
        if si_strength < 0.0:
            raise ValueError("si_strength must be non-negative")
        self.drive_resistance = drive_resistance
        self.vdd = vdd
        self.si_mode = si_mode
        self.si_strength = si_strength
        self.delay_threshold = delay_threshold
        self.slew_low = slew_low
        self.slew_high = slew_high

    # ------------------------------------------------------------------
    def solve(self, net: RCNet, input_slew: float,
              sink_loads: Optional[Sequence[float]] = None,
              caps: Optional[np.ndarray] = None) -> TransientSolution:
        """Build the closed-form transient solution for one net.

        The eigendecomposition — the only expensive part — is memoized in
        the process-wide :class:`~repro.analysis.cache.SolveCache`, keyed
        by the content of (topology, R, C, driver); repeated queries on the
        same or a content-identical net reuse the stored
        :class:`EigenSolve` bit-identically.
        """
        if not (math.isfinite(input_slew) and input_slew > 0.0):
            raise InputError("input_slew must be positive and finite",
                             net=net.name, stage="simulate")
        if caps is None:
            loads = None if sink_loads is None \
                else np.asarray(sink_loads, dtype=np.float64)
            caps = capacitance_vector(net, miller_factor=None,
                                      sink_loads=loads)
        # The input slew is a 10/90 measurement; the underlying linear ramp
        # spans the full swing, hence the 0.8 factor.
        ramp_time = input_slew / (self.slew_high - self.slew_low)
        injection = None
        if self.si_mode and net.couplings:
            # Opposite-phase aggressors ramping alongside the victim pull
            # charge out of the victim node: i = -C_c * a * Vdd / T_ramp.
            injection = np.zeros(net.num_nodes)
            slope = self.vdd / ramp_time
            for coupling in net.couplings:
                injection[coupling.victim] -= (
                    self.si_strength * coupling.activity * coupling.cap * slope)
        cache = get_solve_cache()
        key = solve_key(net, caps, self.drive_resistance) if cache.enabled \
            else None
        solve = cache.get(key) if key is not None else None
        solution = TransientSolution(net, self.drive_resistance, self.vdd,
                                     ramp_time, caps, injection=injection,
                                     solve=solve)
        if key is not None and solve is None:
            cache.put(key, solution.solve)
        return solution

    def analyze(self, net: RCNet, input_slew: float,
                sink_loads: Optional[Sequence[float]] = None,
                transition: str = "rise") -> WireTimingResult:
        """Golden wire delay and slew for every sink of ``net``.

        Wire delay is measured from the 50% crossing of the *source node*
        (driver output) to the 50% crossing of each sink, matching how STA
        separates cell delay from wire delay.  Slew is the 10%-to-90%
        transition time at each sink.
        """
        if transition not in ("rise", "fall"):
            raise InputError(f"unknown transition {transition!r}",
                             net=net.name, stage="simulate")
        _NETS_ANALYZED.inc()
        with get_tracer().span("simulate.net", net=net.name,
                               sinks=net.num_sinks):
            return self._analyze(net, input_slew, sink_loads)

    def _analyze(self, net: RCNet, input_slew: float,
                 sink_loads: Optional[Sequence[float]]) -> WireTimingResult:
        # Assemble the capacitance vector once; solve() and the settling
        # horizon below share it instead of rebuilding it per query.
        loads = None if sink_loads is None \
            else np.asarray(sink_loads, dtype=np.float64)
        caps = capacitance_vector(net, miller_factor=None, sink_loads=loads)
        solution = self.solve(net, input_slew, sink_loads, caps=caps)
        horizon = self._horizon(net, solution, caps, loads)

        v_mid = self.delay_threshold * self.vdd
        v_lo = self.slew_low * self.vdd
        v_hi = self.slew_high * self.vdd

        # One batched crossing search for the source and every sink at all
        # three thresholds — the per-pair ordering mirrors the historical
        # sequential calls, including which pair raises first on failure.
        probes = [net.source, *net.sinks]
        nodes = [node for node in probes for _ in range(3)]
        levels = [v_mid, v_lo, v_hi] * len(probes)
        times = solution.crossing_times(nodes, levels, horizon)

        t_src_mid, t_src_lo, t_src_hi = times[0], times[1], times[2]
        result = WireTimingResult(net.name,
                                  source_slew=float(t_src_hi - t_src_lo))
        for i, sink in enumerate(net.sinks):
            t_mid, t_lo, t_hi = times[3 + 3 * i: 6 + 3 * i]
            result.sink_timings.append(SinkTiming(
                sink=sink, delay=float(t_mid - t_src_mid),
                slew=float(t_hi - t_lo)))
        require_finite(result.delays(), "golden delays", net=net.name,
                       stage="simulate")
        require_finite(result.slews(), "golden slews", net=net.name,
                       stage="simulate")
        return result

    def _horizon(self, net: RCNet, solution: TransientSolution,
                 caps: np.ndarray,
                 loads: Optional[np.ndarray]) -> float:
        """Conservative upper bound on when all nodes have settled."""
        total_cap = float(caps.sum())
        elmore = elmore_delays(net, sink_loads=loads)
        tau = self.drive_resistance * total_cap + float(elmore.max())
        return solution.ramp_time + 40.0 * max(tau, 1e-15)

    # ------------------------------------------------------------------
    def analyze_paths(self, net: RCNet, input_slew: float,
                      sink_loads: Optional[Sequence[float]] = None
                      ) -> Dict[int, SinkTiming]:
        """Timing keyed by sink node index, one entry per wire path."""
        result = self.analyze(net, input_slew, sink_loads)
        return {timing.sink: timing for timing in result.sink_timings}


__all__ = ["SinkTiming", "WireTimingResult", "EigenSolve", "eigendecompose",
           "TransientSolution", "CrossingWork", "lockstep_crossings",
           "GoldenTimer"]
