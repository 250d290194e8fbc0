"""Deterministic fault-injection harness for the estimation pipeline.

Produces the corrupted artifacts the robustness test-suite drives through
every entry point: RC nets with NaN/zero/negative parasitics (bypassing the
builder's validation, exactly as corrupted memory or a buggy extractor
would), truncated and value-corrupted SPEF text, NaN-poisoned model weights,
and pathologically conditioned nets.  Everything is seeded, so a failing
fault case reproduces bit-identically.
"""

from __future__ import annotations

import time
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..rcnet.builder import RCNetBuilder
from ..rcnet.graph import CouplingCap, RCEdge, RCNet, RCNode
from .errors import InputError

RC_FAULT_MODES = ("nan_resistance", "zero_resistance", "negative_resistance",
                  "nan_cap", "inf_cap")


def _raw_node(index: int, name: str, cap: float) -> RCNode:
    node = object.__new__(RCNode)
    object.__setattr__(node, "index", index)
    object.__setattr__(node, "name", name)
    object.__setattr__(node, "cap", cap)
    return node


def _raw_edge(u: int, v: int, resistance: float) -> RCEdge:
    edge = object.__new__(RCEdge)
    object.__setattr__(edge, "u", u)
    object.__setattr__(edge, "v", v)
    object.__setattr__(edge, "resistance", resistance)
    return edge


def _raw_net(name: str, nodes: Sequence[RCNode], edges: Sequence[RCEdge],
             source: int, sinks: Sequence[int],
             couplings: Sequence[CouplingCap] = ()) -> RCNet:
    """Assemble an :class:`RCNet` without running validation.

    Corrupted values (zero/negative resistance) would be rejected by the
    constructors; real corruption happens *after* validation, which is what
    the guards downstream must survive.
    """
    net = object.__new__(RCNet)
    net.name = name
    net.nodes = tuple(nodes)
    net.edges = tuple(edges)
    net.source = int(source)
    net.sinks = tuple(int(s) for s in sinks)
    net.couplings = tuple(couplings)
    net._adjacency = None
    net._shortest_paths = None
    net._quiet_caps = None
    return net


class FaultInjector:
    """Seeded source of corrupted pipeline artifacts."""

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # RC-value corruption
    # ------------------------------------------------------------------
    def corrupt_rc_values(self, net: RCNet, mode: str = "nan_resistance",
                          count: int = 1) -> RCNet:
        """Copy ``net`` with ``count`` parasitic values corrupted.

        ``mode`` is one of :data:`RC_FAULT_MODES`.  Corruption targets are
        drawn from this injector's rng, so campaigns are reproducible.
        """
        if mode not in RC_FAULT_MODES:
            raise InputError(f"unknown RC fault mode {mode!r}; "
                             f"choose from {RC_FAULT_MODES}",
                             net=net.name, stage="fault-inject")
        nodes = list(net.nodes)
        edges = list(net.edges)
        if mode in ("nan_cap", "inf_cap"):
            value = float("nan") if mode == "nan_cap" else float("inf")
            capped = [i for i, node in enumerate(nodes) if node.cap > 0.0] \
                or list(range(len(nodes)))
            for index in self.rng.choice(len(capped),
                                         size=min(count, len(capped)),
                                         replace=False):
                target = capped[int(index)]
                nodes[target] = _raw_node(target, nodes[target].name, value)
        else:
            value = {"nan_resistance": float("nan"), "zero_resistance": 0.0,
                     "negative_resistance": -100.0}[mode]
            for index in self.rng.choice(len(edges),
                                         size=min(count, len(edges)),
                                         replace=False):
                edge = edges[int(index)]
                edges[int(index)] = _raw_edge(edge.u, edge.v, value)
        return _raw_net(net.name, nodes, edges, net.source, net.sinks,
                        net.couplings)

    # ------------------------------------------------------------------
    # SPEF corruption
    # ------------------------------------------------------------------
    def truncate_spef(self, text: str, fraction: float = 0.6) -> str:
        """Cut SPEF text mid-stream, preferably inside a ``*D_NET`` block."""
        if not 0.0 < fraction < 1.0:
            raise ValueError("fraction must be in (0, 1)")
        lines = text.splitlines()
        cut = max(1, int(len(lines) * fraction))
        # Move the cut inside a net block (past its header, before *END) so
        # the truncation leaves an unterminated *D_NET behind.
        for offset in range(cut, len(lines)):
            if lines[offset].startswith("*END"):
                cut = offset
                break
        return "\n".join(lines[:cut])

    def corrupt_spef_values(self, text: str, count: int = 1) -> str:
        """Replace numeric fields of ``*RES``/``*CAP`` records with garbage."""
        lines = text.splitlines()
        numeric = [i for i, line in enumerate(lines)
                   if line and line.split()[0].isdigit()]
        if not numeric:
            return text
        for index in self.rng.choice(len(numeric),
                                     size=min(count, len(numeric)),
                                     replace=False):
            target = numeric[int(index)]
            parts = lines[target].split()
            parts[-1] = "NOT_A_NUMBER"
            lines[target] = " ".join(parts)
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Model-weight corruption
    # ------------------------------------------------------------------
    def inject_nan_weights(self, model, fraction: float = 0.05,
                           parameters: Optional[int] = None) -> int:
        """Poison a fraction of each parameter tensor with NaN, in place.

        ``model`` is anything exposing ``parameters()`` (an
        :class:`~repro.nn.layers.Module` or a fitted estimator's model).
        Returns the number of poisoned entries.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        params = list(model.parameters())
        if parameters is not None:
            picked = self.rng.choice(len(params),
                                     size=min(parameters, len(params)),
                                     replace=False)
            params = [params[int(i)] for i in picked]
        poisoned = 0
        for param in params:
            flat = param.data.reshape(-1)
            hits = max(1, int(flat.size * fraction))
            where = self.rng.choice(flat.size, size=hits, replace=False)
            flat[where] = float("nan")
            poisoned += hits
        return poisoned


    # ------------------------------------------------------------------
    # Latency injection (slow tiers)
    # ------------------------------------------------------------------
    def slow_tier(self, model, delay_s: float, jitter_s: float = 0.0,
                  every: int = 1,
                  sleep: Callable[[float], None] = time.sleep
                  ) -> "SlowTierModel":
        """Wrap a wire-timing model so some calls stall before answering.

        Delays are drawn from this injector's rng, so a campaign's latency
        pattern is reproducible.  ``sleep`` is injectable: production chaos
        runs keep ``time.sleep``, unit tests pass a recording fake so
        timeout paths are exercised without real clocks.
        """
        return SlowTierModel(model, delay_s, jitter_s=jitter_s, every=every,
                             rng=self.rng, sleep=sleep)


class SlowTierModel:
    """A :class:`~repro.design.sta.WireTimingModel` with injected latency.

    Every ``every``-th call sleeps ``delay_s`` plus a seeded uniform jitter
    in ``[0, jitter_s)`` before delegating to the wrapped model; the answer
    itself is untouched.  This is the deterministic stand-in for a tier
    that has gone slow (cold cache, swapping, contended accelerator), used
    to drive the serve layer's deadline paths.
    """

    def __init__(self, model, delay_s: float, jitter_s: float = 0.0,
                 every: int = 1, rng: Optional[np.random.Generator] = None,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if delay_s < 0.0 or jitter_s < 0.0:
            raise ValueError("delay_s and jitter_s must be non-negative")
        if every < 1:
            raise ValueError("every must be >= 1")
        self.model = model
        self.delay_s = float(delay_s)
        self.jitter_s = float(jitter_s)
        self.every = int(every)
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.sleep = sleep
        self.calls = 0
        self.delays_injected: List[float] = []

    def wire_timing(self, net, input_slew, sink_loads, drive_resistance,
                    context=None):
        self.calls += 1
        if self.calls % self.every == 0:
            delay = self.delay_s
            if self.jitter_s:
                delay += float(self.rng.uniform(0.0, self.jitter_s))
            self.delays_injected.append(delay)
            self.sleep(delay)
        return self.model.wire_timing(net, input_slew, sink_loads,
                                      drive_resistance, context=context)

    @property
    def name(self) -> str:
        return f"slow({getattr(self.model, 'name', type(self.model).__name__)})"


# ----------------------------------------------------------------------
# Pathologically conditioned nets (shared by tests and benchmarks)
# ----------------------------------------------------------------------
def zero_cap_junction_chain(n_nodes: int = 8,
                            resistance: float = 100.0,
                            sink_cap: float = 1e-15) -> RCNet:
    """Chain whose interior nodes are pure junctions (zero capacitance).

    Only the sink carries charge; without the ``_MIN_CAP`` regularization
    the symmetrized MNA operator would be singular.
    """
    builder = RCNetBuilder("zero_cap_chain")
    builder.add_node("n0", 0.0)
    for i in range(1, n_nodes):
        cap = sink_cap if i == n_nodes - 1 else 0.0
        builder.add_node(f"n{i}", cap)
        builder.add_edge(f"n{i-1}", f"n{i}", resistance)
    builder.set_source("n0")
    builder.add_sink(f"n{n_nodes - 1}")
    return builder.build()


def resistance_spread_chain(decades: float = 6.0, n_stages: int = 7,
                            cap: float = 1e-15) -> RCNet:
    """Chain whose segment resistances span ``decades`` orders of magnitude."""
    builder = RCNetBuilder(f"r_spread_{decades:g}dec")
    builder.add_node("n0", cap)
    values = np.logspace(-decades / 2.0, decades / 2.0, n_stages)
    for i, resistance in enumerate(values, start=1):
        builder.add_node(f"n{i}", cap)
        builder.add_edge(f"n{i-1}", f"n{i}", float(resistance))
    builder.set_source("n0")
    builder.add_sink(f"n{n_stages}")
    return builder.build()


def coupling_only_sink_net(coupling_cap: float = 2e-15) -> RCNet:
    """Net whose sink has *only* coupling capacitance, no grounded cap."""
    builder = RCNetBuilder("coupling_only_sink")
    builder.add_node("drv", 1e-15)
    builder.add_node("mid", 0.0)
    builder.add_node("snk", 0.0)
    builder.add_edge("drv", "mid", 120.0)
    builder.add_edge("mid", "snk", 120.0)
    builder.add_coupling("snk", "aggressor:1", coupling_cap, activity=1.0)
    builder.set_source("drv")
    builder.add_sink("snk")
    return builder.build()


def singular_mna_net(spread: float = 1e18) -> RCNet:
    """Net whose reduced conductance matrix is numerically singular.

    Two segments ``spread`` apart in resistance push the operator's
    condition number far beyond double precision.
    """
    nodes = [_raw_node(0, "s", 1e-15), _raw_node(1, "m", 1e-15),
             _raw_node(2, "t", 1e-15)]
    edges = [_raw_edge(0, 1, 1.0 / spread), _raw_edge(1, 2, spread)]
    return _raw_net("singular_mna", nodes, edges, source=0, sinks=[2])


def pathological_nets() -> List[RCNet]:
    """The standard campaign targets for numerical-guard testing."""
    return [zero_cap_junction_chain(), resistance_spread_chain(),
            coupling_only_sink_net(), singular_mna_net()]
