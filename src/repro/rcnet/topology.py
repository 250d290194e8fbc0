"""Synthetic RC-net topology generators.

The paper extracts parasitics from routed OpenCore designs with StarRC; this
module is the substitution: deterministic, seedable generators producing the
same structural families —

* **chain** nets: the classic RC ladder of a point-to-point route;
* **star** nets: a short trunk fanning out to many sinks;
* **tree** nets: random routing trees with realistic branching;
* **non-tree** nets: trees with extra resistive loops, as created by via
  arrays, redundant routing and coupling-aware extraction on advanced nodes.

Value ranges default to plausible advanced-node wire parasitics (segment
resistance tens of ohms, segment capacitance around a femtofarad) so Elmore
delays land in the picosecond range the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .builder import RCNetBuilder
from .graph import FF, OHM, RCNet


@dataclass
class ParasiticRanges:
    """Log-uniform sampling ranges for parasitic values.

    Attributes
    ----------
    res_min, res_max:
        Segment resistance bounds in ohms.
    cap_min, cap_max:
        Per-node grounded capacitance bounds in farads.
    coupling_min, coupling_max:
        Coupling capacitance bounds in farads.
    """

    res_min: float = 5.0 * OHM
    res_max: float = 200.0 * OHM
    cap_min: float = 0.2 * FF
    cap_max: float = 4.0 * FF
    coupling_min: float = 0.3 * FF
    coupling_max: float = 3.0 * FF

    def __post_init__(self) -> None:
        # Log bounds are recomputed per sample otherwise — a measurable
        # cost at dataset-generation volume.  Same np.log values, so the
        # sampled parasitics are bit-identical.
        self._log_res = (np.log(self.res_min), np.log(self.res_max))
        self._log_cap = (np.log(self.cap_min), np.log(self.cap_max))
        self._log_coupling = (np.log(self.coupling_min),
                              np.log(self.coupling_max))

    def sample_resistance(self, rng: np.random.Generator) -> float:
        return float(np.exp(rng.uniform(*self._log_res)))

    def sample_cap(self, rng: np.random.Generator) -> float:
        return float(np.exp(rng.uniform(*self._log_cap)))

    def sample_coupling(self, rng: np.random.Generator) -> float:
        return float(np.exp(rng.uniform(*self._log_coupling)))


def chain_net(n_nodes: int, name: str = "chain",
              resistance: float = 50.0 * OHM, cap: float = 1.0 * FF) -> RCNet:
    """Uniform RC ladder with the far end as the only sink.

    The textbook distributed-wire model; Elmore delay has the closed form
    ``sum_i R_i * C_downstream(i)``, which the analysis tests check against.
    """
    if n_nodes < 2:
        raise ValueError("chain_net needs at least 2 nodes")
    builder = RCNetBuilder(name)
    for i in range(n_nodes):
        builder.add_node(f"{name}:{i}", cap=cap)
    for i in range(n_nodes - 1):
        builder.add_edge(f"{name}:{i}", f"{name}:{i + 1}", resistance)
    builder.set_source(f"{name}:0")
    builder.add_sink(f"{name}:{n_nodes - 1}")
    return builder.build()


def star_net(n_sinks: int, name: str = "star",
             resistance: float = 50.0 * OHM, cap: float = 1.0 * FF) -> RCNet:
    """One hub node fanning out to ``n_sinks`` sinks (high-fanout net)."""
    if n_sinks < 1:
        raise ValueError("star_net needs at least 1 sink")
    builder = RCNetBuilder(name)
    builder.add_node(f"{name}:src", cap=cap)
    builder.add_node(f"{name}:hub", cap=cap)
    builder.add_edge(f"{name}:src", f"{name}:hub", resistance)
    builder.set_source(f"{name}:src")
    for i in range(n_sinks):
        builder.add_node(f"{name}:s{i}", cap=cap)
        builder.add_edge(f"{name}:hub", f"{name}:s{i}", resistance)
        builder.add_sink(f"{name}:s{i}")
    return builder.build()


def random_tree_net(rng: np.random.Generator, n_nodes: int,
                    n_sinks: Optional[int] = None, name: str = "tree",
                    ranges: Optional[ParasiticRanges] = None,
                    coupling_prob: float = 0.0,
                    max_branching: int = 3) -> RCNet:
    """Random routing tree with log-uniform parasitics.

    Nodes are attached one at a time to a random existing node whose degree
    is below ``max_branching + 1``, mimicking Steiner-tree-like routing.
    Sinks are drawn from the leaves (all leaves when ``n_sinks`` is None or
    exceeds the leaf count).
    """
    if n_nodes < 2:
        raise ValueError("random_tree_net needs at least 2 nodes")
    ranges = ranges or ParasiticRanges()
    builder = RCNetBuilder(name)
    builder.add_node(f"{name}:0", cap=ranges.sample_cap(rng))
    degree = [0]
    for i in range(1, n_nodes):
        candidates = [j for j in range(i) if degree[j] <= max_branching]
        # Uniform replace=True choice IS one integers(0, len) draw inside
        # numpy's Generator, so indexing directly keeps the stream (and
        # every generated net) bit-identical while skipping the array
        # conversion overhead of rng.choice on a Python list.
        if candidates:
            parent = candidates[int(rng.integers(0, len(candidates)))]
        else:
            parent = int(rng.integers(0, i))
        builder.add_node(f"{name}:{i}", cap=ranges.sample_cap(rng))
        builder.add_edge(f"{name}:{parent}", f"{name}:{i}",
                         ranges.sample_resistance(rng))
        degree[parent] += 1
        degree.append(1)
    builder.set_source(f"{name}:0")

    leaves = [i for i in range(1, n_nodes) if degree[i] == 1]
    if not leaves:
        leaves = [n_nodes - 1]
    if n_sinks is None or n_sinks >= len(leaves):
        sinks = leaves
    else:
        sinks = sorted(int(s) for s in
                       rng.choice(leaves, size=n_sinks, replace=False))
    for sink in sinks:
        builder.add_sink(f"{name}:{sink}")

    _attach_couplings(builder, rng, n_nodes, name, ranges, coupling_prob)
    return builder.build()


def random_nontree_net(rng: np.random.Generator, n_nodes: int,
                       n_sinks: Optional[int] = None, n_loops: int = 2,
                       name: str = "nontree",
                       ranges: Optional[ParasiticRanges] = None,
                       coupling_prob: float = 0.3,
                       max_branching: int = 3) -> RCNet:
    """Random tree plus ``n_loops`` extra resistive edges, creating loops.

    This is the structural family the paper singles out (Table III): the
    loops defeat simple path tracing and the DAC20 loop-breaking heuristic.
    """
    tree = random_tree_net(rng, n_nodes, n_sinks, name, ranges,
                           coupling_prob=0.0, max_branching=max_branching)
    ranges = ranges or ParasiticRanges()
    builder = RCNetBuilder(name)
    for node in tree.nodes:
        builder.add_node(node.name, cap=node.cap)
    for edge in tree.edges:
        builder.add_edge(tree.nodes[edge.u].name, tree.nodes[edge.v].name,
                         edge.resistance)
    builder.set_source(tree.nodes[tree.source].name)
    for sink in tree.sinks:
        builder.add_sink(tree.nodes[sink].name)

    existing = {frozenset((e.u, e.v)) for e in tree.edges}
    added = 0
    attempts = 0
    while added < n_loops and attempts < 50 * max(1, n_loops):
        attempts += 1
        u, v = rng.choice(n_nodes, size=2, replace=False)
        key = frozenset((int(u), int(v)))
        if key in existing:
            continue
        existing.add(key)
        # Loop resistances skew slightly *low*: redundant routes carry real
        # current, so the loop visibly shifts delays versus any loop-broken
        # approximation (the failure mode of the DAC20 baseline).
        builder.add_edge(tree.nodes[int(u)].name, tree.nodes[int(v)].name,
                         ranges.sample_resistance(rng) * 0.7)
        added += 1

    _attach_couplings(builder, rng, n_nodes, name, ranges, coupling_prob)
    return builder.build()


def random_net(rng: np.random.Generator, name: str = "net",
               n_nodes_range: Sequence[int] = (6, 40),
               n_sinks_range: Sequence[int] = (1, 8),
               non_tree_prob: float = 0.3,
               ranges: Optional[ParasiticRanges] = None,
               coupling_prob: float = 0.25) -> RCNet:
    """Sample one net from the mixed tree / non-tree population.

    This is the workhorse of dataset generation: node count, sink count and
    tree-ness are drawn per net so a design contains the same structural mix
    the paper's Table II reports (roughly 25-40% non-tree nets).
    """
    n_nodes = int(rng.integers(n_nodes_range[0], n_nodes_range[1] + 1))
    max_sinks = max(1, min(n_sinks_range[1], n_nodes - 1))
    n_sinks = int(rng.integers(n_sinks_range[0], max_sinks + 1))
    if rng.random() < non_tree_prob:
        n_loops = int(rng.integers(1, 4))
        return random_nontree_net(rng, n_nodes, n_sinks, n_loops, name,
                                  ranges, coupling_prob)
    return random_tree_net(rng, n_nodes, n_sinks, name, ranges, coupling_prob)


def _attach_couplings(builder: RCNetBuilder, rng: np.random.Generator,
                      n_nodes: int, name: str, ranges: ParasiticRanges,
                      coupling_prob: float) -> None:
    """Attach coupling caps to random nodes with probability ``coupling_prob``."""
    if coupling_prob <= 0.0:
        return
    for i in range(n_nodes):
        if rng.random() < coupling_prob:
            builder.add_coupling(
                f"{name}:{i}", aggressor_name=f"aggr_{name}_{i}",
                cap=ranges.sample_coupling(rng),
                activity=float(rng.uniform(0.1, 0.9)))
