"""Wire-path feature extraction — the "Path" half of Table I.

Each wire path gets a 10-dimensional raw feature vector:

==  ====================  ================================================
 #  Table I name          Definition used here
==  ====================  ================================================
 0  downstream cap        Elmore downstream capacitance at the first
                          stage node of the path (the load the driver
                          sees down this route), fF
 1  stage delay           largest Elmore stage delay along the path, ps
 2  input slew            driver output transition time, ps
 3  dir. of drive cell    drive strength of the driving cell
 4  func. of drive cell   integer function encoding of the driving cell
 5  dir. of load cell     drive strength of the receiving cell
 6  func. of load cell    integer function encoding of the receiving cell
 7  ceff of load cell     effective (pin) capacitance of the receiver, fF
 8  Elmore delay          wire path Elmore delay, ps
 9  D2M delay             wire path D2M delay, ps
==  ====================  ================================================

The paper computes downstream capacitance and stage delays "through the
Elmore delay calculation"; we use the exact generalizations from
:mod:`repro.analysis` so the definitions hold on non-tree nets too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.d2m import d2m_from_moments
from ..analysis.elmore import downstream_caps, stage_delays
from ..analysis.mna import ReducedSystem, reduce_source
from ..analysis.moments import cached_moments, stacked_moments
from ..liberty.cell import Cell
from ..rcnet.graph import RCNet
from ..rcnet.paths import WirePath
from ..robustness.errors import EstimationError, InputError

PATH_FEATURE_NAMES = (
    "downstream_cap",
    "max_stage_delay",
    "input_slew",
    "drive_strength_driver",
    "function_driver",
    "drive_strength_load",
    "function_load",
    "ceff_load",
    "elmore_delay",
    "d2m_delay",
)

NUM_PATH_FEATURES = len(PATH_FEATURE_NAMES)

_FF = 1e-15
_PS = 1e-12


@dataclass(frozen=True)
class NetContext:
    """Electrical context a net is embedded in.

    Attributes
    ----------
    input_slew:
        Driver output transition time in seconds.
    drive_cell:
        The cell driving the net.
    load_cells:
        Receiving cells, aligned with ``net.sinks``.
    """

    input_slew: float
    drive_cell: Cell
    load_cells: Sequence[Cell]

    def sink_loads(self) -> np.ndarray:
        """Receiver pin capacitances in farads, aligned with the sinks."""
        return np.array([cell.input_cap for cell in self.load_cells])


@dataclass(frozen=True)
class NetAnalysis:
    """Precomputed per-net analytic vectors behind the path features.

    All three vectors are indexed by original node index.  ``elmore`` and
    ``d2m`` are delays in seconds; ``downstream`` is downstream capacitance
    in farads.  Produced either scalarly by :func:`analyze_net_features` or
    in size-grouped stacks by :func:`analyze_nets_for_features`; the two
    agree bitwise.
    """

    elmore: np.ndarray        # (n,) seconds
    d2m: np.ndarray           # (n,) seconds
    downstream: np.ndarray    # (n,) farads


def analyze_net_features(net: RCNet,
                         sink_loads: Optional[np.ndarray] = None) -> NetAnalysis:
    """Per-net analytic vectors from a single two-moment computation.

    One :func:`~repro.analysis.moments.cached_moments` call yields both the
    Elmore vector (``-m[0]``, bitwise equal to
    :func:`~repro.analysis.elmore.elmore_delays`) and the D2M metric, so
    feature extraction performs one reduction and two solves per net
    instead of two reductions and three solves — and zero of either when
    the solve cache has already seen the net.
    """
    m = cached_moments(net, order=2, sink_loads=sink_loads)
    elmore = -m[0]
    elmore[net.source] = 0.0    # undo the -0.0 the negation puts at the source
    return NetAnalysis(
        elmore=elmore,
        d2m=d2m_from_moments(m),
        downstream=downstream_caps(net, sink_loads=sink_loads),
    )


def analyze_nets_for_features(
        items: Sequence[Tuple[RCNet, Optional[np.ndarray]]],
) -> List[Optional[NetAnalysis]]:
    """Batch :func:`analyze_net_features` over many ``(net, sink_loads)``.

    Reduced systems are grouped by node count and pushed through
    :func:`~repro.analysis.moments.stacked_moments`, so each slice matches
    the scalar path bitwise.  Entries whose reduction or whose group solve
    fails come back ``None`` — the caller's scalar path recomputes (and
    re-raises the original error) for those nets, keeping per-net error
    isolation identical to the unbatched pipeline.
    """
    analyses: List[Optional[NetAnalysis]] = [None] * len(items)
    groups: Dict[int, List[Tuple[int, ReducedSystem]]] = {}
    for idx, (net, loads) in enumerate(items):
        try:
            system = reduce_source(net, None, loads)
        except EstimationError:
            continue
        groups.setdefault(len(system.nodes), []).append((idx, system))
    for size in sorted(groups):
        members = groups[size]
        g_stack = np.stack([system.g for _, system in members])
        caps_stack = np.stack([system.caps for _, system in members])
        try:
            stacked = stacked_moments(g_stack, caps_stack, 2)
        except np.linalg.LinAlgError:
            continue    # a singular member poisons the stack: all go scalar
        for row, (idx, system) in enumerate(members):
            net, loads = items[idx]
            m = np.zeros((2, net.num_nodes), dtype=np.float64)
            m[:, system.nodes] = stacked[row]
            elmore = -m[0]
            elmore[net.source] = 0.0
            analyses[idx] = NetAnalysis(
                elmore=elmore,
                d2m=d2m_from_moments(m),
                downstream=downstream_caps(net, sink_loads=loads),
            )
    return analyses


def extract_path_features(net: RCNet, paths: Sequence[WirePath],
                          context: NetContext,
                          analysis: Optional[NetAnalysis] = None) -> np.ndarray:
    """Raw path feature matrix ``H`` of shape ``(num_paths, 10)``.

    ``paths`` must be ordered like ``net.sinks`` (the order produced by
    :func:`repro.rcnet.paths.extract_wire_paths`).  ``analysis`` optionally
    supplies the per-net vectors precomputed by
    :func:`analyze_nets_for_features`; when omitted they are computed here,
    bitwise identically.
    """
    if len(context.load_cells) != net.num_sinks:
        raise InputError(
            f"context has {len(context.load_cells)} load cells for "
            f"{net.num_sinks} sinks", net=net.name, stage="features")
    sink_loads = context.sink_loads()
    if analysis is None:
        analysis = analyze_net_features(net, sink_loads=sink_loads)
    elmore, d2m, downstream = analysis.elmore, analysis.d2m, analysis.downstream
    sink_position = {sink: i for i, sink in enumerate(net.sinks)}

    features = np.zeros((len(paths), NUM_PATH_FEATURES), dtype=np.float64)
    for row, path in enumerate(paths):
        load_cell = context.load_cells[sink_position[path.sink]]
        stages = stage_delays(net, path, sink_loads=sink_loads,
                              downstream=downstream)
        first_stage_node = path.nodes[1] if len(path.nodes) > 1 else path.nodes[0]
        features[row, 0] = downstream[first_stage_node] / _FF
        features[row, 1] = (stages.max() if stages.size else 0.0) / _PS
        features[row, 2] = context.input_slew / _PS
        features[row, 3] = context.drive_cell.drive_strength
        features[row, 4] = context.drive_cell.function_id
        features[row, 5] = load_cell.drive_strength
        features[row, 6] = load_cell.function_id
        features[row, 7] = load_cell.input_cap / _FF
        features[row, 8] = elmore[path.sink] / _PS
        features[row, 9] = d2m[path.sink] / _PS
    return features
