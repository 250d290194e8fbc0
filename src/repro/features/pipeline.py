"""Feature pipeline: per-net graph samples, packs of them, standardization.

A :class:`NetSample` is the fully numeric view of one RC net that every
model in this repo (GNNTrans and all baselines) consumes: node feature
matrix ``X``, resistance-weighted adjacency ``A``, per-path feature vectors
``H`` with node-membership index lists, and golden slew/delay labels in
picoseconds (Fig. 5 of the paper, in data-structure form).

:func:`pack` stacks several samples into one :class:`NetBatch` of
zero-padded per-net slices, the input of every model's forward pass.
It pads each net's :class:`NetArrays`, which a fit builds once per net
(:func:`net_arrays`, :func:`pack_arrays`).

:class:`FeatureScaler` standardizes node and path features with statistics
fitted on the training split only, as proper ML hygiene requires.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..analysis.simulator import GoldenTimer, WireTimingResult
from ..obs import get_metrics, get_tracer
from ..rcnet.graph import RCNet
from ..rcnet.paths import WirePath, extract_wire_paths
from .node_features import extract_node_features
from .path_features import (NUM_PATH_FEATURES, NetAnalysis, NetContext,
                            extract_path_features)

_PS = 1e-12
# Resistance scale (ohms) dividing the weighted adjacency so the GNN
# aggregation weights land near unity.
ADJACENCY_RESISTANCE_SCALE = 100.0

_SAMPLES_BUILT = get_metrics().counter("features.samples_built")


@dataclass
class PathRecord:
    """One wire path of a sample: node membership, features and labels.

    ``input_slew_ps`` keeps the *raw* driver transition (also present,
    standardized, inside ``features``) so estimators can predict the slew
    degradation ``label_slew - input_slew_ps`` and reconstruct absolute
    slew at inference time.
    """

    sink: int
    node_indices: Tuple[int, ...]
    features: np.ndarray          # (NUM_PATH_FEATURES,)
    label_slew: float             # golden wire slew, ps
    label_delay: float            # golden wire delay, ps
    input_slew_ps: float = 0.0    # raw driver transition, ps


@dataclass
class NetSample:
    """Fully numeric training/evaluation sample for one net."""

    name: str
    design: str
    is_tree: bool
    node_features: np.ndarray     # (N, NUM_NODE_FEATURES)
    adjacency: np.ndarray         # (N, N) scaled resistance weights
    paths: List[PathRecord] = field(default_factory=list)

    @property
    def num_nodes(self) -> int:
        return self.node_features.shape[0]

    @property
    def num_paths(self) -> int:
        return len(self.paths)

    def labels(self) -> Tuple[np.ndarray, np.ndarray]:
        """(slews, delays) label vectors in picoseconds."""
        slews = np.array([p.label_slew for p in self.paths])
        delays = np.array([p.label_delay for p in self.paths])
        return slews, delays


def pooling_matrices(sample: NetSample
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One net's ``(mean, sum, sink)`` path-pooling operators, each (P, N).

    Row ``q`` of ``mean`` holds ``1 / N_q`` at each node path ``q``
    visits (Eq. 4's average), ``sum`` holds ones there, and ``sink`` a
    single one at the path's sink, so ``M @ X`` pools every path at once.
    """
    shape = (sample.num_paths, sample.num_nodes)
    mean, total, sink = (np.zeros(shape) for _ in range(3))
    for q, path in enumerate(sample.paths):
        nodes = list(path.node_indices)
        mean[q, nodes] = 1.0 / len(nodes)
        total[q, nodes] = 1.0
        sink[q, path.sink] = 1.0
    return mean, total, sink


@dataclass(frozen=True)
class NetBatch:
    """A pack of nets as zero-padded per-net slices, one per leading index.

    Net ``b`` owns the first ``n_b`` node rows and ``p_b`` path rows of
    slice ``b``; the rest is zero padding up to the pack's largest net.
    Every array is per slice, so a model never mixes two nets: a
    non-finite value in one net cannot reach another, where one
    block-diagonal graph would spread it through ``0 * NaN`` in its
    matrix products.
    """

    node_features: np.ndarray     # (B, N, F) node inputs of the model
    adjacency: np.ndarray         # (B, N, N) per-net propagation operator
    node_mask: np.ndarray         # (B, N) True on each net's own nodes
    mean_pool: np.ndarray         # (B, P, N) see :func:`pooling_matrices`
    sum_pool: np.ndarray          # (B, P, N)
    sink_pool: np.ndarray         # (B, P, N)
    path_features: np.ndarray     # (B, P, NUM_PATH_FEATURES)
    path_mask: np.ndarray         # (B, P) True on each net's own paths
    input_slew_ps: np.ndarray     # (B, P) raw driver transition, ps
    names: Tuple[str, ...]
    designs: Tuple[str, ...]


class NetArrays(NamedTuple):
    """One net's model inputs before padding: a slice of a :class:`NetBatch`.

    :func:`net_arrays` builds them; a fit builds them once per net and
    :func:`pack_arrays` pads them into each minibatch's pack.
    """

    name: str
    design: str
    node_inputs: np.ndarray       # (n, F)
    operator: np.ndarray          # (n, n) propagation operator
    mean_pool: np.ndarray         # (p, n) see :func:`pooling_matrices`
    sum_pool: np.ndarray          # (p, n)
    sink_pool: np.ndarray         # (p, n)
    path_features: np.ndarray     # (p, NUM_PATH_FEATURES)
    input_slew_ps: np.ndarray     # (p,)


def net_arrays(sample: NetSample,
               node_inputs: Optional[Callable[[NetSample], np.ndarray]] = None,
               adjacency: Optional[Callable[[np.ndarray], np.ndarray]] = None
               ) -> NetArrays:
    """One net's :class:`NetArrays`.

    ``node_inputs`` maps the sample to its ``(n, F)`` model node inputs
    (default: its node features) and ``adjacency`` maps its raw
    adjacency to the model's ``(n, n)`` propagation operator (default:
    unchanged).  Both run on the net's own arrays, so row sums, degrees
    and eigenvectors see only that net.
    """
    return NetArrays(
        sample.name, sample.design,
        node_inputs(sample) if node_inputs is not None
        else sample.node_features,
        adjacency(sample.adjacency) if adjacency is not None
        else sample.adjacency,
        *pooling_matrices(sample),
        np.array([p.features for p in sample.paths],
                 dtype=np.float64).reshape(sample.num_paths,
                                           NUM_PATH_FEATURES),
        np.array([p.input_slew_ps for p in sample.paths], dtype=np.float64))


def pack(samples: Sequence[NetSample],
         node_inputs: Optional[Callable[[NetSample], np.ndarray]] = None,
         adjacency: Optional[Callable[[np.ndarray], np.ndarray]] = None
         ) -> NetBatch:
    """Stack ``samples`` into one :class:`NetBatch`: :func:`pack_arrays`
    of each sample's :func:`net_arrays`."""
    return pack_arrays([net_arrays(s, node_inputs, adjacency)
                        for s in samples])


def pack_arrays(nets: Sequence[NetArrays]) -> NetBatch:
    """Zero-pad ``nets`` into one :class:`NetBatch`, net ``b`` in slice
    ``b``."""
    if not nets:
        raise ValueError("pack() needs at least one sample")
    size = len(nets)
    n = max(len(net.node_inputs) for net in nets)
    p = max(len(net.path_features) for net in nets)
    node_features = np.zeros((size, n, nets[0].node_inputs.shape[1]))
    operator = np.zeros((size, n, n))
    node_mask = np.zeros((size, n), dtype=bool)
    mean_pool, sum_pool, sink_pool = (np.zeros((size, p, n))
                                      for _ in range(3))
    path_features = np.zeros((size, p, NUM_PATH_FEATURES))
    path_mask = np.zeros((size, p), dtype=bool)
    input_slew_ps = np.zeros((size, p))
    for b, net in enumerate(nets):
        nodes, paths = len(net.node_inputs), len(net.path_features)
        node_features[b, :nodes] = net.node_inputs
        operator[b, :nodes, :nodes] = net.operator
        node_mask[b, :nodes] = True
        mean_pool[b, :paths, :nodes] = net.mean_pool
        sum_pool[b, :paths, :nodes] = net.sum_pool
        sink_pool[b, :paths, :nodes] = net.sink_pool
        path_features[b, :paths] = net.path_features
        path_mask[b, :paths] = True
        input_slew_ps[b, :paths] = net.input_slew_ps
    return NetBatch(node_features, operator, node_mask, mean_pool, sum_pool,
                    sink_pool, path_features, path_mask, input_slew_ps,
                    tuple(net.name for net in nets),
                    tuple(net.design for net in nets))


def build_adjacency(net: RCNet,
                    scale: float = ADJACENCY_RESISTANCE_SCALE) -> np.ndarray:
    """Resistance-weighted ``(n, n)`` adjacency of Section III-B, rescaled.

    Entries are resistance values divided by ``scale`` so typical weights
    are O(1); zero means "no direct resistance".
    """
    return net.weighted_adjacency() / scale


def build_net_sample(net: RCNet, context: NetContext, design: str = "",
                     timer: Optional[GoldenTimer] = None,
                     paths: Optional[Sequence[WirePath]] = None,
                     labeled: bool = True,
                     golden: Optional[WireTimingResult] = None,
                     analysis: Optional[NetAnalysis] = None) -> NetSample:
    """Extract features (and, by default, golden labels) for one net.

    Parameters
    ----------
    net:
        The RC net.
    context:
        Driver/receiver cells and input slew (see :class:`NetContext`).
    design:
        Owning design name, carried through for per-benchmark reporting.
    timer:
        Golden timer used for labels; a default SI-mode timer is built from
        the drive cell's output resistance when omitted.
    paths:
        Pre-extracted wire paths (computed when omitted).
    labeled:
        When ``False`` the golden timer is skipped entirely and label
        fields are NaN — the inference-time path used when the estimator
        serves as a wire model inside STA.
    golden:
        Pre-computed golden timing for this net (the batched labeler of
        :func:`repro.analysis.batch.golden_analyze_many` supplies it);
        when omitted the timer runs here.  Ignored when ``labeled`` is
        ``False``.
    analysis:
        Pre-computed per-net analytic vectors for the path features (from
        :func:`repro.features.path_features.analyze_nets_for_features`);
        computed here, bitwise identically, when omitted.
    """
    paths = list(paths) if paths is not None else extract_wire_paths(net)
    sink_loads = context.sink_loads()
    if not labeled:
        golden = None
    elif golden is None:
        timer = timer or GoldenTimer(
            drive_resistance=context.drive_cell.drive_resistance)
        golden = timer.analyze(net, context.input_slew, sink_loads)

    node_features = extract_node_features(net)
    path_features = extract_path_features(net, paths, context,
                                          analysis=analysis)
    adjacency = build_adjacency(net)

    records: List[PathRecord] = []
    for row, path in enumerate(paths):
        if golden is not None:
            timing = golden.timing_for(path.sink)
            label_slew, label_delay = timing.slew / _PS, timing.delay / _PS
        else:
            label_slew = label_delay = float("nan")
        records.append(PathRecord(
            sink=path.sink,
            node_indices=path.nodes,
            features=path_features[row],
            label_slew=label_slew,
            label_delay=label_delay,
            input_slew_ps=context.input_slew / _PS,
        ))
    _SAMPLES_BUILT.inc()
    return NetSample(
        name=net.name,
        design=design,
        is_tree=net.is_tree(),
        node_features=node_features,
        adjacency=adjacency,
        paths=records,
    )


class FeatureScaler:
    """Standardizes node and path features to zero mean / unit variance.

    Statistics are fitted on a training set of samples and then applied to
    any split; constant features keep their value but are centered.
    """

    def __init__(self) -> None:
        self.node_mean: Optional[np.ndarray] = None
        self.node_std: Optional[np.ndarray] = None
        self.path_mean: Optional[np.ndarray] = None
        self.path_std: Optional[np.ndarray] = None

    @property
    def fitted(self) -> bool:
        return self.node_mean is not None

    def fit(self, samples: Sequence[NetSample]) -> "FeatureScaler":
        """Fit per-dimension statistics over every node/path in ``samples``."""
        if not samples:
            raise ValueError("cannot fit scaler on an empty sample list")
        with get_tracer().span("features.scaler_fit", samples=len(samples)):
            nodes = np.vstack([s.node_features for s in samples])
            paths = np.vstack([p.features for s in samples for p in s.paths])
            self.node_mean = nodes.mean(axis=0)
            self.node_std = _safe_std(nodes)
            self.path_mean = paths.mean(axis=0)
            self.path_std = _safe_std(paths)
        return self

    def transform(self, samples: Sequence[NetSample]) -> List[NetSample]:
        """Return standardized copies of ``samples`` (inputs untouched)."""
        if not self.fitted:
            raise RuntimeError("FeatureScaler.transform called before fit")
        out: List[NetSample] = []
        for sample in samples:
            node_features = (sample.node_features - self.node_mean) / self.node_std
            paths = [replace(p, features=(p.features - self.path_mean) / self.path_std)
                     for p in sample.paths]
            out.append(replace(sample, node_features=node_features, paths=paths))
        return out

    def fit_transform(self, samples: Sequence[NetSample]) -> List[NetSample]:
        return self.fit(samples).transform(samples)

    # -- persistence -----------------------------------------------------
    def state(self) -> dict:
        if not self.fitted:
            raise RuntimeError("scaler not fitted")
        return {
            "node_mean": self.node_mean, "node_std": self.node_std,
            "path_mean": self.path_mean, "path_std": self.path_std,
        }

    @classmethod
    def from_state(cls, state: dict) -> "FeatureScaler":
        scaler = cls()
        scaler.node_mean = np.asarray(state["node_mean"], dtype=np.float64)
        scaler.node_std = np.asarray(state["node_std"], dtype=np.float64)
        scaler.path_mean = np.asarray(state["path_mean"], dtype=np.float64)
        scaler.path_std = np.asarray(state["path_std"], dtype=np.float64)
        return scaler


def _safe_std(matrix: np.ndarray) -> np.ndarray:
    """``(f,)`` column deviations of an ``(n, f)`` matrix, zeros as 1."""
    std = matrix.std(axis=0)
    std[std < 1e-12] = 1.0
    return std
