"""Pickle-free dataset serialization to ``.npz``.

Net samples are ragged (variable node/path counts), so they are flattened
into offset-indexed arrays — the same trick sparse-matrix formats use —
keeping the files portable and free of ``allow_pickle`` security issues.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..features.pipeline import FeatureScaler, NetSample, PathRecord
from .generate import WireTimingDataset


def _pack(samples: Sequence[NetSample], prefix: str) -> dict:
    arrays: dict = {}
    names = [s.name for s in samples]
    designs = [s.design for s in samples]
    arrays[f"{prefix}_names"] = np.array(names, dtype=np.str_)
    arrays[f"{prefix}_designs"] = np.array(designs, dtype=np.str_)
    arrays[f"{prefix}_is_tree"] = np.array([s.is_tree for s in samples], dtype=bool)
    arrays[f"{prefix}_num_nodes"] = np.array([s.num_nodes for s in samples],
                                             dtype=np.int64)

    node_offsets = np.zeros(len(samples) + 1, dtype=np.int64)
    for i, s in enumerate(samples):
        node_offsets[i + 1] = node_offsets[i] + s.num_nodes
    arrays[f"{prefix}_node_offsets"] = node_offsets
    arrays[f"{prefix}_node_features"] = (
        np.vstack([s.node_features for s in samples]) if samples
        else np.zeros((0, 0)))

    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    vals: List[np.ndarray] = []
    adj_offsets = np.zeros(len(samples) + 1, dtype=np.int64)
    for i, s in enumerate(samples):
        r, c = np.nonzero(s.adjacency)
        keep = r < c  # store the upper triangle once; matrix is symmetric
        rows.append(r[keep])
        cols.append(c[keep])
        vals.append(s.adjacency[r[keep], c[keep]])
        adj_offsets[i + 1] = adj_offsets[i] + int(keep.sum())
    arrays[f"{prefix}_adj_offsets"] = adj_offsets
    arrays[f"{prefix}_adj_rows"] = (np.concatenate(rows) if rows
                                    else np.zeros(0, dtype=np.int64))
    arrays[f"{prefix}_adj_cols"] = (np.concatenate(cols) if cols
                                    else np.zeros(0, dtype=np.int64))
    arrays[f"{prefix}_adj_vals"] = (np.concatenate(vals) if vals
                                    else np.zeros(0))

    path_offsets = np.zeros(len(samples) + 1, dtype=np.int64)
    all_paths: List[PathRecord] = []
    for i, s in enumerate(samples):
        path_offsets[i + 1] = path_offsets[i] + s.num_paths
        all_paths.extend(s.paths)
    arrays[f"{prefix}_path_offsets"] = path_offsets
    arrays[f"{prefix}_path_sinks"] = np.array([p.sink for p in all_paths],
                                              dtype=np.int64)
    arrays[f"{prefix}_path_features"] = (
        np.vstack([p.features for p in all_paths]) if all_paths
        else np.zeros((0, 0)))
    arrays[f"{prefix}_path_slews"] = np.array([p.label_slew for p in all_paths])
    arrays[f"{prefix}_path_delays"] = np.array([p.label_delay for p in all_paths])
    arrays[f"{prefix}_path_input_slews"] = np.array(
        [p.input_slew_ps for p in all_paths])

    pnode_offsets = np.zeros(len(all_paths) + 1, dtype=np.int64)
    pnode_values: List[int] = []
    for i, p in enumerate(all_paths):
        pnode_offsets[i + 1] = pnode_offsets[i] + len(p.node_indices)
        pnode_values.extend(p.node_indices)
    arrays[f"{prefix}_pnode_offsets"] = pnode_offsets
    arrays[f"{prefix}_pnode_values"] = np.array(pnode_values, dtype=np.int64)
    return arrays


def _unpack(data, prefix: str) -> List[NetSample]:
    names = data[f"{prefix}_names"]
    designs = data[f"{prefix}_designs"]
    is_tree = data[f"{prefix}_is_tree"]
    num_nodes = data[f"{prefix}_num_nodes"]
    node_offsets = data[f"{prefix}_node_offsets"]
    node_features = data[f"{prefix}_node_features"]
    adj_offsets = data[f"{prefix}_adj_offsets"]
    adj_rows = data[f"{prefix}_adj_rows"]
    adj_cols = data[f"{prefix}_adj_cols"]
    adj_vals = data[f"{prefix}_adj_vals"]
    path_offsets = data[f"{prefix}_path_offsets"]
    path_sinks = data[f"{prefix}_path_sinks"]
    path_features = data[f"{prefix}_path_features"]
    path_slews = data[f"{prefix}_path_slews"]
    path_delays = data[f"{prefix}_path_delays"]
    path_input_slews = data[f"{prefix}_path_input_slews"]
    pnode_offsets = data[f"{prefix}_pnode_offsets"]
    pnode_values = data[f"{prefix}_pnode_values"]

    samples: List[NetSample] = []
    for i in range(len(names)):
        n = int(num_nodes[i])
        adjacency = np.zeros((n, n))
        lo, hi = int(adj_offsets[i]), int(adj_offsets[i + 1])
        r, c, v = adj_rows[lo:hi], adj_cols[lo:hi], adj_vals[lo:hi]
        adjacency[r, c] = v
        adjacency[c, r] = v
        paths: List[PathRecord] = []
        for j in range(int(path_offsets[i]), int(path_offsets[i + 1])):
            plo, phi = int(pnode_offsets[j]), int(pnode_offsets[j + 1])
            paths.append(PathRecord(
                sink=int(path_sinks[j]),
                node_indices=tuple(int(x) for x in pnode_values[plo:phi]),
                features=np.asarray(path_features[j], dtype=np.float64),
                label_slew=float(path_slews[j]),
                label_delay=float(path_delays[j]),
                input_slew_ps=float(path_input_slews[j]),
            ))
        samples.append(NetSample(
            name=str(names[i]),
            design=str(designs[i]),
            is_tree=bool(is_tree[i]),
            node_features=np.asarray(
                node_features[int(node_offsets[i]):int(node_offsets[i + 1])],
                dtype=np.float64),
            adjacency=adjacency,
            paths=paths,
        ))
    return samples


def save_dataset(path: str, dataset: WireTimingDataset) -> None:
    """Write a dataset (both splits + scaler) to a compressed ``.npz``."""
    arrays = {}
    arrays.update(_pack(dataset.train, "train"))
    arrays.update(_pack(dataset.test, "test"))
    if dataset.scaler is not None:
        for key, value in dataset.scaler.state().items():
            arrays[f"scaler_{key}"] = value
    np.savez_compressed(path, **arrays)


def load_dataset(path: str) -> WireTimingDataset:
    """Read a dataset previously written by :func:`save_dataset`."""
    # Opened here, not by np.load, so a corrupt archive that makes
    # np.load raise still gets its handle closed.
    with open(path, "rb") as handle, \
            np.load(handle, allow_pickle=False) as data:
        train = _unpack(data, "train")
        test = _unpack(data, "test")
        scaler: Optional[FeatureScaler] = None
        if "scaler_node_mean" in data:
            scaler = FeatureScaler.from_state({
                "node_mean": data["scaler_node_mean"],
                "node_std": data["scaler_node_std"],
                "path_mean": data["scaler_path_mean"],
                "path_std": data["scaler_path_std"],
            })
    return WireTimingDataset(train=train, test=test, scaler=scaler)
