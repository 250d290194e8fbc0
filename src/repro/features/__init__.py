"""Feature extraction implementing Table I of the paper.

Raw node features come from the RC parasitics, raw path features from
Elmore/D2M analysis plus the driving and receiving cells; both are packaged
into per-net :class:`NetSample` objects and standardized with a
training-set-fitted :class:`FeatureScaler`.
"""

from .node_features import (NODE_FEATURE_NAMES, NUM_NODE_FEATURES,
                            extract_node_features)
from .path_features import (NUM_PATH_FEATURES, PATH_FEATURE_NAMES,
                            NetContext, extract_path_features)
from .pipeline import (ADJACENCY_RESISTANCE_SCALE, FeatureScaler, NetBatch,
                       NetSample, PathRecord, build_adjacency,
                       build_net_sample, pack)

__all__ = [
    "NODE_FEATURE_NAMES", "NUM_NODE_FEATURES", "extract_node_features",
    "PATH_FEATURE_NAMES", "NUM_PATH_FEATURES", "NetContext",
    "extract_path_features",
    "NetSample", "PathRecord", "FeatureScaler", "build_net_sample",
    "NetBatch", "pack",
    "build_adjacency", "ADJACENCY_RESISTANCE_SCALE",
]
