"""Node (capacitance) feature extraction — the "Node" half of Table I.

Each RC-graph node gets an 8-dimensional raw feature vector:

==  =====================  =============================================
 #  Table I name           Definition used here
==  =====================  =============================================
 0  capacitance value      grounded + coupling capacitance at the node
 1  num of input nodes     neighbors electrically closer to the source
 2  num of output nodes    neighbors electrically farther from the source
 3  tot input cap          summed capacitance of the input neighbors
 4  tot output cap         summed capacitance of the output neighbors
 5  num of connect. res    degree (number of incident resistances)
 6  tot input res          summed resistance of edges toward the source
 7  tot output res         summed resistance of edges away from the source
==  =====================  =============================================

Direction is defined by resistance distance from the source (Dijkstra), so
the definitions extend cleanly to non-tree nets: a neighbor is an *input*
when it sits closer to the source than the node itself.

Values are expressed in the library's natural units (fF, kOhm) so they land
near unity before standardization.
"""

from __future__ import annotations

import numpy as np

from ..analysis.mna import capacitance_vector
from ..rcnet.graph import RCNet
from ..rcnet.paths import shortest_path_tree

NODE_FEATURE_NAMES = (
    "cap_value",
    "num_input_nodes",
    "num_output_nodes",
    "tot_input_cap",
    "tot_output_cap",
    "num_connected_res",
    "tot_input_res",
    "tot_output_res",
)

NUM_NODE_FEATURES = len(NODE_FEATURE_NAMES)

_FF = 1e-15
_KOHM = 1e3


def extract_node_features(net: RCNet) -> np.ndarray:
    """Raw node feature matrix ``X`` of shape ``(num_nodes, 8)``.

    Rows follow node indices; see the module docstring for columns.
    """
    caps = capacitance_vector(net)  # grounded + quiet coupling caps
    dist, _, _ = shortest_path_tree(net)
    features = np.zeros((net.num_nodes, NUM_NODE_FEATURES), dtype=np.float64)
    for i in range(net.num_nodes):
        features[i, 0] = caps[i] / _FF
        features[i, 5] = net.degree(i)
        for neighbor, edge_index in net.adjacency[i]:
            resistance = net.edges[edge_index].resistance
            if dist[neighbor] <= dist[i] and neighbor != i:
                features[i, 1] += 1.0
                features[i, 3] += caps[neighbor] / _FF
                features[i, 6] += resistance / _KOHM
            else:
                features[i, 2] += 1.0
                features[i, 4] += caps[neighbor] / _FF
                features[i, 7] += resistance / _KOHM
    return features
