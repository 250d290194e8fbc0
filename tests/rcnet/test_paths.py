"""Wire-path extraction: uniqueness on trees, shortest-path on non-trees."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rcnet import (RCEdge, RCNet, RCNode, branch_nodes, chain_net,
                         count_wire_paths, extract_wire_paths,
                         random_nontree_net, random_tree_net,
                         shortest_path_tree)


class TestChainPaths:
    def test_single_path_covers_chain(self, small_chain):
        paths = extract_wire_paths(small_chain)
        assert len(paths) == 1
        assert paths[0].nodes == tuple(range(10))
        assert paths[0].resistance == pytest.approx(900.0)
        assert paths[0].num_stages == 9

    def test_no_branch_nodes_on_chain(self, small_chain):
        path = extract_wire_paths(small_chain)[0]
        assert branch_nodes(small_chain, path) == []


class TestTreePaths:
    @given(st.integers(min_value=2, max_value=40),
           st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_one_path_per_sink(self, n_nodes, seed):
        net = random_tree_net(np.random.default_rng(seed), n_nodes)
        paths = extract_wire_paths(net)
        assert len(paths) == net.num_sinks == count_wire_paths(net)
        for path, sink in zip(paths, net.sinks):
            assert path.sink == sink
            assert path.nodes[0] == net.source
            assert path.nodes[-1] == sink
            assert len(path.edges) == len(path.nodes) - 1

    def test_path_edges_consistent(self, tree_net):
        for path in extract_wire_paths(tree_net):
            for (u, v), edge_index in zip(
                    zip(path.nodes, path.nodes[1:]), path.edges):
                edge = tree_net.edges[edge_index]
                assert {edge.u, edge.v} == {u, v}

    def test_path_resistance_is_edge_sum(self, tree_net):
        for path in extract_wire_paths(tree_net):
            total = sum(tree_net.edges[e].resistance for e in path.edges)
            assert path.resistance == pytest.approx(total)


class TestNonTreePaths:
    def test_shortest_route_chosen(self):
        """Diamond net: two routes to the sink; the lower-R one is chosen."""
        nodes = [RCNode(i, f"n{i}", 1e-15) for i in range(4)]
        edges = [
            RCEdge(0, 1, 10.0), RCEdge(1, 3, 10.0),   # cheap route: 20 ohm
            RCEdge(0, 2, 100.0), RCEdge(2, 3, 100.0),  # detour: 200 ohm
        ]
        net = RCNet("diamond", nodes, edges, 0, [3])
        path = extract_wire_paths(net)[0]
        assert path.nodes == (0, 1, 3)
        assert path.resistance == pytest.approx(20.0)
        assert branch_nodes(net, path) == [2]

    @given(st.integers(min_value=6, max_value=40),
           st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=30, deadline=None)
    def test_paths_valid_on_nontree(self, n_nodes, seed):
        net = random_nontree_net(np.random.default_rng(seed), n_nodes,
                                 n_loops=3)
        dist, _, _ = shortest_path_tree(net)
        for path in extract_wire_paths(net):
            assert path.resistance == pytest.approx(dist[path.sink])
            assert len(set(path.nodes)) == len(path.nodes)  # simple path


class TestDijkstra:
    def test_distances_on_chain(self, small_chain):
        dist, parent, _ = shortest_path_tree(small_chain)
        np.testing.assert_allclose(dist, np.arange(10) * 100.0)
        assert parent[0] == -1
        assert all(parent[i] == i - 1 for i in range(1, 10))

    def test_hop_weighting(self, small_chain):
        dist, _, _ = shortest_path_tree(small_chain, weight="hops")
        np.testing.assert_allclose(dist, np.arange(10))

    def test_unknown_weight(self, small_chain):
        with pytest.raises(ValueError):
            shortest_path_tree(small_chain, weight="length")

    @pytest.fixture
    def runs(self, monkeypatch):
        """``(net name, hops)`` of every Dijkstra run during the test."""
        from repro.rcnet import paths as paths_module

        runs = []
        dijkstra = paths_module._dijkstra

        def counting(net, hops):
            runs.append((net.name, hops))
            return dijkstra(net, hops)

        monkeypatch.setattr(paths_module, "_dijkstra", counting)
        return runs

    def test_sample_and_ceff_share_one_resistance_tree(
            self, nontree_net, library, runs):
        """Node features, wire paths, downstream caps and ceff all read
        the resistance tree; it is computed once per net."""
        from repro.features import NetContext, build_net_sample
        from repro.liberty.ceff import effective_capacitance

        cell = library.cell("BUF_X2")
        context = NetContext(input_slew=20e-12, drive_cell=cell,
                             load_cells=[cell] * nontree_net.num_sinks)
        build_net_sample(nontree_net, context, labeled=False)
        effective_capacitance(nontree_net, cell.drive_resistance,
                              context.sink_loads())
        assert runs == [("nt", False)]

    def test_hop_tree_is_not_memoized(self, small_chain, runs):
        first = shortest_path_tree(small_chain, weight="hops")
        assert shortest_path_tree(small_chain, weight="hops") == first
        assert [hops for _, hops in runs] == [True, True]
        assert shortest_path_tree(small_chain)[0] != first[0]

    def test_memoized_tree_is_read_only_and_per_net(self, small_chain):
        tree = shortest_path_tree(small_chain)
        assert all(isinstance(part, tuple) for part in tree)
        assert shortest_path_tree(small_chain) is tree
        scaled = shortest_path_tree(small_chain.scaled(r_factor=2.0))
        np.testing.assert_allclose(scaled[0], np.arange(10) * 200.0)
        assert scaled[1] == tree[1]

    def test_matches_networkx(self, nontree_net):
        import networkx as nx
        g = nontree_net.to_networkx()
        expected = nx.single_source_dijkstra_path_length(
            g, nontree_net.source, weight="resistance")
        dist, _, _ = shortest_path_tree(nontree_net)
        for node, d in expected.items():
            assert dist[node] == pytest.approx(d)
