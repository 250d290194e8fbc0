"""MNA assembly: Laplacian structure, reduction, transfer resistances."""

import numpy as np
import pytest

from repro.analysis import (capacitance_vector, conductance_matrix,
                            reduce_source, transfer_resistance_matrix)
from repro.rcnet import CouplingCap, RCEdge, RCNet, RCNode, chain_net
from repro.robustness.errors import InputError


class TestConductanceMatrix:
    def test_laplacian_row_sums_zero(self, nontree_net):
        g = conductance_matrix(nontree_net)
        np.testing.assert_allclose(g.sum(axis=1), 0.0, atol=1e-12)

    def test_symmetric(self, nontree_net):
        g = conductance_matrix(nontree_net)
        np.testing.assert_allclose(g, g.T)

    def test_two_node_values(self):
        nodes = [RCNode(0, "a", 1e-15), RCNode(1, "b", 1e-15)]
        net = RCNet("n", nodes, [RCEdge(0, 1, 200.0)], 0, [1])
        g = conductance_matrix(net)
        np.testing.assert_allclose(g, [[0.005, -0.005], [-0.005, 0.005]])


class TestCapacitanceVector:
    def test_plain(self, small_chain):
        np.testing.assert_allclose(capacitance_vector(small_chain), 2e-15)

    def test_coupling_grounded_quietly(self):
        nodes = [RCNode(0, "a", 1e-15), RCNode(1, "b", 1e-15)]
        net = RCNet("n", nodes, [RCEdge(0, 1, 100.0)], 0, [1],
                    couplings=[CouplingCap(1, "x", 2e-15, activity=0.5)])
        caps = capacitance_vector(net)
        assert caps[1] == pytest.approx(3e-15)

    def test_miller_factor_scales_coupling(self):
        nodes = [RCNode(0, "a", 1e-15), RCNode(1, "b", 1e-15)]
        net = RCNet("n", nodes, [RCEdge(0, 1, 100.0)], 0, [1],
                    couplings=[CouplingCap(1, "x", 2e-15, activity=0.5)])
        caps = capacitance_vector(net, miller_factor=1.0)
        assert caps[1] == pytest.approx(1e-15 + 2e-15 * 1.5)

    def test_sink_loads_added(self, small_chain):
        caps = capacitance_vector(small_chain, sink_loads=np.array([5e-15]))
        assert caps[9] == pytest.approx(7e-15)
        assert caps[0] == pytest.approx(2e-15)

    def test_sink_loads_wrong_shape(self, small_chain):
        with pytest.raises(InputError) as caught:
            capacitance_vector(small_chain, sink_loads=np.zeros(3))
        assert caught.value.net == small_chain.name
        assert caught.value.stage == "mna-assembly"

    def test_quiet_vector_built_once_per_net(self, monkeypatch):
        """Each call adds its loads to a copy of one memoized vector, so
        no caller sees another's loads or writes."""
        nodes = [RCNode(0, "a", 1e-15), RCNode(1, "b", 1e-15)]
        net = RCNet("n", nodes, [RCEdge(0, 1, 100.0)], 0, [1],
                    couplings=[CouplingCap(1, "x", 2e-15, activity=0.5)])
        built = []
        cap_vector = RCNet.cap_vector
        monkeypatch.setattr(RCNet, "cap_vector",
                            lambda self: built.append(1) or cap_vector(self))
        loaded = capacitance_vector(net, sink_loads=np.array([5e-15]))
        quiet = capacitance_vector(net)
        loaded[0] = 1.0
        assert len(built) == 1
        assert quiet.tolist() == capacitance_vector(net).tolist() \
            == [1e-15, 1e-15 + 2e-15]
        assert loaded[1] == quiet[1] + 5e-15
        capacitance_vector(net, miller_factor=1.0)
        assert len(built) == 2  # a Miller vector is never memoized


class TestReduceSource:
    def test_shape_and_positive_definite(self, nontree_net):
        system = reduce_source(nontree_net)
        n = nontree_net.num_nodes - 1
        assert system.g.shape == (n, n)
        eigenvalues = np.linalg.eigvalsh(system.g)
        assert np.all(eigenvalues > 0.0)

    def test_index_map(self, small_chain):
        system = reduce_source(small_chain)
        assert system.index_map[small_chain.source] == -1
        assert sorted(system.index_map[system.nodes]) == list(range(9))
        with pytest.raises(ValueError):
            system.reduced_index(small_chain.source)

    def test_source_conductance(self, small_chain):
        system = reduce_source(small_chain)
        # Only node 1 touches the source on a chain.
        idx = system.reduced_index(1)
        assert system.source_conductance[idx] == pytest.approx(1.0 / 100.0)
        others = np.delete(system.source_conductance, idx)
        np.testing.assert_allclose(others, 0.0)

class TestTransferResistance:
    def test_chain_transfer_resistances(self, small_chain):
        """R_jk on a chain = resistance of the shared path from source."""
        system = reduce_source(small_chain)
        r = transfer_resistance_matrix(system)
        # Node i (1-indexed from source) at reduced index i-1.
        for j in range(1, 10):
            for k in range(1, 10):
                shared = min(j, k) * 100.0
                assert r[system.reduced_index(j),
                         system.reduced_index(k)] == pytest.approx(shared)
