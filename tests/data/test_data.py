"""Dataset pipeline: generation, splits, serialization."""

import copy

import numpy as np
import pytest

from repro.analysis import GoldenTimer
from repro.analysis.cache import get_solve_cache
from repro.data import (by_design, collect_labels, design_net_samples,
                        generate_dataset, load_dataset, nontree_only,
                        save_dataset, train_val_split, tree_only)
from repro.design import DesignSpec, generate_design
from repro.features import NetContext, build_net_sample
from repro.liberty.ceff import effective_capacitance
from repro.robustness import FaultInjector, InputError


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(train_names=["PCI_BRIDGE"], test_names=["WB_DMA"],
                            scale=1500, nets_per_design=25)


class TestGeneration:
    def test_split_populated(self, dataset):
        assert len(dataset.train) > 0
        assert len(dataset.test) > 0
        assert dataset.scaler is not None and dataset.scaler.fitted

    def test_designs_tagged(self, dataset):
        assert {s.design for s in dataset.train} == {"PCI_BRIDGE"}
        assert {s.design for s in dataset.test} == {"WB_DMA"}

    def test_labels_present_and_positive(self, dataset):
        slews, delays = collect_labels(dataset.test)
        assert np.all(slews > 0.0)
        assert np.all(delays > 0.0)

    def test_features_standardized_on_train(self, dataset):
        nodes = np.vstack([s.node_features for s in dataset.train])
        np.testing.assert_allclose(nodes.mean(axis=0), 0.0, atol=1e-8)

    def test_nets_per_design_cap(self, library):
        nl = generate_design(DesignSpec("d", n_combinational=80, n_ffs=8,
                                        n_paths=5, seed=0), library)
        samples = design_net_samples(nl, max_nets=10)
        assert len(samples) == 10

    def test_si_mode_changes_labels(self, library):
        nl = generate_design(DesignSpec("d", n_combinational=30, n_ffs=6,
                                        n_paths=5, seed=0,
                                        nontree_frac=0.5), library)
        with_si = design_net_samples(nl, si_mode=True)
        without = design_net_samples(nl, si_mode=False)
        d_si = np.concatenate([s.labels()[1] for s in with_si])
        d_no = np.concatenate([s.labels()[1] for s in without])
        assert d_si.mean() > d_no.mean()

    def test_deterministic(self):
        a = generate_dataset(train_names=["DMA"], test_names=["WB_DMA"],
                             scale=2000, nets_per_design=10, seed=3)
        b = generate_dataset(train_names=["DMA"], test_names=["WB_DMA"],
                             scale=2000, nets_per_design=10, seed=3)
        np.testing.assert_allclose(a.train[0].node_features,
                                   b.train[0].node_features)
        assert a.train[0].paths[0].label_delay == \
            b.train[0].paths[0].label_delay


class TestSplits:
    def test_tree_nontree_partition(self, dataset):
        trees = tree_only(dataset.test)
        loops = nontree_only(dataset.test)
        assert len(trees) + len(loops) == len(dataset.test)
        assert all(s.is_tree for s in trees)
        assert all(not s.is_tree for s in loops)

    def test_by_design(self, dataset):
        grouped = by_design(dataset.train + dataset.test)
        assert set(grouped) == {"PCI_BRIDGE", "WB_DMA"}

    def test_train_val_split_disjoint(self, dataset):
        train, val = train_val_split(dataset.train, 0.2, seed=1)
        assert len(train) + len(val) == len(dataset.train)
        names = {s.name for s in train} & {s.name for s in val}
        assert not names

    def test_invalid_fraction(self, dataset):
        with pytest.raises(ValueError):
            train_val_split(dataset.train, 0.0)


class TestSerialization:
    def test_roundtrip(self, dataset, tmp_path):
        path = str(tmp_path / "ds.npz")
        save_dataset(path, dataset)
        loaded = load_dataset(path)
        assert len(loaded.train) == len(dataset.train)
        assert len(loaded.test) == len(dataset.test)
        a, b = dataset.test[3], loaded.test[3]
        assert a.name == b.name and a.design == b.design
        assert a.is_tree == b.is_tree
        np.testing.assert_allclose(a.node_features, b.node_features)
        np.testing.assert_allclose(a.adjacency, b.adjacency)
        for pa, pb in zip(a.paths, b.paths):
            assert pa.node_indices == pb.node_indices
            assert pa.sink == pb.sink
            np.testing.assert_allclose(pa.features, pb.features)
            assert pa.label_delay == pytest.approx(pb.label_delay)

    def test_scaler_restored(self, dataset, tmp_path):
        path = str(tmp_path / "ds.npz")
        save_dataset(path, dataset)
        loaded = load_dataset(path)
        np.testing.assert_allclose(loaded.scaler.node_mean,
                                   dataset.scaler.node_mean)

    def test_grouping_helpers(self, dataset):
        grouped = dataset.test_by_design()
        assert set(grouped) == {"WB_DMA"}
        assert dataset.num_train_paths == sum(
            s.num_paths for s in dataset.train)


def _assert_samples_equal(lhs, rhs):
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        assert (a.name, a.design, a.is_tree) == (b.name, b.design, b.is_tree)
        np.testing.assert_array_equal(a.node_features, b.node_features)
        np.testing.assert_array_equal(a.adjacency, b.adjacency)
        assert len(a.paths) == len(b.paths)
        for pa, pb in zip(a.paths, b.paths):
            assert (pa.sink, pa.node_indices) == (pb.sink, pb.node_indices)
            np.testing.assert_array_equal(pa.features, pb.features)
            assert (pa.label_slew, pa.label_delay, pa.input_slew_ps) == \
                (pb.label_slew, pb.label_delay, pb.input_slew_ps)


def _reference_sample(netlist, net, si_mode):
    """One net labelled alone: the scalar solve, no batch engine."""
    drive = netlist.gates[net.driver].cell
    loads = [netlist.gates[load.gate].cell for load in net.loads]
    sink_loads = np.array([cell.input_cap for cell in loads])
    ceff = effective_capacitance(net.rcnet, drive.drive_resistance,
                                 sink_loads)
    _, input_slew = drive.delay_and_slew(20e-12, ceff)
    context = NetContext(input_slew=input_slew, drive_cell=drive,
                         load_cells=loads)
    return build_net_sample(
        net.rcnet, context, design=netlist.name,
        timer=GoldenTimer(drive_resistance=drive.drive_resistance,
                          si_mode=si_mode))


@pytest.fixture
def mixed_design(library):
    return generate_design(DesignSpec("mixed", n_combinational=30, n_ffs=4,
                                      n_paths=5, seed=4, nontree_frac=0.4),
                           library)


class TestBatchedLabels:
    @pytest.mark.parametrize("si_mode", [True, False])
    def test_design_net_samples_match_per_net_reference(self, mixed_design,
                                                        si_mode):
        """The batched labeller equals, bitwise, each net labelled alone."""
        get_solve_cache().clear()
        reference = [_reference_sample(mixed_design, net, si_mode)
                     for net in mixed_design.nets.values()]
        get_solve_cache().clear()
        batched = design_net_samples(mixed_design, si_mode=si_mode)
        assert any(not s.is_tree for s in batched)
        _assert_samples_equal(batched, reference)

    def test_custom_library(self, library):
        """Cells travel inside each task, so a caller's library labels the
        same nets as the default one."""
        kwargs = dict(train_names=["PCI_BRIDGE"], test_names=["WB_DMA"],
                      scale=2000, nets_per_design=5, seed=3)
        custom = generate_dataset(library=library, **kwargs)
        default = generate_dataset(**kwargs)
        assert len(custom.train) == len(default.train) > 0
        _assert_samples_equal(custom.train + custom.test,
                              default.train + default.test)


class TestBadNet:
    """A net with a negative resistance: Dijkstra would loop on it."""

    @pytest.fixture
    def corrupted(self, mixed_design):
        bad = copy.deepcopy(mixed_design)
        name = sorted(bad.nets)[3]
        bad.nets[name].rcnet = FaultInjector(seed=1).corrupt_rc_values(
            bad.nets[name].rcnet, mode="negative_resistance")
        return bad, bad.nets[name].rcnet.name

    def test_skip_mode_names_net_and_keeps_design_mates(self, mixed_design,
                                                        corrupted):
        bad, rc_name = corrupted
        get_solve_cache().clear()
        clean = design_net_samples(mixed_design)
        get_solve_cache().clear()
        skipped = []
        samples = design_net_samples(bad, skipped=skipped)
        assert [(s.net, s.design) for s in skipped] == [(rc_name, "mixed")]
        assert "negative resistance" in skipped[0].reason
        _assert_samples_equal(samples,
                              [s for s in clean if s.name != rc_name])

    def test_raise_mode_carries_the_net(self, corrupted):
        bad, rc_name = corrupted
        with pytest.raises(InputError) as excinfo:
            design_net_samples(bad, on_error="raise")
        assert (excinfo.value.net, excinfo.value.stage) == (rc_name, "paths")


class TestRepeatedDesign:
    def test_named_twice_raises_before_generating(self, monkeypatch):
        import repro.data.generate as generate

        def refuse(*args, **kwargs):
            raise AssertionError("a design was generated")

        monkeypatch.setattr(generate, "generate_benchmark", refuse)
        with pytest.raises(ValueError, match="B19, DMA"):
            generate_dataset(train_names=["DMA", "B19", "PCI_BRIDGE"],
                             test_names=["DMA", "B19"])
        with pytest.raises(ValueError, match="DMA"):
            generate_dataset(train_names=["DMA", "DMA"], test_names=[])


class TestUnknownDesign:
    def test_unknown_names_raise_before_generating(self, monkeypatch):
        import repro.data.generate as generate

        def refuse(*args, **kwargs):
            raise AssertionError("a design was generated")

        monkeypatch.setattr(generate, "generate_benchmark", refuse)
        with pytest.raises(KeyError, match="NOPE, ZILCH"):
            generate_dataset(train_names=["PCI_BRIDGE", "NOPE"],
                             test_names=["ZILCH"])
