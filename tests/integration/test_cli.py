"""Command-line interface: the full dataset -> train -> evaluate loop."""

import os

import pytest

from repro.cli import main
from repro.rcnet import chain_net, save_spef


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cli")


@pytest.fixture(scope="module")
def dataset_file(workdir):
    path = str(workdir / "ds.npz")
    code = main(["dataset", "-o", path, "--train", "PCI_BRIDGE",
                 "--test", "WB_DMA", "--scale", "2000", "--nets", "12",
                 "--seed", "1"])
    assert code == 0
    return path


@pytest.fixture(scope="module")
def model_file(workdir, dataset_file):
    path = str(workdir / "model.npz")
    code = main(["train", "-d", dataset_file, "-o", path,
                 "--plan", "PlanB", "--epochs", "4"])
    assert code == 0
    return path


class TestCLI:
    def test_dataset_written(self, dataset_file):
        assert os.path.exists(dataset_file)
        assert os.path.getsize(dataset_file) > 0

    @pytest.mark.parametrize("train, test, named", [
        (["DMA"], ["DMA"], "DMA"), (["PCI_BRIDGE"], ["NOPE"], "NOPE")],
        ids=["repeated", "unknown"])
    def test_dataset_bad_design_is_one_error_line(self, workdir, capsys,
                                                  train, test, named):
        path = workdir / "bad.npz"
        code = main(["dataset", "-o", str(path), "--train", *train,
                     "--test", *test, "--scale", "2000", "--nets", "4"])
        assert code == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert named in lines[0] and captured.out == ""
        assert not path.exists()

    def test_train_writes_model(self, model_file):
        assert os.path.exists(model_file)

    def test_evaluate(self, dataset_file, model_file, capsys):
        code = main(["evaluate", "-d", dataset_file, "-m", model_file,
                     "--per-design"])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall" in out
        assert "R2" in out
        assert "WB_DMA" in out

    def test_evaluate_nontree_subset(self, dataset_file, model_file, capsys):
        code = main(["evaluate", "-d", dataset_file, "-m", model_file,
                     "--nontree"])
        out = capsys.readouterr().out + capsys.readouterr().err
        assert code in (0, 1)  # tiny datasets may lack non-tree nets

    def test_train_baseline_model(self, workdir, dataset_file):
        path = str(workdir / "sage.npz")
        code = main(["train", "-d", dataset_file, "-o", path,
                     "--model", "graphsage", "--epochs", "2"])
        assert code == 0
        assert os.path.exists(path)

    def test_spef_timing(self, workdir, capsys):
        spef = str(workdir / "net.spef")
        save_spef(spef, [chain_net(6)], design="clitest")
        code = main(["spef-timing", spef, "--input-slew", "25"])
        assert code == 0
        out = capsys.readouterr().out
        assert "clitest" in out
        assert "delay" in out

    def test_spef_timing_missing_file(self, capsys):
        code = main(["spef-timing", "/nonexistent/file.spef"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_benchmarks_listing(self, capsys):
        code = main(["benchmarks"])
        assert code == 0
        out = capsys.readouterr().out
        assert "WB_DMA" in out and "LEON3MP" in out

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 2


class TestInterchangeCLI:
    def test_export_and_report(self, workdir, capsys):
        outdir = str(workdir / "design")
        code = main(["export-design", "WB_DMA", "-o", outdir,
                     "--scale", "1500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "netlist.v" in out
        for name in ("netlist.v", "parasitics.spef", "cells.lib"):
            assert os.path.exists(os.path.join(outdir, name))

        code = main(["report",
                     "--verilog", os.path.join(outdir, "netlist.v"),
                     "--spef", os.path.join(outdir, "parasitics.spef"),
                     "--lib", os.path.join(outdir, "cells.lib"),
                     "--engine", "elmore", "--paths", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "STA summary" in out
        assert "worst slack" in out

    def test_export_unknown_benchmark(self, workdir, capsys):
        code = main(["export-design", "NOPE", "-o", str(workdir / "x")])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_report_missing_file(self, capsys):
        code = main(["report", "--verilog", "/none.v", "--spef", "/none.spef",
                     "--lib", "/none.lib"])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_report_with_sdc(self, workdir, capsys):
        outdir = str(workdir / "design_sdc")
        assert main(["export-design", "LDPC", "-o", outdir,
                     "--scale", "1500"]) == 0
        capsys.readouterr()
        sdc_path = os.path.join(outdir, "constraints.sdc")
        with open(sdc_path, "w") as handle:
            handle.write("create_clock -name clk -period 2.0 "
                         "[get_ports clk]\n"
                         "set_input_transition 0.03 [all_inputs]\n")
        code = main(["report",
                     "--verilog", os.path.join(outdir, "netlist.v"),
                     "--spef", os.path.join(outdir, "parasitics.spef"),
                     "--lib", os.path.join(outdir, "cells.lib"),
                     "--engine", "awe", "--paths", "5",
                     "--sdc", sdc_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "clock 2000 ps" in out


class TestSTACli:
    SCALE, PATHS, SEED = "6000", "4", "3"

    @pytest.fixture(scope="class")
    def edit_script(self, tmp_path_factory):
        """An edit script targeting a net that really exists in the
        deterministic design ``repro sta`` will regenerate."""
        import json

        import numpy as np

        from repro.design import generate_benchmark, sample_timing_paths
        from repro.liberty import make_default_library

        netlist = generate_benchmark("WB_DMA", make_default_library(),
                                     int(self.SCALE))
        rng = np.random.default_rng(int(self.SEED))
        for path in sample_timing_paths(netlist, int(self.PATHS), rng):
            netlist.add_path(path)
        net = netlist.paths[0].stages[0].net
        path = tmp_path_factory.mktemp("eco") / "edits.json"
        path.write_text(json.dumps({
            "schema": "repro-eco-edits/1",
            "edits": [
                {"op": "scale_net_rc", "net": net, "r_factor": 1.2,
                 "c_factor": 0.9},
                {"op": "insert_buffer", "net": net, "sink_index": 0,
                 "cell": "BUF_X2"},
            ]}))
        return str(path)

    def _sta(self, *extra):
        return main(["sta", "WB_DMA", "--scale", self.SCALE,
                     "--paths", self.PATHS, "--seed", self.SEED,
                     "--engine", "elmore", *extra])

    def test_full_pass(self, capsys):
        assert self._sta() == 0
        out = capsys.readouterr().out
        assert "worst arrival" in out

    def test_incremental_replay_with_parity(self, edit_script, capsys):
        code = self._sta("--incremental", "--edits", edit_script,
                         "--verify")
        assert code == 0
        out = capsys.readouterr().out
        assert "scale_net_rc" in out and "insert_buffer" in out
        assert "retimed" in out
        assert "parity ok" in out

    def test_edits_require_incremental(self, edit_script, capsys):
        assert self._sta("--edits", edit_script) == 2
        assert "--incremental" in capsys.readouterr().err

    def test_bad_edit_script_reports_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "repro-eco-edits/9", "edits": []}')
        code = self._sta("--incremental", "--edits", str(bad))
        assert code == 1
        assert "schema" in capsys.readouterr().err

    def test_unknown_benchmark(self, capsys):
        assert main(["sta", "NOPE"]) == 1
        assert "error" in capsys.readouterr().err
