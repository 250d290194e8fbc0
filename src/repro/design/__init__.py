"""Design substrate: netlists, benchmark generation, path counting and STA.

Substitutes for the paper's routed OpenCore designs and for the gate-timing
half of the flow (NLDM lookups + arrival-time propagation); see DESIGN.md.
"""

from .netlist import (DesignNet, Gate, LoadPin, NetEdit, Netlist, PathStage,
                      TimingPath)
from .generator import (DesignSpec, generate_design, make_net_with_sinks,
                        sample_timing_paths)
from .benchmarks import (DEFAULT_SCALE, PAPER_BENCHMARKS, TEST_BENCHMARKS,
                         TRAIN_BENCHMARKS, BenchmarkStats, benchmark_seed,
                         benchmark_spec, generate_benchmark)
from .paths import (count_netlist_paths, max_wire_paths, path_count_sweep,
                    wire_path_histogram)
from .sta import (AWEWireModel, BindRequest, D2MWireModel, ElmoreWireModel,
                  GoldenWireModel, PathTiming, STAEngine, STAReport,
                  StageTiming, WireTimingModel)
from .verilog import (ParsedInstance, ParsedModule, VerilogError,
                      connectivity_from_module, parse_verilog, write_verilog)
from .interchange import InterchangeError, export_design, import_design
from .reports import format_design_report, format_path_report
from .incremental import IncrementalSTAEngine
from .eco import (EDIT_SCHEMA, ECOTimingEngine, EditCommand, EditOutcome,
                  apply_edit_command, compare_timing, load_edit_script)
from .sdc import SDCError, TimingConstraints, parse_sdc, write_sdc

__all__ = [
    "Gate", "LoadPin", "DesignNet", "PathStage", "TimingPath", "Netlist",
    "DesignSpec", "generate_design", "make_net_with_sinks",
    "sample_timing_paths",
    "BenchmarkStats", "PAPER_BENCHMARKS", "TRAIN_BENCHMARKS",
    "TEST_BENCHMARKS", "DEFAULT_SCALE", "benchmark_spec", "benchmark_seed",
    "generate_benchmark",
    "count_netlist_paths", "wire_path_histogram", "max_wire_paths",
    "path_count_sweep",
    "WireTimingModel", "BindRequest", "GoldenWireModel", "ElmoreWireModel",
    "D2MWireModel", "AWEWireModel",
    "STAEngine", "STAReport", "PathTiming", "StageTiming",
    "write_verilog", "parse_verilog", "connectivity_from_module",
    "ParsedModule", "ParsedInstance", "VerilogError",
    "export_design", "import_design", "InterchangeError",
    "format_path_report", "format_design_report",
    "IncrementalSTAEngine",
    "NetEdit", "ECOTimingEngine", "EditCommand", "EditOutcome",
    "EDIT_SCHEMA", "load_edit_script", "apply_edit_command",
    "compare_timing",
    "TimingConstraints", "parse_sdc", "write_sdc", "SDCError",
]
