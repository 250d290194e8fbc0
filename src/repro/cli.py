"""Command-line interface for the GNNTrans reproduction.

Installed as the ``repro`` console script.  Subcommands cover the full
user workflow without writing Python:

``repro dataset``      generate a benchmark dataset with golden labels
``repro train``        train GNNTrans (or a baseline) on a dataset file
``repro evaluate``     report R^2 / max-error of a trained model
``repro spef-timing``  golden wire timing for every net of a SPEF file
``repro sta``          full or incremental/ECO timing of a benchmark design
``repro benchmarks``   list the Table II benchmark suite
``repro bench``        load-generate against the timing service, write
                       ``SERVE_BENCH_<date>.json``
``repro serve``        run the fault-tolerant timing service (docs/SERVING.md)
``repro lint``         run the repo's AST invariant linter (docs/LINTING.md)

Example session::

    repro dataset -o ds.npz --train PCI_BRIDGE DMA --test WB_DMA --scale 1200
    repro train -d ds.npz -o model.npz --plan PlanB --epochs 40
    repro evaluate -d ds.npz -m model.npz --nontree
    repro spef-timing design.spef --input-slew 20
    repro bench --quick

Observability: ``repro report --profile`` appends a per-stage timing table,
``repro report --json`` emits the same stage timings and counters as JSON,
and setting ``REPRO_TRACE=trace.jsonl`` streams every span of any command
to a JSONL file (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core.config import PLANS


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    return args.handler(args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GNNTrans wire-timing estimation (DATE 2023 reproduction)")
    sub = parser.add_subparsers(title="commands")

    p = sub.add_parser("dataset", help="generate a dataset with golden labels")
    p.add_argument("-o", "--output", required=True, help="output .npz path")
    p.add_argument("--train", nargs="+", default=["PCI_BRIDGE", "DMA"],
                   help="training benchmark names")
    p.add_argument("--test", nargs="+", default=["WB_DMA"],
                   help="test benchmark names")
    p.add_argument("--scale", type=int, default=1200,
                   help="design down-scale factor (1 = paper size)")
    p.add_argument("--nets", type=int, default=40,
                   help="max sampled nets per design")
    p.add_argument("--no-si", action="store_true",
                   help="label without crosstalk injection")
    p.add_argument("--seed", type=int, default=7)
    p.set_defaults(handler=_cmd_dataset)

    p = sub.add_parser("train", help="train an estimator on a dataset file")
    p.add_argument("-d", "--dataset", required=True)
    p.add_argument("-o", "--output", required=True, help="model .npz path")
    p.add_argument("--plan", choices=sorted(PLANS), default="PlanB")
    p.add_argument("--model", choices=["gnntrans", "gcnii", "graphsage",
                                       "gat", "transformer"],
                   default="gnntrans")
    p.add_argument("--epochs", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_train)

    p = sub.add_parser("evaluate", help="evaluate a trained model")
    p.add_argument("-d", "--dataset", required=True)
    p.add_argument("-m", "--model", required=True)
    p.add_argument("--plan", choices=sorted(PLANS), default="PlanB",
                   help="plan the model was trained with")
    p.add_argument("--nontree", action="store_true",
                   help="evaluate the non-tree subset (Table III)")
    p.add_argument("--per-design", action="store_true",
                   help="report one row per test design")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("spef-timing",
                       help="golden wire timing for a SPEF file")
    p.add_argument("spef", help="input SPEF path")
    p.add_argument("--input-slew", type=float, default=20.0,
                   help="driver transition time in ps")
    p.add_argument("--drive-res", type=float, default=100.0,
                   help="driver Thevenin resistance in ohms")
    p.add_argument("--no-si", action="store_true",
                   help="ignore coupling (quiet aggressors)")
    p.add_argument("--lenient", action="store_true",
                   help="skip malformed *D_NET blocks instead of aborting")
    p.set_defaults(handler=_cmd_spef_timing)

    p = sub.add_parser("export-design",
                       help="write a benchmark as Verilog + SPEF + Liberty")
    p.add_argument("benchmark", help="Table II benchmark name")
    p.add_argument("-o", "--outdir", required=True)
    p.add_argument("--scale", type=int, default=1200)
    p.set_defaults(handler=_cmd_export_design)

    p = sub.add_parser("report",
                       help="STA timing report from Verilog + SPEF + Liberty")
    p.add_argument("--verilog", required=True)
    p.add_argument("--spef", required=True)
    p.add_argument("--lib", required=True)
    p.add_argument("--engine",
                   choices=["golden", "elmore", "d2m", "awe", "fallback"],
                   default="golden")
    p.add_argument("--paths", type=int, default=20,
                   help="number of timing paths to sample")
    p.add_argument("--clock", type=float, default=1500.0,
                   help="clock period in ps (paper setting: 1.5 ns)")
    p.add_argument("--sdc", help="SDC constraints file "
                                 "(overrides --clock and launch slew)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--profile", action="store_true",
                   help="append a per-stage timing profile (tracer spans)")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable JSON report (stage "
                        "timings + counters) instead of the text report")
    p.set_defaults(handler=_cmd_report)

    p = sub.add_parser(
        "sta",
        help="full or incremental (ECO) timing of a benchmark design")
    p.add_argument("benchmark", nargs="?", default="WB_DMA",
                   help="Table II benchmark name (default: WB_DMA)")
    p.add_argument("--scale", type=int, default=1200,
                   help="design down-scale factor (1 = paper size)")
    p.add_argument("--paths", type=int, default=16,
                   help="number of timing paths to sample")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--engine", choices=["golden", "elmore", "d2m", "awe"],
                   default="golden", help="wire-timing engine")
    p.add_argument("--incremental", action="store_true",
                   help="time through the ECO replay engine (stage memo + "
                        "dirty propagation; see docs/ECO.md)")
    p.add_argument("--edits", metavar="EDITS_JSON",
                   help="with --incremental: replay this edit script "
                        "(schema repro-eco-edits/1), re-timing only the "
                        "affected cones")
    p.add_argument("--verify", action="store_true",
                   help="after replay, check results are bitwise identical "
                        "to a cold full pass (exit 1 on violation)")
    p.set_defaults(handler=_cmd_sta)

    p = sub.add_parser("benchmarks", help="list the Table II suite")
    p.set_defaults(handler=_cmd_benchmarks)

    p = sub.add_parser(
        "bench",
        help="load-generate against the timing service: p50/p99 latency, "
             "nets/s and the outcome census (see docs/SERVING.md); exits 1 "
             "if a request is lost")
    p.add_argument("--quick", action="store_true",
                   help="CI-sized workload (about a second)")
    p.add_argument("--host", default=None,
                   help="target an already-running server instead of an "
                        "in-process one (needs --port)")
    p.add_argument("--port", type=int, default=None,
                   help="port of the external server (needs --host)")
    p.add_argument("-o", "--outdir", default=".",
                   help="directory for SERVE_BENCH_<date>.json "
                        "(default: cwd)")
    p.set_defaults(handler=_cmd_bench)

    p = sub.add_parser(
        "serve",
        help="run the timing-estimation service (see docs/SERVING.md)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8731,
                   help="TCP port (0 = ephemeral, printed at startup)")
    p.add_argument("--workers", type=int, default=2,
                   help="estimation worker threads")
    p.add_argument("-m", "--model", default=None,
                   help="trained estimator .npz to serve as the first tier "
                        "(requires --dataset for the feature scaler)")
    p.add_argument("-d", "--dataset", default=None,
                   help="dataset .npz the model was trained on (restores "
                        "the feature scaler)")
    p.add_argument("--plan", choices=sorted(PLANS), default="PlanB",
                   help="plan the model was trained with")
    p.add_argument("--max-queue", type=int, default=256,
                   help="admission queue bound (backpressure beyond it)")
    p.add_argument("--default-deadline", type=float, default=2.0,
                   help="seconds granted to requests that name no deadline")
    p.add_argument("--persist-cache",
                   help="directory for the disk-persistent eigensolve cache "
                        "(also REPRO_SOLVE_CACHE_DIR)")
    p.set_defaults(handler=_cmd_serve)

    p = sub.add_parser(
        "lint",
        help="run the repo's AST invariant linter (see docs/LINTING.md)")
    p.add_argument("paths", nargs="*", default=["src", "tools"],
                   help="files/directories to lint (default: src tools)")
    p.add_argument("--select", default=None,
                   help="comma-separated rule names to run exclusively "
                        "(e.g. ERR001,ERR002)")
    p.add_argument("--ignore", default=None,
                   help="comma-separated rule names to skip")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   dest="fmt", help="report format (json is repro-lint/6)")
    p.add_argument("--baseline", default=None,
                   help="baseline file of grandfathered findings (default: "
                        "lint-baseline.json when it exists)")
    p.add_argument("--deep", action="store_true",
                   help="run the whole-program analysis tier (FLOW pack)")
    p.add_argument("--concurrency", action="store_true",
                   help="also run the CONC pack (lock-order, guarded-by, "
                        "thread-escape); implies --deep")
    p.add_argument("--exclude", action="append", default=[],
                   metavar="GLOB",
                   help="glob of files to skip (repeatable; merged with "
                        "[tool.repro-lint] exclude)")
    p.add_argument("--write-baseline", action="store_true",
                   help="write the current findings to the baseline file "
                        "and exit 0")
    p.add_argument("--list-rules", action="store_true",
                   help="print the rule catalogue and exit")
    p.add_argument("-o", "--output",
                   help="also write the report to this file")
    p.set_defaults(handler=_cmd_lint)
    return parser


# ----------------------------------------------------------------------
def _cmd_dataset(args: argparse.Namespace) -> int:
    from .data import generate_dataset, save_dataset

    try:
        dataset = generate_dataset(
            train_names=args.train, test_names=args.test, scale=args.scale,
            nets_per_design=args.nets, si_mode=not args.no_si,
            seed=args.seed)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    save_dataset(args.output, dataset)
    print(f"wrote {args.output}: {len(dataset.train)} train nets "
          f"({dataset.num_train_paths} paths), {len(dataset.test)} test nets "
          f"({dataset.num_test_paths} paths)")
    if dataset.skipped:
        print(f"skipped {len(dataset.skipped)} pathological net(s):")
        for record in dataset.skipped:
            print(f"  {record.net}: {record.reason}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from dataclasses import replace

    from .baselines import make_baseline_factory
    from .core import WireTimingEstimator
    from .data import load_dataset, train_val_split

    dataset = load_dataset(args.dataset)
    config = replace(PLANS[args.plan], epochs=args.epochs, seed=args.seed)
    factory = None
    if args.model != "gnntrans":
        factory = make_baseline_factory(args.model)
    estimator = WireTimingEstimator(config, model_factory=factory)
    train, val = train_val_split(dataset.train, 0.1, seed=args.seed)
    history = estimator.fit(train, val_samples=val, epochs=args.epochs)
    estimator.save(args.output)
    print(f"trained {args.model} ({args.plan}) for {len(history)} epochs; "
          f"final loss {history.final_train_loss:.5f}; wrote {args.output}")
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from .core import WireTimingEstimator
    from .data import load_dataset, nontree_only
    from .features import NUM_NODE_FEATURES, NUM_PATH_FEATURES

    dataset = load_dataset(args.dataset)
    estimator = WireTimingEstimator(PLANS[args.plan])
    estimator.load(args.model, NUM_NODE_FEATURES, NUM_PATH_FEATURES)
    samples = dataset.test
    if args.nontree:
        samples = nontree_only(samples)
    if not samples:
        print("no samples in the requested subset", file=sys.stderr)
        return 1
    if args.per_design:
        from .data import by_design

        for design, group in sorted(by_design(samples).items()):
            print(f"{design:<12} {estimator.evaluate(group)}")
    print(f"{'overall':<12} {estimator.evaluate(samples)}")
    return 0


def _cmd_spef_timing(args: argparse.Namespace) -> int:
    from .analysis import GoldenTimer
    from .rcnet import SPEFError, load_spef

    try:
        design = load_spef(args.spef, strict=not args.lenient)
    except (OSError, SPEFError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    timer = GoldenTimer(drive_resistance=args.drive_res,
                        si_mode=not args.no_si)
    print(f"design {design.design!r}: {len(design)} nets "
          f"(input slew {args.input_slew} ps, Rdrv {args.drive_res} ohm)")
    for skip in design.skipped:
        print(f"skipped net {skip.name!r} (line {skip.line}): {skip.reason}",
              file=sys.stderr)
    for net in design.nets:
        result = timer.analyze(net, args.input_slew * 1e-12)
        for timing in result.sink_timings:
            sink_name = net.nodes[timing.sink].name
            print(f"{net.name:<20} {sink_name:<24} "
                  f"delay {timing.delay / 1e-12:8.3f} ps   "
                  f"slew {timing.slew / 1e-12:8.3f} ps")
    return 0


def _cmd_export_design(args: argparse.Namespace) -> int:
    import os

    from .design import export_design, generate_benchmark
    from .liberty import make_default_library, save_liberty

    library = make_default_library()
    try:
        netlist = generate_benchmark(args.benchmark, library, args.scale)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    os.makedirs(args.outdir, exist_ok=True)
    verilog_text, spef_text = export_design(netlist)
    with open(os.path.join(args.outdir, "netlist.v"), "w") as handle:
        handle.write(verilog_text)
    with open(os.path.join(args.outdir, "parasitics.spef"), "w") as handle:
        handle.write(spef_text)
    save_liberty(os.path.join(args.outdir, "cells.lib"), library)
    print(f"wrote netlist.v, parasitics.spef, cells.lib to {args.outdir} "
          f"({netlist.num_cells} cells, {netlist.num_nets} nets)")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import numpy as np

    from .design import (AWEWireModel, D2MWireModel, ElmoreWireModel,
                         GoldenWireModel, STAEngine, format_design_report,
                         import_design, sample_timing_paths)
    from .design.interchange import InterchangeError
    from .design.verilog import VerilogError
    from .liberty import LibertyError, load_liberty
    from .obs import get_tracer
    from .rcnet import SPEFError

    from .robustness import default_fallback_chain

    tracer = get_tracer()
    if args.profile or args.json:
        # Structured stage timings are wanted: record spans for this run.
        tracer.reset()
        tracer.enable()

    engines = {"golden": GoldenWireModel, "elmore": ElmoreWireModel,
               "d2m": D2MWireModel, "awe": AWEWireModel,
               "fallback": default_fallback_chain}
    try:
        library = load_liberty(args.lib)
        with open(args.verilog) as handle:
            verilog_text = handle.read()
        with open(args.spef) as handle:
            spef_text = handle.read()
        netlist = import_design(verilog_text, spef_text, library)
    except (OSError, LibertyError, SPEFError, VerilogError,
            InterchangeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    clock_period = args.clock * 1e-12
    launch_slew = 20e-12
    if args.sdc:
        from .design.sdc import SDCError as _SDCError
        from .design.sdc import parse_sdc

        try:
            with open(args.sdc) as handle:
                constraints = parse_sdc(handle.read())
        except (OSError, _SDCError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        clock_period = constraints.clock_period
        launch_slew = constraints.input_transition
    for path in sample_timing_paths(netlist, args.paths,
                                    np.random.default_rng(args.seed)):
        netlist.add_path(path)
    if not netlist.paths:
        print("error: no launch-to-capture paths found", file=sys.stderr)
        return 1
    wire_model = engines[args.engine]()
    report = STAEngine(netlist, wire_model,
                       launch_slew=launch_slew).analyze_design()
    if args.json:
        from .obs import dump_json, observability_document

        document = observability_document(extra={
            "schema": "repro-report/1",
            "design": report.design,
            "wire_model": report.wire_model,
            "clock_period_s": clock_period,
            "gate_seconds": report.gate_seconds,
            "wire_seconds": report.wire_seconds,
            "paths": [{"name": p.path_name, "arrival_s": p.arrival,
                       "gate_s": p.gate_delay_total,
                       "wire_s": p.wire_delay_total,
                       "stages": len(p.stages)} for p in report.paths],
        })
        if hasattr(wire_model, "counters"):
            document["fallback_tiers"] = wire_model.counters()
        print(dump_json(document))
        return 0
    print(format_design_report(report, top=10, clock_period=clock_period))
    if hasattr(wire_model, "degradation_report"):
        print()
        print(wire_model.degradation_report())
    if args.profile:
        from .obs import aggregate_spans, format_profile

        print()
        print(format_profile(aggregate_spans(tracer.spans),
                             title=f"per-stage profile ({report.design}, "
                                   f"{report.wire_model})"))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .serve.loadgen import (QUICK_SERVE_WORKLOAD,
                                THROUGHPUT_SERVE_WORKLOAD,
                                format_serve_summary, run_serve_bench,
                                write_serve_report)

    if (args.host is None) != (args.port is None):
        print("error: --host and --port name an external server together; "
              "give both or neither", file=sys.stderr)
        return 2
    workload = QUICK_SERVE_WORKLOAD if args.quick \
        else THROUGHPUT_SERVE_WORKLOAD
    document = run_serve_bench(workload, host=args.host, port=args.port)
    try:
        path = write_serve_report(document, out_dir=args.outdir)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(format_serve_summary(document))
    print(f"wrote {path}")
    lost = document["results"]["serve"]["lost_requests"]
    if lost:
        print(f"error: {lost} request(s) lost", file=sys.stderr)
        return 1
    return 0


def _cmd_sta(args: argparse.Namespace) -> int:
    import json

    import numpy as np

    from .design import (AWEWireModel, D2MWireModel, ECOTimingEngine,
                         ElmoreWireModel, GoldenWireModel, STAEngine,
                         apply_edit_command, generate_benchmark,
                         load_edit_script, sample_timing_paths)
    from .liberty import make_default_library
    from .robustness.errors import EstimationError

    if args.edits and not args.incremental:
        print("error: --edits requires --incremental", file=sys.stderr)
        return 2
    engines = {"golden": GoldenWireModel, "elmore": ElmoreWireModel,
               "d2m": D2MWireModel, "awe": AWEWireModel}
    library = make_default_library()
    try:
        netlist = generate_benchmark(args.benchmark, library, args.scale)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rng = np.random.default_rng(args.seed)
    for path in sample_timing_paths(netlist, args.paths, rng):
        netlist.add_path(path)
    if not netlist.paths:
        print("error: no launch-to-capture paths found", file=sys.stderr)
        return 1
    wire_model = engines[args.engine]()

    if not args.incremental:
        report = STAEngine(netlist, wire_model).analyze_design()
        worst = max(report.paths, key=lambda p: p.arrival)
        print(f"{netlist.name}: {len(report.paths)} paths via "
              f"{report.wire_model}; worst arrival "
              f"{worst.arrival / 1e-12:.1f} ps ({worst.path_name})")
        return 0

    engine = ECOTimingEngine(netlist, wire_model)
    engine.full_pass()
    print(f"{netlist.name}: full pass over {len(netlist.paths)} paths "
          f"({engine.engine.misses} stages timed)")
    if args.edits:
        try:
            with open(args.edits) as handle:
                document = json.load(handle)
            commands = load_edit_script(document)
        except (OSError, json.JSONDecodeError, EstimationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        for command in commands:
            try:
                edit = apply_edit_command(netlist, library, command)
                outcome = engine.apply(edit)
            except EstimationError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 1
            print(f"  {edit.summary()}: retimed {outcome.cone_size} "
                  f"path(s), reused {outcome.stages_reused} stage(s), "
                  f"dropped {outcome.stale_entries_dropped} memo "
                  f"entr(y/ies)")
        worst = max(engine.results, key=lambda p: p.arrival)
        print(f"after {len(commands)} edit(s): worst arrival "
              f"{worst.arrival / 1e-12:.1f} ps ({worst.path_name})")
    if args.verify:
        problems = engine.verify_parity()
        if problems:
            print(f"PARITY VIOLATION ({len(problems)} mismatches):",
                  file=sys.stderr)
            for problem in problems[:10]:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print("parity ok: bitwise identical to a cold full pass")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import ServeConfig, run_server
    from .serve.admission import AdmissionConfig

    learned = None
    if args.model:
        if not args.dataset:
            print("error: --model needs --dataset (the dataset .npz "
                  "carries the feature scaler)", file=sys.stderr)
            return 2
        from .core import WireTimingEstimator
        from .core.estimator import LearnedWireModel
        from .data import load_dataset
        from .features import NUM_NODE_FEATURES, NUM_PATH_FEATURES

        try:
            dataset = load_dataset(args.dataset)
            estimator = WireTimingEstimator(PLANS[args.plan])
            estimator.load(args.model, NUM_NODE_FEATURES, NUM_PATH_FEATURES)
        except (OSError, KeyError, ValueError) as exc:
            print(f"error: cannot load model/dataset: {exc}",
                  file=sys.stderr)
            return 1
        if dataset.scaler is None:
            print("error: dataset carries no feature scaler",
                  file=sys.stderr)
            return 1
        learned = LearnedWireModel(estimator, dataset.scaler)
    admission = AdmissionConfig(max_queue=args.max_queue,
                                default_deadline_s=args.default_deadline)
    config = ServeConfig(host=args.host, port=args.port,
                         workers=args.workers,
                         persist_cache_dir=args.persist_cache,
                         admission=admission)
    return run_server(config, learned=learned)


def _cmd_lint(args: argparse.Namespace) -> int:
    from .lint import (DEFAULT_BASELINE, BaselineError, ConfigError,
                       DeepAnalyzer, LintRunner, default_config,
                       default_rules, load_baseline, render_json,
                       render_text, rule_catalogue, write_baseline)
    from .lint.concurrency import CONC_RULE_CATALOGUE, CONC_RULE_NAMES
    from .lint.deep import DEEP_RULE_CATALOGUE, DEEP_RULE_NAMES

    rules = default_rules()
    if args.list_rules:
        print(rule_catalogue(list(rules) + list(DEEP_RULE_CATALOGUE)
                             + list(CONC_RULE_CATALOGUE)))
        return 0

    def _names(raw: Optional[str]) -> Optional[List[str]]:
        if raw is None:
            return None
        return [part.strip() for part in raw.split(",") if part.strip()]

    try:
        config = default_config(refresh=True)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        runner = LintRunner(rules, select=_names(args.select),
                            ignore=_names(args.ignore),
                            exclude=tuple(config.exclude)
                            + tuple(args.exclude),
                            extra_rule_names=DEEP_RULE_NAMES
                            + CONC_RULE_NAMES)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    deep = None
    if args.deep or args.concurrency:
        deep = DeepAnalyzer(concurrency=bool(args.concurrency))
    baseline_path = args.baseline or DEFAULT_BASELINE
    try:
        baseline = [] if args.write_baseline else load_baseline(baseline_path)
    except BaselineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = runner.run(list(args.paths), baseline=baseline, deep=deep)
    if args.write_baseline:
        write_baseline(baseline_path, result.findings)
        print(f"wrote {len(result.findings)} finding(s) to {baseline_path}; "
              f"add a justification to every entry")
        return 0
    report = render_json(result) if args.fmt == "json" else \
        render_text(result) + "\n"
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(report)
        except OSError as exc:
            print(f"error: cannot write {args.output!r}: {exc}",
                  file=sys.stderr)
            return 2
    print(report, end="")
    return result.exit_code


def _cmd_benchmarks(args: argparse.Namespace) -> int:
    from .bench import format_table
    from .design import PAPER_BENCHMARKS

    rows = [[s.split, s.name, s.cells, s.nets, s.nontree_nets, s.ffs, s.paths]
            for s in PAPER_BENCHMARKS.values()]
    print(format_table(
        ["split", "benchmark", "#cells", "#nets", "#non-tree", "#FFs", "#CPs"],
        rows, title="Table II benchmark suite (paper-size statistics)"))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
