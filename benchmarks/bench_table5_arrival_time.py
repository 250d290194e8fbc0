"""Table V — path arrival-time accuracy and runtime, PlanA/B/C vs DAC20.

Protocol (Section III-A / IV-B of the paper): the circuit path arrival
time is "the cumulative addition of our estimated wire delay and cell
delay from the timing library", with cell delays evaluated at the
sign-off operating points — so wire-delay error is what accumulates.
That is ``STAEngine(..., slew_model=GoldenWireModel())`` here.  A second
table reports the harder fully self-consistent mode where the learned
slews also propagate through every gate lookup.

Expected shape: every GNNTrans plan has far lower max error than DAC20
(paper: 1.7-3.5 ps vs 74.6 ps) and the learned wire engine is much faster
than the golden one.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import (BENCH_CONFIG, BENCH_EPOCHS, BENCH_SCALE, BENCH_TEST,
                      emit)
from repro.baselines import DAC20WireModel
from repro.bench import format_table, train_model
from repro.core import (PLAN_A, PLAN_B, PLAN_C, LearnedWireModel,
                        WireTimingEstimator)
from repro.data import train_val_split
from repro.design import GoldenWireModel, STAEngine, generate_benchmark
from repro.nn import max_abs_error, r2_score

_PS = 1e-12
PLAN_CONFIGS = {"PlanA": PLAN_A, "PlanB": PLAN_B, "PlanC": PLAN_C}


@pytest.fixture(scope="module")
def plan_models(dataset):
    """GNNTrans trained under each of the paper's three plans."""
    models = {}
    train, val = train_val_split(dataset.train, 0.1, seed=0)
    for plan, config in PLAN_CONFIGS.items():
        estimator = WireTimingEstimator(
            replace(config, epochs=BENCH_EPOCHS))
        estimator.fit(train, val_samples=val, epochs=BENCH_EPOCHS)
        models[plan] = estimator
    return models


@pytest.fixture(scope="module")
def dac20_model(dataset):
    # Trained directly (not via the six-model session fixture) so this
    # bench can run standalone without training the graph baselines.
    return DAC20WireModel(train_model("DAC20", dataset), dataset.scaler)


def test_table5_arrival_time_accuracy(benchmark, dataset, plan_models,
                                      dac20_model, library, capsys):
    rows = []
    summaries = {name: {"r2": [], "max_err": []}
                 for name in ["DAC20"] + list(PLAN_CONFIGS)}
    selfcon_rows = []
    runtime_rows = []
    for design_name in BENCH_TEST:
        netlist = generate_benchmark(design_name, library, scale=BENCH_SCALE)
        golden_model = GoldenWireModel()
        golden_report = STAEngine(netlist, golden_model).analyze_design()
        golden = golden_report.arrivals()

        cells = {}
        wire_seconds = {}
        report = STAEngine(netlist, dac20_model,
                           slew_model=golden_model).analyze_design()
        arrivals = report.arrivals()
        cells["DAC20"] = (r2_score(golden, arrivals),
                          max_abs_error(golden, arrivals) / _PS)
        wire_seconds["DAC20"] = report.wire_seconds

        gate_seconds = None
        for plan, estimator in plan_models.items():
            model = LearnedWireModel(estimator, dataset.scaler)
            report = STAEngine(netlist, model,
                               slew_model=golden_model).analyze_design()
            arrivals = report.arrivals()
            cells[plan] = (r2_score(golden, arrivals),
                           max_abs_error(golden, arrivals) / _PS)

        # Self-consistent mode (learned slews propagate) for PlanB, and
        # the runtime split measured without any golden assistance.
        model_b = LearnedWireModel(plan_models["PlanB"], dataset.scaler)
        report = STAEngine(netlist, model_b).analyze_design()
        arrivals = report.arrivals()
        selfcon_rows.append([design_name,
                             f"{r2_score(golden, arrivals):.3f}",
                             f"{max_abs_error(golden, arrivals) / _PS:.2f}"])
        wire_seconds["PlanB"] = report.wire_seconds
        gate_seconds = report.gate_seconds

        row = [design_name]
        for name in ["DAC20", "PlanA", "PlanB", "PlanC"]:
            r2, max_err = cells[name]
            row.append(f"{r2:.3f}/{max_err:.2f}")
            summaries[name]["r2"].append(r2)
            summaries[name]["max_err"].append(max_err)
        rows.append(row)

        runtime_rows.append([
            design_name, len(netlist.paths),
            f"{golden_report.total_seconds:.2f}",
            f"{gate_seconds:.2f}",
            f"{wire_seconds['PlanB']:.2f}",
            f"{gate_seconds + wire_seconds['PlanB']:.2f}",
        ])

    avg_row = ["Average"]
    for name in ["DAC20", "PlanA", "PlanB", "PlanC"]:
        avg_row.append(f"{np.mean(summaries[name]['r2']):.3f}/"
                       f"{np.mean(summaries[name]['max_err']):.2f}")
    rows.append(avg_row)

    emit(capsys, format_table(
        ["Benchmark", "DAC20 R2/MaxErr(ps)", "PlanA", "PlanB", "PlanC"],
        rows,
        title="Table V (accuracy): path arrival time vs golden STA "
              "(paper avg: DAC20 0.648/74.6ps, PlanB 0.985/1.9ps)"))
    emit(capsys, format_table(
        ["Benchmark", "#Paths", "Full STA-SI(s)", "Gate(s)",
         "Wire(s, PlanB)", "Total(s)"],
        runtime_rows,
        title="Table V (runtime): STA runtime split"))
    emit(capsys, format_table(
        ["Benchmark", "R2", "MaxErr(ps)"], selfcon_rows,
        title="Extension: fully self-consistent propagation "
              "(learned slews drive every gate lookup)"))

    # Shape assertions: every plan beats DAC20 on max error and R^2.
    dac_max_err = np.mean(summaries["DAC20"]["max_err"])
    for plan in PLAN_CONFIGS:
        assert np.mean(summaries[plan]["max_err"]) < dac_max_err
        assert np.mean(summaries[plan]["r2"]) > np.mean(
            summaries["DAC20"]["r2"])
    # Headline: GNNTrans max arrival error stays in the few-ps regime.
    assert np.mean(summaries["PlanB"]["max_err"]) < 10.0

    netlist = generate_benchmark(BENCH_TEST[0], library, scale=BENCH_SCALE)
    engine = STAEngine(netlist,
                       LearnedWireModel(plan_models["PlanB"], dataset.scaler))
    benchmark(engine.analyze_design)
