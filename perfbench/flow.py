"""Workloads, repetitions and correctness checks of the repro benchmark.

Every workload runs the whole user flow in each timed repetition, through
the library's public calls in one process with ``jobs=1``:

    label  ``generate_dataset``: golden-label and featurize nets
    fit    ``WireTimingEstimator.fit`` for a fixed epoch count
    infer  ``WireTimingEstimator.predict`` on held-out nets
    sta    a cold ``STAEngine.analyze_design`` with ``LearnedWireModel``
    eco    ``ECOTimingEngine.apply`` over a seeded script of RC edits

The workloads differ in which stage gets the large input (see README.md).
Set-up labels a fixed reference training set, fits the reference model on
it, and scores R^2 and arrival error against the golden STA.  The training
set, the model seed and the held-out nets do not depend on the seed, so
the scores measure the code, not the draw.  The seed draws the label set,
the STA paths and the ECO edit script.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.awe import get_awe_cache
from repro.analysis.cache import get_solve_cache
from repro.core import WireTimingEstimator
from repro.core.config import DEFAULT_CONFIG
from repro.core.estimator import LearnedWireModel
from repro.data import generate_dataset
from repro.design import (ECOTimingEngine, GoldenWireModel, STAEngine,
                          generate_benchmark)
from repro.liberty.library import make_default_library
from repro.nn.metrics import r2_score

from layers import LayerTracer

_PS = 1e-12


@dataclass(frozen=True)
class Reference:
    """Seed-independent inputs: reference model and STA design pool."""

    train_designs: Tuple[str, ...] = ("PCI_BRIDGE", "DMA", "B19", "SALSA")
    test_designs: Tuple[str, ...] = ("WB_DMA", "LDPC")
    scale: int = 300
    nets_per_design: int = 64
    seed: int = 7
    epochs: int = 4
    sta_design: str = "WB_DMA"
    sta_scale: int = 200
    sta_pool_paths: int = 250
    quality_paths: int = 200


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload's repetition; the named stage gets the most."""

    name: str
    label_designs: Tuple[str, ...]
    label_scale: int
    label_cap: Optional[int]
    fit_nets: Optional[int]      # leading reference training nets, None=all
    fit_epochs: int
    infer_nets: Optional[int]    # leading held-out nets, None=all
    sta_paths: int               # leading paths of the seeded path order


REFERENCE = Reference()

WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("label",
             ("PCI_BRIDGE", "DMA", "B19", "SALSA", "VGA_LCD", "WB_DMA"),
             300, 120, fit_nets=64, fit_epochs=1, infer_nets=32,
             sta_paths=48),
    Workload("model", ("PCI_BRIDGE", "DMA"), 300, 32, fit_nets=None,
             fit_epochs=REFERENCE.epochs, infer_nets=None, sta_paths=150),
)}


# ----------------------------------------------------------------------
# Digests: what "the same output" means between repetitions
# ----------------------------------------------------------------------
def _digest(arrays: Sequence[np.ndarray], names: Sequence[str] = ()) -> str:
    h = hashlib.blake2b(digest_size=16)
    for name in names:
        h.update(name.encode())
    for array in arrays:
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return h.hexdigest()


def label_digest(samples) -> str:
    """Names and golden labels of a labeled sample list."""
    return _digest([np.array([(p.label_slew, p.label_delay)
                              for p in s.paths]) for s in samples],
                   [f"{s.design}/{s.name}" for s in samples])


def state_digest(estimator: WireTimingEstimator) -> str:
    state = estimator.model.state_dict()
    return _digest([state[k] for k in sorted(state)], sorted(state))


def netlist_digest(netlist) -> str:
    """Parasitics, cells and paths of a netlist (what ECO edits mutate)."""
    names, arrays = [], []
    for name in sorted(netlist.nets):
        net = netlist.nets[name]
        names.append(f"{name}:{netlist.gates[net.driver].cell.name}")
        arrays.append(net.rcnet.cap_vector())
        arrays.append(np.array([e.resistance for e in net.rcnet.edges]))
    names += [f"{p.name}:{len(p.stages)}" for p in netlist.paths]
    return _digest(arrays, names)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
@dataclass
class Prepared:
    """Everything set-up builds; repetitions only read it."""

    workload: Workload
    reference: Reference
    seed: int
    library: object
    train: list
    test: list
    model: WireTimingEstimator
    model_digest: str
    wire_model: LearnedWireModel
    sta_netlist: object          # pristine, holds the timed paths
    sta_digest: str
    edits: List[Tuple[str, float, float]]
    r2_slew: float
    r2_delay: float
    arrival_mae_ps: float
    quality_paths: int
    nonfinite_arrivals: int


def _path_subset(netlist, indices: Sequence[int]):
    subset = copy.deepcopy(netlist)
    subset.paths = [netlist.paths[int(i)] for i in sorted(indices)]
    return subset


def prepare(workload: Workload, seed: int,
            reference: Reference = REFERENCE) -> Prepared:
    """Build the inputs of one run: seed-driven draws plus the reference."""
    library = make_default_library()
    dataset = generate_dataset(reference.train_designs,
                               reference.test_designs, scale=reference.scale,
                               nets_per_design=reference.nets_per_design,
                               library=library, seed=reference.seed)
    model = WireTimingEstimator(DEFAULT_CONFIG)
    history = model.fit(dataset.train, epochs=reference.epochs, patience=None)
    if history.diverged is not None:
        raise CheckFailed(f"reference fit diverged: {history.diverged}")
    slew, delay = model.predict(dataset.test)
    true_slew = np.array([p.label_slew for s in dataset.test for p in s.paths])
    true_delay = np.array([p.label_delay for s in dataset.test
                           for p in s.paths])
    wire_model = LearnedWireModel(model, dataset.scaler)

    pool = generate_benchmark(reference.sta_design, library,
                              reference.sta_scale,
                              n_paths=reference.sta_pool_paths)
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(pool.paths))
    quality = _path_subset(pool, order[:reference.quality_paths])
    golden = STAEngine(quality, GoldenWireModel()).analyze_design().arrivals()
    learned = STAEngine(quality, wire_model).analyze_design().arrivals()
    finite = np.isfinite(learned)
    sta_netlist = _path_subset(pool, order[:workload.sta_paths])
    nets = sorted({stage.net for path in sta_netlist.paths
                   for stage in path.stages})
    edits = [(nets[int(i)], float(rng.uniform(0.8, 1.25)),
              float(rng.uniform(0.8, 1.25)))
             for i in rng.permutation(len(nets))]
    return Prepared(
        workload=workload, reference=reference, seed=seed, library=library,
        train=dataset.train, test=dataset.test, model=model,
        model_digest=state_digest(model), wire_model=wire_model,
        sta_netlist=sta_netlist, sta_digest=netlist_digest(sta_netlist),
        edits=edits, r2_slew=r2_score(true_slew, slew),
        r2_delay=r2_score(true_delay, delay),
        arrival_mae_ps=float(np.mean(np.abs(
            learned[finite] - golden[finite]))) / _PS,
        quality_paths=len(learned),
        nonfinite_arrivals=int(np.count_nonzero(~finite)))


# ----------------------------------------------------------------------
# One repetition
# ----------------------------------------------------------------------
class CheckFailed(Exception):
    """A correctness check of the benchmark failed."""


@dataclass
class Rep:
    """Timings, counts and output digests of one repetition."""

    start_state: Tuple[int, int, str] = (0, 0, "")
    label_s: float = 0.0
    nets_labeled: int = 0
    nets_skipped: int = 0
    label_digest: str = ""
    label_bad: int = 0
    fit_s: float = 0.0
    epoch_s: List[float] = field(default_factory=list)
    fit_samples: int = 0
    fit_digest: str = ""
    fit_ok: bool = True
    infer_s: float = 0.0
    infer_nets: int = 0
    prior_fallbacks: int = 0
    infer_digest: str = ""
    sta_s: float = 0.0
    stages: int = 0
    paths: int = 0
    nonfinite_arrivals: int = 0
    sta_digest: str = ""
    sta_wire_s: float = 0.0
    sta_gate_s: float = 0.0
    eco_full_pass_s: float = 0.0
    stages_unique: int = 0
    edit_ms: List[float] = field(default_factory=list)
    cone_paths: int = 0
    stages_reused: int = 0
    eco_digest: str = ""
    eco: Optional[ECOTimingEngine] = None

    @property
    def wall_s(self) -> float:
        """Time inside the measured calls (restores and checks excluded)."""
        return (self.label_s + self.fit_s + self.infer_s + self.sta_s
                + self.eco_full_pass_s + sum(self.edit_ms) / 1e3)


def begin_rep(prep: Prepared):
    """Repetition hygiene: empty the solver caches, restore the netlist."""
    get_solve_cache().clear()
    get_awe_cache().clear()
    return copy.deepcopy(prep.sta_netlist)


def run_rep(prep: Prepared, tracer: Optional[LayerTracer] = None) -> Rep:
    """One timed pass of the flow; ``tracer`` records layer self times."""
    w = prep.workload
    span = tracer.span if tracer is not None else \
        (lambda *_: contextlib.nullcontext())
    clock = time.perf_counter
    rep = Rep()
    netlist = begin_rep(prep)
    rep.start_state = (len(get_solve_cache()), len(get_awe_cache()),
                       netlist_digest(netlist))

    start = clock()
    with span("data.generate_s", "data"):
        dataset = generate_dataset(w.label_designs, (), scale=w.label_scale,
                                   nets_per_design=w.label_cap,
                                   library=prep.library, seed=prep.seed)
    rep.label_s = clock() - start
    rep.nets_labeled = len(dataset.train)
    rep.nets_skipped = len(dataset.skipped)
    rep.label_digest = label_digest(dataset.train)
    labels = np.array([(p.label_slew, p.label_delay)
                       for s in dataset.train for p in s.paths])
    rep.label_bad = int(np.count_nonzero(~(np.isfinite(labels)
                                           & (labels > 0))))

    fit_set = prep.train[:w.fit_nets]
    estimator = WireTimingEstimator(DEFAULT_CONFIG)
    start = clock()
    with span("core.fit_s", "core"):
        history = estimator.fit(fit_set, epochs=w.fit_epochs, patience=None)
    rep.fit_s = clock() - start
    rep.epoch_s = [epoch.seconds for epoch in history.epochs]
    rep.fit_samples = len(fit_set) * w.fit_epochs
    rep.fit_ok = history.diverged is None and all(
        np.isfinite(e.train_loss) for e in history.epochs)
    rep.fit_digest = state_digest(estimator)

    held_out = prep.test[:w.infer_nets]
    fallbacks = prep.model.degradation_counts.get("label-prior", 0)
    start = clock()
    with span("core.infer_s", "core"):
        slew, delay = prep.model.predict(held_out)
    rep.infer_s = clock() - start
    rep.infer_nets = len(held_out)
    rep.prior_fallbacks = (prep.model.degradation_counts.get("label-prior", 0)
                           - fallbacks)
    rep.infer_digest = _digest([slew, delay])

    start = clock()
    with span("design.sta_s", "design"):
        report = STAEngine(netlist, prep.wire_model).analyze_design()
    rep.sta_s = clock() - start
    arrivals = report.arrivals()
    rep.paths = len(report.paths)
    rep.stages = sum(len(p.stages) for p in report.paths)
    rep.nonfinite_arrivals = int(np.count_nonzero(~np.isfinite(arrivals)))
    rep.sta_digest = _digest([arrivals])
    rep.sta_wire_s = report.wire_seconds
    rep.sta_gate_s = report.gate_seconds

    eco = ECOTimingEngine(netlist, prep.wire_model)
    start = clock()
    with span("design.eco_full_pass_s", "design"):
        eco.full_pass()
    rep.eco_full_pass_s = clock() - start
    rep.stages_unique = eco.engine.misses
    for net, r_factor, c_factor in prep.edits:
        edit = netlist.scale_net_rc(net, r_factor=r_factor,
                                    c_factor=c_factor)
        start = clock()
        with span("design.eco_apply_s", "design"):
            outcome = eco.apply(edit)
        rep.edit_ms.append((clock() - start) * 1e3)
        rep.cone_paths += outcome.cone_size
        rep.stages_reused += outcome.stages_reused
    rep.eco_digest = _digest([np.array([p.arrival for p in eco.results])])
    rep.eco = eco
    return rep


def run_timed(prep: Prepared, seconds: float, min_reps: int = 3,
              before: Optional[Callable[[], Optional[LayerTracer]]] = None,
              after: Optional[Callable[[Rep], None]] = None) -> List[Rep]:
    """Repeat the flow until ``seconds`` have passed and ``min_reps`` ran.

    ``before`` may return a tracer for the next repetition and ``after``
    sees each finished one.  Only the last repetition keeps its ECO
    engine, for the parity check.
    """
    reps: List[Rep] = []
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        tracer = before() if before is not None else None
        rep = run_rep(prep, tracer)
        if after is not None:
            after(rep)
        if reps:
            reps[-1].eco = None
        reps.append(rep)
    return reps


# ----------------------------------------------------------------------
# Checks and aggregation
# ----------------------------------------------------------------------
def check_reps(prep: Prepared, reps: Sequence[Rep]) -> List[str]:
    """Every correctness failure across the repetitions of one run."""
    problems: List[str] = []
    clean = (0, 0, prep.sta_digest)
    for index, rep in enumerate(reps):
        if rep.start_state != clean:
            problems.append(f"rep {index}: started with state "
                            f"{rep.start_state}, expected {clean}")
        if rep.label_bad:
            problems.append(f"rep {index}: {rep.label_bad} non-finite or "
                            f"non-positive golden labels")
        if not rep.fit_ok:
            problems.append(f"rep {index}: fit diverged or non-finite")
        if rep.nonfinite_arrivals:
            problems.append(f"rep {index}: {rep.nonfinite_arrivals} "
                            f"non-finite arrivals")
    for what in ("label_digest", "fit_digest", "infer_digest", "sta_digest",
                 "eco_digest"):
        if len({getattr(rep, what) for rep in reps}) > 1:
            problems.append(f"{what} differs between repetitions")
    w, ref = prep.workload, prep.reference
    if w.fit_nets is None and w.fit_epochs == ref.epochs and reps \
            and reps[0].fit_digest != prep.model_digest:
        problems.append("repeated fit differs from the reference fit")
    if prep.nonfinite_arrivals:
        problems.append(f"{prep.nonfinite_arrivals} non-finite arrivals in "
                        f"the quality STA pass")
    return problems


def fastest(values: Sequence[float]) -> Tuple[float, str]:
    """Smallest time and a note with the median, for the printed line."""
    return min(values), (f"fastest of {len(values)}, median "
                         f"{statistics.median(values):.4g}")


def best_fit_s(reps: Sequence[Rep]) -> float:
    """Fit time with each epoch at its fastest repetition.

    Every repetition fits the same model from the same data, so epoch
    ``e`` is the same work in each; the per-epoch minimum keeps a short
    slow spell of the host out of the figure.
    """
    overhead = min(r.fit_s - sum(r.epoch_s) for r in reps)
    return overhead + sum(min(epochs) for epochs in
                          zip(*(r.epoch_s for r in reps)))


def end_to_end(prep: Prepared, reps: Sequence[Rep], setup_s: float,
               peak_rss_mb: float) -> Dict[str, Tuple[float, str, str]]:
    """End-to-end metrics: name -> (value, unit, how it was taken).

    Throughputs use each stage's fastest repetition, and edit latencies
    each edit's fastest replay.  Every repetition does identical work, so
    the spread between repetitions is the host's speed, which drifts by
    tens of percent over tens of seconds on a shared machine.
    """
    first = reps[0]
    label_s, label_note = fastest([r.label_s for r in reps])
    infer_s, infer_note = fastest([r.infer_s for r in reps])
    sta_s, sta_note = fastest([r.sta_s for r in reps])
    fit_s = best_fit_s(reps)
    edit_ms = np.min([r.edit_ms for r in reps], axis=0)
    p50 = float(np.percentile(edit_ms, 50))
    p90 = float(np.percentile(edit_ms, 90))
    beyond = int(np.count_nonzero(edit_ms > p90))
    edits_note = (f"{len(edit_ms)} edits, fastest of {len(reps)} replays "
                  f"each")
    return {
        "setup_s": (setup_s, "s", "1 set-up"),
        "label_nets_per_s": (first.nets_labeled / label_s, "nets/s",
                             label_note + " s"),
        "train_samples_per_s": (first.fit_samples / fit_s, "net-samples/s",
                                f"{len(first.epoch_s)} epochs, each the "
                                f"fastest of {len(reps)}"),
        "infer_nets_per_s": (first.infer_nets / infer_s, "nets/s",
                             infer_note + " s"),
        "r2_slew": (prep.r2_slew, "1", f"{len(prep.test)} held-out nets"),
        "r2_delay": (prep.r2_delay, "1", f"{len(prep.test)} held-out nets"),
        "sta_stages_per_s": (first.stages / sta_s, "stages/s",
                             sta_note + " s"),
        "arrival_mae_ps": (prep.arrival_mae_ps, "ps",
                           f"{prep.quality_paths} paths"),
        "eco_edit_p50_ms": (p50, "ms", edits_note),
        "eco_edit_p90_ms": (p90, "ms", f"{edits_note}, {beyond} beyond"
                            f"{'' if beyond >= 10 else ' (too few)'}"),
        "peak_rss_mb": (peak_rss_mb, "MB", "1 process"),
    }


def failure_counts(reps: Sequence[Rep],
                   parity_mismatches: int) -> Tuple[int, int]:
    """(attempted, failed) ops: nets labeled, predictions, timed paths."""
    attempted = sum(r.nets_labeled + r.nets_skipped + r.infer_nets + r.paths
                    for r in reps)
    failed = sum(r.nets_skipped + r.prior_fallbacks + r.nonfinite_arrivals
                 + (0 if r.fit_ok else r.infer_nets) for r in reps)
    return attempted, failed + parity_mismatches
