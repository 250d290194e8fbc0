"""End-to-end dataset generation: designs → nets → features → golden labels.

This is the reproduction of the paper's data pipeline (StarRC parasitics +
PrimeTime-SI golden reports): for every net of a generated benchmark design
we derive the electrical context from the actual driving/receiving cells,
run the golden timer, and package a :class:`~repro.features.NetSample`.

Golden labeling is the generation bottleneck (the paper parallelized the
analogous stage over 4 GPUs).  Here every design becomes per-net
:class:`NetLabelTask` units, and all nets of a build are labelled in one
process by the batch engine, one stacked solve per size group.  Net
subsampling draws from a ``SeedSequence`` child spawned per design from the
workload seed, so a design's sample does not depend on the other designs
named.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..analysis.simulator import GoldenTimer
from ..obs import get_metrics, get_tracer
from ..robustness.errors import EstimationError
from ..design.benchmarks import (DEFAULT_SCALE, PAPER_BENCHMARKS,
                                 TEST_BENCHMARKS, TRAIN_BENCHMARKS,
                                 generate_benchmark)
from ..design.netlist import Netlist
from ..features.path_features import NetContext
from ..features.pipeline import FeatureScaler, NetSample, build_net_sample
from ..liberty.ceff import effective_capacitance
from ..liberty.library import Library, make_default_library

_LAUNCH_SLEW = 20e-12

logger = logging.getLogger(__name__)

_NETS_LABELED = get_metrics().counter("dataset.nets_labeled")
_NETS_SKIPPED = get_metrics().counter("dataset.nets_skipped")


@dataclass(frozen=True)
class SkippedSample:
    """One net dropped from a dataset build, with its typed failure reason;
    ``net`` is the RC net's name, as in samples and errors."""

    net: str
    design: str
    reason: str


@dataclass
class WireTimingDataset:
    """A train/test split of net samples with a fitted feature scaler.

    ``train`` and ``test`` hold *standardized* samples; ``scaler`` carries
    the training-set statistics so new nets can be normalized identically
    at inference time.  ``skipped`` records nets whose golden labeling
    failed with a typed error and were dropped instead of aborting the
    build.
    """

    train: List[NetSample] = field(default_factory=list)
    test: List[NetSample] = field(default_factory=list)
    scaler: Optional[FeatureScaler] = None
    skipped: List[SkippedSample] = field(default_factory=list)

    def test_by_design(self) -> Dict[str, List[NetSample]]:
        """Test samples grouped per benchmark, for per-row table output."""
        grouped: Dict[str, List[NetSample]] = {}
        for sample in self.test:
            grouped.setdefault(sample.design, []).append(sample)
        return grouped

    @property
    def num_train_paths(self) -> int:
        return sum(s.num_paths for s in self.train)

    @property
    def num_test_paths(self) -> int:
        return sum(s.num_paths for s in self.test)


@dataclass(frozen=True)
class NetLabelTask:
    """One golden-labeling work unit: a net plus its electrical context.

    The RC net, the driving cell and the receiving cells travel with the
    task, so labelling needs no library object.
    """

    design: str
    rcnet: object            # RCNet
    drive_cell: object       # liberty Cell
    load_cells: Tuple[object, ...]
    si_mode: bool = True
    on_error: str = "skip"


def _label_nets_batched(tasks: Sequence[NetLabelTask]
                        ) -> List[Tuple[Optional[NetSample],
                                        Optional[SkippedSample]]]:
    """Golden-label all tasks through the batch engine, in task order.

    Each result is ``(sample, None)`` on success and ``(None, skip_record)``
    when the net fails with a typed error in skip mode; in raise mode the
    typed error propagates.  The samples equal, bit for bit, what
    :func:`~repro.features.pipeline.build_net_sample` builds for each net
    alone (the batched solver is bitwise-identical to the scalar one),
    with the per-net eigendecompositions and crossing searches fused into
    stacked calls by :func:`repro.analysis.batch.golden_analyze_many`.
    """
    from ..analysis.batch import GoldenNetJob, golden_analyze_many
    from ..features.path_features import analyze_nets_for_features

    results: List[Optional[Tuple[Optional[NetSample],
                                 Optional[SkippedSample]]]] = \
        [None] * len(tasks)
    prepared: List[Tuple[int, NetLabelTask, NetContext, GoldenTimer,
                         np.ndarray, float]] = []
    for index, task in enumerate(tasks):
        try:
            sink_loads = np.array([c.input_cap for c in task.load_cells])
            ceff = effective_capacitance(task.rcnet,
                                         task.drive_cell.drive_resistance,
                                         sink_loads)
            _, input_slew = task.drive_cell.delay_and_slew(_LAUNCH_SLEW,
                                                           ceff)
            context = NetContext(input_slew=input_slew,
                                 drive_cell=task.drive_cell,
                                 load_cells=list(task.load_cells))
            timer = GoldenTimer(
                drive_resistance=task.drive_cell.drive_resistance,
                si_mode=task.si_mode)
        except (EstimationError, np.linalg.LinAlgError) as exc:
            if task.on_error == "raise":
                raise
            results[index] = (None, SkippedSample(task.rcnet.name,
                                                  task.design, str(exc)))
            continue
        prepared.append((index, task, context, timer, sink_loads,
                         input_slew))
    # One grouped moment pass serves both the feature vectors and the
    # golden settling horizon (GoldenNetJob.elmore); failed entries stay
    # None and take the scalar path inside build_net_sample.
    analyses = analyze_nets_for_features(
        [(task.rcnet, sink_loads)
         for _, task, _, _, sink_loads, _ in prepared])
    jobs = [GoldenNetJob(timer, task.rcnet, input_slew, sink_loads,
                         elmore=None if analysis is None
                         else analysis.elmore)
            for (_, task, _, timer, sink_loads, input_slew), analysis
            in zip(prepared, analyses)]
    outcomes = golden_analyze_many(jobs)
    for (index, task, context, timer, _, _), analysis, outcome in zip(
            prepared, analyses, outcomes):
        try:
            if isinstance(outcome, Exception):
                raise outcome
            sample = build_net_sample(task.rcnet, context,
                                      design=task.design, timer=timer,
                                      golden=outcome, analysis=analysis)
            results[index] = (sample, None)
        except (EstimationError, np.linalg.LinAlgError) as exc:
            if task.on_error == "raise":
                raise
            results[index] = (None, SkippedSample(task.rcnet.name,
                                                  task.design, str(exc)))
    return results  # type: ignore[return-value]


def _net_tasks(netlist: Netlist, max_nets: Optional[int] = None,
               rng: Optional[np.random.Generator] = None,
               si_mode: bool = True, on_error: str = "skip"
               ) -> List[NetLabelTask]:
    """Decompose one design into per-net labeling tasks (optionally subsampled).

    The input slew of each net is the actual output slew of its driving
    cell at the net's effective capacitance, so features and labels see a
    self-consistent operating point — exactly what a timer would propagate.
    """
    nets = list(netlist.nets.values())
    if max_nets is not None and len(nets) > max_nets:
        rng = rng or np.random.default_rng(0)
        picked = rng.choice(len(nets), size=max_nets, replace=False)
        nets = [nets[int(i)] for i in sorted(picked)]
    return [NetLabelTask(
        design=netlist.name,
        rcnet=net.rcnet,
        drive_cell=netlist.gates[net.driver].cell,
        load_cells=tuple(netlist.gates[load.gate].cell
                         for load in net.loads),
        si_mode=si_mode,
        on_error=on_error,
    ) for net in nets]


def design_net_samples(netlist: Netlist, max_nets: Optional[int] = None,
                       rng: Optional[np.random.Generator] = None,
                       si_mode: bool = True, on_error: str = "skip",
                       skipped: Optional[List[SkippedSample]] = None
                       ) -> List[NetSample]:
    """Build one sample per net of ``netlist`` (optionally a random subset).

    A net whose golden labeling fails with a typed
    :class:`~repro.robustness.errors.EstimationError` (ill-conditioned MNA,
    non-finite or negative parasitics, ...) is skipped and logged by
    default — one pathological net must not abort an hours-long dataset
    build.  Pass ``on_error="raise"`` to fail fast instead, and a
    ``skipped`` list to collect the per-net :class:`SkippedSample` records.
    """
    if on_error not in ("skip", "raise"):
        raise ValueError(f"on_error must be 'skip' or 'raise', got {on_error!r}")
    tasks = _net_tasks(netlist, max_nets, rng, si_mode, on_error)
    return _collect(_label_nets_batched(tasks), skipped)


def _collect(results: Sequence[Tuple[Optional[NetSample],
                                     Optional[SkippedSample]]],
             skipped: Optional[List[SkippedSample]]) -> List[NetSample]:
    """Fold ordered labelling results into samples, skips and counters."""
    samples: List[NetSample] = []
    for sample, skip in results:
        if sample is not None:
            samples.append(sample)
            _NETS_LABELED.inc()
        else:
            _NETS_SKIPPED.inc()
            logger.warning("skipping net %r of design %r: %s",
                           skip.net, skip.design, skip.reason)
            if skipped is not None:
                skipped.append(skip)
    return samples


def generate_dataset(train_names: Sequence[str] = tuple(TRAIN_BENCHMARKS),
                     test_names: Sequence[str] = tuple(TEST_BENCHMARKS),
                     scale: int = DEFAULT_SCALE,
                     nets_per_design: Optional[int] = 60,
                     library: Optional[Library] = None,
                     si_mode: bool = True,
                     seed: int = 7) -> WireTimingDataset:
    """Generate and standardize the full benchmark dataset.

    Parameters
    ----------
    train_names, test_names:
        Benchmark names (defaults: the paper's Table II split).  A design
        named twice, in one list or across both, is a ``ValueError``, and
        names missing from ``PAPER_BENCHMARKS`` are one ``KeyError``; both
        are raised before any design is generated.
    scale:
        Design down-scaling factor (see :mod:`repro.design.benchmarks`).
    nets_per_design:
        Cap on sampled nets per design (None = all nets).
    library:
        Cell library (default synthetic library).
    si_mode:
        Whether golden labels include SI coupling effects.
    seed:
        Workload seed.  Each design samples its nets from its own child of
        ``numpy.random.SeedSequence(seed)``, spawned in name order.
    """
    names = list(train_names) + list(test_names)
    repeated = sorted({name for name in names if names.count(name) > 1})
    if repeated:
        raise ValueError(f"design(s) named more than once in train/test: "
                         f"{', '.join(repeated)}")
    unknown = [name for name in names if name not in PAPER_BENCHMARKS]
    if unknown:
        raise KeyError(f"unknown benchmark(s) {', '.join(unknown)}; "
                       f"see PAPER_BENCHMARKS")
    library = library if library is not None else make_default_library()

    tracer = get_tracer()
    with tracer.span("dataset.generate", designs=len(names), scale=scale,
                     nets_per_design=nets_per_design) as span:
        tasks: List[NetLabelTask] = []
        for name, child in zip(names,
                               np.random.SeedSequence(seed).spawn(len(names))):
            with tracer.span("dataset.design", design=name, scale=scale):
                netlist = generate_benchmark(name, library, scale)
                tasks.extend(_net_tasks(netlist, nets_per_design,
                                        np.random.default_rng(child),
                                        si_mode))
        skipped: List[SkippedSample] = []
        samples = _collect(_label_nets_batched(tasks), skipped)
        train_set = set(train_names)
        train = [s for s in samples if s.design in train_set]
        test = [s for s in samples if s.design not in train_set]
        span.set(train_nets=len(train), test_nets=len(test),
                 skipped_nets=len(skipped))

        scaler = FeatureScaler().fit(train)
        return WireTimingDataset(
            train=scaler.transform(train),
            test=scaler.transform(test),
            scaler=scaler,
            skipped=skipped,
        )
