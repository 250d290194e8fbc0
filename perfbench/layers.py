"""Per-layer self times for the traced benchmark run.

The benchmark wraps the library's public entry points where their callers
look them up (``effective_capacitance`` as bound in ``repro.design.sta``,
``Tensor.backward`` on the class, ...).  Each wrapped call is a frame on
one stack.  A frame's self time is its duration minus the time of the
frames it encloses, so the self times of all frames add up to the traced
wall time without double counting.  Nothing is wrapped in an untraced run.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable, Dict, List, Tuple

#: (module, attribute path, metric name, layer).  A dotted attribute path
#: wraps a method on its class; a plain one wraps a module-level binding.
WRAPPED: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.data.generate", "generate_benchmark", "design.generate_s",
     "design"),
    ("repro.analysis.batch", "golden_analyze_many", "analysis.golden_s",
     "analysis"),
    ("repro.features.path_features", "analyze_nets_for_features",
     "features.moments_s", "features"),
    ("repro.data.generate", "build_net_sample", "features.build_s",
     "features"),
    ("repro.core.estimator", "build_net_sample", "features.build_s",
     "features"),
    ("repro.nn.tensor", "Tensor.backward", "nn.backward_s", "nn"),
    ("repro.nn.optim", "Adam.step", "nn.optim_step_s", "nn"),
    ("repro.nn.optim", "Optimizer.clip_grad_norm", "nn.clip_s", "nn"),
    ("repro.nn.trainer", "Trainer.fit", "nn.trainer_s", "nn"),
    ("repro.core.gnn_layer", "GNNModule.forward", "core.gnn_s", "core"),
    ("repro.core.transformer_layer", "TransformerModule.forward",
     "core.transformer_s", "core"),
    ("repro.core.gnntrans", "pool_paths", "core.pool_s", "core"),
    ("repro.core.heads", "TimingHeads.forward", "core.heads_s", "core"),
    ("repro.core.estimator", "WireTimingEstimator.predict_sample",
     "core.predict_s", "core"),
    ("repro.core.estimator", "LearnedWireModel.wire_timing",
     "core.learned_wire_s", "core"),
    ("repro.design.sta", "effective_capacitance", "liberty.ceff_s",
     "liberty"),
    ("repro.design.incremental", "effective_capacitance", "liberty.ceff_s",
     "liberty"),
    ("repro.data.generate", "effective_capacitance", "liberty.ceff_s",
     "liberty"),
    ("repro.liberty.cell", "Cell.delay_and_slew", "liberty.nldm_s",
     "liberty"),
)

LAYERS = ("data", "design", "analysis", "features", "nn", "core", "liberty")


class _Frame:
    __slots__ = ("tracer", "name", "layer", "start", "children")

    def __init__(self, tracer: "LayerTracer", name: str, layer: str) -> None:
        self.tracer = tracer
        self.name = name
        self.layer = layer
        self.start = 0.0
        self.children = 0.0

    def __enter__(self) -> "_Frame":
        self.start = time.perf_counter()
        self.tracer._stack.append(self)
        return self

    def __exit__(self, *exc: object) -> None:
        duration = time.perf_counter() - self.start
        stack = self.tracer._stack
        stack.pop()
        self.tracer.self_s[self.name] = (self.tracer.self_s.get(self.name, 0.0)
                                         + duration - self.children)
        self.tracer.calls[self.name] = self.tracer.calls.get(self.name, 0) + 1
        self.tracer.layer_s[self.layer] = (
            self.tracer.layer_s.get(self.layer, 0.0)
            + duration - self.children)
        if stack:
            stack[-1].children += duration


class LayerTracer:
    """Self time and call count per span name, and self time per layer."""

    def __init__(self) -> None:
        self._stack: List[_Frame] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.layer_s: Dict[str, float] = {}

    def span(self, name: str, layer: str) -> _Frame:
        return _Frame(self, name, layer)


def _wrap(tracer_ref: List[LayerTracer], fn: Callable, name: str,
          layer: str) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer_ref[0].span(name, layer):
            return fn(*args, **kwargs)
    return wrapper


class Instrumentation:
    """Installs the wrappers of :data:`WRAPPED`; ``remove`` restores them.

    ``tracer`` can be swapped between repetitions so each one gets its own
    totals without re-wrapping.
    """

    def __init__(self, tracer: LayerTracer) -> None:
        self._tracer_ref = [tracer]
        self._saved: List[Tuple[object, str, object]] = []
        for module_name, attr_path, name, layer in WRAPPED:
            owner: object = importlib.import_module(module_name)
            *owners, attr = attr_path.split(".")
            for part in owners:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self._tracer_ref, original, name,
                                       layer))

    @property
    def tracer(self) -> LayerTracer:
        return self._tracer_ref[0]

    @tracer.setter
    def tracer(self, tracer: LayerTracer) -> None:
        self._tracer_ref[0] = tracer

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
