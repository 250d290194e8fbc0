"""Resilience subsystem: error taxonomy, degradation ladder, fault injection.

Production timers degrade gracefully instead of aborting; this package
supplies the machinery: typed errors with net/path provenance
(:mod:`~repro.robustness.errors`), numerical-health guards
(:mod:`~repro.robustness.guards`), the learned->analytic
:class:`FallbackChain` wire model (:mod:`~repro.robustness.fallback`) and a
deterministic fault-injection harness (:mod:`~repro.robustness.faultinject`).

``fallback`` and ``faultinject`` are loaded lazily (PEP 562): low-level
modules (``design.sta``, ``nn.trainer``, ``core.estimator``) import the
error taxonomy from here, and an eager import of the chain — which itself
builds on ``design.sta`` — would be circular.
"""

from .errors import (DeadlineError, EstimationError, InputError, ModelError,
                     NumericalError, OverloadError, TrainingDiverged)
from .guards import (MAX_CONDITION, check_conditioning, guarded_eigh,
                     require_finite, symmetric_condition)

_LAZY = {
    "FallbackChain": "fallback",
    "LumpedRCWireModel": "fallback",
    "NetServeRecord": "fallback",
    "TierFailure": "fallback",
    "TierStats": "fallback",
    "LAST_RESORT_TIER": "fallback",
    "default_fallback_chain": "fallback",
    "FaultInjector": "faultinject",
    "SlowTierModel": "faultinject",
    "RC_FAULT_MODES": "faultinject",
    "coupling_only_sink_net": "faultinject",
    "pathological_nets": "faultinject",
    "resistance_spread_chain": "faultinject",
    "singular_mna_net": "faultinject",
    "zero_cap_junction_chain": "faultinject",
}

__all__ = [
    "EstimationError", "InputError", "NumericalError", "ModelError",
    "TrainingDiverged", "OverloadError", "DeadlineError",
    "MAX_CONDITION", "require_finite", "check_conditioning",
    "guarded_eigh", "symmetric_condition",
    *sorted(_LAZY),
]


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value
    return value
