"""Benchmark harness: model training orchestration and table rendering.

The machinery behind ``benchmarks/`` (one bench per paper table/figure):
``train_all_models`` trains every model of Tables III/IV on a shared
dataset, ``accuracy_table`` collects slew/delay R² and max-error per model,
``format_table`` renders the aligned text tables the benches print, and
``bootstrap_ci`` provides the confidence intervals quoted in
EXPERIMENTS.md.

This package measures accuracy; speed is measured by ``perfbench/``
(docs/PERFORMANCE.md), and the ``repro bench`` command is the timing
service's load generator (:mod:`repro.serve.loadgen`).
"""

from .harness import (MODEL_ORDER, AccuracyTable, accuracy_table,
                      train_all_models, train_model)
from .reporting import format_table
from .stats import bootstrap_ci, format_ci

__all__ = [
    "MODEL_ORDER", "train_model", "train_all_models", "accuracy_table",
    "AccuracyTable", "format_table", "bootstrap_ci", "format_ci",
]
