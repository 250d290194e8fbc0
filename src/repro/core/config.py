"""GNNTrans hyper-parameter configurations, including the paper's Plans.

Table V evaluates three depth splits of the same total budget:
PlanA (L1=25, L2=5), PlanB (L1=20, L2=10), PlanC (L1=15, L2=15).

Training 30-layer stacks is a GPU-scale exercise; the default configs keep
the Plans' *ratios* at CPU-friendly depth (scale 1/5) — PlanA (5, 1),
PlanB (4, 2), PlanC (3, 3) — while :func:`paper_plan` returns the
full-depth configurations for users with the budget to train them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Tuple


@dataclass(frozen=True)
class GNNTransConfig:
    """Architecture and training hyper-parameters for GNNTrans.

    Attributes
    ----------
    l1:
        Number of GNN (weighted GraphSage) layers.
    l2:
        Number of graph-transformer layers.
    hidden:
        Node-representation width.
    num_heads:
        Attention heads per transformer layer (the paper's ``K``).
    head_hidden:
        Hidden widths of the slew/delay MLPs.
    residual, layer_norm:
        Stability options on the GNN / transformer stacks.
    condition_delay_on_slew:
        Eq. (6) conditioning; disable only for ablation.
    slew_parameterization:
        How the slew head's target is expressed:

        * ``"absolute"``  — predict the output slew directly (Eq. 5 as
          written);
        * ``"residual"``  — predict ``slew_out - slew_in``;
        * ``"quadrature"`` (default) — predict the intrinsic wire slew
          ``q = sqrt(slew_out^2 - slew_in^2)``, reconstructing
          ``slew_out = sqrt(slew_in^2 + q^2)``.  For a single-pole net
          ``q = ln 9 * tau`` exactly, so q is nearly independent of the
          input transition; reconstruction also *compresses* prediction
          error by the factor ``q / slew_out < 1``, which is what keeps
          multi-stage STA slew propagation tight (Table V).
    learning_rate, epochs, batch_size, grad_clip:
        Training-loop settings.
    """

    l1: int = 4
    l2: int = 2
    hidden: int = 32
    num_heads: int = 4
    head_hidden: Tuple[int, ...] = (64, 32)
    residual: bool = True
    layer_norm: bool = True
    adjacency_norm: str = "row"
    condition_delay_on_slew: bool = True
    include_path_features: bool = True
    slew_parameterization: str = "quadrature"
    learning_rate: float = 3e-3
    epochs: int = 60
    batch_size: int = 8
    grad_clip: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.l1 < 1:
            raise ValueError("l1 must be >= 1")
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")
        if self.hidden % self.num_heads != 0:
            raise ValueError("hidden must be divisible by num_heads")
        if self.slew_parameterization not in ("absolute", "residual",
                                              "quadrature"):
            raise ValueError(
                f"unknown slew parameterization "
                f"{self.slew_parameterization!r}")

    @property
    def total_layers(self) -> int:
        return self.l1 + self.l2


# CPU-scaled counterparts of Table V's plans (depth ratio preserved 5:1).
PLAN_A = GNNTransConfig(l1=5, l2=1)
PLAN_B = GNNTransConfig(l1=4, l2=2)
PLAN_C = GNNTransConfig(l1=3, l2=3)

PLANS: Dict[str, GNNTransConfig] = {
    "PlanA": PLAN_A,
    "PlanB": PLAN_B,
    "PlanC": PLAN_C,
}

DEFAULT_CONFIG = PLAN_B  # the paper's headline configuration


def paper_plan(name: str) -> GNNTransConfig:
    """Full-depth paper configurations: A=(25,5), B=(20,10), C=(15,15)."""
    depths = {"PlanA": (25, 5), "PlanB": (20, 10), "PlanC": (15, 15)}
    try:
        l1, l2 = depths[name]
    except KeyError:
        raise KeyError(f"unknown plan {name!r}; choose from {sorted(depths)}") from None
    return replace(PLANS[name], l1=l1, l2=l2)
