"""Prediction heads — Eq. (5) and Eq. (6) of the paper.

Wire slew is predicted from the path representation alone; wire delay is
predicted from the path representation *concatenated with the predicted
slew* — the slew estimate conditions the delay estimate, mirroring how a
timer derives delay and transition together.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from ..nn.layers import MLP, Module
from ..nn.tensor import Tensor, concat


class TimingHeads(Module):
    """Slew head (Eq. 5) and slew-conditioned delay head (Eq. 6).

    Parameters
    ----------
    in_features:
        Path-representation width.
    hidden:
        Hidden-layer widths of each MLP (``theta`` and ``phi``).
    condition_delay_on_slew:
        The paper's Eq. 6 behaviour; disable for the independent-heads
        ablation.
    """

    def __init__(self, in_features: int, hidden: Sequence[int],
                 rng: np.random.Generator,
                 condition_delay_on_slew: bool = True) -> None:
        super().__init__()
        self.condition_delay_on_slew = condition_delay_on_slew
        self.slew_mlp = MLP(in_features, hidden, 1, rng)          # theta
        delay_in = in_features + (1 if condition_delay_on_slew else 0)
        self.delay_mlp = MLP(delay_in, hidden, 1, rng)            # phi

    def forward(self, path_representations: Tensor) -> Tuple[Tensor, Tensor]:
        """Return ``(slew, delay)``, each shaped like the input minus its
        last axis: (B, P) for a pack's (B, P, d) representations."""
        slew = self.slew_mlp(path_representations)                # Eq. (5)
        if self.condition_delay_on_slew:
            delay_input = concat([path_representations, slew], axis=-1)
        else:
            delay_input = path_representations
        delay = self.delay_mlp(delay_input)                       # Eq. (6)
        shape = path_representations.shape[:-1]
        return slew.reshape(shape), delay.reshape(shape)
