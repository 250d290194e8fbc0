"""D2M two-moment delay metric (Alpert, Devgan & Kashyap, ISPD 2000).

D2M sharpens Elmore's notorious pessimism on resistively-shielded nodes by
mixing the first two moments:

    D2M = ln(2) * m1^2 / sqrt(m2)

where ``m1``/``m2`` are the (unsigned) first and second moments of the node
transfer function.  It is one of the raw path features of Table I.
``sink_loads`` arguments are ``(num_sinks,)`` farads, aligned with
``net.sinks``; delays come back as one ``(num_nodes,)`` vector.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..rcnet.graph import RCNet
from .moments import cached_moments

__all__ = ["d2m_from_moments", "d2m_delays", "d2m_delay_to_sink"]

_LN2 = float(np.log(2.0))


def d2m_from_moments(m: np.ndarray) -> np.ndarray:
    """D2M metric from a precomputed (signed) moment matrix.

    ``m`` is the ``(order >= 2, num_nodes)`` output of
    :func:`~repro.analysis.moments.moments`; callers that already hold the
    moments (unified feature extraction, the batched engine) skip the
    redundant solves that :func:`d2m_delays` would repeat.
    """
    m1 = -m[0]          # Elmore delay (positive).
    m2 = m[1]           # Second moment (positive for RC nets).
    out = np.zeros_like(m1)
    valid = m2 > 0.0
    out[valid] = _LN2 * (m1[valid] ** 2) / np.sqrt(m2[valid])
    out[~valid] = _LN2 * m1[~valid]
    return out


def d2m_delays(net: RCNet, miller_factor: Optional[float] = None,
               sink_loads: Optional[np.ndarray] = None) -> np.ndarray:
    """D2M delay from the source to every node, in seconds.

    Where the moment data is degenerate (``m2 <= 0``, which can only happen
    through numerical noise on near-zero-delay nodes) the metric falls back
    to the Elmore delay.
    """
    m = cached_moments(net, order=2, miller_factor=miller_factor,
                       sink_loads=sink_loads)
    return d2m_from_moments(m)


def d2m_delay_to_sink(net: RCNet, sink: int,
                      miller_factor: Optional[float] = None,
                      sink_loads: Optional[np.ndarray] = None) -> float:
    """D2M delay for one sink, in seconds."""
    return float(d2m_delays(net, miller_factor, sink_loads)[sink])
