"""Higher-order moment computation (asymptotic waveform evaluation style).

The transfer function from source to node ``k`` expands as
``H_k(s) = 1 + m1_k s + m2_k s^2 + ...``; the recursion

    m^(0) = 1 (DC gain),   m^(i) = -G^{-1} C m^(i-1)

yields each moment vector with one linear solve.  The first moment is the
negated Elmore delay; the second feeds the D2M metric (Table I's "D2M
delay" feature).

Units: ``G`` entries are siemens (1/ohm), ``C`` entries are farads, so the
``i``-th moment vector carries seconds^i.  ``sink_loads`` arguments are
``(num_sinks,)`` farads, aligned with ``net.sinks``.

The solves run through ``numpy.linalg.solve`` — the same gufunc the batched
engine (:mod:`repro.analysis.batch`) applies to size-grouped stacks of
reduced systems, so a scalar call is literally a batch of one and the two
paths agree bitwise.
"""

from __future__ import annotations

import hashlib
import struct
from typing import Optional

import numpy as np

from ..rcnet.graph import RCNet
from ..robustness.errors import InputError
from .mna import ReducedSystem, reduce_source

__all__ = ["cached_moments", "moments", "reduced_moments",
           "stacked_moments"]


def moments(net: RCNet, order: int = 2, miller_factor: Optional[float] = None,
            sink_loads: Optional[np.ndarray] = None) -> np.ndarray:
    """Moment vectors ``m^(1) .. m^(order)`` for every node.

    Returns an array of shape ``(order, num_nodes)`` indexed by original
    node index; the source row entries are 0 (its voltage is the input).
    ``result[0]`` is the (signed, negative) first moment, so the Elmore
    delay of node ``k`` is ``-result[0, k]``.
    """
    if order < 1:
        raise InputError(f"order must be >= 1, got {order}",
                         net=net.name, stage="moments")
    system = reduce_source(net, miller_factor, sink_loads)
    out = np.zeros((order, net.num_nodes), dtype=np.float64)
    out[:, system.nodes] = reduced_moments(system, order)
    return out


def cached_moments(net: RCNet, order: int = 2,
                   miller_factor: Optional[float] = None,
                   sink_loads: Optional[np.ndarray] = None) -> np.ndarray:
    """Keyed entry point to :func:`moments` via the process solve cache.

    The key is the same content digest :class:`~repro.analysis.cache.SolveCache`
    uses for eigensolves (net topology, R/C values, folded sink loads),
    namespaced by the moment order so the two value kinds can never
    collide.  Hits return the identical (read-only) array, so repeated
    feature extraction or metric evaluation over the same net pays one
    reduction and ``order`` solves total instead of per call — and stays
    bitwise equal to the uncached path.  A disabled cache degrades to a
    plain :func:`moments` call.
    """
    from .cache import get_solve_cache, solve_key
    from .mna import capacitance_vector

    cache = get_solve_cache()
    if not cache.enabled:
        return moments(net, order, miller_factor, sink_loads)
    caps = capacitance_vector(net, miller_factor=miller_factor,
                              sink_loads=sink_loads)
    key = hashlib.blake2b(
        b"moments" + struct.pack("<q", order) + solve_key(net, caps, 0.0),
        digest_size=16).digest()
    hit = cache.get(key)
    if isinstance(hit, np.ndarray):
        return hit
    out = moments(net, order, miller_factor, sink_loads)
    out.setflags(write=False)
    cache.put(key, out)
    return out


def reduced_moments(system: ReducedSystem, order: int) -> np.ndarray:
    """Moment recursion on one reduced system — shape ``(order, n-1)``.

    Split out of :func:`moments` so the batched engine can run the same
    recursion on stacked systems; see :func:`stacked_moments`.
    """
    current = np.ones(len(system.nodes), dtype=np.float64)  # m^(0): DC gain 1.
    out = np.empty((order, len(system.nodes)), dtype=np.float64)
    for k in range(order):
        current = -np.linalg.solve(system.g, system.caps * current)
        out[k] = current
    return out


def stacked_moments(g_stack: np.ndarray, caps_stack: np.ndarray,
                    order: int) -> np.ndarray:
    """Moment recursion over a stack of same-size reduced systems.

    ``g_stack`` has shape ``(k, n, n)`` and ``caps_stack`` ``(k, n)``; the
    result has shape ``(k, order, n)``.  ``numpy.linalg.solve`` loops LAPACK
    over the leading axis, so slice ``i`` of the result is bitwise equal to
    ``reduced_moments`` on system ``i`` alone — the invariant the
    batched-vs-scalar property tests pin down.
    """
    count, n = caps_stack.shape
    current = np.ones((count, n), dtype=np.float64)
    out = np.empty((count, order, n), dtype=np.float64)
    for k in range(order):
        rhs = (caps_stack * current)[..., None]
        current = -np.linalg.solve(g_stack, rhs)[..., 0]
        out[:, k, :] = current
    return out
