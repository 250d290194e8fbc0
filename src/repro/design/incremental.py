"""Incremental STA: cached stage timing with gate-level invalidation.

The paper's closing claim is that a fast wire estimator "can be integrated
into incremental timing optimization for routed designs".  Optimization
loops re-time the same design after small edits (cell up-sizing, buffer
insertion); almost all stage timings are unchanged between iterations.
:class:`IncrementalSTAEngine` is the STA stage kernel
(:class:`~repro.design.sta.StageTimer`) with its memo kept across calls:
it invalidates only the nets whose driver or receivers changed, so the
second and later STA passes cost a fraction of the first.

Correctness note: a stage's timing depends on its input slew, which
changes when anything *upstream* changes — that dependence is captured by
keying the memo on the exact input slew rather than by tracing fanin
cones, so a stale entry can never be returned, only missed, and every hit
is bitwise identical to a cold :class:`~repro.design.sta.STAEngine` pass.
The key also carries the resolved timing-arc pin: two paths entering the
same gate through different arcs at the same slew are distinct stages and
must never share an entry.  The second memo, of per-net wire bindings, is
keyed by net and driver cell, depends on neither slew nor pin, and is
dropped with the stage entries of the same nets.  Both memos are indexed
by net, so dropping a net's entries is a lookup whatever the memo's size.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

# Benchmark instrumentation wraps this module-level binding.
from ..liberty.ceff import effective_capacitance  # noqa: F401
from .netlist import TimingPath
from .sta import PathTiming, StageTimer


class IncrementalSTAEngine(StageTimer):
    """STA engine with per-stage memoization for optimization loops.

    Takes the :class:`~repro.design.sta.StageTimer` parameters: the
    netlist being optimized (gate swaps are visible because gates are
    looked up by name on every evaluation), the wire timing engine
    (learned or analytic), the launch slew, an optional ``slew_model``
    and ``lenient_pins``.  With ``lenient_pins=False`` (the default) a
    stage whose ``input_pin`` has no timing arc raises a typed
    :class:`~repro.robustness.errors.InputError` with net/design
    provenance; True times it through the cell's first arc (legacy
    netlists).
    """

    def invalidate_gate(self, gate_name: str) -> int:
        """Drop cache entries affected by a change to ``gate_name``.

        Both the net the gate drives (driver strength changed) and every
        net it loads (pin capacitance changed) are invalidated.  The
        loaded nets come from the netlist's reverse load index, so the
        cost is O(degree + cache size) rather than a scan over every
        net's load list.  Returns the number of dropped entries.
        """
        stale_nets = set(self.netlist.nets_loaded_by(gate_name))
        driven = self.netlist.net_driven_by(gate_name)
        if driven is not None:
            stale_nets.add(driven.name)
        return self.invalidate_nets(stale_nets)

    def invalidate_nets(self, net_names: Iterable[str]) -> int:
        """Drop the named nets' stage entries and net bindings.

        Each net's entries are found through the memos' net index, so
        the cost grows with the entries dropped, not with the memo.
        Returns the number of stage entries dropped.
        """
        dropped = 0
        with self._lock:
            for name in net_names:
                for key in self._stage_keys.pop(name, {}):
                    del self._cache[key]
                    dropped += 1
                self._nets.pop(name, None)
        return dropped

    def clear(self) -> None:
        """Drop both memos (e.g. after wholesale edits)."""
        with self._lock:
            self._cache.clear()
            self._stage_keys.clear()
            self._nets.clear()

    def analyze_paths(self, paths: Optional[List[TimingPath]] = None
                      ) -> List[PathTiming]:
        """Arrival times for ``paths`` (default: all recorded paths).

        The nets of ``paths`` not bound yet are bound first, in one
        :meth:`~repro.design.sta.WireTimingModel.bind_many` call, then
        the paths are timed level by level
        (:meth:`~repro.design.sta.StageTimer.time_paths`).
        """
        paths = paths if paths is not None else self.netlist.paths
        self.bind_nets(stage.net for path in paths for stage in path.stages)
        return self.time_paths(paths)

    @property
    def hit_rate(self) -> float:
        with self._lock:
            total = self.hits + self.misses
            return self.hits / total if total else 0.0
