"""Per-stage aggregation of span streams and the ``--profile`` table.

A raw trace holds one span per timed region instance (one per net, per
epoch, per design ...); :func:`aggregate_spans` folds them into one
:class:`StageProfile` per span *name* — call count, total/mean/max wall
time, total CPU time — which is what humans read (``repro report
--profile``) and what ``repro report --json`` stores per stage.

Rendering is self-contained (no dependency on :mod:`repro.bench`) so the
observability package stays importable without pulling in the model stack.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List

from .tracer import Span


@dataclass
class StageProfile:
    """Aggregate timing of every span sharing one name."""

    name: str
    count: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    max_wall_s: float = 0.0

    @property
    def mean_wall_s(self) -> float:
        return self.wall_s / self.count if self.count else 0.0

    def add(self, span: Span) -> None:
        self.count += 1
        self.wall_s += span.wall_s
        self.cpu_s += span.cpu_s
        if span.wall_s > self.max_wall_s:
            self.max_wall_s = span.wall_s

    def to_dict(self) -> Dict[str, Any]:
        return {"count": self.count, "wall_s": self.wall_s,
                "cpu_s": self.cpu_s, "mean_wall_s": self.mean_wall_s,
                "max_wall_s": self.max_wall_s}


def aggregate_spans(spans: Iterable[Span]) -> Dict[str, StageProfile]:
    """Fold spans into one :class:`StageProfile` per span name.

    The result preserves first-seen order (pipeline order for a
    single-threaded run).
    """
    profiles: Dict[str, StageProfile] = {}
    for span in spans:
        profile = profiles.get(span.name)
        if profile is None:
            profile = profiles[span.name] = StageProfile(span.name)
        profile.add(span)
    return profiles


def format_profile(profiles: Dict[str, StageProfile],
                   title: str = "per-stage profile") -> str:
    """Aligned text table of a :func:`aggregate_spans` result."""
    headers = ["stage", "calls", "wall(s)", "cpu(s)", "mean(ms)", "max(ms)"]
    rows: List[List[str]] = []
    for profile in sorted(profiles.values(), key=lambda p: -p.wall_s):
        rows.append([
            profile.name, str(profile.count),
            f"{profile.wall_s:.3f}", f"{profile.cpu_s:.3f}",
            f"{profile.mean_wall_s * 1e3:.2f}",
            f"{profile.max_wall_s * 1e3:.2f}",
        ])
    if not rows:
        return f"{title}: no spans recorded (is the tracer enabled?)"
    widths = [max(len(headers[i]), *(len(r[i]) for r in rows))
              for i in range(len(headers))]
    lines = [title,
             "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
             "  ".join("-" * w for w in widths)]
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)
