"""Named benchmark suite reproducing Table II of the paper.

The paper trains on 11 designs and tests on 7 unseen ones (OpenCore and
related open-source designs).  We regenerate each as a synthetic design
whose *relative* statistics — non-tree net fraction, FF density, path count
relative to size — match the published row, scaled down by a configurable
factor so the whole suite fits CPU dataset generation.  The scale factor is
an explicit parameter: ``scale=1`` reproduces the paper's absolute sizes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from ..liberty.library import Library
from .generator import DesignSpec, generate_design
from .netlist import Netlist


@dataclass(frozen=True)
class BenchmarkStats:
    """One row of Table II as published."""

    name: str
    cells: int
    nets: int
    nontree_nets: int
    ffs: int
    paths: int
    split: str  # "train" or "test"

    @property
    def nontree_frac(self) -> float:
        return self.nontree_nets / self.nets


# Table II, verbatim.
PAPER_BENCHMARKS: Dict[str, BenchmarkStats] = {
    stats.name: stats for stats in [
        BenchmarkStats("PCI_BRIDGE", 1234, 1598, 279, 310, 456, "train"),
        BenchmarkStats("DMA", 10215, 10898, 1963, 1956, 1475, "train"),
        BenchmarkStats("B19", 33785, 34399, 8906, 3420, 5093, "train"),
        BenchmarkStats("SALSA", 52895, 57737, 16802, 7836, 9648, "train"),
        BenchmarkStats("RocketCore", 90859, 93812, 38919, 16784, 12475, "train"),
        BenchmarkStats("VGA_LCD", 56194, 56279, 20527, 17054, 8761, "train"),
        BenchmarkStats("ECG", 84127, 85058, 31067, 14018, 13189, "train"),
        BenchmarkStats("TATE", 184601, 185379, 51037, 31409, 27931, "train"),
        BenchmarkStats("JPEG", 219064, 231934, 73915, 37642, 36489, "train"),
        BenchmarkStats("NETCARD", 316137, 317974, 76924, 87317, 46713, "train"),
        BenchmarkStats("LEON3MP", 341000, 341263, 81687, 108724, 50716, "train"),
        BenchmarkStats("WB_DMA", 40962, 40664, 9493, 718, 9619, "test"),
        BenchmarkStats("LDPC", 39377, 42018, 10257, 2048, 7613, "test"),
        BenchmarkStats("DES_PERT", 48289, 48523, 9534, 2983, 10976, "test"),
        BenchmarkStats("AES-128", 113168, 90905, 42657, 10686, 24973, "test"),
        BenchmarkStats("TV_CORE", 207414, 189262, 53147, 40681, 33706, "test"),
        BenchmarkStats("NOVA", 141990, 139224, 36482, 30494, 39341, "test"),
        BenchmarkStats("OPENGFX", 219064, 231934, 62395, 37642, 47831, "test"),
    ]
}

TRAIN_BENCHMARKS: List[str] = [
    s.name for s in PAPER_BENCHMARKS.values() if s.split == "train"]
TEST_BENCHMARKS: List[str] = [
    s.name for s in PAPER_BENCHMARKS.values() if s.split == "test"]

DEFAULT_SCALE = 800


def benchmark_seed(name: str) -> int:
    """Deterministic per-benchmark seed (stable across sessions)."""
    return zlib.crc32(name.encode("utf-8"))


def benchmark_spec(name: str, scale: int = DEFAULT_SCALE,
                   n_paths: Optional[int] = None) -> DesignSpec:
    """Scaled :class:`DesignSpec` for a named paper benchmark.

    ``scale`` divides the paper's absolute cell/FF/path counts, with floors
    so that even the smallest designs remain structurally meaningful; the
    non-tree fraction is preserved exactly.
    """
    try:
        stats = PAPER_BENCHMARKS[name]
    except KeyError:
        raise KeyError(
            f"unknown benchmark {name!r}; see PAPER_BENCHMARKS") from None
    if scale < 1:
        raise ValueError("scale must be >= 1")
    ffs = max(6, stats.ffs // scale)
    cells = max(40, stats.cells // scale)
    n_comb = max(10, cells - ffs)
    paths = n_paths if n_paths is not None else max(20, stats.paths // scale)
    return DesignSpec(
        name=name,
        n_combinational=n_comb,
        n_ffs=ffs,
        n_paths=paths,
        nontree_frac=stats.nontree_frac,
        levels=5,
        seed=benchmark_seed(name),
    )


def generate_benchmark(name: str, library: Optional[Library] = None,
                       scale: int = DEFAULT_SCALE,
                       n_paths: Optional[int] = None) -> Netlist:
    """Generate the scaled synthetic version of a paper benchmark."""
    return generate_design(benchmark_spec(name, scale, n_paths), library)
