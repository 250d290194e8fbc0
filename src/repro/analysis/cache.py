"""Content-addressed memo cache for the golden simulator's eigensolves.

The eigendecomposition in :class:`~repro.analysis.simulator.TransientSolution`
is the pipeline's single hottest operation (O(N^3) per net), and it is
recomputed for *identical inputs* constantly: STA re-analyzes the same net
once per timing path that crosses it (and twice per stage when a separate
slew model runs), ``estimator.throughput`` loops the same test nets, and
generated designs share many content-identical small nets.

The decomposition depends only on the tuple (topology, R, C, driver): the
net's edge list with resistances, the assembled capacitance vector (node
caps + sink loads), the source index, and the driver's Thevenin resistance.
:func:`solve_key` hashes exactly those bytes (BLAKE2b-128 over the raw
float64 buffers — content, not object identity), and :class:`SolveCache` is
a size-bounded LRU from that key to the reusable
:class:`~repro.analysis.simulator.EigenSolve` object.

Hit/miss/eviction counts feed the ``simulator.cache_*`` metrics (see
docs/OBSERVABILITY.md).  The serve worker threads all query the shared
global cache, so the LRU map is guarded by a (watched) lock.  Lock
discipline: only the ``OrderedDict`` operations run under the lock;
eigensolves, metric increments and disk I/O happen outside it, so a slow
``.npz`` read never stalls an unrelated hit.  Cached solves must be
treated as immutable — they are shared between all timing queries that
hash to the same key.
"""

from __future__ import annotations

import hashlib
import os
import struct
import threading
import zipfile
from collections import OrderedDict
from typing import Any, Dict, Optional

import numpy as np

from ..obs import get_metrics, named_lock
from ..rcnet.graph import RCNet

__all__ = ["solve_key", "SolveCache", "get_solve_cache",
           "configure_solve_cache", "CACHE_SIZE_ENV", "CACHE_DIR_ENV",
           "DEFAULT_CACHE_SIZE", "PERSIST_SCHEMA"]

#: Environment variable overriding the default cache capacity (entries);
#: ``0`` disables caching entirely.
CACHE_SIZE_ENV = "REPRO_SOLVE_CACHE"

#: Environment variable naming a directory for the optional disk tier;
#: unset (the default) keeps the cache memory-only.
CACHE_DIR_ENV = "REPRO_SOLVE_CACHE_DIR"

#: Default LRU capacity.  Solves are O(N^2) floats each; at the pipeline's
#: typical 10-60 node nets this bounds the cache well under ~100 MB.
DEFAULT_CACHE_SIZE = 512

#: Version tag written into every persisted solve file; bump whenever the
#: :class:`~repro.analysis.simulator.EigenSolve` layout (or the meaning of
#: :func:`solve_key`) changes, so stale files self-invalidate on load.
PERSIST_SCHEMA = "repro-solve-cache/1"

_HITS = get_metrics().counter("simulator.cache_hits")
_MISSES = get_metrics().counter("simulator.cache_misses")
_EVICTIONS = get_metrics().counter("simulator.cache_evictions")
_PERSIST_HITS = get_metrics().counter("simulator.cache_persist_hits")
_PERSIST_MISSES = get_metrics().counter("simulator.cache_persist_misses")


def solve_key(net: RCNet, caps: np.ndarray, drive_resistance: float) -> bytes:
    """Content hash of one eigensolve's inputs: (topology, R, C, driver).

    Two nets with equal structure and parasitics map to the same key even
    when they are distinct objects with different names — name is identity,
    not content, and generated designs repeat small net shapes often.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(struct.pack("<qqd", net.num_nodes, net.source,
                              float(drive_resistance)))
    if net.edges:
        topology = np.array([(e.u, e.v) for e in net.edges], dtype=np.int64)
        resistances = np.array([e.resistance for e in net.edges],
                               dtype=np.float64)
        digest.update(topology.tobytes())
        digest.update(resistances.tobytes())
    digest.update(np.ascontiguousarray(caps, dtype=np.float64).tobytes())
    return digest.digest()


class SolveCache:
    """Size-bounded LRU cache from :func:`solve_key` to an eigensolve.

    With ``persist_dir`` set, the LRU gains a disk tier: every insert is
    also written as ``<key-hex>.npz`` under that directory, and a memory
    miss falls back to loading the file before recomputing — so a
    restarted server warm-starts from its predecessor's solves instead of
    cold-solving.  Files carry :data:`PERSIST_SCHEMA`; any unreadable,
    corrupted or version-mismatched file is treated as a miss (never an
    error), and a read-only directory degrades to memory-only writes.
    """

    def __init__(self, maxsize: int = DEFAULT_CACHE_SIZE,
                 persist_dir: Optional[str] = None) -> None:
        if maxsize < 0:
            raise ValueError(f"maxsize must be >= 0, got {maxsize}")
        self.maxsize = maxsize
        #: Immutable after __init__ (only ever cleared to None here);
        #: worker threads read it freely without the lock.
        self.persist_dir = persist_dir
        self._lock = named_lock("SolveCache._lock")
        self._entries: "OrderedDict[bytes, Any]" = OrderedDict()  # repro-guarded-by: _lock
        if persist_dir is not None:
            try:
                os.makedirs(persist_dir, exist_ok=True)
            except OSError:
                self.persist_dir = None  # unusable directory: memory-only

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def enabled(self) -> bool:
        return self.maxsize > 0

    def get(self, key: bytes) -> Optional[Any]:
        """Look up ``key``, counting the hit/miss and refreshing recency."""
        if not self.enabled:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        if entry is None:
            _MISSES.inc()
            entry = self._disk_get(key)
            if entry is not None:
                # Promote the warm-started solve into the memory LRU so
                # subsequent queries skip the file system entirely.
                self.put(key, entry, _persist=False)
            return entry
        _HITS.inc()
        return entry

    def put(self, key: bytes, solve: Any, _persist: bool = True) -> None:
        """Insert ``solve``, evicting least-recently-used entries if full."""
        if not self.enabled:
            return
        evicted = 0
        with self._lock:
            self._entries[key] = solve
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                evicted += 1
        if evicted:
            _EVICTIONS.inc(evicted)
        if _persist:
            self._disk_put(key, solve)

    def invalidate(self, key: bytes) -> bool:
        """Drop one entry from the memory LRU and the disk tier.

        Used by ECO edits: when a net's RC topology is rewritten, the
        eigensolve primed under the old topology's content hash can never
        be queried again, so dropping it frees space immediately instead
        of waiting for LRU eviction.  Returns True when either tier held
        the key.
        """
        with self._lock:
            dropped = self._entries.pop(key, None) is not None
        if self.persist_dir is not None:
            try:
                os.unlink(self._disk_path(key))
                dropped = True
            except OSError:
                pass
        return dropped

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> Dict[str, int]:
        """Current counter values plus occupancy (JSON-safe)."""
        with self._lock:
            entries = len(self._entries)
        return {"entries": entries, "maxsize": self.maxsize,
                "hits": _HITS.snapshot(), "misses": _MISSES.snapshot(),
                "evictions": _EVICTIONS.snapshot(),
                "persist_hits": _PERSIST_HITS.snapshot(),
                "persist_misses": _PERSIST_MISSES.snapshot()}

    # ------------------------------------------------------------------
    # Disk tier
    # ------------------------------------------------------------------
    def _disk_path(self, key: bytes) -> str:
        assert self.persist_dir is not None
        return os.path.join(self.persist_dir, key.hex() + ".npz")

    def _disk_get(self, key: bytes) -> Optional[Any]:
        if self.persist_dir is None:
            return None
        from .simulator import EigenSolve  # deferred: simulator imports us

        try:
            # The handle is opened here, not by np.load, so a corrupt
            # archive that makes np.load raise still gets it closed.
            with open(self._disk_path(key), "rb") as handle, \
                    np.load(handle, allow_pickle=False) as data:
                if str(data["schema"]) != PERSIST_SCHEMA:
                    _PERSIST_MISSES.inc()
                    return None
                solve = EigenSolve(
                    caps=np.asarray(data["caps"], dtype=np.float64),
                    inv_sqrt_c=np.asarray(data["inv_sqrt_c"],
                                          dtype=np.float64),
                    eigenvalues=np.asarray(data["eigenvalues"],
                                           dtype=np.float64),
                    q=np.asarray(data["q"], dtype=np.float64))
        except (OSError, KeyError, ValueError, EOFError, SystemError,
                zipfile.BadZipFile):
            # Missing file is the common case; a corrupted or truncated
            # one (crash mid-write by an older numpy, disk fault) must
            # degrade to a recompute, never break the query.  SystemError
            # is CPython 3.11's "AST constructor recursion depth mismatch":
            # np.load parses each .npy header with ast.literal_eval, and
            # ast.parse raises it when another thread parses at the same
            # time and the garbage collector runs finalizers mid-parse.
            # The file is fine; the read is retried as a recompute.
            _PERSIST_MISSES.inc()
            return None
        _PERSIST_HITS.inc()
        return solve

    def _disk_put(self, key: bytes, solve: Any) -> None:
        if self.persist_dir is None:
            return
        path = self._disk_path(key)
        if os.path.exists(path):
            return
        # One temp file per writer: serve threads that miss on the same
        # key would otherwise interleave their bytes in a shared one.
        tmp = path + f".tmp.{os.getpid()}.{threading.get_ident()}"
        try:
            with open(tmp, "wb") as handle:
                np.savez(handle, schema=np.str_(PERSIST_SCHEMA),
                         caps=solve.caps, inv_sqrt_c=solve.inv_sqrt_c,
                         eigenvalues=solve.eigenvalues, q=solve.q)
            os.replace(tmp, path)  # atomic: readers never see a torn file
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass


def _default_size() -> int:
    raw = os.environ.get(CACHE_SIZE_ENV)
    if raw is None:
        return DEFAULT_CACHE_SIZE
    try:
        size = int(raw)
    except ValueError:
        return DEFAULT_CACHE_SIZE
    return max(0, size)


def _default_persist_dir() -> Optional[str]:
    raw = os.environ.get(CACHE_DIR_ENV)
    return raw if raw else None


_GLOBAL_CACHE = SolveCache(_default_size(), persist_dir=_default_persist_dir())


def get_solve_cache() -> SolveCache:
    """The process-wide solve cache used by :class:`GoldenTimer`."""
    return _GLOBAL_CACHE


def configure_solve_cache(maxsize: int,
                          persist_dir: Optional[str] = None) -> SolveCache:
    """Replace the global cache with a fresh one of ``maxsize`` entries.

    ``0`` disables memoization (every solve recomputes).  ``persist_dir``
    adds the disk tier (see :class:`SolveCache`).  Returns the new cache
    so tests can assert on it directly.
    """
    global _GLOBAL_CACHE
    _GLOBAL_CACHE = SolveCache(maxsize, persist_dir=persist_dir)
    return _GLOBAL_CACHE
