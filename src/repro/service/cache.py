"""Cross-run factorization cache: amortized setup as a first-class object.

The paper's terascale economics are amortization economics: FDM eigenpair
setup, XXT factorization, and Schwarz subdomain operators are paid once
and reused over thousands of solves.  A many-run service extends the
amortization window *across runs*: every run on the same (mesh, order,
variant) wants the same factors, so building them per run is pure waste —
the duplicated-setup problem ``Table2Case`` had per variant row.

:class:`FactorCache` is that shared store.  Keys are plain hashable tuples
whose first element names the artifact kind and whose remaining elements
pin everything the artifact depends on — for mesh-derived objects that is
a :func:`mesh_signature` (a content hash of coordinates, connectivity,
periodicity, and order, so a deformed mesh never collides with the
rectilinear mesh of the same shape).  Values are whatever the builder
returns (preconditioners, operators, meshes).  The cache is thread-safe:
sharing values across threads is safe because all hot-path scratch lives
in per-thread :class:`~repro.backends.base.Workspace` pools.  A
:class:`~repro.service.Session` with process workers gives each worker a
fork-time copy of its cache, so a value is built in each worker that
needs it.

Eviction is LRU under an optional byte cap, with hit/miss/eviction and
build-time telemetry surfaced in the service report section.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

import numpy as np

__all__ = [
    "FactorCache",
    "CacheStats",
    "mesh_signature",
    "array_signature",
    "estimate_nbytes",
]


def array_signature(arr: Optional[np.ndarray]) -> str:
    """Content hash of an array (dtype/shape/bytes); ``"none"`` for None."""
    if arr is None:
        return "none"
    a = np.ascontiguousarray(arr)
    h = hashlib.sha256()
    h.update(str(a.dtype).encode())
    h.update(str(a.shape).encode())
    h.update(a.tobytes())
    return h.hexdigest()[:16]


def mesh_signature(mesh) -> str:
    """Content hash identifying a mesh's geometry and topology.

    Covers coordinates (so deformed vs rectilinear meshes of identical
    element counts differ), the global numbering, periodicity, polynomial
    order, and the element lattice.  Memoized on the mesh object — the
    hash walks every coordinate once, and cache lookups should not.
    """
    cached = getattr(mesh, "_repro_signature", None)
    if cached is not None:
        return cached
    h = hashlib.sha256()
    h.update(f"ndim={mesh.ndim};order={mesh.order};K={mesh.K}".encode())
    for c in mesh.coords:
        h.update(np.ascontiguousarray(c).tobytes())
    h.update(np.ascontiguousarray(mesh.global_ids).tobytes())
    h.update(repr(tuple(mesh.periodic)).encode())
    lattice = getattr(mesh, "element_lattice", None)
    h.update(repr(lattice).encode())
    sig = h.hexdigest()[:16]
    try:
        mesh._repro_signature = sig
    except (AttributeError, TypeError):
        pass  # frozen/slotted mesh: recompute per call
    return sig


def estimate_nbytes(obj: Any, _seen: Optional[set] = None, _depth: int = 0) -> int:
    """Recursive ndarray-byte estimate of an artifact's resident size.

    Walks containers and ``__dict__``/``__slots__`` attributes to a
    bounded depth, summing ``ndarray.nbytes`` with an id-based seen set so
    shared arrays count once.  An estimate, not an accounting — eviction
    needs relative sizes, not exact RSS.
    """
    if _seen is None:
        _seen = set()
    if _depth > 6 or id(obj) in _seen:
        return 0
    _seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    total = 0
    if isinstance(obj, dict):
        for v in obj.values():
            total += estimate_nbytes(v, _seen, _depth + 1)
        return total
    if isinstance(obj, (list, tuple, set, frozenset)):
        for v in obj:
            total += estimate_nbytes(v, _seen, _depth + 1)
        return total
    for attr in ("data", "indices", "indptr"):  # scipy sparse matrices
        v = getattr(obj, attr, None)
        if isinstance(v, np.ndarray):
            total += estimate_nbytes(v, _seen, _depth + 1)
    d = getattr(obj, "__dict__", None)
    if d is not None:
        total += estimate_nbytes(d, _seen, _depth + 1)
    slots = getattr(type(obj), "__slots__", None)
    if slots:
        for name in slots:
            v = getattr(obj, name, None)
            if v is not None:
                total += estimate_nbytes(v, _seen, _depth + 1)
    return total


@dataclass
class CacheStats:
    """Hit/miss/eviction telemetry for one :class:`FactorCache`.

    ``build_seconds`` is the wall time spent inside builders.  A builder
    that calls :meth:`FactorCache.get` for another key includes that inner
    build, which is also counted on its own.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    build_seconds: float = 0.0

    @property
    def hit_rate(self) -> float:
        n = self.hits + self.misses
        return self.hits / n if n else 0.0


class _Entry:
    __slots__ = ("value", "nbytes")

    def __init__(self, value: Any, nbytes: int):
        self.value = value
        self.nbytes = nbytes


class FactorCache:
    """Thread-safe LRU cache for amortizable solver setup.

    Parameters
    ----------
    max_bytes:
        Optional cap on the summed :func:`estimate_nbytes` of resident
        entries; least-recently-used entries are evicted past it.  An
        entry larger than the whole cap is still served but not retained.
    """

    def __init__(self, max_bytes: Optional[int] = None):
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        self._entries: "OrderedDict[Hashable, _Entry]" = OrderedDict()
        self._lock = threading.Lock()
        #: per-key build locks so two runs missing on the same key build
        #: once, while builds for different keys proceed concurrently.
        self._building: Dict[Hashable, threading.Lock] = {}

    # ------------------------------------------------------------------ core
    def get(
        self,
        key: Hashable,
        builder: Callable[[], Any],
        nbytes: Optional[int] = None,
    ) -> Any:
        """The value for ``key``, building (and retaining) it on first use.

        ``nbytes`` overrides the size estimate (pass it when the artifact
        holds references that the recursive estimate would over- or
        under-count).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry.value
            build_lock = self._building.get(key)
            if build_lock is None:
                build_lock = self._building[key] = threading.Lock()
        try:
            with build_lock:
                # Re-check: another thread may have finished the build while
                # we waited on its lock.
                with self._lock:
                    entry = self._entries.get(key)
                    if entry is not None:
                        self._entries.move_to_end(key)
                        self.stats.hits += 1
                        return entry.value
                t0 = time.perf_counter()
                try:
                    value = builder()
                finally:
                    dt = time.perf_counter() - t0
                    with self._lock:
                        self.stats.build_seconds += dt
                size = int(nbytes) if nbytes is not None else estimate_nbytes(value)
                with self._lock:
                    self.stats.misses += 1
                    self._entries[key] = _Entry(value, size)
                    self._entries.move_to_end(key)
                    self._evict_locked()
                return value
        finally:
            # Always retire the per-key build lock — a raising builder must
            # not leave it resident (a long-running service with failing
            # runs would grow ``_building`` without bound).
            with self._lock:
                self._building.pop(key, None)

    def _evict_locked(self) -> None:
        if self.max_bytes is None:
            return
        while len(self._entries) > 1 and self._nbytes_locked() > self.max_bytes:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
        # A single over-cap entry is dropped too (served, not retained).
        if len(self._entries) == 1 and self._nbytes_locked() > self.max_bytes:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def _nbytes_locked(self) -> int:
        return sum(e.nbytes for e in self._entries.values())

    # ------------------------------------------------------------- inspection
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def nbytes(self) -> int:
        """Summed size estimate of resident entries."""
        with self._lock:
            return self._nbytes_locked()

    def keys(self) -> Tuple[Hashable, ...]:
        with self._lock:
            return tuple(self._entries)

    def clear(self) -> None:
        """Drop every entry (stats are kept)."""
        with self._lock:
            self._entries.clear()

    def as_dict(self) -> dict:
        """JSON-ready stats block for the service report section."""
        return {
            "hits": int(self.stats.hits),
            "misses": int(self.stats.misses),
            "evictions": int(self.stats.evictions),
            "hit_rate": float(self.stats.hit_rate),
            "entries": len(self),
            "bytes": int(self.nbytes),
            "build_seconds": float(self.stats.build_seconds),
        }

    # Locks do not pickle: a spawned Session worker gets fresh ones.
    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_lock"], state["_building"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._lock = threading.Lock()
        self._building = {}
