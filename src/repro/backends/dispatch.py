"""Backend registry and shape-aware auto-tuning dispatch.

This is the single entry point through which every tensor-product kernel
in the library runs, and every call takes the same path: sanitize → tally
→ the active backend's kernel point.  It owns three responsibilities the
paper assigns to the tuned-kernel layer:

1. **Sanitizing the boundary.**  Operands are coerced to C-contiguous
   float64 exactly once (silently falling onto strided BLAS paths is the
   classic way to lose the Table 3 performance), shapes are validated, and
   ``out=`` aliasing the input is rejected.
2. **Exact flop accounting.**  The analytic ``2 m n (size/n)`` count is
   tallied here, so :mod:`repro.perf.flops` stays correct regardless of
   which kernel actually ran — CPU, compiled, or GPU.
3. **Shape-aware dispatch.**  The default :class:`AutoTuneDispatcher` is
   the runtime analogue of the paper's N-specialized unrolled f2/f3
   kernels: the first time a ``(op shape, field shape, direction)``
   signature is seen, every registered backend is micro-benchmarked on it
   and the winner is cached for the rest of the process.  Because "no
   single kernel is superior across all cases" (Section 6), the winner
   genuinely varies with shape.

Heterogeneous backends are handled honestly:

* **Warm-up / JIT exclusion** — before timing a backend on a shape, the
  tuner calls :meth:`~repro.backends.base.KernelBackend.warmup` once per
  backend and performs an untimed warm-up call per shape, so numba JIT
  compilation and CUDA context creation never pollute the timings.
* **Capability flags** — a backend that declares a kernel point
  ``unsupported`` is never timed or routed on it
  (:meth:`~repro.backends.base.KernelBackend.supports`); the report
  distinguishes *native* from *composed* implementations.
* **Persistent tuning table** — tuned winners are written to
  ``~/.cache/repro/tuning.json`` (override/disable with
  ``REPRO_TUNING_CACHE``), keyed by a machine fingerprint plus the
  registered-backend set, so per-shape winners survive process restarts
  and the service layer's worker pools don't each re-tune.  A table whose
  fingerprint or backend set doesn't match the running process is
  ignored.

Selection: ``REPRO_BACKEND`` in the environment (validated at import
against the registered names) or :func:`set_backend` / the ``--backend``
CLI flag.  :func:`backend_report` exposes the tuner's choices, per-shape
hit counts, and per-backend capability flags for observability;
:func:`backend_tallies` aggregates dispatch counts per backend for the
run report.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import tempfile
import threading
import time
import weakref
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..perf.flops import add_flops
from .base import KERNEL_POINTS, KernelBackend, Workspace
from .cupy_backend import HAVE_CUPY, CupyBackend
from .numba_backend import HAVE_NUMBA, NumbaBackend
from .numpy_backends import EinsumBackend, FlattenedBackend, MatmulBackend

__all__ = [
    "register_backend",
    "unregister_backend",
    "available_backends",
    "get_backend",
    "active_backend",
    "set_backend",
    "use_backend",
    "backend_report",
    "backend_tallies",
    "dispatch_choices",
    "machine_fingerprint",
    "tuning_cache_path",
    "tuning_stats",
    "AutoTuneDispatcher",
    "apply_1d",
    "grad",
    "grad_transpose",
    "batched_matvec",
    "apply_tensor",
]

#: sentinel "direction" used in dispatch keys for batched matvec calls,
#: where no tensor direction applies (the operator varies per element).
BATCHED_MATVEC_DIR = -1

#: sentinel "direction" for fused all-directions tensor applies.
APPLY_TENSOR_DIR = -2

#: name -> backend instance (fixed kernels; the dispatcher sits above them).
_REGISTRY: Dict[str, KernelBackend] = {}

#: every live dispatcher instance, so registry changes invalidate all of
#: them (tests and benchmarks build private dispatchers).
_DISPATCHERS: "weakref.WeakSet[AutoTuneDispatcher]" = weakref.WeakSet()


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Register a kernel backend under ``backend.name``.

    Re-registering an existing name replaces the instance and invalidates
    every cached per-shape winner that points at it (the new instance must
    re-earn those shapes).  Registering a *new* name invalidates all
    cached winners: every already-tuned shape gets re-benchmarked with
    the new candidate in the field, and any loaded persistent table is
    dropped (its backend-set key no longer matches).
    """
    if not backend.name or backend.name == "?":
        raise ValueError("backend must define a non-empty name")
    if backend.name == "auto":
        raise ValueError("'auto' is reserved for the dispatcher")
    is_new = backend.name not in _REGISTRY
    _REGISTRY[backend.name] = backend
    for disp in list(_DISPATCHERS):
        disp.invalidate(backend.name, registry_changed=is_new)
    return backend


def unregister_backend(name: str) -> KernelBackend:
    """Remove a backend from the registry (e.g. a failed optional backend).

    Every dispatcher drops all cached winners (the candidate set changed,
    so stale decisions must not survive) and re-tunes on the next call;
    if the removed backend was the process-wide active one, dispatch
    falls back to the auto dispatcher.
    """
    if name not in _REGISTRY:
        raise ValueError(
            f"unknown backend {name!r}; available: {available_backends()}"
        )
    global _ACTIVE
    backend = _REGISTRY.pop(name)
    for disp in list(_DISPATCHERS):
        disp.invalidate(name, registry_changed=True)
    if _ACTIVE is backend:
        _ACTIVE = _DISPATCHER
    return backend


def available_backends() -> List[str]:
    """Registered kernel names plus the ``auto`` dispatcher."""
    return ["auto"] + sorted(_REGISTRY)


def get_backend(name: str) -> KernelBackend:
    """Look up a backend by name (``"auto"`` returns the dispatcher)."""
    if name == "auto":
        return _DISPATCHER
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown backend {name!r}; available: {available_backends()}"
        ) from None


# ---------------------------------------------------------------------------
# Persistent tuning table: machine fingerprint, cache path, wire format.
# ---------------------------------------------------------------------------
def machine_fingerprint() -> str:
    """A short digest of what tuning timings depend on.

    Hardware/software identity only — hostname and paths stay out so the
    table is shareable between identical containers.  A persistent table
    recorded under a different fingerprint is ignored.
    """
    raw = "|".join(
        [
            platform.machine(),
            platform.system(),
            platform.python_implementation(),
            platform.python_version(),
            np.__version__,
            str(os.cpu_count() or 0),
        ]
    )
    return hashlib.sha256(raw.encode()).hexdigest()[:16]


def tuning_cache_path() -> Optional[pathlib.Path]:
    """Where the persistent tuning table lives, or ``None`` when disabled.

    ``REPRO_TUNING_CACHE`` overrides: ``off``/``0``/``none`` disables
    persistence, a ``*.json`` path names the file directly, any other
    value is treated as a directory holding ``tuning.json``.  Default:
    ``$XDG_CACHE_HOME/repro/tuning.json`` (``~/.cache`` fallback).
    """
    env = os.environ.get("REPRO_TUNING_CACHE", "").strip()
    if env.lower() in ("off", "0", "none", "disabled"):
        return None
    if env:
        p = pathlib.Path(env)
        return p if p.suffix == ".json" else p / "tuning.json"
    base = os.environ.get("XDG_CACHE_HOME", "").strip()
    root = pathlib.Path(base) if base else pathlib.Path.home() / ".cache"
    return root / "repro" / "tuning.json"


def _table_key() -> str:
    """Fingerprint + backend set: the validity domain of stored winners."""
    return machine_fingerprint() + "+" + ",".join(sorted(_REGISTRY))


def _key_to_wire(key: Tuple) -> str:
    def enc(x):
        if isinstance(x, tuple):
            return [enc(e) for e in x]
        return x

    return json.dumps(enc(key))


def _key_from_wire(wire: str) -> Tuple:
    def dec(x):
        if isinstance(x, list):
            return tuple(dec(e) for e in x)
        return x

    return dec(json.loads(wire))


class AutoTuneDispatcher(KernelBackend):
    """Micro-benchmarking dispatcher: per-shape winner, cached per process.

    Tuning cost is a handful of kernel calls per *distinct* shape signature
    (warmup + best-of-``reps`` timing per candidate), amortized over the
    millions of applies a simulation performs on that same shape — the same
    economics as the paper's one-time selection of f2/f3 unrollings per N.

    ``persist`` controls the on-disk tuning table: ``True``/``False``
    force it, ``None`` (default) follows ``REPRO_TUNING_CACHE`` (see
    :func:`tuning_cache_path`).  Winners load lazily on the first tuning
    miss and only when the stored machine fingerprint + backend set match
    the running process; every fresh tuning decision is saved back
    (atomic replace, best-effort — I/O errors never break dispatch).
    """

    name = "auto"

    def __init__(self, reps: int = 3, persist: Optional[bool] = None):
        super().__init__()
        self.reps = int(reps)
        self.persist = persist
        #: shape signature -> winning backend name
        self.choices: Dict[Tuple, str] = {}
        #: shape signature -> dispatch count (excludes tuning calls)
        self.hits: Dict[Tuple, int] = {}
        #: shape signature -> {backend name: best seconds} from tuning
        #: (absent for winners loaded from the persistent table)
        self.timings: Dict[Tuple, Dict[str, float]] = {}
        #: persistence counters: entries loaded from disk, tuned live, saves
        self.persist_stats: Dict[str, int] = {"loaded": 0, "tuned": 0, "saved": 0}
        self._loaded_for: Optional[str] = None
        self._warmed: set = set()
        #: serializes tuning so concurrent service threads neither race on
        #: the choice dicts nor skew each other's micro-benchmarks.
        self._tune_lock = threading.Lock()
        _DISPATCHERS.add(self)

    @staticmethod
    def signature(op: np.ndarray, u: np.ndarray, direction: int) -> Tuple:
        """The (n, K, axis) dispatch key: operator shape, field shape, direction."""
        return (op.shape, u.shape, direction)

    # --------------------------------------------------------- kernel points
    def apply_1d(self, op, u, direction, out: Optional[np.ndarray] = None):
        key = self.signature(op, u, direction)
        shape = list(u.shape)
        shape[u.ndim - 1 - direction] = op.shape[0]
        backend = self._resolve(
            key,
            "apply_1d",
            lambda b, scratch: b.apply_1d(op, u, direction, out=scratch),
            tuple(shape),
        )
        return backend.apply_1d(op, u, direction, out=out)

    def batched_matvec(self, mats, vecs, out: Optional[np.ndarray] = None):
        key = (mats.shape, vecs.shape, BATCHED_MATVEC_DIR)
        backend = self._resolve(
            key,
            "batched_matvec",
            lambda b, scratch: b.batched_matvec(mats, vecs, out=scratch),
            mats.shape[:2],
        )
        return backend.batched_matvec(mats, vecs, out=out)

    def apply_tensor(self, ops, u, out: Optional[np.ndarray] = None):
        key = (
            tuple(None if op is None else op.shape for op in ops),
            u.shape,
            APPLY_TENSOR_DIR,
        )
        shape = list(u.shape)
        for d, op in enumerate(ops):
            if op is not None:
                shape[u.ndim - 1 - d] = op.shape[0]
        backend = self._resolve(
            key,
            "apply_tensor",
            lambda b, scratch: b.apply_tensor(ops, u, out=scratch),
            tuple(shape),
        )
        return backend.apply_tensor(ops, u, out=out)

    # ---------------------------------------------------------------- tuning
    def _resolve(self, key, point, call, scratch_shape) -> KernelBackend:
        """The winning backend for ``key``, tuning (or loading) on a miss."""
        name = self.choices.get(key)
        backend = _REGISTRY.get(name) if name is not None else None
        if backend is None:
            # Covers both a cold signature and a stale winner whose backend
            # was unregistered after the choice was cached.
            name = self._tune(key, point, call, scratch_shape)
            backend = _REGISTRY[name]
        self.hits[key] = self.hits.get(key, 0) + 1
        return backend

    def _tune(self, key, point, call, scratch_shape) -> str:
        with self._tune_lock:
            name = self.choices.get(key)
            if name is not None and name in _REGISTRY:
                return name  # another thread tuned it while we waited
            self._maybe_load_locked()
            name = self.choices.get(key)
            if name is not None and name in _REGISTRY:
                return name  # the persistent table already knew this shape
            return self._tune_locked(key, point, call, scratch_shape)

    def _tune_locked(self, key, point, call, scratch_shape) -> str:
        """Time every capable backend on this exact call; cache the winner."""
        scratch = self.workspace.get("tune_" + point, scratch_shape)
        best_name, best_t = None, np.inf
        timings: Dict[str, float] = {}
        for name, backend in list(_REGISTRY.items()):
            if not backend.supports(point):
                continue
            try:
                if name not in self._warmed:
                    backend.warmup()  # one-time JIT / device-context cost
                    self._warmed.add(name)
                # Untimed per-shape warm-up: remaining compilation and
                # cache effects land here, outside the measurement.
                call(backend, scratch)
                t_min = np.inf
                for _ in range(self.reps):
                    t0 = time.perf_counter()
                    call(backend, scratch)
                    t_min = min(t_min, time.perf_counter() - t0)
            except Exception:  # pragma: no cover - defensive
                continue
            timings[name] = t_min
            if t_min < best_t:
                best_name, best_t = name, t_min
        if best_name is None:  # pragma: no cover - registry never empty
            raise RuntimeError(
                f"no registered kernel backend could handle {point} for "
                f"signature {key}"
            )
        self.choices[key] = best_name
        self.timings[key] = timings
        self.persist_stats["tuned"] += 1
        self._save_locked()
        return best_name

    # ----------------------------------------------------------- persistence
    def _persist_enabled(self) -> bool:
        if self.persist is False:
            return False
        return tuning_cache_path() is not None

    def _maybe_load_locked(self) -> None:
        """Merge winners stored for this (fingerprint, backend set) — once."""
        if not self._persist_enabled():
            return
        key = _table_key()
        if self._loaded_for == key:
            return
        self._loaded_for = key
        path = tuning_cache_path()
        try:
            doc = json.loads(path.read_text())
        except (OSError, ValueError):
            return
        if not isinstance(doc, dict) or doc.get("version") != 1:
            return
        section = doc.get("tables", {}).get(key, {})
        for wire, name in section.get("entries", {}).items():
            if name not in _REGISTRY:
                continue
            try:
                sig = _key_from_wire(wire)
            except (ValueError, TypeError):
                continue
            if sig not in self.choices:
                self.choices[sig] = name
                self.persist_stats["loaded"] += 1

    def _save_locked(self) -> None:
        """Write this dispatcher's winners under the current table key.

        Atomic (tmp + replace), best-effort: the section for the current
        fingerprint + backend set is replaced wholesale (in-memory state is
        a superset of everything loaded), other sections are preserved.
        """
        if not self._persist_enabled():
            return
        path = tuning_cache_path()
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            try:
                doc = json.loads(path.read_text())
            except (OSError, ValueError):
                doc = {}
            if not isinstance(doc, dict) or doc.get("version") != 1:
                doc = {"version": 1, "tables": {}}
            doc.setdefault("tables", {})[_table_key()] = {
                "fingerprint": machine_fingerprint(),
                "backends": sorted(_REGISTRY),
                "entries": {
                    _key_to_wire(k): v for k, v in self.choices.items()
                },
            }
            # Per-writer temp file: a fixed temp name lets two concurrent
            # service workers interleave writes into the same path before
            # either replaces — mkstemp gives each writer its own file, and
            # os.replace keeps the swap atomic.
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=path.name + ".", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as fh:
                    fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
                os.replace(tmp_name, path)
            finally:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass  # already replaced (the normal case)
            self.persist_stats["saved"] += 1
        except OSError:  # pragma: no cover - disk trouble must not break math
            pass

    # ---------------------------------------------------------- invalidation
    def invalidate(self, name: str, registry_changed: bool) -> int:
        """Drop cached winners made stale by a registry change.

        ``registry_changed`` (a name appeared or disappeared): every
        decision is stale — the candidate set it was made against no
        longer exists — and any loaded persistent section is forgotten
        (its backend-set key changed).  Otherwise (same name re-registered
        with a new instance): only the shapes that name was winning.
        Returns the number of dropped decisions.
        """
        with self._tune_lock:
            self._warmed.discard(name)
            if registry_changed:
                dropped = len(self.choices)
                self.choices.clear()
                self.hits.clear()
                self.timings.clear()
                self._loaded_for = None
                return dropped
            stale = [k for k, v in self.choices.items() if v == name]
            for k in stale:
                del self.choices[k]
                self.hits.pop(k, None)
                self.timings.pop(k, None)
            return len(stale)

    def reset(self) -> None:
        """Forget all tuning decisions and hit counts (memory only)."""
        with self._tune_lock:
            self.choices.clear()
            self.hits.clear()
            self.timings.clear()
            self._loaded_for = None

    def report(self) -> str:
        """Chosen kernel and hit count per tuned shape (observability)."""
        if not self.choices:
            return "backend dispatcher: no shapes tuned yet"
        lines = [
            "backend dispatcher: chosen kernel per (op shape, field shape, dir)",
            f"{'op':>24} {'field':>22} {'dir':>3} {'kernel':>8} {'hits':>10}",
        ]
        for key in sorted(self.choices, key=repr):
            op_s, u_s, d = key
            lines.append(
                f"{str(op_s):>24} {str(u_s):>22} {d:3d} "
                f"{self.choices[key]:>8} {self.hits.get(key, 0):10d}"
            )
        used = sorted(set(self.choices.values()))
        lines.append(f"distinct kernels in use: {len(used)} ({used})")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Registry population and active-backend state.
# ---------------------------------------------------------------------------
register_backend(MatmulBackend())
register_backend(EinsumBackend())
register_backend(FlattenedBackend())

# Optional compiled backends: auto-registered only when the dependency
# imports cleanly (and, for cupy, a CUDA device is actually visible).
if HAVE_NUMBA:
    register_backend(NumbaBackend())
if HAVE_CUPY:  # pragma: no cover - needs a GPU
    register_backend(CupyBackend())

_DISPATCHER = AutoTuneDispatcher()

#: the backend all library kernels currently route through.
_ACTIVE: KernelBackend = _DISPATCHER


def set_backend(name: str) -> KernelBackend:
    """Select the process-wide kernel backend (``auto`` = tuned dispatch)."""
    global _ACTIVE
    _ACTIVE = get_backend(name)
    return _ACTIVE


def active_backend() -> KernelBackend:
    """The backend currently receiving all kernel traffic."""
    return _ACTIVE


@contextmanager
def use_backend(name: str) -> Iterator[KernelBackend]:
    """Temporarily route kernels through ``name`` (parity tests, benchmarks)."""
    global _ACTIVE
    prev = _ACTIVE
    _ACTIVE = get_backend(name)
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = prev


def backend_report() -> str:
    """Dispatcher observability: capabilities, choices, and hit counts.

    When a fixed backend is active the report says so; the dispatcher's
    accumulated choices are still included (it keeps its cache).
    """
    lines = [f"active backend: {_ACTIVE.name}"]
    lines.append("registered backends and kernel-point capabilities:")
    for name in sorted(_REGISTRY):
        caps = _REGISTRY[name].capabilities()
        flags = ", ".join(f"{p}={caps[p]}" for p in KERNEL_POINTS)
        lines.append(f"  {name:>8}: {flags}")
    lines.append(_DISPATCHER.report())
    return "\n".join(lines)


def _point_of(direction: int) -> str:
    if direction == BATCHED_MATVEC_DIR:
        return "batched_matvec"
    if direction == APPLY_TENSOR_DIR:
        return "apply_tensor"
    return "apply_1d"


def _jsonify_shape(shape) -> list:
    """Shape tuples (possibly nested with None, for tensor keys) -> lists."""
    return [
        _jsonify_shape(s) if isinstance(s, tuple) else s for s in shape
    ]


def dispatch_choices() -> List[dict]:
    """The tuner's decisions as JSON-ready rows (for ``repro.obs`` reports).

    One row per tuned ``(op shape, field shape, direction)`` signature:
    the winning kernel name, the kernel point (``direction`` is ``-1``
    for batched matvecs, ``-2`` for fused tensor applies), and how many
    dispatches it has served.
    """
    rows = []
    for key in sorted(_DISPATCHER.choices, key=repr):
        op_s, u_s, d = key
        rows.append(
            {
                "op_shape": _jsonify_shape(op_s),
                "field_shape": list(u_s),
                "direction": int(d),
                "point": _point_of(int(d)),
                "kernel": _DISPATCHER.choices[key],
                "hits": int(_DISPATCHER.hits.get(key, 0)),
            }
        )
    return rows


def backend_tallies() -> Dict[str, Dict[str, int]]:
    """Aggregate dispatch counts per winning backend per kernel point.

    The run report's per-backend kernel tallies: for each backend that
    won at least one tuned shape, how many dispatches it served on each
    kernel point and how many distinct shapes it owns.
    """
    out: Dict[str, Dict[str, int]] = {}
    for key, name in _DISPATCHER.choices.items():
        row = out.setdefault(
            name, {point: 0 for point in KERNEL_POINTS} | {"shapes": 0}
        )
        row[_point_of(int(key[2]))] += int(_DISPATCHER.hits.get(key, 0))
        row["shapes"] += 1
    return out


def tuning_stats() -> dict:
    """Persistent-tuning-table counters for the service/report layers."""
    path = tuning_cache_path()
    return {
        "path": str(path) if path is not None else None,
        "persist": bool(_DISPATCHER._persist_enabled()),
        "table_key": _table_key(),
        "entries": len(_DISPATCHER.choices),
        "loaded_from_disk": int(_DISPATCHER.persist_stats["loaded"]),
        "tuned_this_process": int(_DISPATCHER.persist_stats["tuned"]),
        "saves": int(_DISPATCHER.persist_stats["saved"]),
    }


# honor REPRO_BACKEND at import time (CLI --backend overrides later).
_env = os.environ.get("REPRO_BACKEND", "").strip()
if _env:
    try:
        set_backend(_env)
    except ValueError:
        raise ValueError(
            f"REPRO_BACKEND={_env!r} does not name a registered kernel "
            f"backend; available: {available_backends()} (optional backends "
            f"register only when their dependency is installed)"
        ) from None


# ---------------------------------------------------------------------------
# The sanitized kernel entry points used by repro.core.tensor.
# ---------------------------------------------------------------------------
def _sanitize(a: np.ndarray) -> np.ndarray:
    """C-contiguous float64 view-or-copy, exactly once at the boundary.

    Fortran-ordered or non-float64 operands would silently fall onto slow
    strided BLAS paths inside every kernel variant; normalizing here keeps
    the per-shape timings (and therefore the tuner's choices) meaningful.
    """
    return np.ascontiguousarray(a, dtype=np.float64)


def _check_out(out: np.ndarray, expected: Tuple[int, ...], *inputs) -> None:
    if out.shape != expected:
        raise ValueError(f"out has shape {out.shape}, kernel produces {expected}")
    if out.dtype != np.float64 or not out.flags["C_CONTIGUOUS"]:
        raise ValueError("out must be a C-contiguous float64 array")
    for a in inputs:
        if np.may_share_memory(out, a):
            raise ValueError(
                "out must not alias the input field (kernels are not "
                "in-place safe); pass a distinct workspace buffer"
            )


def apply_1d(
    op: np.ndarray,
    u: np.ndarray,
    direction: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Validated, flop-counted ``apply_1d`` through the active backend."""
    op = _sanitize(op)
    u = _sanitize(u)
    if op.ndim != 2:
        raise ValueError(f"operator must be 2-D, got shape {op.shape}")
    m, n = op.shape
    ndim = u.ndim - 1
    if ndim < 1:
        raise ValueError(f"field must be batched (K, ...), got shape {u.shape}")
    if direction < 0 or direction >= ndim:
        raise ValueError(f"direction {direction} out of range for {ndim}-D field")
    axis = u.ndim - 1 - direction
    if u.shape[axis] != n:
        raise ValueError(
            f"operator expects extent {n} along direction {direction}, "
            f"field has {u.shape[axis]}"
        )
    if out is not None:
        expected = list(u.shape)
        expected[axis] = m
        _check_out(out, tuple(expected), u)
    add_flops(2.0 * m * n * (u.size // n), "mxm")
    return _ACTIVE.apply_1d(op, u, direction, out=out)


def batched_matvec(
    mats: np.ndarray,
    vecs: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Validated, flop-counted per-element matvec ``out[k] = mats[k] @ vecs[k]``.

    The condensed-solver building block: each element carries its *own*
    dense ``(m, n)`` block (Schur complements, coupling blocks), so the
    batch cannot collapse onto a shared-operator ``apply_1d``.  Tuning keys
    on ``(mats shape, vecs shape, -1)`` — the dispatcher arbitrates the same
    kernel family (matmul / einsum / broadcast-reduce / compiled) per shape.
    """
    mats = _sanitize(mats)
    vecs = _sanitize(vecs)
    if mats.ndim != 3:
        raise ValueError(f"mats must be (K, m, n), got shape {mats.shape}")
    K, m, n = mats.shape
    if vecs.shape != (K, n):
        raise ValueError(
            f"vecs must have shape {(K, n)} to match mats {mats.shape}, "
            f"got {vecs.shape}"
        )
    if out is not None:
        _check_out(out, (K, m), vecs, mats)
    add_flops(2.0 * K * m * n, "mxm")
    return _ACTIVE.batched_matvec(mats, vecs, out=out)


def apply_tensor(
    ops: Sequence[Optional[np.ndarray]],
    u: np.ndarray,
    workspace: Optional[Workspace] = None,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Validated, flop-counted fused tensor apply ``(op_t x op_s x op_r) u``.

    ``ops`` has one (possibly rectangular) operator per tensor direction,
    ordered ``(op_r, op_s[, op_t])``; ``None`` entries skip a direction.
    The exact analytic flop total (the sum over stages of
    ``2 m n (stage size / n)``) is tallied here in one shot, so the count
    is identical whether a backend runs the fused kernel or the composed
    per-stage default.

    Result placement: ``out`` when given; else a ``workspace``-owned
    buffer when a workspace is given (same ownership contract as the
    pre-fusion implementation — copy or consume before the next
    workspace-using call); else a fresh allocation.
    """
    u = _sanitize(u)
    ndim = u.ndim - 1
    if ndim < 1:
        raise ValueError(f"field must be batched (K, ...), got shape {u.shape}")
    if len(ops) != ndim:
        raise ValueError(
            f"need {ndim} operators for a {ndim}-D field, got {len(ops)}"
        )
    ops_s: List[Optional[np.ndarray]] = []
    for op in ops:
        if op is None:
            ops_s.append(None)
            continue
        op = _sanitize(op)
        if op.ndim != 2:
            raise ValueError(f"operator must be 2-D, got shape {op.shape}")
        ops_s.append(op)
    # Stage-wise shape evolution + the exact composed-equivalent flop total.
    shape = list(u.shape)
    size = u.size
    flops = 0.0
    for d, op in enumerate(ops_s):
        if op is None:
            continue
        axis = u.ndim - 1 - d
        m, n = op.shape
        if shape[axis] != n:
            raise ValueError(
                f"operator expects extent {n} along direction {d}, "
                f"field has {shape[axis]}"
            )
        flops += 2.0 * m * n * (size // n)
        size = (size // n) * m
        shape[axis] = m
    if all(op is None for op in ops_s):
        return u
    result_shape = tuple(shape)
    if out is not None:
        _check_out(out, result_shape, u)
    add_flops(flops, "mxm")
    if out is None and workspace is not None:
        out = workspace.get("apply_tensor_out", result_shape)
        if np.may_share_memory(out, u):
            out = np.empty(result_shape)
    return _ACTIVE.apply_tensor(ops_s, u, out=out)


def grad(d, u, outs=None):
    """Backend-routed reference-space gradient (one apply per direction)."""
    ndim = u.ndim - 1
    if outs is None:
        outs = (None,) * ndim
    return tuple(apply_1d(d, u, a, out=outs[a]) for a in range(ndim))


def grad_transpose(dt, ws, out=None, work=None):
    """Backend-routed adjoint gradient ``sum_a D^T w_a``.

    ``dt`` is the pre-transposed 1-D operator (pass a contiguous transpose
    to avoid a per-call copy); ``work`` is scratch for the accumulation.
    """
    out = apply_1d(dt, ws[0], 0, out=out)
    for a in range(1, len(ws)):
        tmp = apply_1d(dt, ws[a], a, out=work)
        out += tmp
    return out
