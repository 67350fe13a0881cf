"""Backend registry and shape-aware auto-tuning dispatch.

This is the entry point through which the library's shared-operator
tensor-product kernels run (``apply_1d``, ``apply_tensor``) and the
condensed solvers' per-element ``batched_matvec``: sanitize → tally → the
resolved kernel.  Two dense GEMM families stay outside it by design: the
FDM local solves and the coarse-grid transfer are per-element batched
``np.matmul`` calls with no shared operator to dispatch on.  It owns three
responsibilities the paper assigns to the tuned-kernel layer:

1. **Sanitizing the boundary.**  Operands are coerced to C-contiguous
   float64 exactly once (silently falling onto strided BLAS paths is the
   classic way to lose the Table 3 performance), shapes are validated, and
   ``out=`` aliasing the input is rejected.
2. **Exact flop accounting.**  The analytic ``2 m n (size/n)`` count is
   tallied here, so :mod:`repro.perf.flops` stays correct regardless of
   which kernel actually ran.
3. **Shape-aware dispatch.**  The default :class:`AutoTuneDispatcher` is
   the runtime analogue of the paper's N-specialized unrolled f2/f3
   kernels: the first time a ``(op shape, field shape, direction)``
   signature is seen, every registered kernel is micro-benchmarked on it
   (one untimed warm-up call, then best of ``reps``) and the winner is
   cached for the rest of the process.  Because "no single kernel is
   superior across all cases" (Section 6), the winner genuinely varies
   with shape.

The registry is fixed at import: the three numpy kernels ``matmul``,
``einsum`` and ``flat``.  Selection: ``REPRO_BACKEND`` in the environment
(validated at import against the registered names) or :func:`set_backend`
/ the ``--backend`` CLI flag.  :func:`backend_report` exposes the tuner's
choices and per-shape hit counts; :func:`backend_tallies` aggregates
dispatch counts per backend for the run report.

A hot operator apply whose ``apply_1d`` stages repeat in a fixed order
(the E apply's D and D^T, the Laplace/Helmholtz apply, the OIFS gradient)
runs them through a :class:`StagePlan` instead: each stage is validated
and resolved once, then replayed as a bare kernel call, with the same
tallies made once per apply (see :func:`stage_plan`).  A plan binds each
stage through the same routine as the per-call :func:`apply_1d`.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..perf.flops import add_flops
from .base import KERNEL_POINTS, KernelBackend, Workspace
from .numpy_backends import EinsumBackend, FlattenedBackend, MatmulBackend

__all__ = [
    "available_backends",
    "get_backend",
    "active_backend",
    "set_backend",
    "use_backend",
    "backend_report",
    "backend_tallies",
    "dispatch_choices",
    "AutoTuneDispatcher",
    "apply_1d",
    "batched_matvec",
    "apply_tensor",
    "StagePlan",
    "stage_plan",
]

#: sentinel "direction" used in dispatch keys for batched matvec calls,
#: where no tensor direction applies (the operator varies per element).
BATCHED_MATVEC_DIR = -1

#: sentinel "direction" for fused all-directions tensor applies.
APPLY_TENSOR_DIR = -2

#: name -> backend instance (fixed kernels; the dispatcher sits above them).
_REGISTRY: Dict[str, KernelBackend] = {
    b.name: b for b in (MatmulBackend(), EinsumBackend(), FlattenedBackend())
}


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


class AutoTuneDispatcher(KernelBackend):
    """Micro-benchmarking dispatcher: per-shape winner, cached per process.

    Tuning cost is a handful of kernel calls per *distinct* shape signature
    (warmup + best-of-``reps`` timing per candidate), amortized over the
    millions of applies a simulation performs on that same shape — the same
    economics as the paper's one-time selection of f2/f3 unrollings per N.
    """

    name = "auto"

    def __init__(self, reps: int = 3):
        # No KernelBackend.__init__: it only builds a kernel scratch pool,
        # and the dispatcher runs no kernel of its own (the registered
        # backends keep theirs; tuning trial outputs are local).
        self.reps = int(reps)
        #: shape signature -> winning backend name
        self.choices: Dict[Tuple, str] = {}
        #: shape signature -> dispatch count (excludes tuning calls)
        self.hits: Dict[Tuple, int] = {}
        #: shape signature -> {backend name: best seconds} from tuning
        self.timings: Dict[Tuple, Dict[str, float]] = {}
        #: serializes tuning so concurrent service threads neither race on
        #: the choice dicts nor skew each other's micro-benchmarks.
        self._tune_lock = threading.Lock()

    @staticmethod
    def signature(op: np.ndarray, u: np.ndarray, direction: int) -> Tuple:
        """The (n, K, axis) dispatch key: operator shape, field shape, direction."""
        return (op.shape, u.shape, direction)

    # --------------------------------------------------------- kernel points
    def _choose_1d(self, op, u, direction, hits: Dict[Tuple, int]) -> KernelBackend:
        """Winning backend of an ``apply_1d`` call (tuned on a miss).

        Counts one hit of the call's ``(op shape, field shape, direction)``
        signature into ``hits``: the tuner's own per call, or a
        :class:`StagePlan`'s, merged into the tuner's once per apply.
        """
        key = self.signature(op, u, direction)
        name = self.choices.get(key)
        if name is None:
            shape = list(u.shape)
            shape[u.ndim - 1 - direction] = op.shape[0]
            name = self._tune(
                key,
                lambda b, scratch: b.apply_1d(op, u, direction, out=scratch),
                tuple(shape),
            )
        hits[key] = hits.get(key, 0) + 1
        return _REGISTRY[name]

    def apply_1d(self, op, u, direction, out: Optional[np.ndarray] = None):
        backend = self._choose_1d(op, u, direction, self.hits)
        return backend.apply_1d(op, u, direction, out=out)

    def batched_matvec(self, mats, vecs, out: Optional[np.ndarray] = None):
        key = (mats.shape, vecs.shape, BATCHED_MATVEC_DIR)
        backend = self._resolve(
            key,
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
            lambda b, scratch: b.apply_tensor(ops, u, out=scratch),
            tuple(shape),
        )
        return backend.apply_tensor(ops, u, out=out)

    # ---------------------------------------------------------------- tuning
    def _resolve(self, key, call, scratch_shape) -> KernelBackend:
        """The winning backend for ``key``, tuning on a miss; counts one hit."""
        name = self.choices.get(key)
        if name is None:
            name = self._tune(key, call, scratch_shape)
        self.hits[key] = self.hits.get(key, 0) + 1
        return _REGISTRY[name]

    def _tune(self, key, call, scratch_shape) -> str:
        """Time every registered kernel on this exact call; cache the winner."""
        with self._tune_lock:
            name = self.choices.get(key)
            if name is not None:
                return name  # another thread tuned it while we waited
            # Trial output local to this tuning: a pooled buffer would pin
            # one dead array per tuned shape for the life of the process.
            scratch = np.empty(scratch_shape)
            best_name, best_t = None, np.inf
            timings: Dict[str, float] = {}
            for name, backend in _REGISTRY.items():
                # Untimed per-shape warm-up: first-touch and cache effects
                # land here, outside the measurement.
                call(backend, scratch)
                t_min = np.inf
                for _ in range(self.reps):
                    t0 = time.perf_counter()
                    call(backend, scratch)
                    t_min = min(t_min, time.perf_counter() - t0)
                timings[name] = t_min
                if t_min < best_t:
                    best_name, best_t = name, t_min
            self.choices[key] = best_name
            self.timings[key] = timings
            return best_name

    def reset(self) -> None:
        """Forget all tuning decisions and hit counts (bound plans rebind)."""
        with self._tune_lock:
            self.choices.clear()
            self.hits.clear()
            self.timings.clear()
        _new_epoch()

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
# Active-backend state.
# ---------------------------------------------------------------------------
_DISPATCHER = AutoTuneDispatcher()

#: the backend all library kernels currently route through.
_ACTIVE: KernelBackend = _DISPATCHER

#: Bumped whenever the kernel a signature resolves to may change: by
#: set_backend, by use_backend on enter and on exit, and by the tuner's
#: reset().  A StagePlan bound under an older epoch rebinds on its next
#: apply.  ``next()`` on the counter is atomic, so no bump is lost.
_EPOCHS = itertools.count(1)
_EPOCH = 0


def _new_epoch() -> None:
    global _EPOCH
    _EPOCH = next(_EPOCHS)


def set_backend(name: str) -> KernelBackend:
    """Select the process-wide kernel backend (``auto`` = tuned dispatch)."""
    global _ACTIVE
    _ACTIVE = get_backend(name)
    _new_epoch()
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
    _new_epoch()
    try:
        yield _ACTIVE
    finally:
        _ACTIVE = prev
        _new_epoch()


def backend_report() -> str:
    """Dispatcher observability: active backend, choices, and hit counts.

    When a fixed backend is active the report says so; the dispatcher's
    accumulated choices are still included (it keeps its cache).
    """
    lines = [f"active backend: {_ACTIVE.name}"]
    lines.append(f"registered backends: {', '.join(sorted(_REGISTRY))}")
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


# honor REPRO_BACKEND at import time (CLI --backend overrides later).
_env = os.environ.get("REPRO_BACKEND", "").strip()
if _env:
    try:
        set_backend(_env)
    except ValueError:
        raise ValueError(
            f"REPRO_BACKEND={_env!r} does not name a registered kernel "
            f"backend; available: {available_backends()}"
        ) from None


# ---------------------------------------------------------------------------
# The sanitized kernel entry points.
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


def _bind_1d(op, u, direction, out, hits) -> Tuple[Callable, np.ndarray, np.ndarray, float]:
    """Validate one ``apply_1d`` call and resolve its kernel.

    Returns the kernel (the tuner's choice, counted into ``hits``, or the
    fixed active backend's), the sanitized ``(op, u)`` and the call's flop
    count.  The one bind routine of the per-call :func:`apply_1d` and of
    :meth:`StagePlan.stage`.
    """
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
    backend = _ACTIVE
    if backend is _DISPATCHER:
        backend = _DISPATCHER._choose_1d(op, u, direction, hits)
    return backend.apply_1d, op, u, 2.0 * m * n * (u.size // n)


def apply_1d(
    op: np.ndarray,
    u: np.ndarray,
    direction: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Apply 1-D operator ``op`` along tensor ``direction`` of batched ``u``.

    ``u`` has shape ``(K, [n_t,] n_s, n_r)``; ``direction`` 0 means r (the
    last axis), 1 means s, 2 means t.  ``op`` is ``(m, n)`` with ``n``
    matching the extent of that direction; the result swaps it to ``m``.
    Validated and flop-counted; the active backend picks the kernel.
    ``out``, when given, receives the result (C-contiguous float64, not
    aliasing ``u``); otherwise a fresh array is returned.
    """
    kernel, op, u, flops = _bind_1d(op, u, direction, out, _DISPATCHER.hits)
    add_flops(flops, "mxm")
    return kernel(op, u, direction, out=out)


class _Stage(NamedTuple):
    kernel: Callable  # the resolved backend's bound apply_1d
    op: np.ndarray  # sanitized operator
    direction: int
    out: Optional[np.ndarray]  # bound scratch; None when the caller passes out


class StagePlan:
    """One operator apply's ``apply_1d`` stages, resolved once and replayed.

    The apply that meets a fresh plan *binds* it: each :meth:`stage` call
    goes through the bind routine of the per-call :func:`apply_1d`
    (sanitize, validate, resolve the kernel: the tuner's choice, tuned on
    a miss, or the fixed active backend) and takes its scratch buffer from
    the owner's workspace.  Every later apply replays: stage ``i`` is one bare kernel
    call on the same operands into the same buffer, so results are
    bitwise those of the per-call path.  :meth:`finish` tallies each
    apply as the per-call path would: one ``add_flops`` of the stage sum
    and one dispatcher hit update per distinct signature.

    A plan is only valid while its owner calls the same stages in the
    same order on arrays of the bound shapes, and validates its own
    arrays (shape, C-contiguous float64) once per apply.  Get one per
    apply from :func:`stage_plan`.
    """

    __slots__ = ("epoch", "bound", "_ws", "_stages", "_cursor", "_flops", "_hits")

    def __init__(self, workspace: Workspace):
        self.epoch = _EPOCH  # read before any stage resolves its kernel
        self.bound = False
        self._ws = workspace
        self._stages: List[_Stage] = []
        self._cursor = 0
        self._flops = 0.0
        self._hits: Dict[Tuple, int] = {}

    def stage(
        self,
        name: str,
        op: np.ndarray,
        u: np.ndarray,
        direction: int,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """``op`` along ``direction`` of ``u``, into ``out`` or scratch ``name``."""
        if self.bound:
            kernel, op, direction, buf = self._stages[self._cursor]
            self._cursor += 1
            return kernel(op, u, direction, out=buf if out is None else out)
        buf = None
        if out is None:
            shape = list(u.shape)
            shape[u.ndim - 1 - direction] = op.shape[0]
            buf = out = self._ws.get(name, tuple(shape))
        kernel, op, u, flops = _bind_1d(op, u, direction, out, self._hits)
        self._flops += flops
        self._stages.append(_Stage(kernel, op, direction, buf))
        return kernel(op, u, direction, out=out)

    def finish(self) -> None:
        """End one apply: tally its flops and dispatcher hits; bound from now on."""
        self.bound = True
        # A bound plan needs no workspace; keeping it would close a
        # workspace -> plan -> workspace cycle and hold a dropped
        # operator's buffers until the next garbage collection.
        self._ws = None
        add_flops(self._flops, "mxm")
        hits = _DISPATCHER.hits
        for key, n in self._hits.items():
            hits[key] = hits.get(key, 0) + n


def stage_plan(workspace: Workspace, key) -> StagePlan:
    """The calling thread's plan ``key`` in ``workspace``, ready for one apply.

    A new plan (bound by this apply) replaces one that never finished
    binding or was bound before the last backend switch or tuner reset.
    Plans live beside the workspace's per-thread buffers, so concurrent
    threads never share a plan or the scratch it binds.
    """
    plans = workspace.plans
    plan = plans.get(key)
    if plan is None or not plan.bound or plan.epoch != _EPOCH:
        plan = plans[key] = StagePlan(workspace)
    plan._cursor = 0
    return plan


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
    kernel family (matmul / einsum / broadcast-reduce) per shape.
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
    workspace-using call); else a fresh allocation.  All-``None`` ``ops``
    copy ``u`` to that place.
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
    result_shape = tuple(shape)
    if out is not None:
        _check_out(out, result_shape, u)
    elif workspace is not None:
        out = workspace.get("apply_tensor_out", result_shape)
        if np.may_share_memory(out, u):
            out = np.empty(result_shape)
    if all(op is None for op in ops_s):
        # All identity: no kernel runs and no flop is tallied, but the
        # result is still placed like any other, never ``u`` itself.
        if out is None:
            return u.copy()
        np.copyto(out, u)
        return out
    add_flops(flops, "mxm")
    return _ACTIVE.apply_tensor(ops_s, u, out=out)
