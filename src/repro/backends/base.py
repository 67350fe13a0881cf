"""Kernel-backend protocol and workspace management.

Section 6 of the paper is blunt: matrix-matrix products account for over
90% of the flops in a simulation, and Table 3 shows that *no single kernel
is superior across all calling shapes*.  The production response (then:
hand-unrolled f2/f3 Fortran kernels selected per ``n2``; now: the
OCCA/kernel-dispatch layers of NekRS) is a pluggable backend layer.  This
module defines that layer's contract:

* :class:`KernelBackend` — the protocol every kernel implementation obeys.
  The core operation is :meth:`KernelBackend.apply_1d`: apply a small dense
  operator along one tensor direction of a batched field, optionally into a
  preallocated output.  ``batched_matvec`` and ``apply_tensor`` have
  default implementations (``apply_tensor`` composes per-stage
  ``apply_1d`` calls) that a backend may override with fused variants.
* :class:`Workspace` — a pool of named preallocated buffers so that hot
  loops (operator applies inside a CG iteration) perform no per-apply
  allocations.  Buffers are keyed by ``(name, shape)``; requesting the same
  key twice returns the same array.

Backends receive *sanitized* operands — C-contiguous float64 arrays with
validated shapes — from :mod:`repro.backends.dispatch`, the entry point
the rest of the library uses.  Flop accounting also lives at
that boundary, so counters stay exact regardless of which kernel ran.
"""

from __future__ import annotations

import abc
import threading
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

__all__ = ["KERNEL_POINTS", "KernelBackend", "Workspace"]

#: the protocol's dispatchable kernel points, in protocol order.
KERNEL_POINTS = ("apply_1d", "batched_matvec", "apply_tensor")


class Workspace:
    """Pool of preallocated scratch buffers keyed by ``(name, shape)``.

    The zero-allocation discipline of the hot paths: every intermediate a
    kernel or operator needs is requested from a workspace owned by the
    long-lived object (operator, solver, backend), so steady-state applies
    reuse the same memory.  Buffer contents are *not* cleared between
    requests — callers must treat a fresh buffer as uninitialized.

    Storage is **per thread**: each thread sees its own buffer pool, so a
    long-lived object (operator, preconditioner, backend) shared between
    the service layer's concurrent runs never hands two threads the same
    scratch array.  Single-threaded use is unchanged — one pool, same
    buffers back on every request.  ``nbytes``/``len``/``clear`` act on the
    calling thread's pool only.
    """

    def __init__(self) -> None:
        self._tls = threading.local()

    @property
    def _buffers(self) -> Dict[Tuple, np.ndarray]:
        buffers = getattr(self._tls, "buffers", None)
        if buffers is None:
            buffers = self._tls.buffers = {}
        return buffers

    @property
    def plans(self) -> Dict:
        """This thread's bound stage plans (:func:`repro.backends.dispatch.stage_plan`)."""
        plans = getattr(self._tls, "plans", None)
        if plans is None:
            plans = self._tls.plans = {}
        return plans

    def get(self, name: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Return the buffer for ``(name, shape)``, allocating it on first use."""
        key = (name, tuple(shape), np.dtype(dtype))
        buf = self._buffers.get(key)
        if buf is None:
            buf = np.empty(shape, dtype=dtype)
            self._buffers[key] = buf
        return buf

    def zeros(self, name: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """Like :meth:`get` but zero-filled on every request."""
        buf = self.get(name, shape, dtype)
        buf.fill(0.0)
        return buf

    def clear(self) -> None:
        """Drop every buffer and the plans bound to them (e.g. after a mesh change)."""
        self._buffers.clear()
        self.plans.clear()

    @property
    def nbytes(self) -> int:
        """Total bytes currently held by the pool."""
        return sum(b.nbytes for b in self._buffers.values())

    def __len__(self) -> int:
        return len(self._buffers)


class KernelBackend(abc.ABC):
    """Protocol for tensor-product kernel implementations.

    A backend supplies the Eq. (3) building block: apply a dense ``(m, n)``
    operator along one tensor direction of a batched field

        2-D:  ``(K, n_s, n_r)``        3-D:  ``(K, n_t, n_s, n_r)``

    with ``direction`` counted from the fastest-varying array axis
    (``0 = r``, ``1 = s``, ``2 = t``), writing into ``out`` when provided.

    Implementations may assume sanitized inputs (C-contiguous float64,
    shape-checked, ``out`` non-aliasing) — the dispatch layer guarantees
    this — and must return ``out`` itself when one is supplied.
    """

    #: registry name; subclasses override.
    name: str = "?"

    def __init__(self) -> None:
        self.workspace = Workspace()

    def supports(self, point: str) -> bool:
        """Whether kernel point ``point`` may be routed here: always ``True``.

        Every backend implements every point (the composed defaults below
        cover what a subclass does not override).  Kept because the
        benchmark harness (``bench/workloads.py``) asks it before timing a
        fixed backend on a replayed shape.
        """
        return True

    @abc.abstractmethod
    def apply_1d(
        self,
        op: np.ndarray,
        u: np.ndarray,
        direction: int,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Apply ``op`` along ``direction`` of batched ``u`` (into ``out``)."""

    def batched_matvec(
        self,
        mats: np.ndarray,
        vecs: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Per-element small-DGEMV batch: ``out[k] = mats[k] @ vecs[k]``.

        ``mats`` is ``(K, m, n)``, ``vecs`` is ``(K, n)``; unlike
        :meth:`apply_1d` the operator differs per batch entry — the shape of
        the condensed (Schur-complement) interface applies, where each
        element carries its own dense block.  Default: batched ``np.matmul``.
        """
        if out is None:
            out = np.empty(mats.shape[:2])
        np.matmul(mats, vecs[:, :, None], out=out.reshape(out.shape + (1,)))
        return out

    def apply_tensor(
        self,
        ops: Sequence[Optional[np.ndarray]],
        u: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """All-directions tensor apply ``(op_t x op_s x op_r) u``.

        ``ops`` has one entry per tensor direction (``ops[0]`` acts along
        r, the fastest axis); ``None`` entries are identity.  At least one
        entry is a real operator (the dispatch layer short-circuits the
        all-identity case).  Default: sequential :meth:`apply_1d` stages
        ping-ponging through the backend's workspace, final stage into
        ``out``.
        """
        stages = [(d, op) for d, op in enumerate(ops) if op is not None]
        cur = u
        for i, (direction, op) in enumerate(stages):
            shape = list(cur.shape)
            shape[cur.ndim - 1 - direction] = op.shape[0]
            if i == len(stages) - 1:
                dst = out if out is not None else np.empty(tuple(shape))
            else:
                dst = self.workspace.get(f"tens{i % 2}", tuple(shape))
            self.apply_1d(op, cur, direction, out=dst)
            cur = dst
        return cur

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} name={self.name!r}>"
