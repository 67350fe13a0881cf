"""Batched tensor-product kernels.

Section 3 is the heart of the paper's efficiency argument: with a
tensor-product basis, the matrix-vector products required by the iterative
solvers collapse to small dense matrix-matrix products (Eq. 3),

    (A^k u^k) = A_x u^k B_y^T + B_x u^k A_y^T,

and >90% of a simulation's flops are such ``mxm`` kernels (Section 6).

This module supplies those kernels, *batched over all K elements at once*:
fields are stored as contiguous arrays of shape

    2-D:  ``(K, n_s, n_r)``
    3-D:  ``(K, n_t, n_s, n_r)``

so that applying a 1-D operator along the r-direction is a single BLAS-3
call across the whole mesh — the numpy analogue of the paper's
DGEMM-dominated inner loop.  Direction indices follow the reference
coordinates of Fig. 2: ``0 = r`` (fastest-varying array axis), ``1 = s``,
``2 = t``.

Which kernel actually executes is decided by :mod:`repro.backends`: every
call here routes through the shape-aware dispatch layer (auto-tuned by
default, overridable via ``REPRO_BACKEND`` / ``--backend``), which also
performs operand sanitization and the analytic flop accounting in
:mod:`repro.perf.flops`.  All kernels accept an ``out=`` buffer so hot
loops can run allocation-free; ``out`` must not alias the input field.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..backends import dispatch as _dispatch
from ..backends.base import Workspace

__all__ = [
    "apply_1d",
    "apply_tensor",
    "grad_2d",
    "grad_transpose_2d",
    "grad_3d",
    "grad_transpose_3d",
    "kron_matvec",
]


def _check_batched(u: np.ndarray, ndim: int) -> None:
    if u.ndim != ndim + 1:
        raise ValueError(
            f"expected batched field of shape (K, {'n,' * ndim}) -> "
            f"{ndim + 1} axes, got shape {u.shape}"
        )


def apply_1d(
    op: np.ndarray,
    u: np.ndarray,
    direction: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Apply 1-D operator ``op`` along tensor ``direction`` of batched ``u``.

    ``u`` has shape ``(K, [n_t,] n_s, n_r)``; ``direction`` 0 means r (last
    axis), 1 means s, 2 means t.  ``op`` is ``(m, n)`` with ``n`` matching
    the extent of the chosen direction; the result swaps that extent to
    ``m``.  Equivalent to ``(I x .. x op x .. x I) u`` element by element.

    ``out``, when given, receives the result (C-contiguous float64, correct
    shape, not aliasing ``u``) and is returned; otherwise a fresh array is
    allocated.  The kernel that runs is chosen by the active backend.
    """
    return _dispatch.apply_1d(op, u, direction, out=out)


def apply_tensor(
    ops: Sequence[Optional[np.ndarray]],
    u: np.ndarray,
    workspace: Optional[Workspace] = None,
) -> np.ndarray:
    """Apply ``(op_t x op_s x op_r) u`` for each element.

    ``ops`` is ordered ``(op_r, op_s[, op_t])`` — one operator per tensor
    direction, each possibly rectangular (used e.g. for the PN->PN-2 grid
    transfer and the filter).  Pass ``None`` entries to skip a direction
    (identity).

    Routes through the ``apply_tensor`` kernel point of the active backend
    (the numpy backends run composed per-direction stages) with the exact
    composed-equivalent flop tally made at the dispatch boundary.

    With a ``workspace`` the *returned array is workspace-owned*, so
    callers must copy or consume it before the next workspace-using call.
    """
    return _dispatch.apply_tensor(ops, u, workspace=workspace)


def grad_2d(
    d: np.ndarray,
    u: np.ndarray,
    outs: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Reference-space gradient ``(du/dr, du/ds)`` of a batched 2-D field."""
    _check_batched(u, 2)
    return _dispatch.grad(d, u, outs=outs)


def grad_transpose_2d(
    d: np.ndarray,
    wr: np.ndarray,
    ws: np.ndarray,
    out: Optional[np.ndarray] = None,
    work: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Adjoint of :func:`grad_2d`: ``D_r^T wr + D_s^T ws``.

    Callers on the hot path should pre-transpose ``d`` once and use
    :func:`repro.backends.grad_transpose` directly; this wrapper transposes
    per call for convenience.
    """
    return _dispatch.grad_transpose(
        np.ascontiguousarray(d.T), (wr, ws), out=out, work=work
    )


def grad_3d(
    d: np.ndarray,
    u: np.ndarray,
    outs: Optional[Sequence[Optional[np.ndarray]]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reference-space gradient ``(du/dr, du/ds, du/dt)`` of a 3-D field."""
    _check_batched(u, 3)
    return _dispatch.grad(d, u, outs=outs)


def grad_transpose_3d(
    d: np.ndarray,
    wr: np.ndarray,
    ws: np.ndarray,
    wt: np.ndarray,
    out: Optional[np.ndarray] = None,
    work: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Adjoint of :func:`grad_3d`: ``D_r^T wr + D_s^T ws + D_t^T wt``."""
    return _dispatch.grad_transpose(
        np.ascontiguousarray(d.T), (wr, ws, wt), out=out, work=work
    )


def kron_matvec(ops: Sequence[np.ndarray], x: np.ndarray) -> np.ndarray:
    """Dense Kronecker-product action ``(op_d x ... x op_1) x`` on a flat vector.

    ``ops`` ordered slowest-varying first, i.e. ``ops[-1]`` acts on the
    fastest (last) index — the conventional ``kron`` ordering, so that
    ``kron_matvec([A, B], x) == np.kron(A, B) @ x``.  Used by the FDM local
    solves and the unit tests that validate the batched kernels against
    explicit Kronecker matrices.
    """
    shapes_in = [op.shape[1] for op in ops]
    x = np.asarray(x).reshape(shapes_in)
    # Reuse the batched kernel with a singleton element axis; directions are
    # numbered from the last axis (fastest) upward.
    out = x[None, ...]
    for direction, op in enumerate(reversed(ops)):
        out = apply_1d(np.asarray(op), out, direction)
    return out.reshape(-1)
