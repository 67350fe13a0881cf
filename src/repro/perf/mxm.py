"""Matrix-matrix kernel variants and the Table 3 MFLOPS harness.

"As matrix-matrix products account for over 90% of the flops in a
simulation, maximizing DGEMM performance is paramount" (Section 6).  The
paper benchmarks five kernels (two vendor libraries, one experimental
small-``n2`` library, and two hand-unrolled Fortran loops, f2/f3) on the
exact ``(n1 x n2) x (n2 x n3)`` shapes arising in an N = 15 run, and finds
*no single kernel superior across all cases*.

The numpy analogue: different evaluation strategies dispatch to genuinely
different code paths (BLAS3 ``dgemm``, einsum's SIMD contraction loop,
broadcast-multiply-reduce, accumulated outer products), and their relative
ranking likewise flips with shape — the property Table 3 documents.  A
pure-Python triple loop is included as the un-tuned baseline (excluded
from default sweeps; it is ~1000x off, which is its own lesson).

This kernel table is deliberately separate from the backend registry
(:mod:`repro.backends`): Table 3 times single 2-D ``(n1 x n2) x (n2 x n3)``
products on the paper's calling shapes, while the registry's kernels are
batched tensor contractions over all elements of a field.

All timings use the paper's flop convention ``2 n1 n2 n3``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from .flops import mxm_flops

__all__ = [
    "TABLE3_SHAPES",
    "KERNELS",
    "kernel_names",
    "measure_mflops",
    "sweep_table3",
    "best_kernel_per_shape",
]

#: The (n1, n2, n3) calling configurations of Table 3 (order N = 15 run).
TABLE3_SHAPES: List[Tuple[int, int, int]] = [
    (14, 2, 14),
    (2, 14, 2),
    (16, 14, 16),
    (16, 14, 196),
    (256, 14, 16),
    (14, 16, 14),
    (16, 16, 16),
    (16, 16, 256),
    (196, 16, 14),
    (256, 16, 16),
]


def mxm_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` — numpy's operator dispatch (BLAS dgemm for 2-D doubles)."""
    return a @ b


def mxm_dot_out(a: np.ndarray, b: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """``np.dot`` with a preallocated output (no allocation in the loop)."""
    if out is None:
        out = np.empty((a.shape[0], b.shape[1]))
    return np.dot(a, b, out=out)


def mxm_blas(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Direct ``scipy.linalg.blas.dgemm`` call (skips numpy dispatch)."""
    from scipy.linalg.blas import dgemm

    return dgemm(1.0, a, b)


def mxm_einsum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``einsum('ij,jk->ik')`` — numpy's own contraction kernel."""
    return np.einsum("ij,jk->ik", a, b)


def mxm_outer(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Accumulated outer products (the f2/f3 'unroll the n2 loop' analogue)."""
    out = a[:, 0:1] * b[0:1, :]
    for k in range(1, a.shape[1]):
        out += a[:, k : k + 1] * b[k : k + 1, :]
    return out


def mxm_broadcast(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Broadcast-multiply then reduce (materializes the n1 x n2 x n3 cube)."""
    return (a[:, :, None] * b[None, :, :]).sum(axis=1)


def mxm_python(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pure-Python triple loop — the untuned reference (testing only)."""
    n1, n2 = a.shape
    n3 = b.shape[1]
    out = np.zeros((n1, n3))
    for i in range(n1):
        for j in range(n3):
            s = 0.0
            for k in range(n2):
                s += a[i, k] * b[k, j]
            out[i, j] = s
    return out


#: Kernel registry used by the Table 3 sweep (python loop excluded).
KERNELS: Dict[str, Callable] = {
    "matmul": mxm_matmul,
    "dot_out": mxm_dot_out,
    "blas": mxm_blas,
    "einsum": mxm_einsum,
    "outer": mxm_outer,
    "broadcast": mxm_broadcast,
}


def kernel_names() -> List[str]:
    return list(KERNELS)


def measure_mflops(
    kernel: Callable,
    n1: int,
    n2: int,
    n3: int,
    min_time: float = 0.05,
    n_buffers: int = 16,
    seed: int = 0,
) -> float:
    """MFLOPS of one kernel on one shape.

    Cycles through ``n_buffers`` distinct operand pairs so consecutive
    calls do not replay the same cache lines — the closest practical
    analogue of the paper's "all data in the matrix-matrix product timings
    is noncached".
    """
    rng = np.random.default_rng(seed)
    mats = [
        (rng.standard_normal((n1, n2)), rng.standard_normal((n2, n3)))
        for _ in range(n_buffers)
    ]
    # Warm up (JIT-free, but first-call dispatch overhead exists).
    kernel(*mats[0])
    reps = 0
    t0 = time.perf_counter()
    elapsed = 0.0
    while elapsed < min_time:
        a, b = mats[reps % n_buffers]
        kernel(a, b)
        reps += 1
        elapsed = time.perf_counter() - t0
    return mxm_flops(n1, n2, n3) * reps / elapsed / 1e6


def sweep_table3(
    shapes: Sequence[Tuple[int, int, int]] = None,
    kernels: Dict[str, Callable] = None,
    min_time: float = 0.05,
) -> Dict[Tuple[int, int, int], Dict[str, float]]:
    """MFLOPS for every (shape, kernel) pair — the Table 3 grid."""
    shapes = list(shapes) if shapes is not None else TABLE3_SHAPES
    kernels = kernels if kernels is not None else KERNELS
    out: Dict[Tuple[int, int, int], Dict[str, float]] = {}
    for shape in shapes:
        row = {}
        for name, fn in kernels.items():
            row[name] = measure_mflops(fn, *shape, min_time=min_time)
        out[shape] = row
    return out


def best_kernel_per_shape(table: Dict) -> Dict[Tuple[int, int, int], str]:
    """Winner per shape — the 'no single method was superior' check."""
    return {shape: max(row, key=row.get) for shape, row in table.items()}
