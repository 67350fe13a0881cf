"""Filter-based stabilization (Section 2; Fischer & Mullen 1999, ref. [11]).

The paper's stabilization applies, once per timestep, an inexpensive local
operation that suppresses the Nth mode in each element, with strength
``alpha`` (``alpha = 0``: no filtering; ``alpha = 1``: complete suppression
of the Nth mode).  Two equivalent constructions are provided:

* :func:`interpolation_filter_1d` — the paper's form
  ``F = (1 - alpha) I + alpha P`` where ``P`` interpolates to the order
  N-1 GLL grid and back ("only requires (inexpensive) local interpolation").
* :func:`modal_filter_1d` — the Legendre-transform form
  ``F = Phi diag(sigma) Phi^{-1}``, which generalizes to damping several
  high modes (the transfer-function view used in the follow-on literature).

Both preserve element-boundary values only approximately in general, so the
field filter re-imposes C0 continuity by averaging shared nodes afterwards,
exactly as the production code's once-per-step application does.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Sequence

import numpy as np

from ..backends import dispatch as _dispatch
from ..perf.flops import add_flops
from .assembly import Assembler
from .basis import interpolation_matrix
from .mesh import Mesh
from .quadrature import gauss_lobatto_legendre, legendre

__all__ = [
    "legendre_vandermonde",
    "modal_coefficients",
    "interpolation_filter_1d",
    "modal_filter_1d",
    "FieldFilter",
]


@lru_cache(maxsize=None)
def legendre_vandermonde(n: int) -> np.ndarray:
    """``Phi[i, k] = P_k(xi_i)`` on the order-``n`` GLL grid (square, invertible)."""
    x, _ = gauss_lobatto_legendre(n)
    phi = np.column_stack([legendre(k, x) for k in range(n + 1)])
    phi.flags.writeable = False
    return phi


def modal_coefficients(n: int, u: np.ndarray) -> np.ndarray:
    """Legendre modal coefficients of 1-D nodal values (last axis)."""
    phi = legendre_vandermonde(n)
    return np.linalg.solve(phi, np.asarray(u, dtype=float).T).T


@lru_cache(maxsize=None)
def interpolation_filter_1d(n: int, alpha: float) -> np.ndarray:
    """The paper's 1-D filter ``F = (1-alpha) I + alpha * I_{N-1->N} I_{N->N-1}``.

    ``P = I_up I_down`` reproduces polynomials of degree <= N-1 exactly, so F
    acts as the identity on the resolved modes and damps the Nth mode.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"filter strength alpha must be in [0, 1], got {alpha}")
    xn, _ = gauss_lobatto_legendre(n)
    xm, _ = gauss_lobatto_legendre(n - 1)
    down = interpolation_matrix(xn, xm)
    up = interpolation_matrix(xm, xn)
    f = (1.0 - alpha) * np.eye(n + 1) + alpha * (up @ down)
    f.flags.writeable = False
    return f


def modal_filter_1d(n: int, sigma: Sequence[float]) -> np.ndarray:
    """General modal filter ``F = Phi diag(sigma) Phi^{-1}``.

    ``sigma`` has length ``n+1``; entry k multiplies Legendre mode k.  The
    paper's filter corresponds to ``sigma = (1, ..., 1, 1-alpha)``.
    """
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (n + 1,):
        raise ValueError(f"sigma must have length n+1={n + 1}, got {sigma.shape}")
    phi = legendre_vandermonde(n)
    return phi @ (sigma[:, None] * np.linalg.inv(phi))


class FieldFilter:
    """Once-per-step stabilization filter for batched SEM fields.

    Applies the 1-D filter along every tensor direction of every element,
    then restores C0 continuity by multiplicity-weighted averaging of shared
    nodes.  Cost: ``d`` mxm kernels per element — the "(inexpensive) local
    interpolation" of Section 2.

    Parameters
    ----------
    mesh:
        The mesh the fields live on.
    alpha:
        Filter strength in [0, 1] (Table 1 / Fig. 3 use 0.05-0.3).
    assembler:
        Optional pre-built assembler (shared with the solver stack).
    n_modes:
        Number of top modes to damp.  1 reproduces the paper's filter; >1
        applies a quadratic ramp over the last ``n_modes`` modes (the
        Fischer-Mullen generalization used at very high Re).
    """

    def __init__(
        self,
        mesh: Mesh,
        alpha: float,
        assembler: Optional[Assembler] = None,
        n_modes: int = 1,
    ):
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"filter strength alpha must be in [0, 1], got {alpha}")
        if n_modes < 1 or n_modes > mesh.order:
            raise ValueError(f"n_modes must be in [1, N], got {n_modes}")
        self.mesh = mesh
        self.alpha = float(alpha)
        self.assembler = assembler if assembler is not None else Assembler.for_mesh(mesh)
        n = mesh.order
        if n_modes == 1:
            self.f1d = np.asarray(interpolation_filter_1d(n, self.alpha))
        else:
            sigma = np.ones(n + 1)
            for j in range(n_modes):
                # Quadratic ramp: strongest damping on the top mode.
                w = ((n_modes - j) / n_modes) ** 2
                sigma[n - j] = 1.0 - self.alpha * w
            self.f1d = modal_filter_1d(n, sigma)

    def __call__(self, u: np.ndarray) -> np.ndarray:
        """Filter one batched field ``(K, n...)`` or a stack ``(m, K, n...)``
        of them (e.g. all velocity components, averaged in one call)."""
        if self.alpha == 0.0:
            return u
        ops = [self.f1d] * self.mesh.ndim
        out = np.empty(u.shape)
        shape = (-1,) + self.mesh.local_shape
        for f, o in zip(u.reshape(shape), out.reshape(shape)):
            _dispatch.apply_tensor(ops, f, out=o)
        add_flops(out.size, "pointwise")
        return self.assembler.dsavg(out)
