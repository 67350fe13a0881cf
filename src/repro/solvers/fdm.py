"""Fast Diagonalization Method local solves (Section 5; Lynch-Rice-Thomas [17]).

The additive Schwarz preconditioner's subdomain solves exploit the tensor
product structure: on a (logically) rectilinear extended subdomain, the
low-order Laplacian has the separable form of Eq. (2),

    A_tilde = B_y (x) A_x + A_y (x) B_x            (2-D)

whose inverse is applied in O(n^{d+1}) work via the generalized
eigendecompositions ``A_* z = lambda B_* z``:

    A_tilde^{-1} = (S_y (x) S_x) [I (x) L_x + L_y (x) I]^{-1} (S_y^T (x) S_x^T)

with S mass-normalized (``S^T B S = I``).  The per-direction 1-D operators
are *linear finite element* stiffness/mass matrices on the subdomain's grid
spacing ("low-order Laplacians", refs. [9, 10]), built on the element's
point coordinates extended by one gridpoint with homogeneous Dirichlet ends.

While the tensor form is not strictly applicable to deformed elements, "it
suffices for preconditioning purposes to build A_tilde on a rectilinear
domain of roughly the same dimensions" — we use the per-direction average
spacings of the (possibly deformed) element, exactly that approximation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np
import scipy.linalg

from ..backends.base import Workspace
from ..perf.flops import add_flops

__all__ = [
    "fem_stiffness_1d",
    "fem_mass_1d",
    "extend_grid",
    "FDMSolver",
    "line_consistent_poisson",
    "generalized_fdm_pair",
    "fdm_inverse_denominator",
]


def fem_stiffness_1d(z: np.ndarray) -> np.ndarray:
    """Linear-FEM stiffness on grid ``z`` with Dirichlet ends eliminated.

    ``z`` holds the full local grid *including* the two Dirichlet endpoints;
    the returned tridiagonal matrix acts on the ``len(z) - 2`` interior dofs.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim != 1 or z.size < 3:
        raise ValueError("grid needs at least 3 points (2 Dirichlet ends)")
    h = np.diff(z)
    if np.any(h <= 0):
        raise ValueError("grid must be strictly increasing")
    n = z.size - 2
    a = np.zeros((n, n))
    inv_h = 1.0 / h
    for i in range(n):
        a[i, i] = inv_h[i] + inv_h[i + 1]
        if i + 1 < n:
            a[i, i + 1] = -inv_h[i + 1]
            a[i + 1, i] = -inv_h[i + 1]
    return a


def fem_mass_1d(z: np.ndarray, lumped: bool = True) -> np.ndarray:
    """Linear-FEM mass matrix on grid ``z`` (interior dofs).

    Lumped (row-sum) by default, making ``B`` diagonal like its spectral
    counterpart; ``lumped=False`` gives the consistent tridiagonal form.
    """
    z = np.asarray(z, dtype=float)
    h = np.diff(z)
    n = z.size - 2
    b = np.zeros((n, n))
    for i in range(n):
        b[i, i] = (h[i] + h[i + 1]) / 3.0
        if i + 1 < n:
            b[i, i + 1] = h[i + 1] / 6.0
            b[i + 1, i] = h[i + 1] / 6.0
    if lumped:
        return np.diag(b.sum(axis=1))
    return b


def extend_grid(points: np.ndarray, left: float = None, right: float = None) -> np.ndarray:
    """Extend a 1-D point set by one gridpoint on each side.

    ``left``/``right`` give the neighbor's nearest point coordinate; when
    absent (physical boundary), the grid is mirrored by its own end spacing
    — the "extended by a single gridpoint in each of the directions normal
    to their boundaries" construction of Section 5.
    """
    p = np.asarray(points, dtype=float)
    lo = left if left is not None else p[0] - (p[1] - p[0])
    hi = right if right is not None else p[-1] + (p[-1] - p[-2])
    if not (lo < p[0] and hi > p[-1]):
        raise ValueError("extension points must lie strictly outside the grid")
    return np.concatenate(([lo], p, [hi]))


@dataclass
class _Eig1D:
    s: np.ndarray  # mass-normalized eigenvectors (columns)
    lam: np.ndarray  # eigenvalues


def _gen_eig(a: np.ndarray, b: np.ndarray) -> _Eig1D:
    """Solve ``A z = lambda B z`` with ``S^T B S = I`` normalization."""
    lam, s = scipy.linalg.eigh(a, b)
    return _Eig1D(s=s, lam=lam)


class FDMSolver:
    """Batched fast-diagonalization solver for per-element local problems.

    One instance holds the eigendecompositions for every element of a batch
    (each element may have different spacings) and applies all inverses in
    a handful of stacked matrix products.  It is the library's single
    batched-FDM kernel: the Schwarz ``fdm`` local solves (one instance per
    subdomain shape class) build it from their own factors through
    :meth:`from_factors`.

    Parameters
    ----------
    grids:
        ``grids[k][a]`` is the *extended* 1-D grid (including the two
        Dirichlet endpoints) of element k in direction a; interior sizes
        must be identical across elements (they are: every element carries
        the same number of points per direction).
    """

    def __init__(self, grids: Sequence[Sequence[np.ndarray]]):
        if not grids:
            raise ValueError("no element grids supplied")
        ndim = len(grids[0])
        s: List[np.ndarray] = []
        lam: List[np.ndarray] = []
        for a in range(ndim):
            eigs = [
                _gen_eig(fem_stiffness_1d(g[a]), fem_mass_1d(g[a])) for g in grids
            ]
            s.append(np.stack([e.s for e in eigs]))
            lam.append(np.stack([e.lam for e in eigs]))
        # Separable eigenvalue sum: (K, [n_t,] n_s, n_r), guarded against 0.
        if ndim == 2:
            denom = lam[1][:, :, None] + lam[0][:, None, :]
        else:
            denom = (
                lam[2][:, :, None, None]
                + lam[1][:, None, :, None]
                + lam[0][:, None, None, :]
            )
        if np.any(denom <= 0):
            raise ValueError("FDM eigenvalue sum not positive; check grids")
        self._set_factors(s, 1.0 / denom)

    @classmethod
    def from_factors(
        cls, s: Sequence[np.ndarray], inv_denom: np.ndarray
    ) -> "FDMSolver":
        """Solver over precomputed factors.

        ``s[a]`` stacks the direction-``a`` eigenvector matrices
        ``(K, n_a, n_a)`` (``a = 0`` is r, the fastest array axis);
        ``inv_denom`` is the pointwise inverse eigenvalue sum of shape
        ``(K, [n_t,] n_s, n_r)`` — zeros where the caller pseudo-inverts.
        Directions may differ in size (clipped boundary subdomains).
        """
        self = cls.__new__(cls)
        self._set_factors(s, inv_denom)
        return self

    def _set_factors(self, s: Sequence[np.ndarray], inv_denom: np.ndarray) -> None:
        self.K = inv_denom.shape[0]
        self.ndim = len(s)
        self.shape = tuple(inv_denom.shape[1:])  # array layout (t, s, r)
        if self.ndim not in (2, 3) or len(self.shape) != self.ndim:
            raise ValueError("FDM factors must describe 2-D or 3-D blocks")
        for a, s_a in enumerate(s):
            n = self.shape[self.ndim - 1 - a]
            if s_a.shape != (self.K, n, n):
                raise ValueError(
                    f"direction-{a} factors have shape {s_a.shape}, "
                    f"expected {(self.K, n, n)}"
                )
        # Per-direction stacked eigen-systems and their transposes.
        self.s = [np.ascontiguousarray(s_a) for s_a in s]
        self.st = [np.ascontiguousarray(s_a.transpose(0, 2, 1)) for s_a in s]
        self.inv_denom = np.ascontiguousarray(inv_denom)
        self._ws = Workspace()  # scratch for allocation-free solves

    def solve(self, r: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Apply ``A_tilde^{-1}`` to a batched local field ``(K, [n,] n, n)``.

        The per-element eigenvector matrices differ element to element, so
        the contractions here are batched (stacked) matmuls rather than the
        shared-operator kernels of :mod:`repro.backends`; intermediates
        ping-pong between one pooled (per-thread) buffer and the output, so
        repeated preconditioner applications allocate nothing.  ``out``
        (C-contiguous, not aliasing ``r``) receives the result when given.
        """
        if r.shape != (self.K,) + self.shape:
            raise ValueError(
                f"expected field of shape {(self.K,) + self.shape}, got {r.shape}"
            )
        if out is None:
            out = np.empty(r.shape)
        tmp = self._ws.get("fdm", r.shape)
        # S^T along each direction, diagonal scale, then S back.
        if self.ndim == 2:
            np.matmul(self.st[1], r, out=tmp)  # rows: s, cols: r
            np.matmul(tmp, self.s[0], out=out)
            out *= self.inv_denom
            np.matmul(self.s[1], out, out=tmp)
            np.matmul(tmp, self.st[0], out=out)
            add_flops(8.0 * r.size * self.shape[-1], "mxm")
            return out
        K, nt, ns, nr = r.shape
        # Directions t and r see one GEMM per element through a reshape;
        # only s (the middle axis) needs the (K, n_t) double batch.  The
        # t -> s -> r stage order is deliberate: the pinned pressure
        # iteration total of the 3-D flow workload (bench/reference.json)
        # was recorded with it and moves ~2 % under r -> s -> t round-off.
        rows_r = (K, nt * ns, nr)
        cols_t = (K, nt, ns * nr)
        np.matmul(self.st[2], r.reshape(cols_t), out=tmp.reshape(cols_t))
        np.matmul(self.st[1][:, None], tmp, out=out)
        np.matmul(out.reshape(rows_r), self.s[0], out=tmp.reshape(rows_r))
        tmp *= self.inv_denom
        np.matmul(self.s[2], tmp.reshape(cols_t), out=out.reshape(cols_t))
        np.matmul(self.s[1][:, None], out, out=tmp)
        np.matmul(tmp.reshape(rows_r), self.st[0], out=out.reshape(rows_r))
        add_flops(12.0 * r.size * self.shape[-1], "mxm")
        return out

    def dense_inverse(self, k: int) -> np.ndarray:
        """Explicit ``A_tilde^{-1}`` of element k (for tests/small problems)."""
        if self.ndim == 2:
            s = [self.s[a][k] for a in range(2)]
            big_s = np.kron(s[1], s[0])
            d = self.inv_denom[k].ravel()
            return big_s @ (d[:, None] * big_s.T)
        s = [self.s[a][k] for a in range(3)]
        big_s = np.kron(np.kron(s[2], s[1]), s[0])
        d = self.inv_denom[k].ravel()
        return big_s @ (d[:, None] * big_s.T)


def line_consistent_poisson(
    h_list: Sequence[float],
    order: int,
    dirichlet_lo: bool,
    dirichlet_hi: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """1-D consistent-Poisson building blocks for the tensor local solves.

    Results are cached on ``(h_list, order, bc)``: on (nearly) uniform
    meshes most elements share the same patch geometry, so the Schwarz
    setup pays for each distinct line operator once.  The returned arrays
    are read-only; copy before mutating.
    """
    return _line_consistent_poisson(
        tuple(float(h) for h in h_list), int(order),
        bool(dirichlet_lo), bool(dirichlet_hi),
    )


@lru_cache(maxsize=None)
def _line_consistent_poisson(
    h_list: Tuple[float, ...],
    order: int,
    dirichlet_lo: bool,
    dirichlet_hi: bool,
) -> Tuple[np.ndarray, np.ndarray]:
    """Cached implementation of :func:`line_consistent_poisson`.

    For a line of consecutive 1-D spectral elements with lengths ``h_list``
    and polynomial order ``order`` (velocity), returns the pair

        ``E_line = D B^{-1} D^T``   (1-D consistent Poisson on the GL dofs),
        ``X_line = Dm B^{-1} Dm^T`` (its mass-like separable companion),

    such that the 2-D pressure operator on a rectilinear tensor mesh is
    exactly ``X_y (x) E_x + E_y (x) X_x`` (and the obvious 3-term sum in
    3-D).  ``dirichlet_lo/hi`` state whether the velocity is constrained at
    the line's ends (domain boundary with Dirichlet velocity); interior
    patch cuts are left natural.

    These are the 1-D blocks the Schwarz ``"fdm"`` local solves diagonalize:
    the same fast-diagonalization algebra as Eq. (2)/Lynch-Rice-Thomas, but
    with 1-D operators matched to ``E`` instead of generic low-order
    Laplacians, so the local solves are *exact* for rectilinear subdomains.
    """
    from ..core.basis import gll_derivative_matrix, gll_to_gl_matrix
    from ..core.quadrature import gauss_legendre, gauss_lobatto_legendre

    n = order
    m = n - 1
    if m < 1:
        raise ValueError("need velocity order >= 2")
    if len(h_list) < 1 or any(h <= 0 for h in h_list):
        raise ValueError("element lengths must be positive")
    _, wg = gauss_lobatto_legendre(n)
    _, wl = gauss_legendre(m)
    dhat = gll_derivative_matrix(n)
    interp = np.asarray(gll_to_gl_matrix(n, m))
    ne = len(h_list)
    nv = ne * n + 1
    dl = np.zeros((ne * m, nv))
    dm = np.zeros((ne * m, nv))
    bv = np.zeros(nv)
    wd = wl[:, None] * (interp @ dhat)  # weak derivative block (J cancels)
    for e, h in enumerate(h_list):
        sl = slice(e * n, e * n + n + 1)
        dl[e * m:(e + 1) * m, sl] += wd
        dm[e * m:(e + 1) * m, sl] += wl[:, None] * (0.5 * h) * interp
        bv[sl] += wg * (0.5 * h)
    binv = 1.0 / bv
    if dirichlet_lo:
        binv[0] = 0.0
    if dirichlet_hi:
        binv[-1] = 0.0
    e_line = dl @ (binv[:, None] * dl.T)
    x_line = dm @ (binv[:, None] * dm.T)
    e_line = 0.5 * (e_line + e_line.T)
    x_line = 0.5 * (x_line + x_line.T)
    e_line.flags.writeable = False
    x_line.flags.writeable = False
    return e_line, x_line


def generalized_fdm_pair(
    e_mat: np.ndarray, x_mat: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Generalized eigendecomposition ``E z = lambda X z`` with ``S^T X S = I``.

    Returns ``(S, lam)``.  With per-direction pairs ``(S_a, lam_a)``, the
    separable operator ``X_y (x) E_x + E_y (x) X_x`` is inverted as in the
    classical FDM, the denominator being ``lam_x (+) lam_y``; zero sums
    (possible when the whole line is singular, e.g. a one-element enclosed
    direction) are treated by pseudo-inversion.
    """
    lam, s = scipy.linalg.eigh(e_mat, x_mat)
    return s, lam


def fdm_inverse_denominator(lam_dir: Sequence[np.ndarray]) -> np.ndarray:
    """Pseudo-inverse of the separable eigenvalue sum ``lam_x (+) lam_y [(+) lam_z]``.

    ``lam_dir[a]`` holds the direction-``a`` generalized eigenvalues
    (``a = 0`` is r); the result has array layout ``([n_t,] n_s, n_r)``.
    Exact zeros (a floating subdomain's constant mode) invert to zero.
    """
    if len(lam_dir) == 2:
        den = lam_dir[1][:, None] + lam_dir[0][None, :]
    else:
        den = (
            lam_dir[2][:, None, None]
            + lam_dir[1][None, :, None]
            + lam_dir[0][None, None, :]
        )
    tol = 1e-10 * max(float(den.max()), 1.0)
    return np.where(den > tol, 1.0 / np.where(den > tol, den, 1.0), 0.0)
