"""Coarse-grid component of the additive Schwarz preconditioner (Section 5).

The coarse space is spanned by the bilinear (trilinear in 3-D) hat
functions of the *spectral element vertex mesh*: one dof per unique element
corner.  Its two ingredients:

* ``A_0`` — the low-order FEM Laplacian on the vertex mesh, assembled
  isoparametrically from the actual (possibly deformed) corner coordinates;
* ``R_0`` / ``R_0^T`` — restriction/prolongation between the fine
  (pressure-grid) dofs and the vertex dofs, realized per element by
  evaluating the corner hat functions at the reference Gauss points — a
  pair of small tensor-product interpolations (the ``(2 x N2) x (N2 x 2)``
  products called out in Section 6).

The serial solve here is a sparse factorization; the *parallel* treatments
(XXT, redundant LU, distributed inverse) that Fig. 6 compares live in
:mod:`repro.solvers.xxt` and :mod:`repro.parallel.coarse_parallel`.

Pure-Neumann pressure problems make ``A_0`` singular (constant nullspace);
this is handled by pinning one vertex, the standard deflation-equivalent
fix for a preconditioner component.
"""

from __future__ import annotations

import threading
from typing import Optional

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from ..core.mesh import Mesh
from ..core.pressure import PressureOperator
from ..core.quadrature import gauss_legendre
from ..perf.flops import add_flops

__all__ = [
    "element_corner_coords",
    "bilinear_element_stiffness",
    "assemble_vertex_laplacian",
    "CoarseOperator",
]


def element_corner_coords(mesh: Mesh) -> np.ndarray:
    """Corner coordinates, shape ``(K, 2**ndim, ndim)``.

    Corner ordering is lexicographic in (t, s, r), matching
    ``mesh.vertex_ids``.
    """
    picks_2d = [(0, 0), (0, -1), (-1, 0), (-1, -1)]  # (s, r)
    picks_3d = [
        (0, 0, 0), (0, 0, -1), (0, -1, 0), (0, -1, -1),
        (-1, 0, 0), (-1, 0, -1), (-1, -1, 0), (-1, -1, -1),
    ]  # (t, s, r)
    picks = picks_2d if mesh.ndim == 2 else picks_3d
    out = np.empty((mesh.K, len(picks), mesh.ndim))
    for ci, idx in enumerate(picks):
        for d in range(mesh.ndim):
            out[:, ci, d] = mesh.coords[d][(slice(None),) + idx]
    return out


def _shape_functions(ndim: int, pts: np.ndarray):
    """Multilinear shape functions and gradients at reference points.

    ``pts``: (q, ndim) points in [-1, 1]^ndim.  Returns ``(phi, dphi)`` with
    ``phi`` of shape (q, 2**ndim) and ``dphi`` of shape (q, 2**ndim, ndim).
    Node ordering lexicographic in (t, s, r) — i.e. the r-bit varies fastest.
    """
    q = pts.shape[0]
    nv = 2**ndim
    phi = np.ones((q, nv))
    dphi = np.ones((q, nv, ndim))
    for v in range(nv):
        for d in range(ndim):
            bit = (v >> d) & 1  # d=0 -> r (fastest), matching vertex_ids order
            s = 1.0 if bit else -1.0
            lin = 0.5 * (1.0 + s * pts[:, d])
            phi[:, v] *= lin
            for dd in range(ndim):
                dphi[:, v, dd] *= (0.5 * s) if dd == d else lin
    return phi, dphi


def bilinear_element_stiffness(corners: np.ndarray) -> np.ndarray:
    """Isoparametric multilinear stiffness matrices, batched.

    ``corners``: (K, 2**ndim, ndim) physical corner coordinates (lexicographic
    (t,s,r) ordering).  Returns (K, 2**ndim, 2**ndim) element Laplacians,
    integrated with the 2-point Gauss rule per direction (exact for affine,
    standard for multilinear geometry).
    """
    K, nv, ndim = corners.shape
    g, w = gauss_legendre(2)
    if ndim == 2:
        pts = np.array([(a, b) for b in g for a in g])
        wts = np.array([wa * wb for wb in w for wa in w])
    else:
        pts = np.array([(a, b, c) for c in g for b in g for a in g])
        wts = np.array([wa * wb * wc for wc in w for wb in w for wa in w])
    _, dphi = _shape_functions(ndim, pts)  # (q, nv, ndim)
    # Jacobian at each quadrature point: J[q, a, c] = d x_c / d xi_a.
    # x(xi) = sum_v corners[v] phi_v(xi)  ->  dx_c/dxi_a = sum_v dphi[q,v,a] X[v,c]
    jac = np.einsum("qva,kvc->kqac", dphi, corners)
    det = np.linalg.det(jac)
    if np.any(det <= 0):
        raise ValueError("inverted multilinear element in coarse assembly")
    inv = np.linalg.inv(jac)  # (k, q, a->?, ...): inv[k,q] = (dx/dxi)^-1
    # grad_x phi_v = sum_a dphi_a * dxi_a/dx_c ; dxi/dx = inv(dx/dxi) transposed:
    # (dx/dxi)[a,c] -> (dxi/dx)[a,c] = inv[c,a]
    gradx = np.einsum("qva,kqca->kqvc", dphi, inv)
    a_el = np.einsum("kqvc,kqwc,kq,q->kvw", gradx, gradx, det, wts)
    return a_el


def assemble_vertex_laplacian(mesh: Mesh) -> sp.csr_matrix:
    """Assemble the vertex-mesh FEM Laplacian ``A_0`` (sparse, n_vertices^2)."""
    corners = element_corner_coords(mesh)
    a_el = bilinear_element_stiffness(corners)
    nv = corners.shape[1]
    vid = mesh.vertex_ids
    rows = np.repeat(vid, nv, axis=1).ravel()
    cols = np.tile(vid, (1, nv)).ravel()
    a0 = sp.csr_matrix(
        (a_el.ravel(), (rows, cols)), shape=(mesh.n_vertices, mesh.n_vertices)
    )
    a0.sum_duplicates()
    return a0


class CoarseOperator:
    """``R_0^T A_0^{-1} R_0`` between the pressure grid and the vertex mesh.

    Parameters
    ----------
    mesh, pop:
        The velocity mesh and its pressure operator (defines the fine grid).
    dirichlet_vertices:
        Optional boolean array over global vertices to constrain (e.g. the
        open-boundary side when the pressure system is nonsingular).  If the
        resulting ``A_0`` would still be singular (pure Neumann), vertex 0
        is pinned automatically.
    """

    def __init__(
        self,
        mesh: Mesh,
        pop: PressureOperator,
        dirichlet_vertices: Optional[np.ndarray] = None,
    ):
        self.mesh = mesh
        self.pop = pop
        self.nv = mesh.n_vertices
        a0 = assemble_vertex_laplacian(mesh).tolil()

        constrained = np.zeros(self.nv, dtype=bool)
        if dirichlet_vertices is not None:
            constrained |= np.asarray(dirichlet_vertices, dtype=bool)
        if not constrained.any():
            constrained[0] = True  # pin the Neumann nullspace
        self.constrained = constrained
        for i in np.nonzero(constrained)[0]:
            a0.rows[i] = [i]
            a0.data[i] = [1.0]
        a0 = a0.tocsc()
        # Symmetrize the pinning (zero the columns too).
        free = ~constrained
        z = sp.diags(free.astype(float))
        a0 = z @ a0 @ z + sp.diags(constrained.astype(float))
        self.a0 = a0.tocsc()
        self._solve = spla.factorized(self.a0)
        #: 1.0 on free vertices, 0.0 on constrained ones (masks the solve).
        self._free = free.astype(float)
        # SuperLU's triangular solve is not documented re-entrant; the
        # service layer shares one CoarseOperator across worker threads,
        # so serialize the (tiny) vertex solve.  Measured, the solve is
        # 13-31 us of an apply on the two flow workloads (n = 71 / 428
        # vertices) and SuperLU beats a dense inverse or XXT from a few
        # hundred vertices up, so the factorization stays and the lock is
        # synchronisation, not overhead worth designing away.
        self._solve_lock = threading.Lock()

        # Per-element transfer: the corner hats evaluated at the reference
        # GL points, as one (m^d, 2^d) matrix — the Kronecker product of the
        # 1-D hat matrix, rows in (t, s, r) point order, columns in
        # ``mesh.vertex_ids`` corner order (r-bit fastest).
        gl, _ = gauss_legendre(pop.m)
        hat_1d = np.column_stack([0.5 * (1.0 - gl), 0.5 * (1.0 + gl)])  # (m, 2)
        hat = hat_1d
        for _ in range(mesh.ndim - 1):
            hat = np.kron(hat_1d, hat)
        self._hat = hat
        self._hat_t = np.ascontiguousarray(hat.T)
        self._vertex_flat = np.ascontiguousarray(mesh.vertex_ids.ravel())

    # -- transfer ------------------------------------------------------------
    def restrict(self, r: np.ndarray) -> np.ndarray:
        """``R_0 r``: pressure-grid residual -> vertex vector.

        One ``(K, m^d) @ (m^d, 2^d)`` GEMM onto the element corners, then a
        weighted ``bincount`` summing the corners shared between elements.
        """
        loc = r.reshape(self.mesh.K, -1) @ self._hat
        add_flops(4.0 * r.size, "coarse")
        return np.bincount(self._vertex_flat, weights=loc.ravel(), minlength=self.nv)

    def prolong(self, x0: np.ndarray) -> np.ndarray:
        """``R_0^T x0``: vertex vector -> pressure-grid field (one GEMM)."""
        out = (x0[self.mesh.vertex_ids] @ self._hat_t).reshape(self.pop.p_shape)
        add_flops(4.0 * out.size, "coarse")
        return out

    def solve_vertex(self, b0: np.ndarray) -> np.ndarray:
        """``A_0^{-1} b0`` with constrained entries zeroed."""
        b = b0 * self._free
        with self._solve_lock:
            x = self._solve(b)
        add_flops(2.0 * self.a0.nnz, "coarse")
        x *= self._free
        return x

    def apply(self, r: np.ndarray) -> np.ndarray:
        """Full coarse correction ``R_0^T A_0^{-1} R_0 r`` on the pressure grid."""
        return self.prolong(self.solve_vertex(self.restrict(r)))
