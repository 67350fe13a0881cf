"""Boundary/interior DOF splitting and Schur-complement condensation.

The linear-operation-count elliptic tier (Huismann, Stiller & Froehlich,
"Factorizing the factorization", PAPERS.md) rests on one structural fact:
the interior of a tensor-product element is itself a tensor product.
Splitting each element's dofs into the boundary *shell* ``B`` and the
*interior* ``I``,

    [ A_BB  A_BI ] [u_B]   [f_B]
    [ A_IB  A_II ] [u_I] = [f_I],

the interior unknowns are never shared between elements, so they can be
eliminated element-by-element:

    S  = A_BB - A_BI A_II^{-1} A_IB          (condensed / Schur operator)
    g  = f_B  - A_BI A_II^{-1} f_I           (condensed right-hand side)
    u_I = A_II^{-1} (f_I - A_IB u_B)         (back-substitution)

Only ``S`` enters the iteration.  In 2-D the shell has ``4N`` dofs, so a
dense per-element Schur apply costs ``2 (4N)^2 = O(N^2) = O(N^d)``
operations — *linear* in the ``N^d`` dofs per element — versus the
``O(N^{d+1})`` of the standard tensor-product operator apply (Eq. 4).
The interior solves appear only twice per solve (condense + back-sub),
not per iteration, and keep the separable form

    A_II = c_1 B_ii (x) A_ii + c_2 A_ii (x) B_ii  (+ mass term)

on rectilinear elements, so they run as fast-diagonalization tensor
transforms with a *shared* eigenbasis (:class:`TensorInteriorSolver`);
deformed elements fall back to batched dense Cholesky
(:class:`DenseInteriorSolver`).

This module holds the reusable pieces; :mod:`repro.solvers.condensed`
assembles them into the standalone solver and the pressure tier.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Optional, Tuple

import numpy as np
import scipy.linalg

from ..backends import dispatch as _dispatch
from ..backends.base import Workspace
from ..core.basis import mass_matrix_1d, stiffness_matrix_1d
from ..core.mesh import Mesh
from ..core.quadrature import gauss_lobatto_legendre
from ..perf.flops import add_flops

__all__ = [
    "shell_split",
    "dense_element_matrices",
    "rectilinear_extents",
    "DenseInteriorSolver",
    "TensorInteriorSolver",
    "ElementCondensation",
    "TensorElementCondensation",
]


@lru_cache(maxsize=None)
def shell_split(shape: Tuple[int, ...]) -> Tuple[np.ndarray, np.ndarray]:
    """Flat C-order indices of the boundary shell and interior of a block.

    For a tensor block of ``shape`` (array order, e.g. ``(n_s, n_r)``),
    returns read-only int arrays ``(boundary, interior)``: a dof is on the
    boundary iff any of its coordinates sits at 0 or the end of its
    direction.  Interior indices enumerate exactly the ``[1:-1, ...]``
    subblock in C order, so interior data reshapes directly to the
    ``(n-2, ...)`` tensor layout the tensor solver expects.
    """
    shape = tuple(int(n) for n in shape)
    if any(n < 3 for n in shape):
        raise ValueError(f"every direction needs >= 3 points, got {shape}")
    grids = np.meshgrid(*[np.arange(n) for n in shape], indexing="ij")
    on_shell = np.zeros(shape, dtype=bool)
    for g, n in zip(grids, shape):
        on_shell |= (g == 0) | (g == n - 1)
    flat = on_shell.ravel()
    boundary = np.nonzero(flat)[0]
    interior = np.nonzero(~flat)[0]
    boundary.flags.writeable = False
    interior.flags.writeable = False
    return boundary, interior


def dense_element_matrices(
    op_local: Callable[[np.ndarray], np.ndarray],
    K: int,
    shape: Tuple[int, ...],
) -> np.ndarray:
    """Dense per-element matrices ``(K, n_loc, n_loc)`` of a local operator.

    Probes the batched local operator with shared reference basis vectors:
    a local SEM operator is block-diagonal over elements, so one batched
    apply of basis vector ``j`` yields column ``j`` of *every* element
    matrix simultaneously — ``n_loc`` applies total, assembled matrix-free
    from the operator's tensor-product factors (the operator itself never
    forms a matrix).
    """
    shape = tuple(shape)
    n_loc = int(np.prod(shape))
    mats = np.empty((K, n_loc, n_loc))
    e = np.zeros((K,) + shape)
    flat = e.reshape(K, n_loc)
    for j in range(n_loc):
        flat[:, j] = 1.0
        mats[:, :, j] = np.asarray(op_local(e)).reshape(K, n_loc)
        flat[:, j] = 0.0
    return mats


def rectilinear_extents(mesh: Mesh, rel_tol: float = 1e-10) -> Optional[np.ndarray]:
    """Axis-aligned element extents ``(K, ndim)`` (r, s[, t]), or ``None``.

    Returns the per-element box sizes when every element is an affinely
    mapped axis-aligned box — each physical coordinate varies only along
    its own reference direction, and does so as the affine image of the
    GLL points.  Deformed meshes (where the separable interior
    factorization does not hold) return ``None``.
    """
    nd = mesh.ndim
    gll = gauss_lobatto_legendre(mesh.order)[0]
    hs = np.empty((mesh.K, nd))
    scale = max(float(np.max(np.abs(np.asarray(c)))) for c in mesh.coords)
    tol = rel_tol * max(scale, 1.0)
    for comp in range(nd):
        arr = np.asarray(mesh.coords[comp])
        own_axis = arr.ndim - 1 - comp
        # Constant along every direction except its own.
        for b in range(nd):
            if b == comp:
                continue
            ax = arr.ndim - 1 - b
            if float(np.max(arr.max(axis=ax) - arr.min(axis=ax))) > tol:
                return None
        # Collapse the other spatial axes and compare with the affine map.
        line = arr
        for ax in range(arr.ndim - 1, 0, -1):
            if ax != own_axis:
                line = np.take(line, 0, axis=ax)
        # line: (K, n) coordinates along the element's own direction.
        h = line[:, -1] - line[:, 0]
        if np.any(h <= 0):
            return None
        expected = line[:, :1] + (gll[None, :] + 1.0) * 0.5 * h[:, None]
        if float(np.max(np.abs(line - expected))) > tol:
            return None
        hs[:, comp] = h
    return hs


class DenseInteriorSolver:
    """Batched dense Cholesky solves with the interior blocks ``A_II^k``.

    The general-geometry fallback: exact for deformed elements and
    variable coefficients, at ``O(n_i^2)`` per apply after an ``O(n_i^3)``
    factorization per element.
    """

    def __init__(self, a_ii: np.ndarray):
        a_ii = np.asarray(a_ii)
        if a_ii.ndim != 3 or a_ii.shape[1] != a_ii.shape[2]:
            raise ValueError(f"expected (K, n_i, n_i) interior blocks, got {a_ii.shape}")
        self.K = a_ii.shape[0]
        self.n_i = a_ii.shape[1]
        self._cho = [
            scipy.linalg.cho_factor(0.5 * (a_ii[k] + a_ii[k].T)) for k in range(self.K)
        ]

    def solve_flat(self, f: np.ndarray) -> np.ndarray:
        """Apply ``A_II^{-1}`` to flat interior data ``(K, n_i[, nrhs])``."""
        out = np.empty_like(f)
        for k in range(self.K):
            out[k] = scipy.linalg.cho_solve(self._cho[k], f[k])
        nrhs = 1 if f.ndim == 2 else f.shape[2]
        add_flops(2.0 * self.K * self.n_i * self.n_i * nrhs, "mxm")
        return out


class TensorInteriorSolver:
    """Interior solves by shared-basis fast diagonalization (rectilinear).

    The Huismann et al. observation that makes the condensed tier cheap to
    set up: the interior restriction of the separable element operator

        A_II^k = h1 [ c_1^k B_ii (x) A_ii + c_2^k A_ii (x) B_ii ] + h0 j^k B_ii (x) B_ii

    uses the *same* reference interior blocks ``A_ii = A_hat[1:-1, 1:-1]``,
    ``B_ii = B_hat[1:-1, 1:-1]`` for every element — only the scalar
    coefficients (element extents) differ.  One shared generalized
    eigenpair ``A_ii z = lambda B_ii z`` (``S^T B_ii S = I``) therefore
    factorizes *all* K interiors at once ("factorizing the factorization"),
    and every inverse apply is two tensor transforms with the shared ``S``
    — routed through the kernel-backend dispatch boundary like any other
    shared-operator contraction — plus a per-element diagonal scale.
    """

    def __init__(
        self,
        hs: np.ndarray,
        order: int,
        h1: float = 1.0,
        h0: float = 0.0,
    ):
        hs = np.asarray(hs, dtype=float)
        if hs.ndim != 2:
            raise ValueError(f"expected (K, ndim) element extents, got {hs.shape}")
        K, nd = hs.shape
        self.K, self.ndim = K, nd
        mi = order - 1  # interior points per direction of the (order+1) block
        if mi < 1:
            raise ValueError("tensor interior solve needs order >= 2")
        self.shape = (mi,) * nd
        self.n_i = mi**nd
        a_ii = np.ascontiguousarray(stiffness_matrix_1d(order)[1:-1, 1:-1])
        b_ii = np.ascontiguousarray(mass_matrix_1d(order)[1:-1, 1:-1])
        lam, s = scipy.linalg.eigh(a_ii, b_ii)
        self.s = np.ascontiguousarray(s)
        self.st = np.ascontiguousarray(s.T)
        # Separable denominator: per element, per interior gridpoint.
        half = 0.5 * hs  # (K, nd)
        jac = np.prod(half, axis=1)  # element Jacobian factor prod h_a / 2
        den = np.zeros((K,) + self.shape)
        if h0:
            den += h0 * jac.reshape((K,) + (1,) * nd)
        for a in range(nd):
            coef = h1 * jac * (2.0 / hs[:, a]) ** 2  # (prod h_b/2) * (2/h_a)
            lam_shape = [1] * (nd + 1)
            lam_shape[nd - a] = mi  # direction a lives on array axis nd - a
            den = den + coef.reshape((K,) + (1,) * nd) * lam.reshape(lam_shape)
        if np.any(den <= 0):
            raise ValueError("interior eigenvalue sum not positive; check extents")
        self.inv_den = 1.0 / den
        self._ws = Workspace()

    def solve(self, f: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Apply ``A_II^{-1}`` to a batched interior field ``(K,) + shape``."""
        if f.shape != (self.K,) + self.shape:
            raise ValueError(
                f"expected field of shape {(self.K,) + self.shape}, got {f.shape}"
            )
        ws = self._ws
        # Forward transform S^T along every direction (one tensor apply),
        # scale, transform back.
        hat = _dispatch.apply_tensor((self.st,) * self.ndim, f, workspace=ws)
        scaled = ws.get("tint_scaled", f.shape)
        np.multiply(hat, self.inv_den, out=scaled)
        add_flops(float(scaled.size), "pointwise")
        return _dispatch.apply_tensor(
            (self.s,) * self.ndim, scaled, workspace=ws, out=out
        )

    def solve_flat(self, f: np.ndarray) -> np.ndarray:
        """Apply ``A_II^{-1}`` to flat interior data ``(K, n_i[, nrhs])``.

        The interior indices of :func:`shell_split` enumerate the C-order
        ``[1:-1, ...]`` subblock, so flat data reshapes straight into the
        tensor layout.
        """
        if f.ndim == 2:
            return self.solve(f.reshape((self.K,) + self.shape)).reshape(f.shape)
        # Multi-RHS: treat each column as an independent batched field.
        out = np.empty_like(f)
        for j in range(f.shape[2]):
            col = np.ascontiguousarray(f[:, :, j])
            out[:, :, j] = self.solve(
                col.reshape((self.K,) + self.shape)
            ).reshape(self.K, self.n_i)
        return out


class _SplitMaps:
    """Shared boundary/interior gather-scatter maps of a condensation.

    Subclasses define ``K``, ``shape``, ``b_idx``, ``i_idx`` (the
    :func:`shell_split` of their block) and get the three index maps every
    consumer uses.
    """

    def boundary_of(self, field: np.ndarray) -> np.ndarray:
        """Gather the shell values of a local block field -> ``(K, n_b)``."""
        return field.reshape(self.K, -1)[:, self.b_idx]

    def interior_of(self, field: np.ndarray) -> np.ndarray:
        """Gather the interior values of a local block field -> ``(K, n_i)``."""
        return field.reshape(self.K, -1)[:, self.i_idx]

    def merge(self, u_b: np.ndarray, u_i: np.ndarray) -> np.ndarray:
        """Scatter shell + interior data back into a full local block field."""
        full = np.empty((self.K,) + self.shape)
        flat = full.reshape(self.K, -1)
        flat[:, self.b_idx] = u_b
        flat[:, self.i_idx] = u_i
        return full


class ElementCondensation(_SplitMaps):
    """Schur condensation of dense per-element matrices.

    Splits ``(K, n_loc, n_loc)`` element matrices by :func:`shell_split`,
    forms the dense per-element Schur complements (symmetrized), and keeps
    the coupling blocks plus an interior solver for the right-hand-side
    condensation and back-substitution maps.  All per-iteration work —
    ``apply_schur`` — is a single batched small-DGEMV through the kernel
    dispatch boundary: ``2 K n_b^2`` flops, ``O(N^{d})`` per element in 2-D.
    """

    def __init__(
        self,
        mats: np.ndarray,
        shape: Tuple[int, ...],
        interior_solver=None,
    ):
        mats = np.asarray(mats)
        shape = tuple(shape)
        n_loc = int(np.prod(shape))
        if mats.shape[1:] != (n_loc, n_loc):
            raise ValueError(
                f"element matrices {mats.shape} do not match block shape {shape}"
            )
        self.K = mats.shape[0]
        self.shape = shape
        b_idx, i_idx = shell_split(shape)
        self.b_idx, self.i_idx = b_idx, i_idx
        self.n_b, self.n_i = b_idx.size, i_idx.size
        a_bb = mats[:, b_idx[:, None], b_idx[None, :]]
        a_bi = np.ascontiguousarray(mats[:, b_idx[:, None], i_idx[None, :]])
        a_ib = np.ascontiguousarray(mats[:, i_idx[:, None], b_idx[None, :]])
        a_ii = mats[:, i_idx[:, None], i_idx[None, :]]
        self.a_bi, self.a_ib = a_bi, a_ib
        self.interior = (
            interior_solver if interior_solver is not None else DenseInteriorSolver(a_ii)
        )
        # Dense Schur complements: the interior solver itself eliminates the
        # couplings (n_b right-hand sides per element, paid once at setup).
        y = self.interior.solve_flat(a_ib)  # (K, n_i, n_b)
        s = a_bb - a_bi @ y
        self.schur = np.ascontiguousarray(0.5 * (s + s.transpose(0, 2, 1)))

    # ------------------------------------------------------------ condensation
    def apply_schur(self, v_b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-element condensed apply ``S^k v_b^k`` (batched, dispatched)."""
        return _dispatch.batched_matvec(self.schur, v_b, out=out)

    def schur_diagonal(self) -> np.ndarray:
        """``diag(S^k)`` as ``(K, n_b)`` — the interface Jacobi seed."""
        return np.ascontiguousarray(np.einsum("kii->ki", self.schur))

    def condense_rhs(self, f_b: np.ndarray, f_i: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Condensed RHS ``g = f_B - A_BI A_II^{-1} f_I`` (local, unassembled).

        Returns ``(g_b, u_i_part)`` where ``u_i_part = A_II^{-1} f_I`` is the
        particular interior solution (reused by callers that back-substitute
        from it).
        """
        u_ip = self.interior.solve_flat(f_i)
        g_b = f_b - _dispatch.batched_matvec(self.a_bi, u_ip)
        add_flops(float(g_b.size), "pointwise")
        return g_b, u_ip

    def back_substitute(self, u_b: np.ndarray, f_i: np.ndarray) -> np.ndarray:
        """Interior recovery ``u_I = A_II^{-1} (f_I - A_IB u_B)``."""
        t = f_i - _dispatch.batched_matvec(self.a_ib, u_b)
        add_flops(float(t.size), "pointwise")
        return self.interior.solve_flat(t)


class TensorElementCondensation(_SplitMaps):
    """Tensor-factorized 3-D Schur applies on rectilinear elements.

    The dense 3-D Schur complement lives on the ``O(N^2)`` boundary shell,
    so its per-element apply costs ``O(N^4) = O(N^{2d-2})`` — *worse* than
    the ``O(N^{d+1})`` standard apply it is meant to replace.  Huismann,
    Stiller & Froehlich's factorization restores linear cost by never
    forming ``S``: with diagonal 1-D mass matrices (GLL collocation), the
    separable element operator

        A = sum_a coef_a (rho (x) rho) (x)_a A_hat  +  c0 rho (x) rho (x) rho

    couples the shell to the interior only along axis lines, through the
    *endpoint columns* ``A_hat[1:-1, [0, -1]]``.  The three pieces of
    ``S v_B = A_BB v_B - A_BI A_II^{-1} A_IB v_B`` then factorize:

    * ``A_BB``: per direction, full 1-D stiffness lines where the line lies
      entirely in the shell (tangential-boundary lines), a rank-2 endpoint
      block on face-interior lines, and the diagonal mass term.
    * ``A_IB``: scaled endpoint columns lifted into the shared interior
      eigenbasis (``jhat = S^T A_hat[1:-1, [0,-1]]``), summed over the
      three directions.
    * ``A_II^{-1}``: the fast-diagonalization scale of
      :class:`TensorInteriorSolver`, already in that eigenbasis — the
      forward/backward tangential transforms fuse with the lift.

    Every contraction routes through the sanitized dispatch boundary
    (:func:`~repro.backends.dispatch.apply_1d` /
    :func:`~repro.backends.dispatch.apply_tensor`), so exact flop tallies
    come for free: the apply totals ``O(N^3) = O(N^d)`` per element, and
    the counters pin it (see ``tests/test_tensor_schur.py``).

    Matches :class:`ElementCondensation` built from the dense probe of the
    same rectilinear Helmholtz operator to roundoff; deformed elements keep
    the dense fallback.
    """

    def __init__(
        self,
        hs: np.ndarray,
        order: int,
        h1: float = 1.0,
        h0: float = 0.0,
    ):
        hs = np.asarray(hs, dtype=float)
        if hs.ndim != 2 or hs.shape[1] != 3:
            raise ValueError(f"expected (K, 3) element extents, got {hs.shape}")
        if order < 2:
            raise ValueError("tensor-factorized condensation needs order >= 2")
        K = hs.shape[0]
        M = order + 1  # points per direction of the full block
        m = order - 1  # interior points per direction
        self.K, self.M, self.m = K, M, m
        self.shape = (M, M, M)
        b_idx, i_idx = shell_split(self.shape)
        self.b_idx, self.i_idx = b_idx, i_idx
        self.n_b, self.n_i = b_idx.size, i_idx.size
        self.interior = TensorInteriorSolver(hs, order, h1=h1, h0=h0)

        # Reference 1-D pieces.  mass_matrix_1d is diagonal (GLL collocation)
        # — the structural fact the whole factorization rests on.
        ahat = np.ascontiguousarray(stiffness_matrix_1d(order))
        rho = np.ascontiguousarray(np.diag(mass_matrix_1d(order)))
        self.ahat, self.rho = ahat, rho
        self.jcols = np.ascontiguousarray(ahat[1:-1, [0, M - 1]])  # (m, 2)
        self.jcols_t = np.ascontiguousarray(self.jcols.T)  # (2, m)
        self.jhat = np.ascontiguousarray(self.interior.st @ self.jcols)  # (m, 2)
        self.jhat_t = np.ascontiguousarray(self.jhat.T)  # (2, m)
        self.end_op = np.ascontiguousarray(ahat[[0, M - 1]][:, [0, M - 1]])  # (2, 2)

        # Per-element separable coefficients (same convention as the
        # interior denominator): coef_a = h1 jac (2/h_a)^2, c0 = h0 jac.
        half = 0.5 * hs
        jac = np.prod(half, axis=1)  # (K,)
        self.coef = np.ascontiguousarray(
            h1 * jac[None, :] * (2.0 / hs.T) ** 2
        )  # (3, K)
        self.c0 = h0 * jac  # (K,)

        # Tangential (M, M) split of a direction's cross-section: lines whose
        # tangential index is on the 2-D shell lie entirely in the boundary
        # shell; interior tangential indices are face-interior lines with
        # exactly two shell endpoints.
        tb_idx, ti_idx = shell_split((M, M))
        tb0, tb1 = np.unravel_index(tb_idx, (M, M))
        ti0, ti1 = np.unravel_index(ti_idx, (M, M))
        self.tb0, self.tb1 = tb0, tb1
        self.ti0c = ti0[:, None]  # (m^2, 1) — broadcast against the face axis
        self.ti1c = ti1[:, None]
        self.endc = np.array([0, M - 1])
        wt = np.outer(rho, rho).ravel()
        self.wt_tb = np.ascontiguousarray(wt[tb_idx])  # (4M-4,)
        self.wt_ti = np.ascontiguousarray(wt[ti_idx])  # (m^2,)
        # Per-direction pointwise scales, hoisted out of the apply.
        self._sc_tb = np.ascontiguousarray(
            self.coef[:, :, None] * self.wt_tb[None, None, :]
        )  # (3, K, 4M-4)
        self._sc_ti = np.ascontiguousarray(
            self.coef[:, :, None] * self.wt_ti[None, None, :]
        )  # (3, K, m^2)
        rho3 = np.einsum("i,j,k->ijk", rho, rho, rho).ravel()
        self._mass_b = np.ascontiguousarray(self.c0[:, None] * rho3[b_idx][None, :])

        # Face-interior shell positions: face_b_pos[a][f] maps the C-ordered
        # m^2 face-interior points of face (a, f) to positions in the shell
        # vector, in the same tangential order as ``ti_idx`` seen through the
        # direction-a moveaxis layout used by the apply.
        pos_in_b = np.full(M**3, -1)
        pos_in_b[b_idx] = np.arange(self.n_b)
        idx3 = np.arange(M**3).reshape(M, M, M)
        self.face_b_pos = []
        for a in range(3):
            idxp = np.moveaxis(idx3, 2 - a, 2)  # direction a's spatial axis last
            faces = []
            for pos in (0, M - 1):
                flat = np.ascontiguousarray(idxp[1:-1, 1:-1, pos]).ravel()
                faces.append(np.ascontiguousarray(pos_in_b[flat]))
            self.face_b_pos.append(faces)
        self._ws = Workspace()

    # -------------------------------------------------------------- the apply
    def apply_schur(self, v_b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Factorized per-element ``S^k v_b^k`` in ``O(N^3)`` per element."""
        K, M, m = self.K, self.M, self.m
        ws = self._ws
        st, s = self.interior.st, self.interior.s
        V = ws.get("tsc_v", (K, M, M, M))
        O = ws.get("tsc_o", (K, M, M, M))
        Vf = V.reshape(K, -1)
        Of = O.reshape(K, -1)
        # Only shell entries of V are ever read and only shell entries of O
        # are ever written, so neither buffer needs zeroing.
        Vf[:, self.b_idx] = v_b
        Of[:, self.b_idx] = self._mass_b * v_b  # mass term initializes the shell
        add_flops(float(v_b.size), "pointwise")
        ghat = ws.zeros("tsc_ghat", (K, m, m, m))
        for a in range(3):
            ax = 3 - a  # direction a's axis of a (K, ...) field
            Vp = np.moveaxis(V, ax, 3)
            Op = np.moveaxis(O, ax, 3)
            # (i) A_BB, tangential-boundary lines: full 1-D stiffness.
            slab = np.ascontiguousarray(Vp[:, self.tb0, self.tb1, :])  # (K, L, M)
            line = _dispatch.apply_1d(self.ahat, slab, 0)
            Op[:, self.tb0, self.tb1, :] += self._sc_tb[a][:, :, None] * line
            add_flops(2.0 * line.size, "pointwise")
            # (ii) A_BB, face-interior lines: rank-2 endpoint block.
            E = Vp[:, self.ti0c, self.ti1c, self.endc]  # (K, m^2, 2)
            endt = _dispatch.apply_1d(self.end_op, E, 0)
            sc = self._sc_ti[a]  # (K, m^2)
            Op[:, self.ti0c, self.ti1c, self.endc] += sc[:, :, None] * endt
            add_flops(2.0 * endt.size, "pointwise")
            # (iii) A_IB into the shared interior eigenbasis (reuses E):
            # scaled endpoint data, tangential S^T transforms, then the
            # endpoint columns jhat along direction a.
            w = (sc[:, :, None] * E).reshape(K, m, m, 2)
            add_flops(float(w.size), "pointwise")
            what = _dispatch.apply_tensor((None, st, st), w)
            ga = _dispatch.apply_1d(self.jhat, what, 0)  # (K, m, m, m)
            ghat += np.moveaxis(ga, 3, ax)
            add_flops(float(ga.size), "pointwise")
        # (iv) Interior inverse: pointwise fast-diagonalization scale.
        zhat = ghat * self.interior.inv_den
        add_flops(float(zhat.size), "pointwise")
        # (v) A_BI fused with the backward transforms, subtracted per face.
        for a in range(3):
            ax = 3 - a
            Op = np.moveaxis(O, ax, 3)
            zp = np.ascontiguousarray(np.moveaxis(zhat, ax, 3))
            c = _dispatch.apply_1d(self.jhat_t, zp, 0)  # (K, m, m, 2)
            cb = _dispatch.apply_tensor((None, s, s), c)
            sc = self._sc_ti[a]
            Op[:, self.ti0c, self.ti1c, self.endc] -= sc[:, :, None] * cb.reshape(
                K, m * m, 2
            )
            add_flops(2.0 * cb.size, "pointwise")
        res = Of[:, self.b_idx]
        if out is not None:
            out[...] = res
            return out
        return res

    def schur_diagonal(self) -> np.ndarray:
        """``diag(S^k)`` as ``(K, n_b)`` without ever forming ``S`` (setup-only)."""
        K, M, m = self.K, self.M, self.m
        rho = self.rho
        # A_BB diagonal: separable stiffness diagonals plus the mass term.
        d1 = np.diag(self.ahat) / rho  # (M,)
        full = np.empty((K, M, M, M))
        full[...] = self.c0[:, None, None, None]
        for a in range(3):
            shp = [1, 1, 1, 1]
            shp[3 - a] = M
            full += self.coef[a][:, None, None, None] * d1.reshape(shp)
        full *= np.einsum("i,j,k->ijk", rho, rho, rho)[None]
        diag = np.ascontiguousarray(full.reshape(K, -1)[:, self.b_idx])
        # Schur correction — nonzero only at face-interior points:
        # (A_BI A_II^{-1} A_IB)_{pp} = (coef_a rho_j rho_k)^2
        #     sum_{abg} jhat[a,f]^2 s[j,b]^2 s[k,g]^2 / den_{abg}.
        zsq = self.interior.s**2  # (m, m): [nodal, mode]
        for a in range(3):
            invp = np.moveaxis(self.interior.inv_den, 3 - a, 3)  # a-modes last
            for fi in range(2):
                wf = np.einsum("ebga,a->ebg", invp, self.jhat[:, fi] ** 2)
                corr = np.einsum("jb,kg,ebg->ejk", zsq, zsq, wf)
                diag[:, self.face_b_pos[a][fi]] -= self._sc_ti[a] ** 2 * corr.reshape(
                    K, m * m
                )
        return diag

    # ------------------------------------------- thin A_IB / A_BI (setup paths)
    def _lift_boundary(self, v_b: np.ndarray) -> np.ndarray:
        """``A_IB v_B`` as flat interior data ``(K, n_i)`` (back-substitution)."""
        K, m = self.K, self.m
        acc = np.zeros((K, m, m, m))
        for a in range(3):
            E = np.stack(
                [v_b[:, self.face_b_pos[a][0]], v_b[:, self.face_b_pos[a][1]]],
                axis=2,
            )  # (K, m^2, 2)
            w = self._sc_ti[a][:, :, None] * E
            add_flops(float(w.size), "pointwise")
            g = _dispatch.apply_1d(self.jcols, w, 0)  # (K, m^2, m)
            acc += np.moveaxis(g.reshape(K, m, m, m), 3, 3 - a)
            add_flops(float(g.size), "pointwise")
        return acc.reshape(K, self.n_i)

    def _project_interior(self, u_i: np.ndarray) -> np.ndarray:
        """``A_BI u_I`` as shell data ``(K, n_b)`` (RHS condensation)."""
        K, m = self.K, self.m
        out = np.zeros((K, self.n_b))
        u = u_i.reshape(K, m, m, m)
        for a in range(3):
            up = np.ascontiguousarray(np.moveaxis(u, 3 - a, 3))
            cf = _dispatch.apply_1d(self.jcols_t, up, 0).reshape(K, m * m, 2)
            sc = self._sc_ti[a]
            for fi in range(2):
                out[:, self.face_b_pos[a][fi]] += sc * cf[:, :, fi]
            add_flops(2.0 * cf.size, "pointwise")
        return out

    # ------------------------------------------------------------ condensation
    def condense_rhs(self, f_b: np.ndarray, f_i: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Condensed RHS ``g = f_B - A_BI A_II^{-1} f_I`` (local, unassembled)."""
        u_ip = self.interior.solve_flat(f_i)
        g_b = f_b - self._project_interior(u_ip)
        add_flops(float(g_b.size), "pointwise")
        return g_b, u_ip

    def back_substitute(self, u_b: np.ndarray, f_i: np.ndarray) -> np.ndarray:
        """Interior recovery ``u_I = A_II^{-1} (f_I - A_IB u_B)``."""
        t = f_i - self._lift_boundary(u_b)
        add_flops(float(t.size), "pointwise")
        return self.interior.solve_flat(t)
