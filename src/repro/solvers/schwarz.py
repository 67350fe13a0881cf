"""Additive overlapping Schwarz preconditioner for the pressure system
(Section 5; Dryja & Widlund [5]; Fischer [9]; Fischer-Miller-Tufo [10]).

    M_o^{-1} = R_0^T A_0^{-1} R_0  +  sum_k R_k^T A~_k^{-1} R_k

Subdomains are the elements' pressure (Gauss) blocks extended into their
neighbors; ``R_k`` is Boolean restriction onto subdomain k.  Two local-solve
families are provided, mirroring Fig. 5 and Table 2:

* ``"fdm"``  — the tensor-product construction solved by the Fast
  Diagonalization Method.  Each element is extended by ``overlap`` (default
  one) gridpoints per direction; the local operator is the separable
  consistent-Poisson surrogate

      A~_k = X_y (x) E_x + E_y (x) X_x        (+ the 3-term form in 3-D)

  whose 1-D blocks ``(E_a, X_a)`` are principal submatrices of exact 1-D
  consistent-Poisson *patch* operators (element + neighbors) on a
  rectilinear surrogate of the subdomain — "a rectilinear domain of roughly
  the same dimensions as Omega^k".  Inversion is by generalized
  eigendecomposition per direction: O(K N^{d+1}) apply cost, identical
  algebra to Eq. (2)/Lynch-Rice-Thomas.  For rectilinear meshes the local
  solves are *exact* Dirichlet solves of E restricted to the subdomain.

* ``"fem"``  — the earlier unstructured-style construction: overlap of
  ``N_o`` gridpoint layers (0 = block Jacobi, 1 = minimal overlap, ... ),
  local operator = low-order FEM Laplacian on the *actual* local point
  coordinates, inverted explicitly.  2-D only (the paper notes the FEM
  approach is not competitive in 3-D).  Counting weights (the
  Lottes-Fischer weighting used by the production code's descendants) tame
  the overlap overcounting; see EXPERIMENTS.md for where this variant's
  behavior deviates from Table 2.

Because the pressure space is discontinuous and the meshes are logically
structured, all pressure dofs embed in a global lattice of Gauss points
(:class:`PressureLattice`), where subdomain overlap is index arithmetic.
The lattice is a *set-up* device only: subdomains are grouped by extended
shape (interior / face / edge / corner clipping — at most ``3^d`` classes,
typically one to three), and each class keeps its stacked local factors
plus a flat gather index into the element-ordered pressure vector.  One
apply is then one gather, one batched solve per class, and one weighted
``bincount`` for ``sum_k R_k^T`` — no per-subdomain interpreter work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.linalg

from ..backends.base import Workspace
from ..core.mesh import Mesh
from ..core.pressure import PressureOperator
from ..obs.trace import trace
from ..perf.flops import add_flops
from .coarse import CoarseOperator, element_corner_coords
from .fdm import (
    FDMSolver,
    fdm_inverse_denominator,
    generalized_fdm_pair,
    line_consistent_poisson,
)

__all__ = [
    "PressureLattice",
    "SchwarzPreconditioner",
    "SubdomainClass",
    "ElementLinePatches",
    "element_lengths",
]


def element_lengths(mesh: Mesh) -> np.ndarray:
    """Mean element extent per direction, shape (K, ndim) (r, s[, t]).

    Averages the Euclidean lengths of the element edges along each reference
    direction — the rectilinear surrogate dimensions used by the Schwarz
    local solves.
    """
    corners = element_corner_coords(mesh)  # (K, 2^nd, nd), r-bit fastest
    nd = mesh.ndim
    out = np.zeros((mesh.K, nd))
    nv = 2**nd
    for a in range(nd):
        pairs = [(v, v | (1 << a)) for v in range(nv) if not (v >> a) & 1]
        acc = np.zeros(mesh.K)
        for lo, hi in pairs:
            acc += np.linalg.norm(corners[:, hi] - corners[:, lo], axis=1)
        out[:, a] = acc / len(pairs)
    return out


class ElementLinePatches:
    """Rectilinear surrogate line patches of every element (set-up helper).

    Holds what all ``K x ndim`` patch constructions share — the mean element
    extents, the elements' lattice coordinates and, per direction, the mean
    extent of each slab of elements (the neighbor length used so deformed
    meshes get a sensible neighbor extent without per-neighbor lookups) —
    computed once, so building every element's line operators is O(K).
    """

    def __init__(self, mesh: Mesh, pop: PressureOperator):
        self.mesh = mesh
        self.pop = pop
        self.lengths = element_lengths(mesh)
        self.lattice_xyz = _element_lattice_xyz(mesh)
        self.slab_lengths = [
            np.array([
                self.lengths[self.lattice_xyz[:, a] == e, a].mean()
                for e in range(mesh.element_lattice[a])
            ])
            for a in range(mesh.ndim)
        ]

    def line_operators(self, k: int, a: int):
        """1-D consistent-Poisson patch blocks for element ``k``, direction ``a``.

        Builds the rectilinear surrogate patch (element plus available
        neighbors) along direction ``a``, detects Dirichlet line ends from
        the velocity mask, and returns ``(e_line, x_line, mid)`` where
        ``mid`` is the element's block position within the patch (0 when
        there is no low neighbor).
        """
        mesh = self.mesh
        e = int(self.lattice_xyz[k, a])
        ne = mesh.element_lattice[a]
        per = mesh.periodic[a]
        lo_nb = (e - 1) % ne if (per or e - 1 >= 0) else None
        hi_nb = (e + 1) % ne if (per or e + 1 <= ne - 1) else None
        if ne == 1:
            lo_nb = hi_nb = None
        patch = []
        if lo_nb is not None:
            patch.append(float(self.slab_lengths[a][lo_nb]))
        mid = len(patch)
        patch.append(self.lengths[k, a])
        if hi_nb is not None:
            patch.append(float(self.slab_lengths[a][hi_nb]))
        dir_lo = lo_nb is None and not per and self._face_constrained(k, a, 0)
        dir_hi = hi_nb is None and not per and self._face_constrained(k, a, 1)
        e_line, x_line = line_consistent_poisson(patch, mesh.order, dir_lo, dir_hi)
        return e_line, x_line, mid

    def _face_constrained(self, k: int, a: int, side: int) -> bool:
        """Is the velocity fully Dirichlet on face (direction a, side 0/1)?"""
        nd = self.mesh.ndim
        sl = [slice(None)] * nd
        sl[nd - 1 - a] = 0 if side == 0 else -1
        return bool(np.all(self.pop.vel_mask.constrained[(k,) + tuple(sl)]))


def _element_lattice_xyz(mesh: Mesh) -> np.ndarray:
    """Per-element lattice coordinates (x-, y-[, z-]index), shape (K, nd)."""
    lat = mesh.element_lattice
    eidx = np.arange(mesh.K)
    if mesh.ndim == 2:
        exyz = [eidx % lat[0], eidx // lat[0]]
    else:
        exyz = [
            eidx % lat[0],
            (eidx // lat[0]) % lat[1],
            eidx // (lat[0] * lat[1]),
        ]
    return np.stack(exyz, axis=1)


class PressureLattice:
    """Embedding of all element pressure blocks into one global lattice.

    For an element lattice of shape ``(ne_x, ne_y[, ne_z])`` and ``M`` Gauss
    points per direction, the lattice has ``ne_a * M`` points per direction;
    element ``(ex, ey[, ez])`` owns the block ``[e*M : (e+1)*M]`` in each
    direction.  Pressure dofs are unique lattice points (no sharing), so
    element <-> lattice transfer is a bijective index shuffle, and subdomain
    overlap is index arithmetic (wrapped when periodic, clipped at physical
    boundaries).
    """

    def __init__(self, mesh: Mesh, pop: PressureOperator):
        if pop.m < 2:
            raise ValueError("Schwarz lattice needs N >= 3 (m >= 2 Gauss points)")
        self.mesh = mesh
        self.pop = pop
        self.m = pop.m
        #: lattice shape in array order (t, s, r) = (z, y, x)
        self.shape = tuple(ne * self.m for ne in mesh.element_lattice[::-1])
        self.periodic_arr = mesh.periodic[::-1]  # array order
        nd = mesh.ndim
        K = mesh.K
        #: per-element lattice coordinates (x-, y-[, z-]index of the element)
        self.element_xyz = _element_lattice_xyz(mesh)
        #: per-element block start, array order (t, s, r); shape (K, ndim)
        self.block_start = self.element_xyz[:, ::-1] * self.m

        # Flat lattice index of every element pressure dof: (K, m, [m,] m).
        offs = np.indices((self.m,) * nd)
        strides = np.array([int(np.prod(self.shape[d + 1:])) for d in range(nd)])
        flat = np.zeros((K,) + (self.m,) * nd, dtype=np.int64)
        for d in range(nd):
            flat += (
                self.block_start[:, d].reshape((K,) + (1,) * nd) + offs[d]
            ) * strides[d]
        self._flat_index = flat
        self._strides = strides

        #: lattice coordinate arrays (x, y[, z]), each of lattice shape
        self.lattice_coords = [
            self.to_lattice(pop.interp_to_pressure(np.asarray(c)))
            for c in mesh.coords
        ]

    # -- element <-> lattice field transfer -----------------------------------
    def to_lattice(self, p: np.ndarray) -> np.ndarray:
        """Pressure field ``(K, m, ..)`` -> lattice array (bijective)."""
        out = np.empty(self.shape)
        out.ravel()[self._flat_index.ravel()] = p.ravel()
        return out

    def from_lattice(self, q: np.ndarray) -> np.ndarray:
        """Lattice array -> pressure field ``(K, m, ..)``."""
        return q.ravel()[self._flat_index].copy()

    # -- subdomain index sets ---------------------------------------------------
    def subdomain_indices(self, k: int, overlap: int) -> List[np.ndarray]:
        """Per-direction lattice indices of subdomain k (array order t,s,r).

        Periodic directions wrap; non-periodic directions clip at the
        lattice edge, so boundary subdomains may be smaller — the gridpoint
        extension simply stops at a physical boundary.
        """
        idx = []
        for d, s0 in enumerate(self.block_start[k]):
            lo, hi = int(s0) - overlap, int(s0) + self.m + overlap
            n = self.shape[d]
            if self.periodic_arr[d]:
                idx.append(np.arange(lo, hi) % n)
            else:
                idx.append(np.arange(max(lo, 0), min(hi, n)))
        return idx


@dataclass
class SubdomainClass:
    """All subdomains of one extended shape, stacked for one batched solve.

    ``solver`` is a :class:`repro.solvers.fdm.FDMSolver` over the class's
    stacked factors (``fdm``) or the stacked explicit local inverses
    ``(K_c, n, n)`` (``fem``).
    """

    elements: np.ndarray  # (K_c,) element ids, ascending
    shape: Tuple[int, ...]  # extended block shape, array order (t, s, r)
    gather: np.ndarray  # (K_c, n) indices into the element-ordered vector
    solver: Union[FDMSolver, np.ndarray]


class SchwarzPreconditioner:
    """Additive overlapping Schwarz ``M_o^{-1}`` for ``E`` systems.

    Parameters
    ----------
    mesh, pop:
        Velocity mesh and pressure operator defining the fine system.
    variant:
        ``"fdm"`` (tensor/FDM local solves) or ``"fem"`` (low-order FEM
        local solves; 2-D only).
    overlap:
        Gridpoint overlap ``N_o`` (paper: one-point extension for FDM;
        0, 1, 3 for the FEM study of Table 2).
    use_coarse:
        Include the ``R_0^T A_0^{-1} R_0`` term (``A_0 = 0`` in Table 2
        corresponds to ``use_coarse=False``).
    dirichlet_vertices:
        Passed to :class:`repro.solvers.coarse.CoarseOperator`.
    """

    def __init__(
        self,
        mesh: Mesh,
        pop: PressureOperator,
        variant: str = "fdm",
        overlap: int = 1,
        use_coarse: bool = True,
        dirichlet_vertices: Optional[np.ndarray] = None,
    ):
        if variant not in ("fdm", "fem"):
            raise ValueError(f"unknown variant {variant!r}; use 'fdm' or 'fem'")
        if variant == "fem" and mesh.ndim != 2:
            raise ValueError(
                "FEM local solves are 2-D only (the paper finds the "
                "unstructured FEM approach uncompetitive in 3-D); use 'fdm'"
            )
        if overlap < 0:
            raise ValueError(f"overlap must be >= 0, got {overlap}")
        self.mesh = mesh
        self.pop = pop
        self.variant = variant
        self.overlap = overlap
        #: counting weights ``C^{-1/2} (sum_k ...) C^{-1/2}`` (fem only)
        self.weighted = variant == "fem"
        self.coarse = (
            CoarseOperator(mesh, pop, dirichlet_vertices) if use_coarse else None
        )
        lattice = PressureLattice(mesh, pop)  # set-up only; not kept
        #: one entry per extended subdomain shape (at most ``3^d``)
        self.subdomain_classes: List[SubdomainClass] = (
            self._setup_fdm(lattice) if variant == "fdm" else self._setup_fem(lattice)
        )
        if self.weighted:
            self._weight = 1.0 / np.sqrt(np.bincount(self._gather))
        else:
            self._weight = None
        # The gathered blocks and the class-concatenated local solutions
        # live in per-thread Workspace storage, so a cache-shared
        # preconditioner stays scratch-safe under the service layer's
        # concurrent runs.
        self._ws = Workspace()

    # ------------------------------------------------------------------ setup
    def _shape_classes(
        self, lat: PressureLattice, index_sets: Sequence[Sequence[np.ndarray]]
    ) -> List[Tuple[np.ndarray, Tuple[int, ...], np.ndarray]]:
        """Group subdomains by extended shape.

        ``index_sets[k]`` holds subdomain k's per-direction lattice indices
        (array order t, s, r).  Returns ``(elements, shape, gather)`` per
        class, ``gather[j]`` indexing element ``elements[j]``'s subdomain in
        the element-ordered (raveled) pressure vector.  The gathers are
        views of the one class-concatenated index ``self._gather`` that the
        apply uses for both ``R_k`` (take) and ``R_k^T`` (bincount).
        """
        to_element = np.empty(lat._flat_index.size, dtype=np.intp)
        to_element[lat._flat_index.ravel()] = np.arange(to_element.size)
        by_shape = {}
        for k, ids in enumerate(index_sets):
            by_shape.setdefault(tuple(len(i) for i in ids), []).append(k)
        self._gather = np.concatenate([
            to_element[np.ravel_multi_index(np.ix_(*index_sets[k]), lat.shape).ravel()]
            for ks in by_shape.values()
            for k in ks
        ])
        classes, lo = [], 0
        for shape, ks in by_shape.items():
            hi = lo + len(ks) * int(np.prod(shape))
            classes.append(
                (np.array(ks), shape, self._gather[lo:hi].reshape(len(ks), -1))
            )
            lo = hi
        return classes

    def _setup_fdm(self, lat: PressureLattice) -> List[SubdomainClass]:
        """Tensor local solves: generalized FDM on 1-D consistent-Poisson
        patch blocks, one (small dense) eigendecomposition per element and
        direction, stacked per shape class."""
        mesh = self.mesh
        nd = mesh.ndim
        m = lat.m
        patches = ElementLinePatches(mesh, self.pop)
        factors = []  # per element: (s_factors, inv_denom)
        index_sets = []  # per element: lattice indices, array order
        for k in range(mesh.K):
            s_dir, lam_dir, ids_dir = [], [], []
            for a in range(nd):
                e_line, x_line, mid = patches.line_operators(k, a)
                # Dofs: middle block +- overlap, clipped to the patch.
                ids = np.arange(mid * m - self.overlap, (mid + 1) * m + self.overlap)
                ids = ids[(ids >= 0) & (ids < e_line.shape[0])]
                sub_e = e_line[np.ix_(ids, ids)]
                sub_x = x_line[np.ix_(ids, ids)]
                s, lam = generalized_fdm_pair(sub_e, sub_x)
                s_dir.append(s)
                lam_dir.append(np.maximum(lam, 0.0))
                # Lattice indices of these dofs along direction a.
                gidx = lat.block_start[k][nd - 1 - a] + (ids - mid * m)
                if mesh.periodic[a]:
                    gidx = gidx % lat.shape[nd - 1 - a]
                ids_dir.append(gidx)
            # Separable denominator with pseudo-inverse of exact zeros.
            factors.append((s_dir, fdm_inverse_denominator(lam_dir)))
            index_sets.append(ids_dir[::-1])  # array order
        return [
            SubdomainClass(
                ks, shape, gather,
                FDMSolver.from_factors(
                    [np.stack([factors[k][0][a] for k in ks]) for a in range(nd)],
                    np.stack([factors[k][1] for k in ks]),
                ),
            )
            for ks, shape, gather in self._shape_classes(lat, index_sets)
        ]

    def _setup_fem(self, lat: PressureLattice) -> List[SubdomainClass]:
        """Overlap-N_o low-order FEM local inverses on true coordinates.

        Curved (deformed) local grids are used as-is when every cell is
        positively oriented; periodic wraps, which break orientation in
        physical coordinates, fall back to a rectilinear arc-length
        surrogate (only local spacings matter for the preconditioner).
        Each shape class is assembled as one stack: the class's coordinate
        grids are stacked, and every triangle position adds its stiffness
        for all subdomains at once into the interior rows of the
        ``(K_c, n, n)`` stack, which the explicit (symmetrized) inverses
        then overwrite in place — peak memory is the stack itself.
        """
        xc, yc = lat.lattice_coords[0], lat.lattice_coords[1]
        index_sets = [
            lat.subdomain_indices(k, self.overlap) for k in range(self.mesh.K)
        ]
        classes = []
        for ks, shape, gather in self._shape_classes(lat, index_sets):
            n = gather.shape[1]
            ixs = [np.ix_(*index_sets[k]) for k in ks]
            xs = np.stack([xc[ix] for ix in ixs])
            ys = np.stack([yc[ix] for ix in ixs])
            # Orientation of every cell, all subdomains at once.
            ax, ay = np.diff(xs, axis=2)[:, :-1], np.diff(ys, axis=2)[:, :-1]
            bx, by = np.diff(xs, axis=1)[:, :, :-1], np.diff(ys, axis=1)[:, :, :-1]
            for j in np.flatnonzero(~np.all(ax * by - ay * bx > 0, axis=(1, 2))):
                iy, ix = index_sets[ks[j]]
                xs[j], ys[j] = np.meshgrid(
                    _arclength_line(xs[j], ys[j], 1, ix),
                    _arclength_line(xs[j], ys[j], 0, iy),
                )
            inverses = np.zeros((ks.size, n, n))
            _add_fem_laplacian(_pad_mirror(xs), _pad_mirror(ys), inverses)
            eye = np.eye(n)
            for a in inverses:
                inv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), eye)
                np.add(inv, inv.T, out=a)
                a *= 0.5
            classes.append(SubdomainClass(ks, shape, gather, inverses))
        return classes

    # ------------------------------------------------------------------ apply
    def local_solves(self, r: np.ndarray) -> np.ndarray:
        """``sum_k R_k^T A~_k^{-1} R_k r`` on the pressure grid.

        One gather of every subdomain's dofs; per shape class the
        stacked-matmul FDM sequence (``fdm``) or one stacked matvec with
        the explicit inverses (``fem``); one weighted ``bincount`` summing
        the local solutions back.  Counting weights, when on, scale the
        vector before the gather and after the scatter.
        """
        ws = self._ws
        flat = r.reshape(-1)
        if self._weight is not None:
            flat = np.multiply(flat, self._weight, out=ws.get("weighted", flat.shape))
        # mode="clip": the default "raise" buffers ``out``; the indices are
        # in range by construction.
        gathered = np.take(
            flat, self._gather, out=ws.get("gathered", self._gather.shape), mode="clip"
        )
        solved = ws.get("solved", self._gather.shape)
        lo = 0
        for c in self.subdomain_classes:
            hi = lo + c.gather.size
            if self.variant == "fdm":
                block = (-1,) + c.shape
                c.solver.solve(
                    gathered[lo:hi].reshape(block), out=solved[lo:hi].reshape(block)
                )
            else:
                cols = c.gather.shape + (1,)
                np.matmul(
                    c.solver, gathered[lo:hi].reshape(cols),
                    out=solved[lo:hi].reshape(cols),
                )
                add_flops(2.0 * c.solver.size, "mxm")
            lo = hi
        out = np.bincount(self._gather, weights=solved, minlength=flat.size)
        if self._weight is not None:
            out *= self._weight
        return out.reshape(r.shape)

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Apply ``M_o^{-1} r``.

        Traced as ``schwarz`` with children ``fdm``/``fem`` (local solves)
        and ``coarse`` — the Table 2 cost split.
        """
        with trace("schwarz"):
            with trace(self.variant):
                out = self.local_solves(r)
            if self.coarse is not None:
                with trace("coarse"):
                    out += self.coarse.apply(r)
            if self.pop.has_nullspace:
                out -= float(np.sum(out) / out.size)
            return out


def _arclength_line(
    xs: np.ndarray, ys: np.ndarray, axis: int, idx: np.ndarray
) -> np.ndarray:
    """Rectilinear surrogate coordinates from mean arc-length spacings.

    ``idx`` holds the subdomain's lattice indices along ``axis``.  Where
    they wrap (a periodic seam, anywhere in the subdomain once the overlap
    exceeds one point) the physical interval spans the domain; it is
    clamped to the nearest unwrapped spacing (only local spacing matters
    for the surrogate local operator).
    """
    ds = np.sqrt(np.diff(xs, axis=axis) ** 2 + np.diff(ys, axis=axis) ** 2)
    mean_ds = ds.mean(axis=1 - axis)
    step = np.diff(idx)
    wrap, good = np.flatnonzero(step != 1), np.flatnonzero(step == 1)
    if wrap.size and good.size:
        nearest = np.abs(good[None, :] - wrap[:, None]).argmin(axis=1)
        mean_ds[wrap] = mean_ds[good[nearest]]
    return np.concatenate(([0.0], np.cumsum(mean_ds)))


def _pad_mirror(c: np.ndarray) -> np.ndarray:
    """Pad stacked 2-D coordinate grids ``(K_c, gy, gx)`` by one mirrored ring."""
    out = np.empty((c.shape[0], c.shape[1] + 2, c.shape[2] + 2))
    out[:, 1:-1, 1:-1] = c
    out[:, 0, 1:-1] = 2 * c[:, 0] - c[:, 1]
    out[:, -1, 1:-1] = 2 * c[:, -1] - c[:, -2]
    out[:, :, 0] = 2 * out[:, :, 1] - out[:, :, 2]
    out[:, :, -1] = 2 * out[:, :, -2] - out[:, :, -3]
    return out


def _add_fem_laplacian(xg: np.ndarray, yg: np.ndarray, out: np.ndarray) -> None:
    """Add low-order FEM Laplacians on stacked logically-rect grids to ``out``.

    ``xg, yg``: ``(K_c, my+2, mx+2)`` node coordinates including the
    Dirichlet ghost ring; ``out``: ``(K_c, my*mx, my*mx)`` interior
    operators (SPD).  Each quad cell is split into two linear triangles
    (the unstructured construction sketched in Fig. 5 left), which matches
    the high-frequency stiffness of ``E`` noticeably better than bilinear
    quads.  Triangles are visited in (row, column, triangle) order for all
    subdomains at once, so every interior entry receives its additions in
    the same order as a one-subdomain assembly; ghost-ring rows and
    columns are never stored, but every triangle is checked.
    """
    gy, gx = xg.shape[1:]
    for j in range(gy - 1):
        for i in range(gx - 1):
            quad = ((j, i), (j, i + 1), (j + 1, i + 1), (j + 1, i))
            for tri in ((0, 1, 2), (0, 2, 3)):
                vj = [quad[t][0] for t in tri]
                vi = [quad[t][1] for t in tri]
                px, py = xg[:, vj, vi], yg[:, vj, vi]  # (K_c, 3)
                b = np.stack([py[:, 1] - py[:, 2], py[:, 2] - py[:, 0],
                              py[:, 0] - py[:, 1]], axis=1)
                c = np.stack([px[:, 2] - px[:, 1], px[:, 0] - px[:, 2],
                              px[:, 1] - px[:, 0]], axis=1)
                area2 = (px[:, 1] - px[:, 0]) * (py[:, 2] - py[:, 0]) - (
                    px[:, 2] - px[:, 0]
                ) * (py[:, 1] - py[:, 0])
                if np.any(area2 <= 0):
                    raise ValueError("degenerate or inverted triangle in local FEM grid")
                keep = [t for t in range(3) if 0 < vj[t] < gy - 1 and 0 < vi[t] < gx - 1]
                if not keep:
                    continue
                b, c = b[:, keep], c[:, keep]
                ids = np.array([(vj[t] - 1) * (gx - 2) + vi[t] - 1 for t in keep])
                out[:, ids[:, None], ids] += (
                    b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]
                ) / (2.0 * area2)[:, None, None]
