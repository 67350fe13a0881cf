"""Spectral element meshes.

The paper's mesh model (Section 2): globally, an unstructured array of K
deformed quadrilateral/hexahedral elements; locally, each element carries a
structured (N+1)^d GLL grid, and C0 continuity is enforced purely by
*identifying* coincident interface nodes through a global numbering.

This module builds logically-structured meshes (boxes with optional grading,
smooth deformations, and periodicity) which cover every experiment in the
paper — see DESIGN.md §5 for the deliberate restriction to conforming,
logically-rectangular topologies.  The essential outputs per mesh are

* ``coords``   — GLL node coordinates, batched layout ``(K, [n_t,] n_s, n_r)``
  per component (the layout consumed by :mod:`repro.core.tensor`),
* ``global_ids`` — int64 global node numbers implementing the C0 (and
  periodic) identification; input to the gather-scatter machinery,
* ``vertex_ids`` — global numbering of element corners, defining the coarse
  grid of the Schwarz preconditioner (Section 5),
* boundary masks per side for Dirichlet conditions.

Element ordering is lexicographic in the element lattice; node ordering
within an element follows the reference coordinates of Fig. 2 with r the
fastest-varying axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .quadrature import gll_points

__all__ = ["Mesh", "box_mesh_2d", "box_mesh_3d", "map_mesh"]


@dataclass
class Mesh:
    """A conforming spectral element mesh.

    Attributes
    ----------
    ndim:
        Spatial dimension (2 or 3).
    order:
        Polynomial order N (elements carry ``(N+1)**ndim`` GLL nodes).
    coords:
        List of ``ndim`` arrays, each of shape ``(K, [n,] n, n)`` with
        ``n = N + 1`` — physical coordinates of every GLL node, in the
        batched tensor layout (x-, y-[, z-]components).
    global_ids:
        Integer array, same shape as one coordinate component, giving the
        global (unique) number of each local node.  Shared interface nodes
        (and periodic images) carry the same number.
    vertex_ids:
        ``(K, 2**ndim)`` global numbers of the element corners, ordered
        lexicographically in (t, s, r) — the coarse-grid connectivity.
    boundary:
        Mapping from side name (``"xmin"``, ``"xmax"``, ``"ymin"``, ... ) to
        a boolean mask over local nodes lying on that physical boundary.
        Periodic directions contribute no sides.
    periodic:
        Per-direction periodicity flags, length ``ndim`` (x, y[, z]).
    element_lattice:
        Shape of the logical element lattice, e.g. ``(nex, ney)``; used by
        refinement and by the recursive-bisection partitioner's geometry
        heuristics.
    """

    ndim: int
    order: int
    coords: List[np.ndarray]
    global_ids: np.ndarray
    vertex_ids: np.ndarray
    boundary: Dict[str, np.ndarray]
    periodic: Tuple[bool, ...]
    element_lattice: Tuple[int, ...]
    _adjacency: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def K(self) -> int:
        """Number of elements."""
        return self.global_ids.shape[0]

    @property
    def n1(self) -> int:
        """Points per direction per element, N + 1."""
        return self.order + 1

    @property
    def n_nodes(self) -> int:
        """Number of *unique* global GLL nodes."""
        return int(self.global_ids.max()) + 1

    @property
    def n_vertices(self) -> int:
        """Number of unique element vertices (coarse-grid size)."""
        return int(self.vertex_ids.max()) + 1

    @property
    def local_shape(self) -> Tuple[int, ...]:
        """Shape of a batched scalar field on this mesh."""
        return self.global_ids.shape

    def field(self, fill: float = 0.0) -> np.ndarray:
        """Allocate a batched scalar field."""
        return np.full(self.local_shape, fill, dtype=float)

    def eval_function(self, f: Callable[..., np.ndarray]) -> np.ndarray:
        """Evaluate ``f(x, y[, z])`` at every GLL node (batched layout)."""
        return np.asarray(f(*self.coords), dtype=float)

    def boundary_mask(self, sides: Optional[Sequence[str]] = None) -> np.ndarray:
        """Union of the boolean masks of the named boundary sides.

        ``sides=None`` selects every (non-periodic) side — the usual
        all-Dirichlet velocity mask.
        """
        if sides is None:
            sides = list(self.boundary.keys())
        mask = np.zeros(self.local_shape, dtype=bool)
        for s in sides:
            if s not in self.boundary:
                raise KeyError(
                    f"unknown side {s!r}; available: {sorted(self.boundary)}"
                )
            mask |= self.boundary[s]
        return mask

    def element_adjacency(self) -> np.ndarray:
        """Symmetric boolean ``(K, K)`` matrix of face-or-vertex adjacency.

        Two elements are adjacent iff they share at least one global vertex;
        this is the graph fed to the recursive spectral bisection
        partitioner (Section 6, ref. [22]).
        """
        if self._adjacency is None:
            K = self.K
            nv = self.n_vertices
            # incidence: vertex -> elements
            cols = self.vertex_ids.reshape(K, -1)
            import scipy.sparse as sp

            rows = np.repeat(np.arange(K), cols.shape[1])
            inc = sp.csr_matrix(
                (np.ones(cols.size), (rows, cols.ravel())), shape=(K, nv)
            )
            adj = (inc @ inc.T).toarray() > 0
            np.fill_diagonal(adj, False)
            self._adjacency = adj
        return self._adjacency

    def element_centroids(self) -> np.ndarray:
        """``(K, ndim)`` centroids (mean of GLL nodes) of each element."""
        return np.stack(
            [c.reshape(self.K, -1).mean(axis=1) for c in self.coords], axis=1
        )


def _grid_1d(
    n_el: int, lo: float, hi: float, order: int, breakpoints: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-element GLL coordinates along one direction.

    Returns ``(xb, xe)`` where ``xb`` is the ``n_el + 1`` breakpoint array and
    ``xe[e, i]`` the physical coordinate of local GLL node i in element e.
    """
    if breakpoints is not None:
        xb = np.asarray(breakpoints, dtype=float)
        if xb.shape != (n_el + 1,):
            raise ValueError(
                f"breakpoints must have length n_el+1={n_el + 1}, got {xb.shape}"
            )
        if np.any(np.diff(xb) <= 0):
            raise ValueError("breakpoints must be strictly increasing")
    else:
        xb = np.linspace(lo, hi, n_el + 1)
    xi = gll_points(order)  # [-1, 1]
    mid = 0.5 * (xb[:-1] + xb[1:])
    half = 0.5 * np.diff(xb)
    return xb, mid[:, None] + half[:, None] * xi[None, :]


def _global_line_numbers(n_el: int, order: int, periodic: bool) -> np.ndarray:
    """Global node numbers along one direction: ``(n_el, order+1)`` ints.

    Adjacent elements share the interface number; a periodic direction wraps
    the last node of the last element onto node 0.
    """
    n = order
    ids = np.arange(n_el)[:, None] * n + np.arange(n + 1)[None, :]
    if periodic:
        ids = ids % (n_el * n)
    return ids


def box_mesh_2d(
    nex: int,
    ney: int,
    order: int,
    x0: float = 0.0,
    x1: float = 1.0,
    y0: float = 0.0,
    y1: float = 1.0,
    periodic: Tuple[bool, bool] = (False, False),
    x_breaks: Optional[np.ndarray] = None,
    y_breaks: Optional[np.ndarray] = None,
) -> Mesh:
    """Tensor-product quadrilateral mesh of ``nex x ney`` elements.

    ``x_breaks`` / ``y_breaks`` override the uniform element spacing (used to
    build graded, high-aspect-ratio meshes for the Table 2 study).  Periodic
    directions identify opposite boundary nodes in ``global_ids``.
    """
    if min(nex, ney) < 1 or order < 1:
        raise ValueError("need nex, ney >= 1 and order >= 1")
    for d, per, ne in (("x", periodic[0], nex), ("y", periodic[1], ney)):
        if per and ne < 2:
            raise ValueError(f"periodic {d}-direction needs >= 2 elements")
    n1 = order + 1
    K = nex * ney
    _, xe = _grid_1d(nex, x0, x1, order, x_breaks)
    _, ye = _grid_1d(ney, y0, y1, order, y_breaks)

    # Element e = ey * nex + ex ; local layout (s=j, r=i).
    ex = np.arange(nex)
    ey = np.arange(ney)
    X = np.empty((K, n1, n1))
    Y = np.empty((K, n1, n1))
    X[:] = np.tile(xe[ex][:, None, :], (ney, 1, 1)).reshape(K, 1, n1)
    Y[:] = np.repeat(ye[ey][:, :, None], nex, axis=0).reshape(K, n1, 1)

    gx = _global_line_numbers(nex, order, periodic[0])  # (nex, n1)
    gy = _global_line_numbers(ney, order, periodic[1])  # (ney, n1)
    npx = gx.max() + 1
    gids = (
        gy[np.repeat(ey, nex)][:, :, None] * npx + gx[np.tile(ex, ney)][:, None, :]
    ).astype(np.int64)
    gids = _compress_ids(gids)

    vx = _global_line_numbers(nex, 1, periodic[0])
    vy = _global_line_numbers(ney, 1, periodic[1])
    nvx = vx.max() + 1
    vids = (
        vy[np.repeat(ey, nex)][:, :, None] * nvx + vx[np.tile(ex, ney)][:, None, :]
    ).astype(np.int64)
    vids = _compress_ids(vids).reshape(K, 4)

    boundary: Dict[str, np.ndarray] = {}
    if not periodic[0]:
        m = np.zeros((K, n1, n1), dtype=bool)
        m[np.tile(ex, ney) == 0, :, 0] = True
        boundary["xmin"] = m
        m = np.zeros((K, n1, n1), dtype=bool)
        m[np.tile(ex, ney) == nex - 1, :, -1] = True
        boundary["xmax"] = m
    if not periodic[1]:
        m = np.zeros((K, n1, n1), dtype=bool)
        m[np.repeat(ey, nex) == 0, 0, :] = True
        boundary["ymin"] = m
        m = np.zeros((K, n1, n1), dtype=bool)
        m[np.repeat(ey, nex) == ney - 1, -1, :] = True
        boundary["ymax"] = m

    return Mesh(
        ndim=2,
        order=order,
        coords=[X, Y],
        global_ids=gids,
        vertex_ids=vids,
        boundary=boundary,
        periodic=tuple(periodic),
        element_lattice=(nex, ney),
    )


def box_mesh_3d(
    nex: int,
    ney: int,
    nez: int,
    order: int,
    x0: float = 0.0,
    x1: float = 1.0,
    y0: float = 0.0,
    y1: float = 1.0,
    z0: float = 0.0,
    z1: float = 1.0,
    periodic: Tuple[bool, bool, bool] = (False, False, False),
    x_breaks: Optional[np.ndarray] = None,
    y_breaks: Optional[np.ndarray] = None,
    z_breaks: Optional[np.ndarray] = None,
) -> Mesh:
    """Tensor-product hexahedral mesh of ``nex x ney x nez`` elements."""
    if min(nex, ney, nez) < 1 or order < 1:
        raise ValueError("need nex, ney, nez >= 1 and order >= 1")
    for d, per, ne in (
        ("x", periodic[0], nex),
        ("y", periodic[1], ney),
        ("z", periodic[2], nez),
    ):
        if per and ne < 2:
            raise ValueError(f"periodic {d}-direction needs >= 2 elements")
    n1 = order + 1
    K = nex * ney * nez
    _, xe = _grid_1d(nex, x0, x1, order, x_breaks)
    _, ye = _grid_1d(ney, y0, y1, order, y_breaks)
    _, ze = _grid_1d(nez, z0, z1, order, z_breaks)

    # Element e = (ez * ney + eyy) * nex + exx ; local layout (t=l, s=j, r=i).
    eidx = np.arange(K)
    exx = eidx % nex
    eyy = (eidx // nex) % ney
    ezz = eidx // (nex * ney)
    X = np.broadcast_to(xe[exx][:, None, None, :], (K, n1, n1, n1)).copy()
    Y = np.broadcast_to(ye[eyy][:, None, :, None], (K, n1, n1, n1)).copy()
    Z = np.broadcast_to(ze[ezz][:, :, None, None], (K, n1, n1, n1)).copy()

    gx = _global_line_numbers(nex, order, periodic[0])
    gy = _global_line_numbers(ney, order, periodic[1])
    gz = _global_line_numbers(nez, order, periodic[2])
    npx, npy = gx.max() + 1, gy.max() + 1
    gids = (
        gz[ezz][:, :, None, None] * (npx * npy)
        + gy[eyy][:, None, :, None] * npx
        + gx[exx][:, None, None, :]
    ).astype(np.int64)
    gids = _compress_ids(gids)

    vx = _global_line_numbers(nex, 1, periodic[0])
    vy = _global_line_numbers(ney, 1, periodic[1])
    vz = _global_line_numbers(nez, 1, periodic[2])
    nvx, nvy = vx.max() + 1, vy.max() + 1
    vids = (
        vz[ezz][:, :, None, None] * (nvx * nvy)
        + vy[eyy][:, None, :, None] * nvx
        + vx[exx][:, None, None, :]
    ).astype(np.int64)
    vids = _compress_ids(vids).reshape(K, 8)

    boundary: Dict[str, np.ndarray] = {}
    shape = (K, n1, n1, n1)

    def _side(cond: np.ndarray, sl) -> np.ndarray:
        m = np.zeros(shape, dtype=bool)
        m[(cond,) + sl] = True
        return m

    if not periodic[0]:
        boundary["xmin"] = _side(exx == 0, (slice(None), slice(None), 0))
        boundary["xmax"] = _side(exx == nex - 1, (slice(None), slice(None), -1))
    if not periodic[1]:
        boundary["ymin"] = _side(eyy == 0, (slice(None), 0, slice(None)))
        boundary["ymax"] = _side(eyy == ney - 1, (slice(None), -1, slice(None)))
    if not periodic[2]:
        boundary["zmin"] = _side(ezz == 0, (0, slice(None), slice(None)))
        boundary["zmax"] = _side(ezz == nez - 1, (-1, slice(None), slice(None)))

    return Mesh(
        ndim=3,
        order=order,
        coords=[X, Y, Z],
        global_ids=gids,
        vertex_ids=vids,
        boundary=boundary,
        periodic=tuple(periodic),
        element_lattice=(nex, ney, nez),
    )


def _compress_ids(ids: np.ndarray) -> np.ndarray:
    """Renumber arbitrary integer labels to contiguous 0..m-1 (order-preserving)."""
    uniq, inv = np.unique(ids, return_inverse=True)
    return inv.reshape(ids.shape).astype(np.int64)


def map_mesh(mesh: Mesh, f: Callable[..., Sequence[np.ndarray]]) -> Mesh:
    """Apply a smooth coordinate map ``(x, y[, z]) -> (x', y'[, z'])``.

    Deformations are applied pointwise to the GLL coordinates, so shared
    nodes stay shared and the mesh remains conforming — the mechanism by
    which the paper's "deformed quadrilateral or hexahedral elements" are
    produced from a logically-rectangular layout.
    """
    new_coords = f(*mesh.coords)
    if len(new_coords) != mesh.ndim:
        raise ValueError(f"map must return {mesh.ndim} coordinate arrays")
    return Mesh(
        ndim=mesh.ndim,
        order=mesh.order,
        coords=[np.ascontiguousarray(np.asarray(c, dtype=float)) for c in new_coords],
        global_ids=mesh.global_ids,
        vertex_ids=mesh.vertex_ids,
        boundary=mesh.boundary,
        periodic=mesh.periodic,
        element_lattice=mesh.element_lattice,
    )
