"""Polynomial (p-type) multilevel preconditioning.

The paper's solver stack references Fischer's "Parallel multi-level
solvers for spectral element methods" (ref. [8]) — the idea, matured in
the later Nek5000 hybrid Schwarz/multigrid, of preconditioning a
high-order operator with the same operator at *lower polynomial order*,
transferring through the nested polynomial spaces:

    M^{-1} = S + P A_c^{-1} R        (two-level additive form)
    or a multiplicative V-cycle with Jacobi smoothing.

Levels share the *same element mesh*; only N changes, so the transfer
operators are the 1-D interpolation matrices applied tensorially — the
cheapest possible grid hierarchy, and one where every level keeps the
matrix-free O(K N^{d+1}) kernels.

Implemented here for the (SPD, assembled) Helmholtz/Poisson systems:

* :class:`PMultigrid` — V-cycle preconditioner with damped-Jacobi
  smoothing and a direct (or recursive) coarsest solve,
* :func:`build_p_hierarchy` — order schedule (N, N/2, ..., >= 1) of
  SEMSystem levels on one mesh.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from ..backends.dispatch import apply_tensor
from ..core.assembly import Assembler, DirichletMask
from ..core.basis import interpolation_matrix
from ..core.element import geometric_factors
from ..core.mesh import Mesh, box_mesh_2d, box_mesh_3d
from ..core.operators import HelmholtzOperator, SEMSystem
from ..core.quadrature import gll_points
from ..obs.trace import trace
from ..perf.flops import add_flops
from .chebyshev import ChebyshevSmoother, estimate_extreme_eigenvalues

__all__ = ["PLevel", "build_p_hierarchy", "PMultigrid"]


@dataclass
class PLevel:
    """One polynomial level of the hierarchy."""

    order: int
    system: SEMSystem
    inv_diagonal: np.ndarray  # for the Jacobi smoother
    #: interpolation from this (coarser) level up to the next finer one;
    #: None on the finest level.
    prolong_1d: Optional[np.ndarray] = None
    #: the problem data the level was built from — what the condensed
    #: coarse solve needs to rebuild a condensed solver at this order.
    h1: float = 1.0
    h0: float = 0.0
    dirichlet_sides: Optional[list] = None


def _rebuild_mesh(mesh: Mesh, order: int) -> Mesh:
    """Same element lattice and deformation class at a different order.

    Works by rebuilding the box lattice and transplanting the coordinate
    field by interpolation from the original mesh (exact for isoparametric
    geometry of degree <= order).
    """
    lattice = mesh.element_lattice
    if mesh.ndim == 2:
        new = box_mesh_2d(lattice[0], lattice[1], order, periodic=mesh.periodic)
    else:
        new = box_mesh_3d(
            lattice[0], lattice[1], lattice[2], order, periodic=mesh.periodic
        )
    j = interpolation_matrix(gll_points(mesh.order), gll_points(order))
    ops = [j] * mesh.ndim
    new_coords = [apply_tensor(ops, np.asarray(c)) for c in mesh.coords]
    new.coords[:] = new_coords
    return new


def build_p_hierarchy(
    mesh: Mesh,
    h1: float = 1.0,
    h0: float = 0.0,
    dirichlet_sides: Optional[list] = None,
    orders: Optional[Sequence[int]] = None,
    min_order: int = 1,
) -> List[PLevel]:
    """SEMSystem levels at orders ``N, N/2, ..., min_order`` (finest first).

    Geometry is re-interpolated per level (isoparametric consistency); the
    masks follow the same Dirichlet sides on every level.  ``min_order``
    floors the default order schedule — the condensed coarse solve needs
    interior dofs, i.e. a coarsest order >= 2.
    """
    if min_order < 1:
        raise ValueError("min_order must be >= 1")
    if orders is None:
        orders = []
        n = mesh.order
        while n >= min_order:
            orders.append(n)
            if n == min_order:
                break
            n = max(min_order, n // 2)
    orders = list(orders)
    if orders[0] != mesh.order:
        raise ValueError("hierarchy must start at the mesh's own order")
    if any(a <= b for a, b in zip(orders, orders[1:])):
        raise ValueError("orders must be strictly decreasing")

    levels: List[PLevel] = []
    for i, n in enumerate(orders):
        lvl_mesh = mesh if n == mesh.order else _rebuild_mesh(mesh, n)
        geom = geometric_factors(lvl_mesh)
        op = HelmholtzOperator(lvl_mesh, h1=h1, h0=h0, geom=geom)
        use_mask = (dirichlet_sides is None and lvl_mesh.boundary) or dirichlet_sides
        mask = (
            DirichletMask(lvl_mesh.boundary_mask(dirichlet_sides))
            if use_mask
            else DirichletMask.none(lvl_mesh.local_shape)
        )
        system = SEMSystem(
            lvl_mesh, Assembler.for_mesh(lvl_mesh), mask, op.apply, op.diagonal
        )
        dia = system.diagonal()
        levels.append(
            PLevel(
                order=n,
                system=system,
                inv_diagonal=1.0 / dia,
                h1=h1,
                h0=h0,
                dirichlet_sides=dirichlet_sides,
            )
        )
    # 1-D prolongation matrices between consecutive levels.
    for i in range(1, len(levels)):
        coarse, fine = levels[i], levels[i - 1]
        levels[i].prolong_1d = interpolation_matrix(
            gll_points(coarse.order), gll_points(fine.order)
        )
    return levels


class PMultigrid:
    """V-cycle p-multigrid preconditioner over a :func:`build_p_hierarchy`.

    Parameters
    ----------
    levels:
        Finest-first level list.
    n_smooth:
        Pre- and post-smoothing sweeps.
    omega:
        Jacobi smoother damping (2/3 is the classical high-frequency
        choice; unused by the chebyshev smoother, which sizes its own
        interval from a Lanczos estimate).
    coarse_iters:
        Iteration cap for the coarsest-level solve (small systems converge
        in a handful; exactness is not required of a preconditioner).
    smoother:
        ``"jacobi"`` (damped point Jacobi) or ``"chebyshev"`` (k-step
        Chebyshev on the Jacobi-preconditioned operator).
    coarse:
        ``"cg"`` (Jacobi-PCG on the assembled coarsest system) or
        ``"condensed"`` (interface-only PCG of
        :class:`~repro.solvers.condensed.CondensedPoissonSolver`; needs
        the coarsest order >= 2 and a non-singular level problem).
    cheb_degree:
        Matvecs per Chebyshev application (``smoother="chebyshev"``).
    """

    def __init__(
        self,
        levels: List[PLevel],
        n_smooth: int = 2,
        omega: float = 2.0 / 3.0,
        coarse_iters: int = 50,
        smoother: str = "jacobi",
        coarse: str = "cg",
        cheb_degree: int = 3,
    ):
        if not levels:
            raise ValueError("empty hierarchy")
        if smoother not in ("jacobi", "chebyshev"):
            raise ValueError(f"unknown smoother {smoother!r}")
        if coarse not in ("cg", "condensed"):
            raise ValueError(f"unknown coarse solve {coarse!r}")
        if coarse == "condensed" and levels[-1].order < 2:
            raise ValueError(
                "condensed coarse solve needs the coarsest order >= 2; build "
                "the hierarchy with min_order=2"
            )
        self.levels = levels
        self.n_smooth = int(n_smooth)
        self.omega = float(omega)
        self.coarse_iters = int(coarse_iters)
        self.smoother = smoother
        self.coarse = coarse
        self.cheb_degree = int(cheb_degree)
        self._cheb: dict = {}
        self._coarse_solver = None

    # ----------------------------------------------------------- transfers
    def _prolong(self, i_coarse: int, u_c: np.ndarray) -> np.ndarray:
        """Coarse level i -> fine level i-1 (tensor interpolation + mask)."""
        lvl_c = self.levels[i_coarse]
        lvl_f = self.levels[i_coarse - 1]
        j = lvl_c.prolong_1d
        out = apply_tensor([j] * lvl_f.system.mesh.ndim, u_c)
        out = lvl_f.system.assembler.dsavg(out)
        return lvl_f.system.mask.apply(out)

    def _restrict(self, i_coarse: int, r_f: np.ndarray) -> np.ndarray:
        """Fine residual -> coarse level i (transpose transfer + assembly)."""
        lvl_c = self.levels[i_coarse]
        lvl_f = self.levels[i_coarse - 1]
        j = lvl_c.prolong_1d
        # Adjoint w.r.t. the unique-dof inner products: de-weight fine
        # multiplicities, apply J^T locally, re-assemble on the coarse level.
        w = r_f * lvl_f.system.assembler._inv_mult
        out = apply_tensor([j.T] * lvl_f.system.mesh.ndim, w)
        out = lvl_c.system.assembler.dssum(out)
        return lvl_c.system.mask.apply(out)

    # ------------------------------------------------------------- smoother
    def _chebyshev_for(self, i: int, example: np.ndarray) -> ChebyshevSmoother:
        sm = self._cheb.get(i)
        if sm is None:
            lvl = self.levels[i]

            def matvec_p(v: np.ndarray, lvl=lvl) -> np.ndarray:
                add_flops(float(v.size), "pointwise")
                return lvl.inv_diagonal * lvl.system.matvec(v)

            _, lam_hi = estimate_extreme_eigenvalues(
                matvec_p, example, dot=lvl.system.dot, n_iter=15
            )
            sm = ChebyshevSmoother(
                matvec_p, lam_hi / 30.0, 1.1 * lam_hi, degree=self.cheb_degree
            )
            self._cheb[i] = sm
        return sm

    def _smooth(self, i: int, x: np.ndarray, b: np.ndarray, sweeps: int) -> np.ndarray:
        lvl = self.levels[i]
        if self.smoother == "chebyshev":
            sm = self._chebyshev_for(i, b)
            for _ in range(sweeps):
                x = sm.apply(lvl.inv_diagonal * b, x0=x)
                add_flops(float(b.size), "pointwise")
            return x
        for _ in range(sweeps):
            r = b - lvl.system.matvec(x)
            x = x + self.omega * lvl.inv_diagonal * r
            add_flops(4.0 * x.size, "pointwise")
        return x

    # --------------------------------------------------------- coarse solve
    def _coarse_solve(self, b: np.ndarray) -> np.ndarray:
        lvl = self.levels[-1]
        if self.coarse == "condensed":
            if self._coarse_solver is None:
                from .condensed import CondensedPoissonSolver

                self._coarse_solver = CondensedPoissonSolver(
                    lvl.system.mesh,
                    h1=lvl.h1,
                    h0=lvl.h0,
                    dirichlet_sides=lvl.dirichlet_sides,
                )
            # The restricted residual is assembled (dssum-consistent), the
            # condensed solver consumes a local load with dssum(f) = b.
            f_local = b * lvl.system.assembler._inv_mult
            add_flops(float(b.size), "pointwise")
            res = self._coarse_solver.solve(
                f_local,
                tol=0.0,
                rtol=1e-8,
                maxiter=self.coarse_iters,
                label="pmg_coarse",
            )
            return lvl.system.mask.apply(res.u)
        from .cg import pcg

        res = pcg(
            lvl.system.matvec,
            b,
            dot=lvl.system.dot,
            precond=lambda r: lvl.inv_diagonal * r,
            tol=0.0,
            rtol=1e-8,
            maxiter=self.coarse_iters,
            label="pmg_coarse",
        )
        return res.x

    # -------------------------------------------------------------- V-cycle
    def _vcycle(self, i: int, b: np.ndarray) -> np.ndarray:
        lvl = self.levels[i]
        with trace(f"p{lvl.order}"):
            if i == len(self.levels) - 1:
                return self._coarse_solve(b)
            x = self._smooth(i, np.zeros_like(b), b, self.n_smooth)
            r = b - lvl.system.matvec(x)
            r_c = self._restrict(i + 1, r)
            e_c = self._vcycle(i + 1, r_c)
            x = x + self._prolong(i + 1, e_c)
            x = self._smooth(i, x, b, self.n_smooth)
            return x

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """Apply one V-cycle as a preconditioner (traced as ``pmg/p<N>/...``)."""
        with trace("pmg"):
            return self._vcycle(0, r)
