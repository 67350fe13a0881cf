"""Doubly periodic shear-layer roll-up (Fig. 3; Brown & Minion [3, 4]).

Initial conditions on Omega = [0, 1]^2:

    u = tanh(rho (y - 0.25))   for y <= 0.5
        tanh(rho (0.75 - y))   for y >  0.5
    v = 0.05 sin(2 pi x)

The paper's Fig. 3 story, which the Fig.-3 bench regenerates:

(a) unfiltered N = 16, n = 256 blows up ("results just prior to blowup");
(b, d) filtering with alpha = 0.3 is stable at n = 256 and n = 128;
(c) full projection alpha = 1 is stable but inferior to partial filtering;
(e, f) the "thin" (rho = 100) layer shows spurious vortices at N = 8 that
disappear at N = 16 for fixed n = 256.

:class:`ShearLayerCase` runs the configuration and reports stability,
vorticity extrema, and a spurious-vortex indicator (number of local
vorticity minima wells below the two physical rollers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.mesh import box_mesh_2d
from ..ns.bcs import VelocityBC
from ..api import SolverConfig
from ..ns.navier_stokes import NavierStokesSolver
from ..solvers.cg import SolveFailure

__all__ = ["ShearLayerCase", "ShearLayerResult"]


@dataclass
class ShearLayerResult:
    """Outcome of a shear-layer run."""

    stable: bool
    blowup_time: Optional[float]
    final_time: float
    vorticity_min: float
    vorticity_max: float
    max_velocity: float
    energy_history: List[float] = field(default_factory=list)
    vortex_count: int = 0


class ShearLayerCase:
    """One (K, N, alpha) configuration of the Fig. 3 study.

    Parameters
    ----------
    n_elements:
        Elements per direction (paper: 16, or 32 for case (e)).
    order:
        Polynomial order N (8, 16, 32 in the figure).
    rho:
        Shear-layer thickness parameter (30 = "thick", 100 = "thin").
    re:
        Reynolds number (1e5 thick, 4e4 thin).
    filter_alpha:
        Stabilization strength (0 = unfiltered, 0.3 = the paper's choice,
        1 = full projection).
    dt:
        Timestep (paper: 0.002, CFL in 1-5 -> OIFS convection).
    projection_window:
        L for the successive-RHS pressure projection (0 disables; used by
        the Fig. 4 regression pin to compare with/without projection).
    """

    def __init__(
        self,
        n_elements: int = 16,
        order: int = 8,
        rho: float = 30.0,
        re: float = 1e5,
        filter_alpha: float = 0.3,
        dt: float = 0.002,
        convection: str = "oifs",
        pressure_tol: float = 1e-6,
        projection_window: int = 10,
    ):
        self.rho = rho
        self.mesh = box_mesh_2d(
            n_elements, n_elements, order, periodic=(True, True)
        )
        self.solver = NavierStokesSolver(
            self.mesh,
            re=re,
            dt=dt,
            bc=VelocityBC.none(self.mesh),
            convection=convection,
            filter_alpha=filter_alpha,
            config=SolverConfig(
                projection_window=projection_window,
                pressure_tol=pressure_tol,
            ),
        )
        rho_ = rho
        self.solver.set_initial_condition(
            [
                lambda x, y: np.where(
                    y <= 0.5, np.tanh(rho_ * (y - 0.25)), np.tanh(rho_ * (0.75 - y))
                ),
                lambda x, y: 0.05 * np.sin(2 * np.pi * x),
            ]
        )

    @property
    def grid_points_per_direction(self) -> int:
        """The paper's ``n`` (= K_1d * N)."""
        return self.mesh.element_lattice[0] * self.mesh.order

    def run(self, t_end: float = 1.2, check_every: int = 10) -> ShearLayerResult:
        """Advance to ``t_end`` with blow-up detection.

        Blow-up is declared when the max velocity exceeds 50x the initial
        scale or a solve diverges — matching "we are unable to simulate
        this problem at any reasonable resolution" without filtering.
        """
        sol = self.solver
        n_steps = int(round(t_end / sol.dt))
        u_scale = 1.0
        energies = [sol.kinetic_energy()]
        blowup_time = None
        for s in range(n_steps):
            try:
                # Blow-up floods the explicit convection path with overflows
                # before the solver guard trips; keep the warnings quiet.
                with np.errstate(over="ignore", invalid="ignore"):
                    sol.step()
            except SolveFailure:
                blowup_time = sol.t
                break
            umax = max(float(np.max(np.abs(c))) for c in sol.u)
            if not np.isfinite(umax) or umax > 50.0 * u_scale:
                blowup_time = sol.t
                break
            if (s + 1) % check_every == 0:
                energies.append(sol.kinetic_energy())
        stable = blowup_time is None
        if stable:
            w = sol.vorticity()
            wmin, wmax = float(w.min()), float(w.max())
            umax = max(float(np.max(np.abs(c))) for c in sol.u)
            vortices = self._count_rollers(w)
        else:
            wmin = wmax = np.nan
            umax = np.inf
            vortices = 0
        return ShearLayerResult(
            stable=stable,
            blowup_time=blowup_time,
            final_time=sol.t,
            vorticity_min=wmin,
            vorticity_max=wmax,
            max_velocity=umax,
            energy_history=energies,
            vortex_count=vortices,
        )

    def _count_rollers(self, w: np.ndarray) -> int:
        """Count distinct strong-vorticity cores (the Fig. 3e/f indicator).

        Sampled on a uniform grid; cores are connected regions with
        |w| > 60% of the global max.  The physical roll-up has one core
        per shear layer (2 total); spurious vortices inflate the count.
        """
        # Rasterize |vorticity| onto the element lattice x order grid.
        K = self.mesh.K
        nl = self.mesh.element_lattice[0]
        m = self.mesh.order + 1
        img = np.zeros((nl * m, nl * m))
        for k in range(K):
            ex, ey = k % nl, k // nl
            img[ey * m:(ey + 1) * m, ex * m:(ex + 1) * m] = np.abs(w[k])
        mask = img > 0.6 * img.max()
        # Connected components (4-neighbor, periodic wrap) via flood fill.
        labels = np.full(img.shape, -1, dtype=int)
        count = 0
        ny, nx = img.shape
        for j0 in range(ny):
            for i0 in range(nx):
                if mask[j0, i0] and labels[j0, i0] < 0:
                    stack = [(j0, i0)]
                    labels[j0, i0] = count
                    while stack:
                        j, i = stack.pop()
                        for dj, di in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                            jj, ii = (j + dj) % ny, (i + di) % nx
                            if mask[jj, ii] and labels[jj, ii] < 0:
                                labels[jj, ii] = count
                                stack.append((jj, ii))
                    count += 1
        return count
