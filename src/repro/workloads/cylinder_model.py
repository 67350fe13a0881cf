"""Table 2 workload: the high-aspect-ratio quad-refined pressure problem.

Table 2 evaluates the additive Schwarz variants on "the two-dimensional
model problem of start-up flow past a cylinder at Re = 5000" with N = 7,
eps = 1e-5, and meshes "obtained through two rounds of quad-refinement
from an initial mesh having K = 93 elements"; the iteration growth with K
"is due to the presence of high aspect ratio elements".

Our substitution (DESIGN.md): a half-annulus around a unit cylinder with
geometrically graded radial layers — the boundary-layer mesh one would
build for this flow — which is logically structured (so every solver path
applies) while reproducing the two drivers of Table 2's numbers: element
aspect ratios that grow under refinement near the cylinder, and the
K = O(100) -> O(1500) refinement sequence.  The solved system is the same
object as in the paper: the consistent pressure Poisson operator E, with
an impulsive-start-like smooth right-hand side, to eps = 1e-5.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..api import SolverConfig, pressure_preconditioner
from ..core.mesh import Mesh, box_mesh_2d, map_mesh
from ..core.pressure import PressureOperator
from ..solvers.cg import pcg

__all__ = ["cylinder_mesh", "Table2Case", "Table2Result", "TABLE2_LEVELS"]

#: Refinement levels: (n_theta, n_r) element counts; K = n_theta * n_r.
#: Level 0 has K = 96 (the paper's initial mesh has K = 93).
TABLE2_LEVELS = {0: (16, 6), 1: (32, 12), 2: (64, 24)}


def cylinder_mesh(level: int = 0, order: int = 7, r_outer: float = 12.0) -> Mesh:
    """Half-annulus boundary-layer mesh around a unit cylinder.

    Radial element breakpoints are geometrically graded (ratio ~1.9 at
    level 0) so the innermost layers are thin — aspect ratio increases
    under quad-refinement exactly as in the paper's cylinder mesh.
    """
    if level not in TABLE2_LEVELS:
        raise ValueError(f"level must be one of {sorted(TABLE2_LEVELS)}")
    n_theta, n_r = TABLE2_LEVELS[level]
    # Geometric radial grading from r = 1 to r_outer.
    ratio = (r_outer - 1.0) ** (1.0 / n_r)
    radii = 1.0 + np.array([(ratio**i - 1.0) / (ratio**n_r - 1.0) for i in range(n_r + 1)]) * (
        r_outer - 1.0
    )
    base = box_mesh_2d(
        n_theta, n_r, order,
        x0=0.0, x1=np.pi, y_breaks=radii,
    )

    def to_annulus(theta, r):
        # Negative-y half plane keeps the (theta, r) -> (x, y) orientation
        # positive (Jacobian = r).
        return r * np.cos(theta), -r * np.sin(theta)

    return map_mesh(base, to_annulus)


@dataclass
class Table2Result:
    """One cell of Table 2."""

    K: int
    variant: str
    overlap: int
    use_coarse: bool
    iterations: int
    cpu_seconds: float
    setup_seconds: float
    converged: bool


class Table2Case:
    """Solve the E system on a cylinder mesh with one local-solve variant.

    Config fields mirror the Table 2 columns: ``pressure_variant="fdm"``;
    ``"fem"`` with ``overlap`` 0/1/3; ``use_coarse=False`` for the
    ``A_0 = 0`` column.  ``"condensed"`` runs the ``"fdm"`` tier at zero
    overlap (``overlap`` is ignored there).

    With a :class:`~repro.service.FactorCache`, the mesh, pressure
    operator, RHS, and each preconditioner variant are built once and
    shared across every case/run on the same (level, order) — the sweep
    and variant-comparison paths stop paying setup per row.
    """

    def __init__(self, level: int = 0, order: int = 7, cache=None):
        self._cache = cache
        if cache is not None:
            from ..service.cache import mesh_signature

            self.mesh = cache.get(
                ("cylinder_mesh", int(level), int(order)),
                lambda: cylinder_mesh(level, order),
            )
            sig = mesh_signature(self.mesh)
            self.pop = cache.get(
                ("table2_pop", sig),
                lambda: PressureOperator(self.mesh),
            )
            self.rhs = cache.get(
                ("table2_rhs", sig),
                lambda: self._build_rhs(),
            )
            return
        self.mesh = cylinder_mesh(level, order)
        # Start-up flow past the cylinder: free stream at the outer arc
        # (Dirichlet), no-slip cylinder, symmetry plane treated as
        # Dirichlet for the velocity mask -> enclosed-type pressure system.
        self.pop = PressureOperator(self.mesh)
        self.rhs = self._build_rhs()

    def _build_rhs(self) -> np.ndarray:
        # Impulsive-start RHS: divergence of the discontinuous initial
        # guess (free stream everywhere, zero on the cylinder) — smooth in
        # the interior, boundary-layer structure near r = 1.
        u_inf = [
            self.mesh.eval_function(lambda x, y: np.ones_like(x)),
            self.mesh.eval_function(lambda x, y: np.zeros_like(x)),
        ]
        u0 = [self.pop.vel_mask.apply(c) for c in u_inf]
        g = self.pop.apply_div(u0)
        g -= np.sum(g) / g.size
        return g

    def run(self, config: Optional[SolverConfig] = None) -> Table2Result:
        config = config if config is not None else SolverConfig()
        t0 = time.perf_counter()
        precond = pressure_preconditioner(self.mesh, self.pop, config, self._cache)
        t_setup = time.perf_counter() - t0
        rhs_norm = float(np.linalg.norm(self.rhs.ravel()))
        t0 = time.perf_counter()
        res = pcg(
            self.pop.matvec,
            self.rhs,
            dot=self.pop.dot,
            precond=precond,
            tol=config.tol * rhs_norm,
            maxiter=config.maxiter,
            label="table2_pressure",
        )
        t_solve = time.perf_counter() - t0
        return Table2Result(
            K=self.mesh.K,
            variant=config.pressure_variant,
            overlap=config.overlap,
            use_coarse=config.use_coarse,
            iterations=res.iterations,
            cpu_seconds=t_solve,
            setup_seconds=t_setup,
            converged=res.converged,
        )

    def solve(self, config: Optional[SolverConfig] = None,
              projector=None) -> np.ndarray:
        """Solve and return the pressure field (the bitwise-parity probe).

        ``projector`` is an optional
        :class:`~repro.solvers.projection.SolutionProjector` built on this
        case's operator: the solve then iterates only on the perturbation
        ``b - E x_bar`` and folds the new solution into the history — the
        cross-request reuse path of the service's projector pool.
        """
        config = config if config is not None else SolverConfig()
        precond = pressure_preconditioner(self.mesh, self.pop, config, self._cache)
        rhs_norm = float(np.linalg.norm(self.rhs.ravel()))
        if projector is not None:
            x_bar, b = projector.start(self.rhs)
        else:
            x_bar, b = None, self.rhs
        res = pcg(
            self.pop.matvec,
            b,
            dot=self.pop.dot,
            precond=precond,
            tol=config.tol * rhs_norm,
            maxiter=config.maxiter,
            label="table2_pressure",
        )
        x = res.x if x_bar is None else x_bar + res.x
        if projector is not None:
            projector.finish(res.x, x)
        self.last_iterations = res.iterations
        self.last_converged = res.converged
        return x
