"""repro — a reproduction of Tufo & Fischer, "Terascale Spectral Element
Algorithms and Implementations" (SC 1999).

A spectral element incompressible Navier-Stokes library with the paper's
full algorithmic stack:

* tensor-product GLL discretization with matrix-free operators (Eq. 2-4),
* PN-PN-2 staggered pressure with the consistent Poisson operator E,
* BDF2/BDF3 operator splitting with OIFS convection sub-integration,
* Fischer-Mullen filter stabilization,
* Jacobi-PCG Helmholtz solves and Schwarz-preconditioned pressure solves
  (FDM tensor local solves + vertex-mesh coarse grid),
* a statically condensed elliptic tier (Schur elimination of element
  interiors; linear-operation-count interface applies in 2-D),
* successive-RHS projection, the XXT coarse-grid solver,
* a simulated message-passing substrate (gather-scatter, RSB partitioning,
  alpha-beta-gamma machine models) reproducing the paper's scaling studies,
* a unified observability layer (:mod:`repro.obs`): hierarchical trace
  regions, solver telemetry, and schema-stable run reports
  (``python -m repro report``; docs/OBSERVABILITY.md),
* a many-run solver service (:mod:`repro.service`): a
  :class:`~repro.service.Session` executing runs over a shared cross-run
  factorization cache (``python -m repro sweep``; docs/SERVICE.md), built on
  the typed :class:`SolverConfig`/:class:`RunSpec` construction API
  (:mod:`repro.api`).

Quickstart::

    import numpy as np
    from repro import box_mesh_2d, NavierStokesSolver, VelocityBC

    mesh = box_mesh_2d(4, 4, 7, x1=2*np.pi, y1=2*np.pi, periodic=(True, True))
    sol = NavierStokesSolver(mesh, re=100.0, dt=0.02, bc=VelocityBC.none(mesh))
    sol.set_initial_condition([lambda x, y: -np.cos(x)*np.sin(y),
                               lambda x, y:  np.sin(x)*np.cos(y)])
    sol.advance(50)
    print(sol.kinetic_energy(), sol.stats[-1].pressure_iterations)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record of every table and figure.
"""

from .api import RunSpec, SolverConfig, poisson_solver
from .core.assembly import Assembler, DirichletMask
from .core.element import GeomFactors, geometric_factors
from .core.filters import FieldFilter
from .core.mesh import Mesh, box_mesh_2d, box_mesh_3d, map_mesh
from .core.operators import (
    HelmholtzOperator,
    LaplaceOperator,
    MassOperator,
    SEMSystem,
    build_helmholtz_system,
    build_poisson_system,
)
from .core.pressure import PressureOperator
from . import obs
from .ns.bcs import ScalarBC, VelocityBC
from .ns.diagnostics import FlowDiagnostics
from .ns.navier_stokes import NavierStokesSolver, StepStats
from .ns.scalar import BoussinesqCoupling, ScalarTransport
from .solvers.cg import CGResult, pcg
from .solvers.condensed import (
    CondensedPoissonSolver,
    CondensedResult,
)
from .solvers.jacobi import JacobiPreconditioner, jacobi_preconditioner
from .solvers.pmultigrid import PMultigrid, build_p_hierarchy
from .solvers.projection import SolutionProjector
from .solvers.schwarz import SchwarzPreconditioner
from .solvers.xxt import XXTSolver
from . import service

__version__ = "1.0.0"

__all__ = [
    "Assembler",
    "BoussinesqCoupling",
    "CGResult",
    "CondensedPoissonSolver",
    "CondensedResult",
    "DirichletMask",
    "FlowDiagnostics",
    "FieldFilter",
    "GeomFactors",
    "HelmholtzOperator",
    "JacobiPreconditioner",
    "LaplaceOperator",
    "MassOperator",
    "Mesh",
    "NavierStokesSolver",
    "PMultigrid",
    "PressureOperator",
    "RunSpec",
    "ScalarBC",
    "ScalarTransport",
    "SchwarzPreconditioner",
    "SEMSystem",
    "SolutionProjector",
    "SolverConfig",
    "StepStats",
    "VelocityBC",
    "XXTSolver",
    "box_mesh_2d",
    "box_mesh_3d",
    "build_helmholtz_system",
    "build_p_hierarchy",
    "build_poisson_system",
    "geometric_factors",
    "jacobi_preconditioner",
    "map_mesh",
    "obs",
    "pcg",
    "poisson_solver",
    "service",
    "__version__",
]
