"""The incompressible Navier-Stokes integrator (Sections 4-5).

One timestep follows the paper's operator-splitting pipeline:

1. **Convection** — either OIFS sub-integration of the material derivative
   (CFL 1-5; Section 4) or classical explicit extrapolation (EXTk).
2. **Velocity Helmholtz solves** — ``H u* = B f_hat + D^T p^{n-1}`` with
   ``H = (beta0/dt) B + (1/Re) A``, one Jacobi-PCG solve per component.
3. **Pressure correction** — ``E dp = -(beta0/dt) D u*`` solved by CG with
   the additive Schwarz preconditioner (Section 5), accelerated by
   projection onto previous solutions (Fig. 4); then
   ``u^n = u* + (dt/beta0) B^{-1} D^T dp``, ``p^n = p^{n-1} + dp``.
4. **Filtering** — the once-per-step Fischer-Mullen filter (Section 2).

Per-step solver statistics (pressure/Helmholtz iteration counts, initial
residuals, CFL) are recorded in ``solver.stats`` — the quantities plotted
in Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..api import SolverConfig, pressure_preconditioner
from ..core.assembly import Assembler, DirichletMask
from ..core.element import geometric_factors
from ..core.filters import FieldFilter
from ..core.mesh import Mesh
from ..core.operators import HelmholtzOperator, LaplaceOperator, MassOperator, SEMSystem
from ..core.pressure import PressureOperator
from ..obs.telemetry import record_projection
from ..obs.trace import trace
from ..perf.flops import add_flops
from ..solvers.cg import SolveFailure, pcg
from ..solvers.jacobi import jacobi_preconditioner
from ..solvers.projection import SolutionProjector
from .bcs import VelocityBC
from .convection import Convection, courant_number

__all__ = ["NavierStokesSolver", "StepStats", "BDF_COEFFS", "EXT_COEFFS"]

#: BDFk coefficients: (beta0, [b1, b2, ...]) for
#: (beta0 u^n - sum_q b_q u^{n-q}) / dt = rhs.
BDF_COEFFS = {
    1: (1.0, [1.0]),
    2: (1.5, [2.0, -0.5]),
    3: (11.0 / 6.0, [3.0, -1.5, 1.0 / 3.0]),
}

#: EXTk extrapolation coefficients for explicit terms.
EXT_COEFFS = {1: [1.0], 2: [2.0, -1.0], 3: [3.0, -3.0, 1.0]}


def flow_operators(mesh: Mesh, vel_mask: DirichletMask, cache=None):
    """``(geom, assembler, pop)`` of a velocity mesh and its Dirichlet mask.

    With a :class:`~repro.service.FactorCache` the geometric factors and
    the assembler are built once per mesh, and the pressure operator once
    per (mesh, velocity mask), shared by every :class:`NavierStokesSolver`
    built on that mesh through the cache.
    """
    if cache is None:
        geom = geometric_factors(mesh)
        assembler = Assembler.for_mesh(mesh)
        return geom, assembler, PressureOperator(
            mesh, vel_mask=vel_mask, assembler=assembler, geom=geom
        )
    from ..service.cache import array_signature, mesh_signature

    sig = mesh_signature(mesh)
    geom = cache.get(("geom", sig), lambda: geometric_factors(mesh))
    assembler = cache.get(("assembler", sig), lambda: Assembler.for_mesh(mesh))
    pop = cache.get(
        ("pressure_operator", sig, array_signature(vel_mask.constrained)),
        lambda: PressureOperator(
            mesh, vel_mask=vel_mask, assembler=assembler, geom=geom
        ),
    )
    return geom, assembler, pop


@dataclass
class StepStats:
    """Per-timestep solver diagnostics (the Fig. 8 series)."""

    step: int
    time: float
    cfl: float
    pressure_iterations: int
    pressure_initial_residual: float
    pressure_rhs_norm: float
    helmholtz_iterations: List[int]
    divergence_norm: float
    wall_seconds: float = 0.0


class NavierStokesSolver:
    """Spectral element incompressible Navier-Stokes solver.

    Parameters
    ----------
    mesh:
        Velocity mesh (order N >= 3 recommended for the PN-PN-2 pressure).
    re:
        Reynolds number (viscosity = 1/Re in the nondimensional equations).
    dt:
        Timestep size.
    bc:
        Velocity boundary conditions; defaults to no-slip on all sides.
    scheme:
        Temporal order, 2 or 3 (Table 1's "2nd Order"/"3rd Order").  Lower
        orders are used automatically during start-up.
    convection:
        ``"oifs"`` (sub-integrated material derivative, CFL 1-5) or
        ``"ext"`` (extrapolated explicit convection, CFL <~ 0.5), or
        ``"none"`` (Stokes flow).
    filter_alpha:
        Fischer-Mullen filter strength (0 disables; Table 1 / Fig. 3).
    config:
        :class:`~repro.api.SolverConfig` supplying the solver-stack
        decisions: ``pressure_variant`` (Schwarz ``"fdm"``/``"fem"``, or
        ``"condensed"``, which is ``"fdm"`` at zero overlap), with its
        ``overlap`` and ``use_coarse`` (see
        :func:`~repro.api.pressure_preconditioner`), ``projection_window``
        (L for the successive-RHS pressure projection, 0 disables; Fig. 4),
        ``pressure_tol``, and ``helmholtz_tol``.
    cache:
        Optional :class:`~repro.service.FactorCache`; shares geometric
        factors, the assembler, the pressure operator, and the pressure
        preconditioner with other constructions on the same mesh.
    forcing:
        Optional body force ``f(x, y[, z], t) -> components``.
    oifs_cfl_target:
        RK4 substep sizing: substeps = ceil(CFL / target).
    """

    def __init__(
        self,
        mesh: Mesh,
        re: float,
        dt: float,
        bc: Optional[VelocityBC] = None,
        scheme: int = 2,
        convection: str = "oifs",
        filter_alpha: float = 0.0,
        filter_modes: int = 1,
        config: Optional[SolverConfig] = None,
        cache=None,
        forcing: Optional[Callable] = None,
        oifs_cfl_target: float = 0.25,
    ):
        config = config if config is not None else SolverConfig()
        self.config = config
        projection_window = config.projection_window
        if scheme not in (1, 2, 3):
            raise ValueError(f"scheme must be 1, 2 or 3, got {scheme}")
        if convection not in ("oifs", "ext", "none"):
            raise ValueError(f"unknown convection treatment {convection!r}")
        if re <= 0 or dt <= 0:
            raise ValueError("need re > 0 and dt > 0")
        self.mesh = mesh
        self.re = float(re)
        self.dt = float(dt)
        self.scheme = scheme
        self.convection_mode = convection
        self.forcing = forcing
        self.oifs_cfl_target = float(oifs_cfl_target)
        self.bc = bc if bc is not None else VelocityBC.no_slip_all(mesh)
        self.mask = self.bc.mask
        self.geom, self.assembler, self.pop = flow_operators(mesh, self.mask, cache)
        self.pressure_precond = pressure_preconditioner(mesh, self.pop, config, cache)

        self.mass = MassOperator(self.geom)
        self.laplace = LaplaceOperator(mesh, self.geom)
        self.conv = Convection(mesh, self.geom, self.assembler)
        self.pressure_tol = float(config.pressure_tol)
        self.helmholtz_tol = float(config.helmholtz_tol)
        self.projector = (
            SolutionProjector(self.pop.matvec, self.pop.dot, projection_window)
            if projection_window > 0
            else None
        )
        self.filter = (
            FieldFilter(mesh, filter_alpha, self.assembler, n_modes=filter_modes)
            if filter_alpha > 0
            else None
        )

        # Helmholtz systems per BDF order (h0 changes with beta0).
        self._helmholtz: Dict[int, Tuple[SEMSystem, Callable]] = {}

        # State.  Velocity-shaped arrays are (nd, K, n...) stacks.
        self.t = 0.0
        self.step_count = 0
        self.u: np.ndarray = np.zeros((mesh.ndim,) + mesh.local_shape)
        self.p: np.ndarray = self.pop.pressure_field()
        self._u_hist: List[np.ndarray] = []  # newest first
        self._t_hist: List[float] = []
        self._conv_hist: List[np.ndarray] = []  # -(u.grad)u, newest first
        self.stats: List[StepStats] = []

    # ------------------------------------------------------------ setup bits
    def _helmholtz_for(self, order: int) -> Tuple[SEMSystem, Callable]:
        """The velocity Helmholtz system of BDF ``order`` and its Jacobi
        preconditioner, shared by all components (built on first use)."""
        if order not in self._helmholtz:
            beta0, _ = BDF_COEFFS[order]
            op = HelmholtzOperator(
                self.mesh, h1=1.0 / self.re, h0=beta0 / self.dt, geom=self.geom
            )
            system = SEMSystem(self.mesh, self.assembler, self.mask, op.apply,
                               op.diagonal)
            self._helmholtz[order] = (system, jacobi_preconditioner(system))
        return self._helmholtz[order]

    def _velocity(self, comps: Sequence, what: str, shape=None) -> np.ndarray:
        """``nd`` components (of ``shape``, or broadcast) as one stack."""
        nd = self.mesh.ndim
        if len(comps) != nd:
            raise ValueError(
                f"{what}: the mesh has nd = {nd} velocity components, got {len(comps)}"
            )
        out = np.empty((nd,) + self.mesh.local_shape)
        for o, comp in zip(out, comps):
            arr = np.asarray(comp, dtype=float)
            if shape is not None and arr.shape != shape:
                raise ValueError(f"{what}: field shape {arr.shape} != {shape}")
            o[...] = arr
        return out

    # ------------------------------------------------------------- interface
    def set_initial_condition(
        self, u0: Sequence, p0: Optional[np.ndarray] = None, t0: float = 0.0
    ) -> None:
        """Set velocity (callables or arrays) and optional pressure at t0."""
        u0 = [self.mesh.eval_function(c) if callable(c) else c for c in u0]
        u0 = self._velocity(u0, "initial condition", self.mesh.local_shape)
        self.u = self.bc.apply_to(self.assembler.dsavg(u0), t0)
        if p0 is not None:
            self.p = np.asarray(p0, dtype=float).copy()
        self.t = float(t0)
        self.step_count = 0
        self._u_hist = []
        self._t_hist = []
        self._conv_hist = []
        if self.projector is not None:
            self.projector.reset()

    def cfl(self) -> float:
        """Current convective CFL number."""
        return courant_number(self.mesh, self.geom, self.u, self.dt)

    def kinetic_energy(self) -> float:
        """``1/2 integral |u|^2`` over the domain."""
        return 0.5 * sum(self.mass.integrate(c**2) for c in self.u)

    def divergence_norm(self) -> float:
        """2-norm of the discrete divergence ``D u`` (pressure grid)."""
        return float(np.linalg.norm(self.pop.apply_div(self.u).ravel()))

    def vorticity(self) -> np.ndarray:
        """Scalar vorticity (2-D only): ``dv/dx - du/dy``."""
        if self.mesh.ndim != 2:
            raise ValueError("scalar vorticity is 2-D only")
        gu = self.conv.grad_phys(self.u[0])
        gv = self.conv.grad_phys(self.u[1])
        return self.assembler.dsavg(gv[0] - gu[1])

    # ------------------------------------------------------------------ step
    def step(self, extra_forcing: Optional[Sequence[np.ndarray]] = None) -> StepStats:
        """Advance one timestep; returns the step's solver statistics.

        ``extra_forcing`` (one field per component) supports couplings like
        the Boussinesq buoyancy of the convection workloads.

        When observability is enabled (:func:`repro.obs.enable`) the phases
        run inside trace regions ``step/{convection,helmholtz,pressure,
        filter}`` — the Table 2 attribution tree.  A failed solve raises
        :class:`~repro.solvers.cg.SolveFailure` with ``step`` set to the
        timestep being taken.
        """
        with trace("step"):
            try:
                return self._step(extra_forcing)
            except SolveFailure as exc:
                raise exc.at_step(self.step_count + 1)

    def _step(self, extra_forcing: Optional[Sequence[np.ndarray]] = None) -> StepStats:
        import time as _time

        wall0 = _time.perf_counter()
        if extra_forcing is not None:
            extra_forcing = self._velocity(extra_forcing, "extra_forcing")
        order = min(self.scheme, self.step_count + 1)
        beta0, betas = BDF_COEFFS[order]
        dt = self.dt
        t_new = self.t + dt
        nd = self.mesh.ndim
        cfl = self.cfl()

        # -- push current state into history ---------------------------------
        self._u_hist.insert(0, self.u.copy())
        self._t_hist.insert(0, self.t)
        if self.convection_mode == "ext":
            self._conv_hist.insert(0, -self.conv.advect(self.u, self.u))
        keep = max(self.scheme, 1)
        del self._u_hist[keep:], self._t_hist[keep:], self._conv_hist[keep:]

        # -- assemble the time-derivative + convection RHS --------------------
        with trace("convection"):
            rhs_time = np.zeros_like(self.u)
            if self.convection_mode == "oifs":
                n_sub = max(1, int(np.ceil(max(cfl, 1e-12) / self.oifs_cfl_target)))
                wr_of_t = self._advecting_field_interpolant()
                # Through-flow Dirichlet boundaries feed data along incoming
                # characteristics during the sub-integration.
                bfix = self.bc.apply_to if self.mask.n_constrained else None
                for q, bq in enumerate(betas[: len(self._u_hist)], start=1):
                    rhs_time += (bq / dt) * self.conv.oifs_integrate(
                        self._u_hist[q - 1], wr_of_t, self._t_hist[q - 1], t_new,
                        n_steps=n_sub * q, boundary_fix=bfix,
                    )
            else:
                for bq, u_q in zip(betas, self._u_hist):
                    rhs_time += (bq / dt) * u_q
                if self.convection_mode == "ext":
                    for gq, n_q in zip(EXT_COEFFS[order], self._conv_hist):
                        rhs_time += gq * n_q

            if self.forcing is not None:
                fvals = self.forcing(*[np.asarray(x) for x in self.mesh.coords], t_new)
                rhs_time = rhs_time + self._velocity(fvals, "forcing")
            if extra_forcing is not None:
                rhs_time = rhs_time + extra_forcing

        # -- velocity Helmholtz solves ----------------------------------------
        with trace("helmholtz"):
            grad_p = self.pop.apply_div_t(self.p)
            u_bound = self.bc.lift(t_new)
            u_star = np.empty_like(u_bound)
            h_iters: List[int] = []
            system, precond = self._helmholtz_for(order)
            for c in range(nd):
                rhs_local = (self.mass.apply(rhs_time[c]) + grad_p[c]
                             - system.op_local(u_bound[c]))
                label = f"helmholtz_u{c}"
                res = pcg(
                    system.matvec,
                    system.rhs(rhs_local),
                    dot=system.dot,
                    precond=precond,
                    x0=self.mask.apply(self.u[c] - u_bound[c]),
                    tol=0.0,
                    rtol=self.helmholtz_tol,
                    maxiter=2000,
                    label=label,
                )
                if not res.converged:
                    raise SolveFailure.unconverged(
                        f"velocity Helmholtz solve (component {c})", res, label
                    )
                h_iters.append(res.iterations)
                u_star[c] = res.x + u_bound[c]

        # -- pressure correction ----------------------------------------------
        with trace("pressure"):
            g = -(beta0 / dt) * self.pop.apply_div(u_star)
            if self.pop.has_nullspace:
                g = g - float(np.sum(g) / g.size)
            g_norm = float(np.linalg.norm(g.ravel()))
            tol = self.pressure_tol * max(g_norm, 1e-300)
            if self.projector is not None:
                dp0, g_pert = self.projector.start(g)
                record_projection(
                    "pressure",
                    len(self.projector),
                    g_norm,
                    float(np.linalg.norm(g_pert.ravel())),
                )
            else:
                dp0, g_pert = np.zeros_like(g), g
            res_p = pcg(
                self.pop.matvec,
                g_pert,
                dot=self.pop.dot,
                precond=self.pressure_precond,
                tol=tol,
                maxiter=5000,
                label="pressure",
            )
            if not res_p.converged:
                raise SolveFailure.unconverged("pressure solve", res_p, "pressure")
            if self.projector is not None:
                self.projector.finish(res_p.x, dp0 + res_p.x)
            dp = dp0 + res_p.x
            if self.pop.has_nullspace:
                dp = dp - float(np.sum(dp) / dp.size)

            # -- velocity update -------------------------------------------------
            corr = self.pop.apply_binv(self.pop.apply_div_t(dp))
            self.u = u_star + (dt / beta0) * corr
            self.p = self.p + dp

        # -- filtering ---------------------------------------------------------
        if self.filter is not None:
            with trace("filter"):
                self.u = self.bc.apply_to(self.filter(self.u), t_new)
        add_flops(2.0 * self.u.size, "pointwise")

        self.t = t_new
        self.step_count += 1
        stats = StepStats(
            step=self.step_count,
            time=self.t,
            cfl=cfl,
            pressure_iterations=res_p.iterations,
            pressure_initial_residual=res_p.initial_residual_norm,
            pressure_rhs_norm=g_norm,
            helmholtz_iterations=h_iters,
            divergence_norm=self.divergence_norm(),
            wall_seconds=_time.perf_counter() - wall0,
        )
        self.stats.append(stats)
        return stats

    def advance(self, n_steps: int, **kw) -> List[StepStats]:
        """Take ``n_steps`` timesteps."""
        return [self.step(**kw) for _ in range(n_steps)]

    # ------------------------------------------------------------- internals
    def _advecting_field_interpolant(self) -> Callable[[float], np.ndarray]:
        """Lagrange interpolation/extrapolation of the velocity history.

        Supplies ``W(s) = contravariant(w(s))`` for the OIFS sub-integration:
        interpolating within the known history window and extrapolating over
        the new interval ``(t^{n-1}, t^n]`` — the operator-integration-factor
        construction.  ``W`` is linear in ``w``, so each level is contracted
        with the metric once per step.
        """
        levels = [self.conv.contravariant(u) for u in self._u_hist[: self.scheme]]
        times = self._t_hist[: self.scheme]
        if len(levels) == 1:
            w0 = levels[0]
            return lambda s: w0

        def wr_of_t(s: float) -> np.ndarray:
            coeffs = []
            for i, ti in enumerate(times):
                c = 1.0
                for j, tj in enumerate(times):
                    if i != j:
                        c *= (s - tj) / (ti - tj)
                coeffs.append(c)
            return sum((ci * f for ci, f in zip(coeffs[1:], levels[1:])),
                       coeffs[0] * levels[0])

        return wr_of_t
