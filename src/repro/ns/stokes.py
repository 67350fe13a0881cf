"""Steady Stokes solver (Uzawa conjugate gradients).

The unsteady path (Section 4) splits the Stokes operator per timestep; for
creeping flows and for validating the discrete saddle-point system on its
own, the classical Uzawa decoupling solves the steady problem

    (1/Re) A u - D^T p = B f,      D u = 0

exactly: eliminate the velocity to get the pressure Schur complement

    S p = D A^{-1} (B f),    S = D A^{-1} D^T  (Re-scaled),

solve it with (preconditioned) CG using *nested* velocity solves for each
application of ``A^{-1}``, then recover ``u``.  The Schwarz/FDM machinery
preconditions S exactly as it does E (both are consistent-Poisson-like).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..api import SolverConfig, pressure_preconditioner
from ..core.mesh import Mesh
from ..core.operators import HelmholtzOperator, MassOperator, SEMSystem
from ..obs.trace import trace
from ..solvers.cg import SolveFailure, pcg
from ..solvers.jacobi import jacobi_preconditioner
from .bcs import VelocityBC
from .navier_stokes import flow_operators

__all__ = ["StokesSolver", "StokesResult"]


@dataclass
class StokesResult:
    u: np.ndarray  # (nd, K, n...)
    p: np.ndarray
    pressure_iterations: int
    velocity_solves: int
    divergence_norm: float
    converged: bool


class StokesSolver:
    """Uzawa-CG solver for the steady Stokes problem.

    Parameters
    ----------
    mesh:
        The velocity mesh.
    re:
        Reynolds number (viscosity 1/Re; pure scaling for Stokes).
    bc:
        Velocity Dirichlet conditions (default no-slip everywhere).
    config:
        :class:`~repro.api.SolverConfig` supplying the pressure
        preconditioner tier (``pressure_variant``: Schwarz ``"fdm"``/
        ``"fem"``, or ``"condensed"``, which is ``"fdm"`` at zero overlap;
        with ``overlap`` and ``use_coarse``; see
        :func:`~repro.api.pressure_preconditioner`) and the
        nested/outer tolerances (``velocity_tol``, ``pressure_tol``,
        ``maxiter``).  The inner solves must be substantially tighter than
        the outer ones (inexact Uzawa otherwise stalls CG).
    cache:
        Optional :class:`~repro.service.FactorCache`; shares the geometric
        factors, assembler, pressure operator, and preconditioner with
        other constructions on the same mesh.
    """

    def __init__(
        self,
        mesh: Mesh,
        re: float = 1.0,
        bc: Optional[VelocityBC] = None,
        config: Optional[SolverConfig] = None,
        cache=None,
    ):
        # Uzawa's outer iteration caps at 400 by default (a Schur-complement
        # CG, not a raw elliptic solve, so the generic 3000 is too lax).
        if config is None:
            config = SolverConfig(maxiter=400)
        self.config = config
        self.mesh = mesh
        self.re = float(re)
        self.bc = bc if bc is not None else VelocityBC.no_slip_all(mesh)
        self.mask = self.bc.mask
        self.geom, self.assembler, self.pop = flow_operators(mesh, self.mask, cache)
        self.precond = pressure_preconditioner(mesh, self.pop, config, cache)
        self.mass = MassOperator(self.geom)
        # Pure viscous operator (h0 = 0): A is singular only if nothing is
        # constrained, which no-slip precludes.
        visc = HelmholtzOperator(mesh, h1=1.0 / self.re, h0=0.0, geom=self.geom)
        self._vel_system = SEMSystem(mesh, self.assembler, self.mask, visc.apply,
                                     visc.diagonal)
        self._vel_precond = jacobi_preconditioner(self._vel_system)
        self.velocity_tol = float(config.velocity_tol)
        self.pressure_tol = float(config.pressure_tol)
        self.maxiter = int(config.maxiter)
        self.velocity_solves = 0

    # ------------------------------------------------------------ internals
    def _solve_velocity(self, rhs_local: np.ndarray, lift: np.ndarray) -> np.ndarray:
        """Component solves ``(1/Re) A u_c = rhs_c`` with boundary lift
        (velocity stacks in and out)."""
        system = self._vel_system
        u = np.empty_like(lift)
        for c in range(self.mesh.ndim):
            b = system.rhs(rhs_local[c] - system.op_local(lift[c]))
            with trace("velocity"):
                res = pcg(
                    system.matvec,
                    b,
                    dot=system.dot,
                    precond=self._vel_precond,
                    tol=0.0,
                    rtol=self.velocity_tol,
                    maxiter=5000,
                    label="stokes_velocity",
                )
            if not res.converged:
                raise SolveFailure.unconverged(
                    "Stokes velocity solve", res, "stokes_velocity"
                )
            self.velocity_solves += 1
            u[c] = res.x + lift[c]
        return u

    def _a_inv_dt(self, p: np.ndarray) -> np.ndarray:
        """``A^{-1} D^T p`` (homogeneous BCs)."""
        grad = self.pop.apply_div_t(p)
        return self._solve_velocity(grad, np.zeros_like(grad))

    def _schur(self, p: np.ndarray) -> np.ndarray:
        """``S p = D A^{-1} D^T p`` with the nullspace projected out."""
        out = self.pop.apply_div(self._a_inv_dt(p))
        if self.pop.has_nullspace:
            out = out - float(np.sum(out) / out.size)
        return out

    # ---------------------------------------------------------------- solve
    def solve(self, forcing: Optional[Callable] = None) -> StokesResult:
        """Solve the steady Stokes problem with body force ``f(x, y[, z])``."""
        lifts = self.bc.lift(0.0)
        f_local = np.zeros_like(lifts)
        if forcing is not None:
            fvals = forcing(*[np.asarray(c) for c in self.mesh.coords])
            for f, fc in zip(f_local, fvals):
                f[...] = fc
            f_local = self.mass.apply(f_local)

        # u_f = A^{-1} B f (with the boundary data lifted here once).
        u_f = self._solve_velocity(f_local, lifts)
        g = self.pop.apply_div(u_f)
        if self.pop.has_nullspace:
            g = g - float(np.sum(g) / g.size)
        g_norm = float(np.linalg.norm(g.ravel()))
        if g_norm < 1e-300:
            p = self.pop.pressure_field()
            return StokesResult(u_f, p, 0, self.velocity_solves, 0.0, True)

        with trace("stokes/pressure"):
            res_p = pcg(
                self._schur,
                g,
                dot=self.pop.dot,
                precond=self.precond,
                tol=self.pressure_tol * g_norm,
                maxiter=self.maxiter,
                label="stokes_pressure",
            )
        p = res_p.x
        if self.pop.has_nullspace:
            p = p - float(np.sum(p) / p.size)
        # u = u_f - A^{-1} D^T p
        u = u_f - self._a_inv_dt(p)
        div = float(np.linalg.norm(self.pop.apply_div(u).ravel()))
        return StokesResult(
            u=u,
            p=-p,  # sign convention: momentum reads  (1/Re) A u = B f + D^T p
            pressure_iterations=res_p.iterations,
            velocity_solves=self.velocity_solves,
            divergence_norm=div,
            converged=res_p.converged,
        )
