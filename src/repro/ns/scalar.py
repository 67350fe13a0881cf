"""Scalar (temperature / species) transport and Boussinesq coupling.

The production code "supports a broad range of boundary conditions for
hydrodynamics and multiple-species transport" (Section 1): scalars obey

    dT/dt + u . grad T = (1/Pe) lap T + q,

discretized exactly like one velocity component (BDFk in time, explicit
extrapolated or OIFS-sub-integrated advection, Jacobi-PCG Helmholtz solve),
sharing the velocity solver's geometry, assembler, and filter.

:class:`BoussinesqCoupling` closes the loop for the buoyancy-driven
convection workloads (the Fig. 1 GFFC simulation; our Fig. 4 stand-in):
the scalar adds a body force ``g * Ra/ (Re^2 Pr)``-style term to the
momentum equations each step.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from ..core.operators import HelmholtzOperator, SEMSystem
from ..obs.trace import trace
from ..solvers.cg import SolveFailure, pcg
from ..solvers.jacobi import jacobi_preconditioner
from .bcs import ScalarBC
from .navier_stokes import BDF_COEFFS, EXT_COEFFS, NavierStokesSolver

__all__ = ["ScalarTransport", "BoussinesqCoupling"]


class ScalarTransport:
    """Advection-diffusion of one scalar riding on a Navier-Stokes solver.

    Parameters
    ----------
    flow:
        The velocity solver supplying mesh, geometry, and the advecting
        field (call :meth:`step` right after ``flow.step()``).
    peclet:
        Peclet number (diffusivity = 1/Pe).
    bc:
        Scalar Dirichlet conditions (unconstrained sides are adiabatic).
    source:
        Optional volumetric source ``q(x, y[, z], t)``.
    """

    def __init__(
        self,
        flow: NavierStokesSolver,
        peclet: float,
        bc: Optional[ScalarBC] = None,
        source: Optional[Callable] = None,
        use_filter: bool = True,
    ):
        if peclet <= 0:
            raise ValueError("need peclet > 0")
        self.flow = flow
        self.mesh = flow.mesh
        self.peclet = float(peclet)
        self.bc = bc if bc is not None else ScalarBC(flow.mesh, {})
        self.source = source
        self.use_filter = use_filter
        self.T = flow.mesh.field()
        self._hist: List[np.ndarray] = []
        self._adv_hist: List[np.ndarray] = []
        self._helmholtz = {}
        self.iterations: List[int] = []

    def set_initial_condition(self, T0) -> None:
        if callable(T0):
            self.T = self.mesh.eval_function(T0)
        else:
            self.T = np.asarray(T0, dtype=float).copy()
        self.T = self.flow.assembler.dsavg(self.T)
        self.T = self.bc.apply_to(self.T, self.flow.t)
        self._hist = []
        self._adv_hist = []

    def _helm_for(self, order: int):
        """The scalar Helmholtz system of BDF ``order`` and its Jacobi
        preconditioner (built on first use)."""
        if order not in self._helmholtz:
            beta0, _ = BDF_COEFFS[order]
            op = HelmholtzOperator(
                self.mesh,
                h1=1.0 / self.peclet,
                h0=beta0 / self.flow.dt,
                geom=self.flow.geom,
            )
            system = SEMSystem(self.mesh, self.flow.assembler, self.bc.mask,
                               op.apply, op.diagonal)
            self._helmholtz[order] = (system, jacobi_preconditioner(system))
        return self._helmholtz[order]

    def step(self) -> int:
        """Advance the scalar by one flow timestep; returns CG iterations.

        Uses the velocity at the *new* time level (call after
        ``flow.step()``) with extrapolated explicit advection.  A failed
        solve raises :class:`~repro.solvers.cg.SolveFailure` with ``step``
        set to that flow timestep.
        """
        flow = self.flow
        dt = flow.dt
        order = min(flow.scheme, len(self._hist) + 1)
        beta0, betas = BDF_COEFFS[order]

        self._hist.insert(0, self.T.copy())
        self._adv_hist.insert(0, -flow.conv.advect(flow.u, self.T))
        keep = flow.scheme
        del self._hist[keep:], self._adv_hist[keep:]

        rhs = np.zeros(self.mesh.local_shape)
        for q, bq in enumerate(betas, start=1):
            if q <= len(self._hist):
                rhs += (bq / dt) * self._hist[q - 1]
        for q, gq in enumerate(EXT_COEFFS[order], start=1):
            if q <= len(self._adv_hist):
                rhs += gq * self._adv_hist[q - 1]
        if self.source is not None:
            rhs = rhs + np.broadcast_to(
                np.asarray(
                    self.source(*[np.asarray(x) for x in self.mesh.coords], flow.t),
                    dtype=float,
                ),
                self.mesh.local_shape,
            )

        system, precond = self._helm_for(order)
        t_bound = self.bc.lift(flow.t)
        rhs_local = flow.mass.apply(rhs) - system.op_local(t_bound)
        try:
            with trace("scalar"):
                res = pcg(
                    system.matvec,
                    system.rhs(rhs_local),
                    dot=system.dot,
                    precond=precond,
                    x0=self.bc.mask.apply(self.T - t_bound),
                    tol=0.0,
                    rtol=1e-10,
                    maxiter=2000,
                    label="scalar",
                )
            if not res.converged:
                raise SolveFailure.unconverged("scalar Helmholtz solve", res, "scalar")
        except SolveFailure as exc:
            raise exc.at_step(flow.step_count)
        self.T = res.x + t_bound
        if self.use_filter and flow.filter is not None:
            self.T = flow.filter(self.T)
            self.T = self.bc.apply_to(self.T, flow.t)
        self.iterations.append(res.iterations)
        return res.iterations


class BoussinesqCoupling:
    """Buoyancy forcing ``f = buoyancy * T * g_hat`` for natural convection.

    Drive a coupled step as::

        coupling = BoussinesqCoupling(flow, transport, buoyancy=Ra/(Pr), g_dir=(0, 1))
        coupling.step()   # advances velocity (with buoyancy) then temperature
    """

    def __init__(
        self,
        flow: NavierStokesSolver,
        transport: ScalarTransport,
        buoyancy: float,
        g_dir: Sequence[float] = None,
    ):
        self.flow = flow
        self.transport = transport
        self.buoyancy = float(buoyancy)
        nd = flow.mesh.ndim
        g = np.asarray(g_dir if g_dir is not None else [0.0] * (nd - 1) + [1.0], float)
        if g.shape != (nd,):
            raise ValueError(f"g_dir must have {nd} components")
        self.g_dir = g

    def step(self):
        """One coupled (velocity, temperature) step; returns both stats."""
        forcing = np.multiply.outer(self.buoyancy * self.g_dir, self.transport.T)
        flow_stats = self.flow.step(extra_forcing=forcing)
        scalar_iters = self.transport.step()
        return flow_stats, scalar_iters
