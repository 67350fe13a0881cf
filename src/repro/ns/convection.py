"""Convection operator and OIFS sub-integration (Section 4).

The paper expresses the convective term as a material derivative and
sub-integrates it explicitly: the BDF history fields ``u~^{n-q}`` are the
solutions *at* ``t^n`` of the pure convection problem

    dv/ds = -(w . grad) v,   v(t^{n-q}) = u^{n-q},

with the advecting field ``w(s)`` interpolated in time from known velocity
levels (Maday-Patera-Ronquist operator-integration-factor splitting,
ref. [19]).  "The subintegration of the convection term permits values of
dt corresponding to convective CFL numbers of 1-5, thus significantly
reducing the number of (expensive) Stokes solves."

Also provided: the plain pointwise convection operator (for extrapolated
explicit treatment, CFL <~ 0.5) and the CFL diagnostic that sizes the RK4
substeps.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import numpy as np

from ..core.assembly import Assembler
from ..core.basis import gll_derivative_matrix
from ..core.element import GeomFactors
from ..core.mesh import Mesh
from ..core.quadrature import gll_points
from ..core.tensor import grad_2d, grad_3d
from ..perf.flops import add_flops

__all__ = ["Convection", "courant_number"]


def courant_number(mesh: Mesh, geom: GeomFactors, u: np.ndarray, dt: float) -> float:
    """Convective CFL ``dt * max |u_xi| / dxi`` on the GLL grid.

    Computed in reference coordinates (velocity contracted with the metric,
    divided by the local GLL spacing), the standard SEM definition.
    """
    x = gll_points(mesh.order)
    dx_min = np.min(np.diff(x))
    nd = mesh.ndim
    speed = np.zeros(mesh.local_shape)
    for a in range(nd):
        u_ref = sum(geom.dxi_dx[a][c] * u[c] for c in range(nd))
        speed = np.maximum(speed, np.abs(u_ref))
    return float(dt * speed.max() / dx_min)


class Convection:
    """Pointwise convection ``(u . grad) v`` and its OIFS sub-integrator."""

    def __init__(self, mesh: Mesh, geom: GeomFactors, assembler: Assembler):
        self.mesh = mesh
        self.geom = geom
        self.assembler = assembler
        self.d = gll_derivative_matrix(mesh.order)

    # ------------------------------------------------------------- operator
    def grad_phys(self, v: np.ndarray) -> List[np.ndarray]:
        """Physical gradient ``(dv/dx, dv/dy[, dv/dz])`` of a scalar field."""
        nd = self.mesh.ndim
        g = grad_2d(self.d, v) if nd == 2 else grad_3d(self.d, v)
        out = []
        for c in range(nd):
            acc = self.geom.dxi_dx[0][c] * g[0]
            for a in range(1, nd):
                acc += self.geom.dxi_dx[a][c] * g[a]
            out.append(acc)
        add_flops((2 * nd - 1) * nd * v.size, "pointwise")
        return out

    def advect(self, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``(w . grad) v`` pointwise on the GLL grid (collocated form), for
        one field ``v`` or each field of a stack ``(m, K, n...)``.

        A stack runs one field at a time, which keeps each pass's working
        set at one field's size.
        """
        nd = self.mesh.ndim
        out = np.empty(v.shape)
        shape = (-1,) + self.mesh.local_shape
        for f, o in zip(v.reshape(shape), out.reshape(shape)):
            g = self.grad_phys(f)
            np.multiply(w[0], g[0], out=o)
            for c in range(1, nd):
                o += w[c] * g[c]
        add_flops((2 * nd - 1) * v.size, "pointwise")
        return out

    # ---------------------------------------------------------------- OIFS
    def oifs_integrate(
        self,
        v0: np.ndarray,
        w_of_t: Callable[[float], np.ndarray],
        t_start: float,
        t_end: float,
        n_steps: int,
        boundary_fix: Optional[Callable[[np.ndarray, float], np.ndarray]] = None,
    ) -> np.ndarray:
        """Integrate ``dv/ds = -(w(s) . grad) v`` from ``t_start`` to ``t_end``.

        ``v0`` is a stack ``(m, K, n...)`` of fields (e.g. the velocity),
        all advected together.  RK4 with ``n_steps`` substeps; ``w_of_t``
        supplies the (time interpolated) advecting velocity.  After each
        substep the fields are made C0 by averaging — the collocated
        convection operator is evaluated element-locally.

        ``boundary_fix(fields, t)`` re-imposes Dirichlet data after each
        substep: required for through-flow boundaries, where incoming
        characteristics must carry the boundary values (walls and periodic
        directions need no fix).

        Returns the advected fields at ``t_end`` — the ``u~`` of Section 4.
        """
        if n_steps < 1:
            raise ValueError("need at least one RK4 substep")
        h = (t_end - t_start) / n_steps
        v = np.array(v0, dtype=float)
        for s in range(n_steps):
            t = t_start + s * h
            v = self.assembler.dsavg(self._rk4_step(v, w_of_t, t, h))
            if boundary_fix is not None:
                v = boundary_fix(v, t + h)
        return v

    def _rk4_step(self, v, w_of_t, t, h):
        def rhs(fields, tt):
            return -self.advect(w_of_t(tt), fields)

        k1 = rhs(v, t)
        k2 = rhs(v + 0.5 * h * k1, t + 0.5 * h)
        k3 = rhs(v + 0.5 * h * k2, t + 0.5 * h)
        k4 = rhs(v + h * k3, t + h)
        add_flops(9.0 * v.size, "pointwise")
        return v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

