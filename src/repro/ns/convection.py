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

from ..backends.base import Workspace
from ..backends.dispatch import apply_1d, stage_plan
from ..core.assembly import Assembler
from ..core.basis import gll_derivative_matrix
from ..core.element import GeomFactors
from ..core.mesh import Mesh
from ..core.quadrature import gll_points
from ..perf.flops import add_flops

__all__ = ["Convection", "courant_number", "physical_gradient"]

#: workspace scratch of the OIFS gradient's stages, one per direction.
_GRAD_NAMES = ("grad_r", "grad_s", "grad_t")


def _contract(geom: GeomFactors, w: np.ndarray) -> np.ndarray:
    """The ``(nd, K, n...)`` stack ``W_a = sum_c dxi_dx[a][c] w_c``."""
    out = np.empty((geom.ndim,) + np.shape(w[0]))
    for a, row in enumerate(geom.dxi_dx):
        np.multiply(row[0], w[0], out=out[a])
        for c in range(1, geom.ndim):
            out[a] += row[c] * w[c]
    return out


def physical_gradient(d: np.ndarray, geom: GeomFactors, v: np.ndarray) -> List[np.ndarray]:
    """Physical gradient ``(dv/dx, dv/dy[, dv/dz])`` of a scalar field, with
    ``d`` the 1-D GLL derivative matrix."""
    nd, x = geom.ndim, geom.dxi_dx
    g = [apply_1d(d, v, a) for a in range(nd)]
    add_flops((2 * nd - 1) * nd * v.size, "pointwise")
    return [sum((x[a][c] * g[a] for a in range(1, nd)), x[0][c] * g[0]) for c in range(nd)]


def courant_number(mesh: Mesh, geom: GeomFactors, u: np.ndarray, dt: float) -> float:
    """Convective CFL ``dt * max |u_xi| / dxi`` on the GLL grid.

    Computed in reference coordinates (velocity contracted with the metric,
    divided by the local GLL spacing), the standard SEM definition.
    """
    dx_min = np.min(np.diff(gll_points(mesh.order)))
    return float(dt * np.abs(_contract(geom, u)).max() / dx_min)


class Convection:
    """Pointwise convection ``(u . grad) v`` and its OIFS sub-integrator, both
    in reference coordinates: ``(w . grad) v = sum_a W_a dv/dxi_a`` with
    ``W = contravariant(w)`` formed once per advecting field."""

    def __init__(self, mesh: Mesh, geom: GeomFactors, assembler: Assembler):
        self.mesh = mesh
        self.geom = geom
        self.assembler = assembler
        self.d = gll_derivative_matrix(mesh.order)
        self._ws = Workspace()

    # ------------------------------------------------------------- operator
    def grad_phys(self, v: np.ndarray) -> List[np.ndarray]:
        """Physical gradient ``(dv/dx, dv/dy[, dv/dz])`` of a scalar field."""
        return physical_gradient(self.d, self.geom, v)

    def contravariant(self, w: np.ndarray) -> np.ndarray:
        """Reference-coordinate velocity ``W_a = sum_c dxi_a/dx_c w_c``."""
        nd = self.mesh.ndim
        add_flops((2 * nd - 1) * nd * np.size(w[0]), "pointwise")
        return _contract(self.geom, w)

    def advect(self, w: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``(w . grad) v`` pointwise on the GLL grid (collocated form), for
        one field ``v`` or each field of a stack ``(m, K, n...)``."""
        return self._advect_ref(self.contravariant(w), v, np.empty(v.shape))

    def _advect_ref(self, wr: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``sum_a W_a dv/dxi_a`` into ``out``, one field at a time, which
        keeps each pass's working set at one field's size.  Each field's
        ``nd`` derivatives run as this thread's bound stage plan
        (:class:`repro.backends.dispatch.StagePlan`) into workspace
        scratch."""
        nd = self.mesh.ndim
        shape = self.mesh.local_shape
        # The plan's stages read v: one sanitize and check per apply.
        v = np.ascontiguousarray(v, dtype=np.float64)
        if v.shape[-len(shape):] != shape or v.ndim > len(shape) + 1:
            raise ValueError(
                f"v has shape {v.shape}, expected {shape} or (m,) + {shape}"
            )
        for f, o in zip(v.reshape((-1,) + shape), out.reshape((-1,) + shape)):
            plan = stage_plan(self._ws, "grad")
            g = [plan.stage(_GRAD_NAMES[a], self.d, f, a) for a in range(nd)]
            plan.finish()
            np.multiply(wr[0], g[0], out=o)
            for a in range(1, nd):
                np.multiply(wr[a], g[a], out=g[a])
                o += g[a]
        add_flops((2 * nd - 1) * v.size, "pointwise")
        return out

    # ---------------------------------------------------------------- OIFS
    def oifs_integrate(
        self,
        v0: np.ndarray,
        wr_of_t: Callable[[float], np.ndarray],
        t_start: float,
        t_end: float,
        n_steps: int,
        boundary_fix: Optional[Callable[[np.ndarray, float], np.ndarray]] = None,
    ) -> np.ndarray:
        """Integrate ``dv/ds = -(w(s) . grad) v`` from ``t_start`` to ``t_end``.

        ``v0`` is a stack ``(m, K, n...)`` of fields (e.g. the velocity),
        all advected together.  RK4 with ``n_steps`` substeps; ``wr_of_t(s)``
        supplies the (time interpolated) advecting field in reference
        coordinates, ``W(s) = contravariant(w(s))``, once per distinct stage
        time (``t``, ``t + h/2``, ``t + h``), and is only read.  After each
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
        # acc sums the slopes a = -k as ((a1 + 2 a2) + 2 a3) + a4; the RK
        # multipliers carry the minus sign.
        acc, k, arg = np.empty_like(v), np.empty_like(v), np.empty_like(v)
        w0 = wr_of_t(t_start)
        for s in range(n_steps):
            t = t_start + s * h
            w_half, w1 = wr_of_t(t + 0.5 * h), wr_of_t(t + h)
            self._advect_ref(w0, v, acc)
            np.multiply(acc, -0.5 * h, out=arg)
            arg += v
            self._advect_ref(w_half, arg, k)
            np.multiply(k, -0.5 * h, out=arg)
            arg += v
            k *= 2.0
            acc += k
            self._advect_ref(w_half, arg, k)
            np.multiply(k, -h, out=arg)
            arg += v
            k *= 2.0
            acc += k
            self._advect_ref(w1, arg, k)
            acc += k
            acc *= -(h / 6.0)
            acc += v
            add_flops(9.0 * v.size, "pointwise")
            v = self.assembler.dsavg(acc)
            if boundary_fix is not None:
                v = boundary_fix(v, t + h)
            w0 = w1
        return v
