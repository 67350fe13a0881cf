"""The PN-PN-2 staggered pressure discretization (Section 4).

Velocity lives on the (N+1)^d GLL grid; pressure lives on the (N-1)^d
interior Gauss-Legendre grid, with no continuity constraint (the pressure
space is discontinuous across elements).  The discrete operators are

* ``D``   — weak divergence, velocity -> pressure grid:
  ``(D u)_q = integral q (div u)`` evaluated by GL quadrature,
* ``D^T`` — its exact adjoint (weak gradient), pressure -> velocity grid,
* ``E = D B^{-1} D^T`` — the Stokes Schur complement ("consistent Poisson
  operator") governing the pressure, with ``B`` the *assembled* diagonal
  velocity mass matrix restricted to unconstrained velocity dofs.

Deformed geometry enters through the Jacobian cofactors ``J * d(xi_a)/d(x_c)``
interpolated to the GL grid — cofactors (not metrics) because they are
polynomial in the element coordinates and hence interpolated exactly for
isoparametric geometry.

``E`` is SPD on the orthogonal complement of its nullspace (constant
pressure, for enclosed or fully periodic flows) and is the system the
additive Schwarz preconditioner of Section 5 targets.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..backends.base import Workspace
from ..backends.dispatch import apply_tensor, stage_plan
from ..obs.trace import trace
from ..perf.flops import add_flops
from .assembly import Assembler, DirichletMask
from .basis import gl_to_gll_matrix, gll_derivative_matrix, gll_to_gl_matrix
from .element import GeomFactors, geometric_factors
from .mesh import Mesh
from .quadrature import gl_weights

__all__ = ["PressureOperator"]


def _check_shape(what: str, got: Tuple[int, ...], expected: Tuple[int, ...]) -> None:
    if tuple(got) != tuple(expected):
        raise ValueError(f"{what} has shape {tuple(got)}, expected {tuple(expected)}")


class PressureOperator:
    """Divergence / gradient / consistent-Poisson operators on PN-PN-2 grids.

    Parameters
    ----------
    mesh:
        Velocity mesh (order N >= 2).
    vel_mask:
        Dirichlet mask of the velocity space (nodes where velocity is
        prescribed); defines which dofs participate in ``B^{-1}``.  Defaults
        to all physical boundary sides (enclosed flow).
    assembler, geom:
        Optional shared assembler and geometric factors.
    """

    def __init__(
        self,
        mesh: Mesh,
        vel_mask: Optional[DirichletMask] = None,
        assembler: Optional[Assembler] = None,
        geom: Optional[GeomFactors] = None,
    ):
        if mesh.order < 2:
            raise ValueError("PN-PN-2 needs velocity order N >= 2")
        self.mesh = mesh
        self.n = mesh.order
        self.m = mesh.order - 1  # GL points per direction on the pressure grid
        self.assembler = assembler if assembler is not None else Assembler.for_mesh(mesh)
        self.geom = geom if geom is not None else geometric_factors(mesh)
        if vel_mask is None:
            if mesh.boundary:
                vel_mask = DirichletMask(mesh.boundary_mask())
            else:
                vel_mask = DirichletMask.none(mesh.local_shape)
        self.vel_mask = vel_mask

        self.d = gll_derivative_matrix(self.n)
        self.j_down = np.asarray(gll_to_gl_matrix(self.n, self.m))  # GLL -> GL
        # The fused derivative-then-interpolant JD = J D of the D stage tree,
        # and the transposes D^T runs, stored contiguous so dispatch never
        # copies them.
        self.jd = self.j_down @ np.asarray(self.d)
        self._jt = np.ascontiguousarray(self.j_down.T)
        self._jdt = np.ascontiguousarray(self.jd.T)
        self._ws = Workspace()  # hot-path scratch (D / D^T / E applies)

        nd = mesh.ndim
        #: pressure-grid field shape
        self.p_shape = (mesh.K,) + (self.m,) * nd
        # Quadrature weight tensor on the GL grid.
        w = gl_weights(self.m)
        if nd == 2:
            self.w_gl = w[:, None] * w[None, :]
        else:
            self.w_gl = w[:, None, None] * w[None, :, None] * w[None, None, :]
        # Cofactors J * dxi_a/dx_c interpolated to the GL grid, pre-multiplied
        # by the GL weights: wcof[a, c], shape (nd, nd) + p_shape.
        down = [self.j_down] * nd
        self.wcof = np.empty((nd, nd) + self.p_shape)
        for a in range(nd):
            for c in range(nd):
                cof = apply_tensor(down, self.geom.dxi_dx[a][c] * self.geom.jac)
                np.multiply(self.w_gl, cof, out=self.wcof[a, c])
        # Pressure-grid mass (for means / norms): J on GL grid times weights.
        self.bm_p = self.w_gl * apply_tensor(down, self.geom.jac)
        # Assembled velocity mass, masked inverse (zero on constrained dofs).
        ba = self.assembler.dssum(self.geom.bm)
        inv = self.vel_mask.apply(1.0 / ba)
        self._inv_mass = inv
        # Nullspace: constant pressure iff no velocity dof escapes the mask
        # (enclosed or fully periodic flow -> compatibility condition).
        self.has_nullspace = self._detect_nullspace()

    # ------------------------------------------------------------------ basics
    def _detect_nullspace(self) -> bool:
        """Constant-pressure nullspace check: ||E 1|| ~ 0."""
        ones = np.ones(self.p_shape)
        r = self.apply_e(ones)
        scale = float(np.max(np.abs(self.bm_p)))
        return float(np.max(np.abs(r))) < 1e-8 * max(scale, 1.0)

    def pressure_field(self, fill: float = 0.0) -> np.ndarray:
        """Allocate a pressure-grid field."""
        return np.full(self.p_shape, fill, dtype=float)

    def interp_to_pressure(self, u: np.ndarray) -> np.ndarray:
        """Interpolate a velocity-grid field to the pressure (GL) grid."""
        return apply_tensor([self.j_down] * self.mesh.ndim, u)

    def interp_to_velocity(self, p: np.ndarray) -> np.ndarray:
        """Interpolate a pressure-grid field to the velocity (GLL) grid."""
        up = np.asarray(gl_to_gll_matrix(self.m, self.n))
        return apply_tensor([up] * self.mesh.ndim, p)

    def mean(self, p: np.ndarray) -> float:
        """Mass-weighted mean of a pressure field over the domain."""
        add_flops(2 * p.size, "dot")
        return float(np.sum(self.bm_p * p) / np.sum(self.bm_p))

    def remove_mean(self, p: np.ndarray) -> np.ndarray:
        """Project out the constant nullspace component."""
        return p - self.mean(p)

    def dot(self, p: np.ndarray, q: np.ndarray) -> float:
        """Plain inner product (pressure dofs are unique — no multiplicity)."""
        add_flops(2 * p.size, "dot")
        return float(np.sum(p * q))

    def norm(self, p: np.ndarray) -> float:
        return float(np.sqrt(max(self.dot(p, p), 0.0)))

    # ----------------------------------------------------------- D and D^T
    def apply_div(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Weak divergence ``D u``: velocity ``(nd, K, n...)`` -> pressure grid.

        ``(D u)_lm = sum_c integral_ref q_lm sum_a cof[a][c] d(u_c)/d(xi_a)``
        with the integral evaluated by GL quadrature on the pressure grid.
        Per component, the terms ``G_a u_c`` (derivative along ``a``, GLL ->
        GL interpolation along every direction) form one stage tree: the
        fused ``JD = J D`` along ``a``, and the interpolant along the slower
        directions shared by the terms below it.  In 3-D
        ``G_t = J_r J_s JD_t u``, ``G_s = J_r JD_s (J_t u)`` and
        ``G_r = JD_r J_s (J_t u)``: 8 stages instead of 12 plus 3
        derivatives.  All contractions run as this thread's bound stage
        plan (:class:`repro.backends.dispatch.StagePlan`); scratch comes
        from the operator's workspace (``out`` is overwritten).
        """
        nd = self.mesh.ndim
        # The plan's first stages read u[c]: one sanitize per apply.
        u = np.ascontiguousarray(u, dtype=np.float64)
        _check_shape("u", u.shape, (nd,) + self.mesh.local_shape)
        if out is None:
            out = np.empty(self.p_shape)
        _check_shape("out", out.shape, self.p_shape)
        out.fill(0.0)
        plan = stage_plan(self._ws, "div")
        g = self._ws.get("div_g", (nd,) + self.p_shape)
        for c in range(nd):
            part = u[c]
            for a in reversed(range(nd)):
                v = part
                for b in reversed(range(a + 1)):
                    v = plan.stage("div_stage", self.jd if b == a else self.j_down,
                                   v, b, out=g[a] if b == 0 else None)
                if a > 0:
                    part = plan.stage("div_part", self.j_down, part, a)
            # c outer, a inner: this summation order is load-bearing for
            # the pressure iteration counts.
            for a in range(nd):
                g[a] *= self.wcof[a, c]
                out += g[a]
        plan.finish()
        add_flops(2 * nd * nd * out.size, "pointwise")
        return out

    def apply_div_t(self, p: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Weak gradient ``D^T p``: pressure grid -> velocity ``(nd, K, n...)``.

        Exact transpose of :func:`apply_div` w.r.t. the plain local inner
        products on both grids (verified by the adjoint unit tests): the
        mirror of its stage tree.  With ``q_a = wcof[a][c] p``, component
        ``c`` is in 3-D
        ``J_t^T (J_s^T JD_r^T q_0 + JD_s^T J_r^T q_1) + JD_t^T J_s^T J_r^T q_2``,
        summed over ``a`` in ascending order (load-bearing, as in
        :func:`apply_div`).  The result is a *local* (unassembled)
        velocity-space vector.  ``out`` (a velocity stack, overwritten)
        makes the call allocation-free.
        """
        nd = self.mesh.ndim
        vshape = (nd,) + self.mesh.local_shape
        _check_shape("p", np.shape(p), self.p_shape)
        if out is None:
            out = np.empty(vshape)
        _check_shape("out", out.shape, vshape)
        # The plan's last lifts write out[c]: one check per apply.
        if out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError("out must be a C-contiguous float64 array")
        plan = stage_plan(self._ws, "div_t")
        q = self._ws.get("divt_q", self.p_shape)
        for c in range(nd):
            for a in range(nd):
                v = np.multiply(self.wcof[a, c], p, out=q)
                for b in range(a + 1):
                    v = plan.stage("divt_stage", self._jdt if b == a else self._jt, v, b)
                if a == 0:
                    acc = v
                else:
                    acc += v
                if a + 1 < nd:
                    # Lift the partial sum along the next direction; the
                    # last lift lands in the result.
                    acc = plan.stage("divt_acc", self._jt, acc, a + 1,
                                     out=out[c] if a + 2 == nd else None)
        plan.finish()
        add_flops(nd * nd * p.size, "pointwise")
        return out

    # ----------------------------------------------------------------- E
    def apply_binv(self, w: np.ndarray) -> np.ndarray:
        """Masked assembled inverse mass: local -> continuous velocity stack."""
        return self.assembler.dssum(w) * self._inv_mass

    def apply_e(self, p: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Consistent Poisson operator ``E p = D B^{-1} D^T p``.

        The E-solve hot path: all intermediates live in the operator
        workspace, so per-iteration applies allocate nothing once the pool
        is warm (pass ``out`` to avoid the final allocation too).  The
        ``nd`` components share one gather-scatter.
        """
        ws = self._ws
        vshape = (self.mesh.ndim,) + self.mesh.local_shape
        w = self.apply_div_t(p, out=ws.get("e_w", vshape))
        v = self.assembler.dssum(w, out=ws.get("e_v", vshape))
        np.multiply(v, self._inv_mass, out=w)
        add_flops(2 * w.size, "pointwise")
        return self.apply_div(w, out=out)

    def matvec(self, p: np.ndarray) -> np.ndarray:
        """Solver-facing matvec; pins the nullspace by mean-projection."""
        with trace("e_apply"):
            out = self.apply_e(p)
            if self.has_nullspace:
                out -= float(np.sum(out) / out.size)
            return out
