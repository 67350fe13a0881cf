"""Flow diagnostics: wall quantities, forces, and budgets.

The comparative numerical/experimental studies motivating the paper
(hairpin vortices, heat-transfer augmentation, convection cells) are
consumed through integral and wall quantities; this module computes the
standard set from SEM fields:

* wall shear and (pressure + viscous) force on a boundary side,
* kinetic-energy / enstrophy / dissipation integrals,
* divergence and mass-flux checks.

Surface integrals use the GLL quadrature of the boundary faces with the
exact surface Jacobian of the (possibly deformed) geometry.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..core.basis import gll_derivative_matrix
from ..core.element import GeomFactors
from ..core.mesh import Mesh
from ..core.quadrature import gll_weights
from .convection import physical_gradient

__all__ = ["FlowDiagnostics"]

# Map side name -> (direction index a, side 0/1).
_SIDE_DIR = {
    "xmin": (0, 0), "xmax": (0, 1),
    "ymin": (1, 0), "ymax": (1, 1),
    "zmin": (2, 0), "zmax": (2, 1),
}


class FlowDiagnostics:
    """Diagnostic engine bound to one mesh/geometry."""

    def __init__(self, mesh: Mesh, geom: GeomFactors):
        self.mesh = mesh
        self.geom = geom
        self.d = gll_derivative_matrix(mesh.order)
        self.w1 = gll_weights(mesh.order)

    # --------------------------------------------------------------- volume
    def grad_phys(self, v: np.ndarray) -> List[np.ndarray]:
        return physical_gradient(self.d, self.geom, v)

    def integrate(self, f: np.ndarray) -> float:
        return float(np.sum(self.geom.bm * f))

    def kinetic_energy(self, u: Sequence[np.ndarray]) -> float:
        return 0.5 * self.integrate(sum(np.asarray(c) ** 2 for c in u))

    def enstrophy(self, u: Sequence[np.ndarray]) -> float:
        """``1/2 integral |omega|^2`` (2-D: scalar vorticity)."""
        if self.mesh.ndim == 2:
            gu, gv = self.grad_phys(u[0]), self.grad_phys(u[1])
            w = gv[0] - gu[1]
            return 0.5 * self.integrate(w * w)
        g = [self.grad_phys(np.asarray(c)) for c in u]
        wx = g[2][1] - g[1][2]
        wy = g[0][2] - g[2][0]
        wz = g[1][0] - g[0][1]
        return 0.5 * self.integrate(wx * wx + wy * wy + wz * wz)

    def dissipation(self, u: Sequence[np.ndarray], nu: float) -> float:
        """Viscous dissipation ``nu integral |grad u|^2``."""
        acc = 0.0
        for c in u:
            g = self.grad_phys(np.asarray(c))
            acc += self.integrate(sum(gc * gc for gc in g))
        return nu * acc

    # -------------------------------------------------------------- surface
    def _surface_terms(self, side: str):
        """Per-face quadrature data for one boundary side.

        Returns (element ids, face slices, outward unit normals, surface
        Jacobian-weighted quadrature weights) with arrays over face nodes.
        """
        if side not in self.mesh.boundary:
            raise KeyError(f"side {side!r} not on this mesh")
        a, hi = _SIDE_DIR[side]
        nd = self.mesh.ndim
        axis = nd - 1 - a  # array axis of direction a (after element axis)
        idx = -1 if hi else 0
        face_mask = self.mesh.boundary[side]
        elems = np.nonzero(face_mask.reshape(self.mesh.K, -1).any(axis=1))[0]
        sl = [slice(None)] * nd
        sl[axis] = idx
        face_slice = (elems,) + tuple(sl)

        # Outward normal ~ sign * grad(xi_a) / |grad(xi_a)|; surface Jacobian
        # = J * |grad(xi_a)| (the standard coarea factor).
        sign = 1.0 if hi else -1.0
        grad_xi = [self.geom.dxi_dx[a][c][face_slice] for c in range(nd)]
        mag = np.sqrt(sum(g * g for g in grad_xi))
        normals = [sign * g / mag for g in grad_xi]
        jac_s = self.geom.jac[face_slice] * mag
        # Tensor of GLL weights over the remaining directions.
        if nd == 2:
            wts = self.w1[None, :]
        else:
            wts = self.w1[None, :, None] * self.w1[None, None, :]
        return face_slice, normals, jac_s * wts

    def surface_integral(self, f: np.ndarray, side: str) -> float:
        """``integral_side f dS`` of a nodal field."""
        face_slice, _, wj = self._surface_terms(side)
        return float(np.sum(f[face_slice] * wj))

    def area(self, side: str) -> float:
        face_slice, _, wj = self._surface_terms(side)
        return float(np.sum(wj))

    def mass_flux(self, u: Sequence[np.ndarray], side: str) -> float:
        """``integral_side u . n dS`` (outward positive)."""
        face_slice, normals, wj = self._surface_terms(side)
        un = sum(np.asarray(u[c])[face_slice] * normals[c]
                 for c in range(self.mesh.ndim))
        return float(np.sum(un * wj))

    def wall_shear(self, u: Sequence[np.ndarray], side: str, nu: float) -> float:
        """Mean tangential viscous traction magnitude on a wall."""
        face_slice, normals, wj = self._surface_terms(side)
        nd = self.mesh.ndim
        grads = [self.grad_phys(np.asarray(c)) for c in u]
        # traction t_i = nu * (du_i/dx_j) n_j  (simplified stress form)
        trac = []
        for i in range(nd):
            ti = sum(grads[i][j][face_slice] * normals[j] for j in range(nd))
            trac.append(nu * ti)
        tn = sum(trac[i] * normals[i] for i in range(nd))
        tang = [trac[i] - tn * normals[i] for i in range(nd)]
        mag = np.sqrt(sum(t * t for t in tang))
        area = float(np.sum(wj))
        return float(np.sum(mag * wj)) / area

    def force(
        self,
        u: Sequence[np.ndarray],
        p_on_velocity_grid: np.ndarray,
        side: str,
        nu: float,
    ) -> np.ndarray:
        """Total (pressure + viscous) force on a boundary side.

        ``p_on_velocity_grid`` is the pressure interpolated to the GLL grid
        (use ``PressureOperator.interp_to_velocity``).  Uses the simplified
        stress ``sigma = -p I + nu grad u``.
        """
        face_slice, normals, wj = self._surface_terms(side)
        nd = self.mesh.ndim
        grads = [self.grad_phys(np.asarray(c)) for c in u]
        pf = np.asarray(p_on_velocity_grid)[face_slice]
        out = np.zeros(nd)
        for i in range(nd):
            visc = sum(grads[i][j][face_slice] * normals[j] for j in range(nd))
            ti = -pf * normals[i] + nu * visc
            out[i] = float(np.sum(ti * wj))
        return out

    # --------------------------------------------------------------- budgets
    def energy_budget(
        self, u: Sequence[np.ndarray], nu: float,
        forcing: Sequence[np.ndarray] = None,
    ) -> Dict[str, float]:
        """KE, dissipation, and forcing power (dKE/dt ~ P - eps for enclosed
        flow) — the standard sanity budget."""
        out = {
            "kinetic_energy": self.kinetic_energy(u),
            "dissipation": self.dissipation(u, nu),
            "enstrophy": self.enstrophy(u),
        }
        if forcing is not None:
            out["forcing_power"] = self.integrate(
                sum(np.asarray(u[c]) * np.asarray(forcing[c])
                    for c in range(self.mesh.ndim))
            )
        return out
