"""Per-element geometric factors for deformed elements.

Evaluating operators on a deformed element (Eq. 4) needs, at every GLL
node, the Jacobian of the reference-to-physical map ``x^k(r, s[, t])``, its
inverse metrics (``dr/dx`` etc.), and the symmetric tensor

    G_ab = J * (w x w [x w]) * sum_c (d xi_a / d x_c)(d xi_b / d x_c),

which folds the quadrature weights, Jacobian determinant, and metric terms
into ``d(d+1)/2`` diagonal factors — exactly the ``G_ij`` matrices of
Eq. (4).  Everything is computed once per mesh by differentiating the
(isoparametric) coordinate fields with the same tensor-product kernels used
for the solution fields, then stored and reused by every operator
application.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from ..backends.dispatch import apply_1d
from .basis import gll_derivative_matrix
from .mesh import Mesh
from .quadrature import gll_weights

__all__ = ["GeomFactors", "geometric_factors"]


@dataclass
class GeomFactors:
    """Geometric factors of a mesh, all in the batched node layout.

    Attributes
    ----------
    jac:
        Jacobian determinant J at every node (must be positive).
    bm:
        Diagonal mass factors ``B = J * W`` (W = tensor of GLL weights);
        the local diagonal mass matrix of Section 4.
    dxi_dx:
        ``dxi_dx[a][c] = d xi_a / d x_c`` — inverse metrics (a over r,s[,t],
        c over x,y[,z]).
    g:
        Upper-triangle-packed stiffness factors: 2-D order
        ``[G_rr, G_rs, G_ss]``; 3-D order
        ``[G_rr, G_rs, G_rt, G_ss, G_st, G_tt]``.
    wtensor:
        The bare quadrature-weight tensor (without J), kept for operators
        that integrate on the reference element.
    """

    ndim: int
    jac: np.ndarray
    bm: np.ndarray
    dxi_dx: List[List[np.ndarray]]
    g: List[np.ndarray]
    wtensor: np.ndarray

    def g_matrix(self, a: int, b: int) -> np.ndarray:
        """Return ``G_ab`` from the packed upper triangle (symmetric)."""
        if a > b:
            a, b = b, a
        if self.ndim == 2:
            idx = {(0, 0): 0, (0, 1): 1, (1, 1): 2}[(a, b)]
        else:
            idx = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 1): 3, (1, 2): 4, (2, 2): 5}[
                (a, b)
            ]
        return self.g[idx]


def _weight_tensor(order: int, ndim: int) -> np.ndarray:
    w = gll_weights(order)
    if ndim == 2:
        return w[:, None] * w[None, :]
    return w[:, None, None] * w[None, :, None] * w[None, None, :]


def geometric_factors(mesh: Mesh) -> GeomFactors:
    """Compute :class:`GeomFactors` for a mesh by isoparametric differentiation.

    Raises ``ValueError`` if any nodal Jacobian is non-positive (inverted or
    degenerate element) — the standard validity check for deformed meshes.
    """
    d = gll_derivative_matrix(mesh.order)
    wt = _weight_tensor(mesh.order, mesh.ndim)

    def grad(f):  # reference-space gradient (d/dr, d/ds[, d/dt])
        return [apply_1d(d, f, a) for a in range(mesh.ndim)]

    if mesh.ndim == 2:
        x, y = mesh.coords
        xr, xs = grad(x)
        yr, ys = grad(y)
        jac = xr * ys - xs * yr
        if np.any(jac <= 0):
            raise ValueError(
                f"non-positive Jacobian at {int(np.sum(jac <= 0))} nodes; "
                "mesh is inverted or degenerate"
            )
        inv = 1.0 / jac
        rx, ry = ys * inv, -xs * inv
        sx, sy = -yr * inv, xr * inv
        dxi_dx = [[rx, ry], [sx, sy]]
        jw = jac * wt
        g = [
            jw * (rx * rx + ry * ry),
            jw * (rx * sx + ry * sy),
            jw * (sx * sx + sy * sy),
        ]
        return GeomFactors(2, jac, jw, dxi_dx, g, np.broadcast_to(wt, jac.shape))

    x, y, z = mesh.coords
    xr, xs, xt = grad(x)
    yr, ys, yt = grad(y)
    zr, zs, zt = grad(z)
    # Cofactor expansion of the 3x3 Jacobian matrix [d(x,y,z)/d(r,s,t)].
    c_rx = ys * zt - yt * zs
    c_ry = xt * zs - xs * zt
    c_rz = xs * yt - xt * ys
    c_sx = yt * zr - yr * zt
    c_sy = xr * zt - xt * zr
    c_sz = xt * yr - xr * yt
    c_tx = yr * zs - ys * zr
    c_ty = xs * zr - xr * zs
    c_tz = xr * ys - xs * yr
    jac = xr * c_rx + yr * c_ry + zr * c_rz
    if np.any(jac <= 0):
        raise ValueError(
            f"non-positive Jacobian at {int(np.sum(jac <= 0))} nodes; "
            "mesh is inverted or degenerate"
        )
    inv = 1.0 / jac
    rx, ry, rz = c_rx * inv, c_ry * inv, c_rz * inv
    sx, sy, sz = c_sx * inv, c_sy * inv, c_sz * inv
    tx, ty, tz = c_tx * inv, c_ty * inv, c_tz * inv
    dxi_dx = [[rx, ry, rz], [sx, sy, sz], [tx, ty, tz]]
    jw = jac * wt
    g = [
        jw * (rx * rx + ry * ry + rz * rz),
        jw * (rx * sx + ry * sy + rz * sz),
        jw * (rx * tx + ry * ty + rz * tz),
        jw * (sx * sx + sy * sy + sz * sz),
        jw * (sx * tx + sy * ty + sz * tz),
        jw * (tx * tx + ty * ty + tz * tz),
    ]
    return GeomFactors(3, jac, jw, dxi_dx, g, np.broadcast_to(wt, jac.shape))
