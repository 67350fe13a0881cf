"""Matrix-free spectral element operators (Section 3, Eq. 2-4).

Every operator here acts on *local* batched fields ``(K, [n,] n, n)`` and
returns local (unassembled) results; callers compose with
``Assembler.dssum`` and a ``DirichletMask`` to obtain the action of the
assembled global operator.  No operator matrix is ever formed — per the
paper, storing ``A^k`` explicitly would cost O(N^6) per element versus the
O(N^3) storage and ``12 N^4 + 15 N^3`` work of the factored form (Eq. 4).

Operators:

* :class:`MassOperator`       — diagonal ``B`` (Jacobian-weighted quadrature),
* :class:`LaplaceOperator`    — ``A = D^T G D`` on deformed elements,
* :class:`HelmholtzOperator`  — ``H = h1 A + h0 B``, the parabolic velocity
  operator of Section 4,
* :class:`SEMSystem`          — an assembled-system facade (operator +
  dssum + mask + inner product) consumed by the solvers.

Exact assembled diagonals are provided for Jacobi preconditioning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from ..backends import dispatch as _dispatch
from ..backends.base import Workspace
from ..perf.flops import add_flops
from .assembly import Assembler, DirichletMask
from .basis import gll_derivative_matrix
from .element import GeomFactors, geometric_factors
from .mesh import Mesh
from .tensor import apply_1d

__all__ = [
    "MassOperator",
    "LaplaceOperator",
    "HelmholtzOperator",
    "SEMSystem",
    "build_poisson_system",
    "build_helmholtz_system",
]

Coefficient = Union[float, np.ndarray]


class MassOperator:
    """Diagonal mass matrix ``B`` (local, unassembled)."""

    def __init__(self, geom: GeomFactors):
        self.geom = geom

    def apply(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        add_flops(u.size, "pointwise")
        if out is None:
            return self.geom.bm * u
        np.multiply(self.geom.bm, u, out=out)
        return out

    __call__ = apply

    def diagonal(self) -> np.ndarray:
        """Local diagonal (equal to the factors themselves)."""
        return self.geom.bm.copy()

    def integrate(self, u: np.ndarray) -> float:
        """Integral of a field over the whole domain, ``1^T B u``.

        Quadrature of shared interface nodes is naturally additive (each
        element integrates its own subdomain), so no de-weighting is needed.
        """
        add_flops(2 * u.size, "dot")
        return float(np.sum(self.geom.bm * u))


class LaplaceOperator:
    """Matrix-free stiffness ``A u = D^T G D u`` (Eq. 4)."""

    def __init__(self, mesh: Mesh, geom: Optional[GeomFactors] = None):
        self.mesh = mesh
        self.geom = geom if geom is not None else geometric_factors(mesh)
        self.d = gll_derivative_matrix(mesh.order)
        # Pre-transposed, contiguous derivative matrix for the adjoint
        # applies (avoids a copy at every backend-boundary sanitization).
        self.dt = np.ascontiguousarray(np.asarray(self.d).T)
        self._ws = Workspace()

    def apply(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``A u`` — all mxm work through the backend, all intermediates
        (gradients, fluxes, accumulators) from the operator's workspace, so
        steady-state applies allocate nothing beyond the optional ``out``."""
        g = self.geom.g
        ws = self._ws
        shp = u.shape
        tmp = ws.get("tmp", shp)
        work = ws.get("gtw", shp)
        if self.mesh.ndim == 2:
            ur = apply_1d(self.d, u, 0, out=ws.get("ur", shp))
            us = apply_1d(self.d, u, 1, out=ws.get("us", shp))
            fr = ws.get("fr", shp)
            fs = ws.get("fs", shp)
            np.multiply(g[1], us, out=fr)
            np.multiply(g[1], ur, out=fs)
            np.multiply(g[0], ur, out=tmp)
            fr += tmp
            np.multiply(g[2], us, out=tmp)
            fs += tmp
            add_flops(6 * u.size, "pointwise")
            return _dispatch.grad_transpose(self.dt, (fr, fs), out=out, work=work)
        ur = apply_1d(self.d, u, 0, out=ws.get("ur", shp))
        us = apply_1d(self.d, u, 1, out=ws.get("us", shp))
        ut = apply_1d(self.d, u, 2, out=ws.get("ut", shp))
        g_rr, g_rs, g_rt, g_ss, g_st, g_tt = g
        fr = ws.get("fr", shp)
        fs = ws.get("fs", shp)
        ft = ws.get("ft", shp)
        for f, (ga, gb, gc) in (
            (fr, (g_rr, g_rs, g_rt)),
            (fs, (g_rs, g_ss, g_st)),
            (ft, (g_rt, g_st, g_tt)),
        ):
            np.multiply(ga, ur, out=f)
            np.multiply(gb, us, out=tmp)
            f += tmp
            np.multiply(gc, ut, out=tmp)
            f += tmp
        add_flops(15 * u.size, "pointwise")
        return _dispatch.grad_transpose(self.dt, (fr, fs, ft), out=out, work=work)

    __call__ = apply

    def diagonal(self) -> np.ndarray:
        """Exact local diagonal of ``A^k`` via the tensor structure.

        For the a=b terms, ``diag += sum_p (D_pi)^2 G_aa(..., p, ...)``
        applied along direction a; cross terms a != b contribute
        ``2 G_ab * d_i * d_j`` with ``d = diag(D)`` (nonzero only where both
        1-D derivative matrices touch their diagonal).
        """
        d2 = (self.d * self.d).T  # (i, p): row i collects sum over p
        ddiag = np.diag(self.d).copy()
        nd = self.mesh.ndim
        if nd == 2:
            packed = {(0, 0): 0, (0, 1): 1, (1, 1): 2}
        else:
            packed = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 1): 3, (1, 2): 4, (2, 2): 5}
        gm = lambda a, b: self.geom.g[packed[(min(a, b), max(a, b))]]  # noqa: E731
        out = np.zeros_like(self.geom.jac)
        for a in range(nd):
            out += apply_1d(d2, gm(a, a), a)
        shape = [1] * (nd + 1)
        dvecs = []
        for a in range(nd):
            s = shape.copy()
            s[nd - a] = ddiag.size  # direction a lives on array axis ndim - a
            dvecs.append(ddiag.reshape(s))
        for a in range(nd):
            for b in range(a + 1, nd):
                out += 2.0 * gm(a, b) * dvecs[a] * dvecs[b]
        return out


class HelmholtzOperator:
    """``H u = h1 * A u + h0 * B u`` — the velocity operator of Section 4.

    ``h1`` and ``h0`` may be scalars or nodal fields (variable properties).
    With BDF2 time stepping, ``h0 = 3/(2 dt)`` and ``h1 = 1/Re``; ``H`` is
    then diagonally dominant and well-conditioned for Jacobi-PCG.
    """

    def __init__(
        self,
        mesh: Mesh,
        h1: Coefficient = 1.0,
        h0: Coefficient = 0.0,
        geom: Optional[GeomFactors] = None,
    ):
        self.mesh = mesh
        self.geom = geom if geom is not None else geometric_factors(mesh)
        self.laplace = LaplaceOperator(mesh, self.geom)
        self.mass = MassOperator(self.geom)
        self.h1 = h1
        self.h0 = h0
        self._ws = Workspace()

    def apply(self, u: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """``h1 A u + h0 B u`` with workspace-pooled intermediates.

        The mass term is formed *before* the stiffness term writes ``out``,
        so ``apply(u, out=buf)`` stays correct even when callers reuse one
        buffer across operators.
        """
        add_flops(3 * u.size, "pointwise")
        bu = self._ws.get("bu", u.shape)
        self.mass.apply(u, out=bu)
        np.multiply(bu, self.h0, out=bu)
        out = self.laplace.apply(u, out=out)
        np.multiply(out, self.h1, out=out)
        out += bu
        return out

    __call__ = apply

    def diagonal(self) -> np.ndarray:
        return self.h1 * self.laplace.diagonal() + self.h0 * self.geom.bm


@dataclass
class SEMSystem:
    """Assembled SPD system: ``(mask . dssum . A_local)`` on continuous fields.

    Bundles everything an iterative solver needs:

    * ``matvec(u)``     — action of the assembled, masked operator,
    * ``dot / norm``    — inner products over unique dofs,
    * ``rhs(f_local)``  — assemble + mask a local residual/forcing,
    * ``diagonal()``    — assembled diagonal for Jacobi preconditioning.

    ``op_local(u, out=None)`` must map local fields to local fields,
    writing into ``out`` when one is given (``matvec`` passes a pooled
    buffer), and be symmetric in the unique-dof inner product (every
    operator ``apply`` in this module is).
    """

    mesh: Mesh
    assembler: Assembler
    mask: DirichletMask
    op_local: Callable[[np.ndarray], np.ndarray]
    op_diag_local: Optional[Callable[[], np.ndarray]] = None
    _ws: Workspace = field(default_factory=Workspace, repr=False)

    def matvec(self, u: np.ndarray) -> np.ndarray:
        au = self.op_local(u, out=self._ws.get("au", u.shape))
        return self.mask.apply_inplace(self.assembler.dssum(au))

    def rhs(self, f_local: np.ndarray) -> np.ndarray:
        """Assemble a locally-evaluated weighted residual into system RHS."""
        return self.mask.apply(self.assembler.dssum(f_local))

    def dot(self, u: np.ndarray, v: np.ndarray) -> float:
        return self.assembler.dot(u, v)

    def norm(self, u: np.ndarray) -> float:
        return self.assembler.norm(u)

    def diagonal(self) -> np.ndarray:
        """Assembled diagonal (masked nodes get 1 to stay invertible)."""
        if self.op_diag_local is None:
            raise ValueError("system built without a diagonal provider")
        dia = self.assembler.dssum(self.op_diag_local())
        dia = self.mask.apply(dia) + self.mask.constrained.astype(float)
        return dia

    def zero_field(self) -> np.ndarray:
        return self.mesh.field()


def build_poisson_system(
    mesh: Mesh,
    dirichlet_sides: Optional[list] = None,
    geom: Optional[GeomFactors] = None,
) -> SEMSystem:
    """Poisson system ``A u = B f`` with Dirichlet sides (None = all sides)."""
    geom = geom if geom is not None else geometric_factors(mesh)
    lap = LaplaceOperator(mesh, geom)
    mask = (
        DirichletMask(mesh.boundary_mask(dirichlet_sides))
        if (dirichlet_sides is None and mesh.boundary) or dirichlet_sides
        else DirichletMask.none(mesh.local_shape)
    )
    return SEMSystem(mesh, Assembler.for_mesh(mesh), mask, lap.apply, lap.diagonal)


def build_helmholtz_system(
    mesh: Mesh,
    h1: Coefficient,
    h0: Coefficient,
    dirichlet_sides: Optional[list] = None,
    geom: Optional[GeomFactors] = None,
) -> SEMSystem:
    """Helmholtz system ``(h1 A + h0 B) u = rhs`` with Dirichlet sides."""
    geom = geom if geom is not None else geometric_factors(mesh)
    helm = HelmholtzOperator(mesh, h1, h0, geom)
    mask = (
        DirichletMask(mesh.boundary_mask(dirichlet_sides))
        if (dirichlet_sides is None and mesh.boundary) or dirichlet_sides
        else DirichletMask.none(mesh.local_shape)
    )
    return SEMSystem(mesh, Assembler.for_mesh(mesh), mask, helm.apply, helm.diagonal)
