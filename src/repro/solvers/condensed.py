"""Statically condensed elliptic solver tier (Huismann et al.; Section 5).

* :class:`CondensedPoissonSolver` — a standalone Helmholtz/Poisson solver
  on the velocity (GLL) grid.  Interior dofs are eliminated exactly, PCG
  iterates only on the assembled element-shell dofs, and each iteration's
  per-element work is one dense Schur apply of ``O(N^d)`` operations in
  2-D — *linear* in the number of dofs, versus the ``O(N^{d+1})`` of the
  standard tensor-product apply.  The interior factorization is shared
  across elements on rectilinear meshes (one generalized eigenpair for
  all ``K`` interiors) and falls back to batched dense Cholesky on
  deformed geometry.  The dense Schur applies run through
  :func:`repro.backends.dispatch.batched_matvec`, so they get per-shape
  kernel selection and exact flop accounting like every other hot-path
  contraction.

* :func:`CondensedEPreconditioner` — the ``E``-system tier
  ``pressure_variant="condensed"`` names.  Statically condensing an
  element's zero-overlap FDM pressure block reproduces that block's own
  inverse, so the tier is the zero-overlap FDM Schwarz preconditioner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..backends.base import Workspace
from ..core.assembly import Assembler, DirichletMask
from ..core.element import GeomFactors, geometric_factors
from ..core.mesh import Mesh
from ..core.operators import HelmholtzOperator
from ..core.pressure import PressureOperator
from ..obs.trace import trace
from ..perf.flops import add_flops
from .cg import CGResult, pcg
from .schwarz import SchwarzPreconditioner
from .static_condensation import (
    DenseInteriorSolver,
    ElementCondensation,
    TensorElementCondensation,
    TensorInteriorSolver,
    dense_element_matrices,
    rectilinear_extents,
    shell_split,
)

__all__ = ["CondensedPoissonSolver", "CondensedEPreconditioner", "CondensedResult"]


@dataclass
class CondensedResult:
    """Outcome of a condensed solve: full-grid solution + interface CG stats."""

    u: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float
    initial_residual_norm: float

    @classmethod
    def from_cg(cls, u: np.ndarray, res: CGResult) -> "CondensedResult":
        return cls(
            u, res.iterations, res.converged, res.residual_norm,
            res.initial_residual_norm,
        )


class CondensedPoissonSolver:
    """Schur-complement (statically condensed) Helmholtz solver.

    Solves ``(h1 A + h0 B) u = f`` on the velocity grid with homogeneous
    Dirichlet conditions on ``dirichlet_sides`` (``None`` = every physical
    boundary side, matching :func:`repro.core.operators.build_poisson_system`).
    The element matrices are probed matrix-free from the tensor-product
    operator once at setup; after that

    * ``condense_rhs`` and ``back_substitute`` each cost one interior solve
      (shared-eigenbasis tensor transforms on rectilinear meshes), and
    * every PCG iteration applies only the per-element dense Schur
      complements to the assembled shell unknowns — ``2 K n_b^2`` flops,
      ``n_b = 4N`` in 2-D.

    Parameters
    ----------
    mesh:
        Velocity mesh (2-D or 3-D; every direction needs ``order >= 2`` so
        elements have interior dofs).
    h1, h0:
        Scalar Helmholtz coefficients (``h0 = 0`` gives Poisson).
    dirichlet_sides:
        Boundary side names to constrain; ``None`` constrains all physical
        boundary sides.  A fully unconstrained pure-Neumann Poisson problem
        is singular and rejected.
    geom:
        Precomputed geometric factors (optional).
    interior:
        ``"auto"`` (tensor fast-diagonalization when the mesh is
        rectilinear, dense Cholesky otherwise), ``"tensor"`` or ``"dense"``.
    schur:
        Per-iteration Schur-apply form.  ``"auto"`` picks the
        tensor-factorized :class:`TensorElementCondensation` on 3-D
        rectilinear meshes with scalar coefficients — ``O(N^d)`` per
        element instead of the dense shell apply's ``O(N^{2d-2})``, and no
        ``O(n_loc^2)``-memory dense probe at setup — and the dense
        :class:`ElementCondensation` otherwise (2-D, where the dense shell
        apply is already linear, and deformed 3-D geometry).  ``"tensor"``
        and ``"dense"`` force the choice (``"dense"`` keeps the dense 3-D
        path constructible for benchmarking).
    """

    def __init__(
        self,
        mesh: Mesh,
        h1: float = 1.0,
        h0: float = 0.0,
        dirichlet_sides: Optional[list] = None,
        geom: Optional[GeomFactors] = None,
        interior: str = "auto",
        schur: str = "auto",
    ):
        if mesh.order < 2:
            raise ValueError("static condensation needs order >= 2 (interior dofs)")
        if interior not in ("auto", "tensor", "dense"):
            raise ValueError(f"unknown interior mode {interior!r}")
        if schur not in ("auto", "tensor", "dense"):
            raise ValueError(f"unknown schur mode {schur!r}")
        self.mesh = mesh
        geom = geom if geom is not None else geometric_factors(mesh)
        self.op = HelmholtzOperator(mesh, h1, h0, geom)
        self.mask = (
            DirichletMask(mesh.boundary_mask(dirichlet_sides))
            if (dirichlet_sides is None and mesh.boundary) or dirichlet_sides
            else DirichletMask.none(mesh.local_shape)
        )
        if self.mask.n_constrained == 0 and not h0:
            raise ValueError(
                "pure-Neumann Poisson problem is singular; constrain a side "
                "or add a mass term (h0 > 0)"
            )

        K = mesh.K
        block = mesh.local_shape[1:]
        with trace("condensed_setup"):
            hs = rectilinear_extents(mesh)
            scalar = np.isscalar(h1) and np.isscalar(h0)
            separable = hs is not None and scalar
            use_tensor_schur = schur == "tensor" or (
                schur == "auto" and mesh.ndim == 3 and separable and interior != "dense"
            )
            if use_tensor_schur:
                if mesh.ndim != 3:
                    raise ValueError("tensor-factorized Schur applies are 3-D only")
                if not separable:
                    raise ValueError(
                        "tensor-factorized Schur applies need a rectilinear "
                        "mesh and scalar coefficients"
                    )
                if interior == "dense":
                    raise ValueError(
                        "schur='tensor' implies tensor interior solves; "
                        "interior='dense' conflicts"
                    )
                # Never forms element matrices at all: the factorized form is
                # built directly from the 1-D reference operators.
                self.ec = TensorElementCondensation(
                    hs, mesh.order, h1=float(h1), h0=float(h0)
                )
                use_tensor = True
            else:
                mats = dense_element_matrices(self.op.apply, K, block)
                use_tensor = (
                    interior == "tensor"
                    or (interior == "auto" and separable)
                )
                if use_tensor:
                    if not separable:
                        raise ValueError(
                            "tensor interior solves need a rectilinear mesh and "
                            "scalar coefficients"
                        )
                    isolve = TensorInteriorSolver(
                        hs, mesh.order, h1=float(h1), h0=float(h0)
                    )
                else:
                    _, i_idx = shell_split(block)
                    isolve = DenseInteriorSolver(mats[:, i_idx[:, None], i_idx[None, :]])
                self.ec = ElementCondensation(mats, block, interior_solver=isolve)
        self.interior_kind = "tensor" if use_tensor else "dense"
        self.schur_kind = "tensor" if use_tensor_schur else "dense"

        # Assembled interface: compressed global numbering of the shell dofs
        # plus the free/constrained factor restricted to the shell.
        gids_b = mesh.global_ids.reshape(K, -1)[:, self.ec.b_idx]
        self.iface = Assembler(
            np.unique(gids_b, return_inverse=True)[1].reshape(gids_b.shape)
        )
        self._b_factor = (
            ~self.mask.constrained.reshape(K, -1)[:, self.ec.b_idx]
        ).astype(float)

        # Jacobi preconditioner from the assembled Schur diagonal (the
        # tensor condensation computes it without ever forming S).
        dia = self.iface.dssum(self.ec.schur_diagonal())
        dia = dia * self._b_factor + (1.0 - self._b_factor)
        if np.any(dia <= 0):
            raise ValueError("condensed interface diagonal is not positive")
        self._inv_dia = 1.0 / dia
        self._ws = Workspace()

    @property
    def n_interface(self) -> int:
        """Unique assembled interface (shell) dofs."""
        return self.iface.n_global

    def apply_condensed(self, u_b: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """Assembled condensed operator on interface data ``(K, n_b)``.

        ``mask . dssum . blockdiag(S^k)`` — the matvec PCG iterates with.
        Dense Schur: one dispatched batched DGEMV, ``2 K n_b^2`` flops
        (``O(N^d)`` per element in 2-D).  Tensor-factorized Schur (3-D
        rectilinear): batched 1-D contractions, ``O(N^d)`` per element.
        """
        su = self.ec.apply_schur(u_b, out=self._ws.get("schur_u", u_b.shape))
        w = self.iface.dssum(su, out=out)
        w *= self._b_factor
        return w

    def _precondition(self, r: np.ndarray) -> np.ndarray:
        add_flops(r.size, "pointwise")
        return r * self._inv_dia

    def solve(
        self,
        f_local: np.ndarray,
        tol: float = 1e-10,
        rtol: float = 0.0,
        maxiter: int = 2000,
        label: Optional[str] = "condensed_interface",
    ) -> CondensedResult:
        """Solve for the full-grid field given a *local* (unassembled) load.

        ``f_local`` is the locally evaluated weighted forcing (e.g. ``B f``),
        exactly what :meth:`repro.core.operators.SEMSystem.rhs` consumes.
        Interior rows are eliminated exactly; only the assembled shell system
        ``dssum(S u_b) = dssum(f_b - A_BI A_II^{-1} f_I)`` is iterated.
        """
        ec = self.ec
        with trace("condensed_solve"):
            with trace("condense_rhs"):
                g_b, _ = ec.condense_rhs(
                    np.ascontiguousarray(ec.boundary_of(f_local)),
                    np.ascontiguousarray(ec.interior_of(f_local)),
                )
                g = self.iface.dssum(g_b)
                g *= self._b_factor
            with trace("interface_cg"):
                res = pcg(
                    self.apply_condensed,
                    g,
                    dot=self.iface.dot,
                    precond=self._precondition,
                    tol=tol,
                    rtol=rtol,
                    maxiter=maxiter,
                    label=label,
                )
            with trace("back_substitute"):
                u_i = ec.back_substitute(
                    res.x, np.ascontiguousarray(ec.interior_of(f_local))
                )
                u = ec.merge(res.x, u_i).reshape(self.mesh.local_shape)
        return CondensedResult.from_cg(u, res)


def CondensedEPreconditioner(
    mesh: Mesh, pop: PressureOperator, use_coarse: bool = True
) -> SchwarzPreconditioner:
    """The zero-overlap FDM Schwarz preconditioner (``"condensed"`` tier).

    Condensing the zero-overlap block ``A~_k`` gives ``A~_k^+`` itself.
    """
    return SchwarzPreconditioner(mesh, pop, "fdm", overlap=0, use_coarse=use_coarse)
