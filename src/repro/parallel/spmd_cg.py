"""SPMD execution of the SEM conjugate-gradient solve — the paper's
Section 6 runtime structure, made executable on interchangeable substrates.

"Contiguous groups of elements are distributed to processors and
computation proceeds in a loosely synchronous manner ... the principal
communication kernel is the gather-scatter operation required for the
residual vector assembly."

The solver core is :func:`cg_rank_program`, a per-rank SPMD program
written against the abstract :class:`~repro.parallel.protocol.Comm`
protocol.  It has no Krylov loop of its own: it runs the serial
:func:`~repro.solvers.cg.pcg` over three rank closures (masked local apply
plus gather-scatter, a weighted local dot plus allreduce, Jacobi), and
charges the rank's clock from the ``add_flops`` tally of that work — the
same counters serial code reports (the paper's Section 7 flop counts).
The *same program text* runs on

* the simulated substrate (virtual alpha-beta clocks, the cost model
  behind Table 4's communication terms), and
* the real ``multiprocessing`` substrate (one OS process per rank,
  ``shared_memory`` transport, wall-clock timing),

and produces **bitwise-identical iterates** on both — every reduction
(gather-scatter combine, inner-product allreduce) folds contributions in
ascending rank order (see :mod:`repro.parallel.protocol`), so there is no
substrate-dependent arithmetic.  ``tests/test_spmd_parity.py`` pins this.

:class:`DistributedSEMSolver` is the driver: it partitions the mesh
(recursive spectral bisection), builds per-rank operator/gs contexts, and
dispatches the rank program onto the chosen executor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np
import scipy.sparse as sp

from ..core.assembly import Assembler, DirichletMask
from ..core.element import GeomFactors, geometric_factors
from ..core.mesh import Mesh
from ..core.operators import HelmholtzOperator
from ..obs.telemetry import record_comm, record_solve
from ..obs.trace import trace
from ..perf.flops import add_flops, attributing
from ..solvers.cg import SolveFailure, pcg
from .gs import GatherScatter, RankGS, gs_init, gs_op_rank
from .machine import Machine
from .partition import recursive_spectral_bisection
from .protocol import Comm

__all__ = [
    "DistributedSEMSolver",
    "DistributedSolveResult",
    "CGRankContext",
    "cg_rank_program",
]


def _slice_geom(geom: GeomFactors, idx: np.ndarray) -> GeomFactors:
    """Restrict geometric factors to a subset of elements."""
    return GeomFactors(
        ndim=geom.ndim,
        jac=geom.jac[idx],
        bm=geom.bm[idx],
        dxi_dx=[[c[idx] for c in row] for row in geom.dxi_dx],
        g=[g[idx] for g in geom.g],
        wtensor=np.asarray(geom.wtensor)[idx],
    )


@dataclass
class CGRankContext:
    """Everything one rank needs to run the CG program (picklable)."""

    op: HelmholtzOperator  #: this rank's elements only
    gs: RankGS  #: per-rank gather-scatter handle
    inv_mult: np.ndarray  #: 1/multiplicity for the unique-dof inner product
    inv_dia: np.ndarray  #: Jacobi preconditioner diagonal (this rank's slice)
    mask: np.ndarray  #: Dirichlet mask factor (this rank's slice)


class _ClockCharge:
    """Flop counter that charges each tallied flop to the rank's clock:
    ``mxm`` flops at the machine's mxm rate, every other category at its
    ``other`` rate.  Under :func:`~repro.perf.flops.attributing` the clock
    is fed by the same ``add_flops`` tally serial code reports."""

    def __init__(self, comm: Comm):
        self.comm = comm

    def add(self, n: float, category: str = "mxm") -> None:
        self.comm.compute(n, mxm_fraction=float(category == "mxm"))


def cg_rank_program(
    comm: Comm,
    ctx: CGRankContext,
    b: np.ndarray,
    tol: float = 1e-8,
    maxiter: int = 2000,
) -> Dict[str, Any]:
    """Jacobi-PCG, one rank's view: serial :func:`~repro.solvers.cg.pcg`
    over rank closures.  Runs unmodified on every substrate.

    The matvec is the local operator apply plus the gather-scatter
    assembly, the inner product a local weighted sum plus a rank-order
    allreduce.  Every scalar of the recurrence is an allreduce result, so
    all ranks follow the same control flow, and a breakdown raises
    :class:`~repro.solvers.cg.SolveFailure` (label ``"spmd_cg"``) on every
    rank at the same point.  Returns this rank's solution block plus the
    (globally identical) iteration metadata and residual history.
    """

    def matvec(v: np.ndarray) -> np.ndarray:
        return gs_op_rank(comm, ctx.gs, ctx.op.apply(v), "+") * ctx.mask

    def dot(u: np.ndarray, v: np.ndarray) -> float:
        add_flops(3 * u.size, "dot")
        return comm.allreduce(float(np.sum(u * v * ctx.inv_mult)), "+")

    with comm.trace("spmd_cg"), attributing(_ClockCharge(comm)):
        try:
            res = pcg(matvec, b, dot=dot, precond=lambda r: r * ctx.inv_dia,
                      tol=tol, maxiter=maxiter)
        except SolveFailure as exc:
            exc.label = "spmd_cg"
            raise
    return {
        "x": res.x,
        "iterations": res.iterations,
        "converged": res.converged,
        "residual_norm": res.residual_norm,
        "history": res.residual_history,
    }


@dataclass
class DistributedSolveResult:
    """Outcome of one distributed solve."""

    x: np.ndarray  # solution in the original element order
    iterations: int
    converged: bool
    residual_norm: float
    simulated_seconds: float
    compute_seconds: float
    comm_seconds: float
    messages: int
    #: substrate that ran the solve ('sim' | 'mp')
    executor: str = "sim"
    #: real elapsed time of the run (threads for sim, processes for mp)
    wall_seconds: float = 0.0
    #: per-iteration residual norms (identical on every rank)
    history: List[float] = field(default_factory=list)
    #: merged measured-vs-modeled phase table (see ``merge_stats``)
    phases: Dict[str, Any] = field(default_factory=dict)
    #: the run as an obs-report ``spmd`` section (``SPMDRunResult.report_section``)
    report_section: Dict[str, Any] = field(default_factory=dict)


class DistributedSEMSolver:
    """Jacobi-PCG for ``(h1 A + h0 B) u = f`` on P SPMD ranks.

    Parameters
    ----------
    mesh:
        The (serial) mesh; elements are partitioned internally.
    machine, p:
        Cost model and rank count (power of two).
    h1, h0:
        Helmholtz coefficients (Poisson: ``h1=1, h0=0`` — note the pure
        Neumann case is singular; supply Dirichlet sides).
    dirichlet_sides:
        Sides constrained to zero (``None`` = all sides).
    """

    def __init__(
        self,
        mesh: Mesh,
        machine: Machine,
        p: int,
        h1: float = 1.0,
        h0: float = 0.0,
        dirichlet_sides: Optional[list] = None,
    ):
        self.mesh = mesh
        self.machine = machine
        self.p = p
        geom = geometric_factors(mesh)
        self.op = HelmholtzOperator(mesh, h1=h1, h0=h0, geom=geom)
        mask_arr = (
            mesh.boundary_mask(dirichlet_sides)
            if (dirichlet_sides is None and mesh.boundary) or dirichlet_sides
            else np.zeros(mesh.local_shape, dtype=bool)
        )
        self.mask = DirichletMask(mask_arr)

        # Partition elements; remember the per-rank element lists.
        if p == 1:
            self.part = np.zeros(mesh.K, dtype=np.int64)
        else:
            adj = sp.csr_matrix(mesh.element_adjacency())
            self.part = recursive_spectral_bisection(
                adj, p, coords=mesh.element_centroids()
            )
        self.rank_elems: List[np.ndarray] = [
            np.nonzero(self.part == r)[0] for r in range(p)
        ]
        if any(e.size == 0 for e in self.rank_elems):
            raise ValueError("a rank received zero elements; reduce P")
        # Per-rank operators over sliced geometric factors — each rank only
        # ever touches its own elements' data, as in the SPMD original.
        self._rank_ops = [
            HelmholtzOperator(mesh, h1=h1, h0=h0, geom=_slice_geom(geom, e))
            for e in self.rank_elems
        ]
        self.gs: GatherScatter = gs_init(
            [mesh.global_ids[e] for e in self.rank_elems]
        )
        self._assembler = Assembler.for_mesh(mesh)
        # Multiplicity weights for the unique-dof inner product: the copy
        # counts are exact integers, so the serial assembler's equal what a
        # gather-scatter of ones would give.
        self._inv_mult = self._split(1.0 / self._assembler.multiplicity)

        # Assembled diagonal for Jacobi (serial precompute; shared setup).
        dia = self._assembler.dssum(self.op.diagonal())
        dia = self.mask.apply(dia) + self.mask.constrained.astype(float)
        self._inv_dia = 1.0 / dia
        # Per-rank program contexts, built once and reused by every solve.
        handles = self.gs.rank_handles()
        self._contexts = [
            CGRankContext(
                op=self._rank_ops[r],
                gs=handles[r],
                inv_mult=self._inv_mult[r],
                inv_dia=self._inv_dia[e],
                mask=self.mask.factor[e],
            )
            for r, e in enumerate(self.rank_elems)
        ]

    # ------------------------------------------------------------ primitives
    def _split(self, u: np.ndarray) -> List[np.ndarray]:
        return [u[e] for e in self.rank_elems]

    def _merge(self, parts: List[np.ndarray]) -> np.ndarray:
        out = np.empty(self.mesh.local_shape)
        for e, v in zip(self.rank_elems, parts):
            out[e] = v
        return out

    def _rank_args(self, f_local: np.ndarray, tol: float, maxiter: int) -> List[tuple]:
        """Per-rank :func:`cg_rank_program` arguments for the RHS ``B f``.

        The right-hand side is assembled serially, masked and split by rank.
        """
        rhs = self.mask.apply(self._assembler.dssum(self.op.mass.apply(f_local)))
        parts = self._split(rhs)
        return [(ctx, b, tol, maxiter) for ctx, b in zip(self._contexts, parts)]

    # ------------------------------------------------------------------ solve
    def solve(
        self,
        f_local: np.ndarray,
        tol: float = 1e-8,
        maxiter: int = 2000,
        executor: str = "sim",
        timeout: Optional[float] = 600.0,
    ) -> DistributedSolveResult:
        """Solve with RHS ``B f`` assembled from a local field (serial layout).

        ``executor`` selects the substrate: ``'sim'`` (default) runs the
        rank program on the virtual clocks of the machine model; ``'mp'``
        runs it on real worker processes and reports measured wall time
        next to the alpha-beta prediction.
        """
        with trace("spmd_cg"):
            return self._solve(f_local, tol, maxiter, executor, timeout)

    def _solve(self, f_local, tol, maxiter, executor, timeout):
        from .exec import run_spmd

        run = run_spmd(
            cg_rank_program,
            self._rank_args(f_local, tol, maxiter),
            ranks=self.p,
            executor=executor,
            machine=self.machine,
            timeout=timeout,
        )
        section = run.report_section()
        r0 = run.results[0]
        it = int(r0["iterations"])
        converged = bool(r0["converged"])
        norm_r = float(r0["residual_norm"])
        record_solve("spmd_cg", f"p{self.p}", it, converged, final_residual=norm_r)
        record_comm(
            "spmd_cg",
            f"p{self.p}",
            section["messages"],
            section["words"],
            simulated_seconds=run.modeled_seconds,
            comm_seconds=section["comm_seconds_max"],
        )
        return DistributedSolveResult(
            x=self._merge([r["x"] for r in run.results]),
            iterations=it,
            converged=converged,
            residual_norm=norm_r,
            simulated_seconds=run.modeled_seconds,
            compute_seconds=section["compute_seconds_max"],
            comm_seconds=section["comm_seconds_max"],
            messages=section["messages"],
            executor=executor,
            wall_seconds=run.wall_seconds,
            history=list(r0["history"]),
            phases=section["phases"],
            report_section=section,
        )
