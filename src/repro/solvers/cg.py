"""Preconditioned conjugate gradient iteration.

The paper solves every implicit system — velocity Helmholtz and pressure
Poisson alike — with CG (Section 1: "conjugate gradient iteration with
scalable Jacobi and additive Schwarz preconditioners").  This implementation
is storage-layout agnostic: it works on whatever array type the callbacks
accept (local batched SEM fields here), with the inner product supplied by
the caller so that redundant shared nodes are counted once.

Convergence is declared on the preconditioned residual 2-norm relative to
an absolute tolerance, matching the fixed tolerances quoted in the paper
(e.g. ``eps = 1e-5`` in Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from ..obs.telemetry import record_solve
from ..perf.flops import add_flops

__all__ = ["CGResult", "SolveFailure", "pcg"]

ArrayOp = Callable[[np.ndarray], np.ndarray]
DotOp = Callable[[np.ndarray, np.ndarray], float]


class SolveFailure(np.linalg.LinAlgError):
    """A Krylov solve that broke down or did not converge: carries its
    ``label`` (e.g. ``"pressure"``), the iteration it stopped at and its
    residual history, so a caller can tell which solve failed and how."""

    def __init__(self, message: str, label: Optional[str] = None,
                 iterations: int = 0, residual_history: Sequence[float] = ()):
        super().__init__(message)
        self.label, self.iterations = label, int(iterations)
        self.residual_history = list(residual_history)

    @classmethod
    def unconverged(cls, what: str, res: "CGResult", label: str) -> "SolveFailure":
        """The failure of a solve that stopped at its iteration cap."""
        return cls(f"{what} failed: {res}", label, res.iterations, res.residual_history)


@dataclass
class CGResult:
    """Outcome of a PCG solve."""

    x: np.ndarray
    iterations: int
    converged: bool
    residual_norm: float
    initial_residual_norm: float
    residual_history: List[float] = field(default_factory=list)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = "converged" if self.converged else "NOT converged"
        return (
            f"CGResult({tag} in {self.iterations} its, "
            f"|r0|={self.initial_residual_norm:.3e} -> |r|={self.residual_norm:.3e})"
        )


def pcg(
    matvec: ArrayOp,
    b: np.ndarray,
    dot: Optional[DotOp] = None,
    precond: Optional[ArrayOp] = None,
    x0: Optional[np.ndarray] = None,
    tol: float = 1e-8,
    rtol: float = 0.0,
    maxiter: int = 1000,
    callback: Optional[Callable[[int, float], None]] = None,
    label: Optional[str] = None,
) -> CGResult:
    """Solve ``A x = b`` with (optionally preconditioned) CG.

    Parameters
    ----------
    matvec:
        Action of the SPD operator A.
    b:
        Right-hand side (already assembled/masked for SEM systems).
    dot:
        Inner product; defaults to the flat Euclidean dot.  SEM callers pass
        ``Assembler.dot`` so shared nodes count once.
    precond:
        Action of an SPD preconditioner M^-1; identity if omitted.
    tol, rtol:
        Stop when ``|r| <= max(tol, rtol * |r0|)`` (true residual norm).
    maxiter:
        Iteration cap; exceeding it returns ``converged=False`` rather than
        raising, so callers (e.g. the Table 2 harness) can report counts.
    label:
        Optional telemetry tag (e.g. ``"pressure"``); when observability is
        enabled (:func:`repro.obs.enable`), every labeled solve appends a
        :class:`repro.obs.SolveRecord` with the full residual history.

    Returns
    -------
    CGResult with the solution, iteration count, and residual history
    (the history feeds the Fig. 4 residual plots).
    """
    if dot is None:
        dot = lambda u, v: float(np.sum(u * v))  # noqa: E731

    def done(res: CGResult) -> CGResult:
        if label is not None:
            record_solve(
                "cg",
                label,
                res.iterations,
                res.converged,
                initial_residual=res.initial_residual_norm,
                final_residual=res.residual_norm,
                residual_history=res.residual_history,
            )
        return res

    x = np.zeros_like(b) if x0 is None else x0.copy()
    r = b - matvec(x) if x0 is not None else b.copy()
    add_flops(b.size, "pointwise")

    rr = dot(r, r)
    if not np.isfinite(rr):
        raise SolveFailure(
            "PCG received a non-finite right-hand side (upstream blow-up?)",
            label, 0, [rr],
        )
    norm_r = float(np.sqrt(max(rr, 0.0)))
    r0 = norm_r
    stop = max(tol, rtol * r0)
    history = [norm_r]
    if callback:
        callback(0, norm_r)
    if norm_r <= stop:
        return done(CGResult(x, 0, True, norm_r, r0, history))

    z = precond(r) if precond is not None else r
    p = z.copy()
    rz = dot(r, z)
    # One scratch array serves every axpy below; together with the in-place
    # updates the iteration allocates nothing beyond what matvec/precond do.
    work = np.empty_like(p)

    for it in range(1, maxiter + 1):
        ap = matvec(p)
        pap = dot(p, ap)
        if not np.isfinite(pap):
            raise SolveFailure(
                f"PCG breakdown: non-finite p^T A p at iteration {it}",
                label, it, history,
            )
        if pap <= 0:
            # Loss of positive-definiteness (round-off or a bad mask):
            # surface it rather than silently diverging.
            raise SolveFailure(
                f"PCG breakdown: p^T A p = {pap:.3e} <= 0 at iteration {it}",
                label, it, history,
            )
        alpha = rz / pap
        np.multiply(alpha, p, out=work)
        x += work
        np.multiply(alpha, ap, out=work)
        r -= work
        add_flops(4 * b.size, "pointwise")
        norm_r = float(np.sqrt(max(dot(r, r), 0.0)))
        history.append(norm_r)
        if callback:
            callback(it, norm_r)
        if norm_r <= stop:
            return done(CGResult(x, it, True, norm_r, r0, history))
        z = precond(r) if precond is not None else r
        rz_new = dot(r, z)
        beta = rz_new / rz
        rz = rz_new
        p *= beta
        p += z
        add_flops(2 * b.size, "pointwise")

    return done(CGResult(x, maxiter, False, norm_r, r0, history))
