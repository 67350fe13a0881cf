"""Typed telemetry sink: the solver-side counterpart of the region tree.

Where :mod:`repro.obs.trace` answers "where did the time go", this module
answers "what did the solvers do": per-solve iteration and residual
histories (the Fig. 8 series), projection basis sizes (Fig. 4), XXT factor
sizes (Fig. 6), and gather-scatter / distributed-CG message traffic (the
Section 6 communication kernels).

Solver loops feed the process-global sink directly through the
``record_*`` helpers; every record is a small typed dataclass with a
``as_dict()`` for the JSON report.  Recording honors the same global
enable switch as tracing — when observability is off every helper returns
immediately, so instrumented hot loops pay a single branch.

Records carry the trace-region path that was open when they were emitted
(``region``), tying the two views together: a ``SolveRecord`` with
``region="step/pressure"`` is the CG solve the timer tree charged to that
node.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from . import trace as _trace

__all__ = [
    "SolveRecord",
    "ProjectionRecord",
    "CommRecord",
    "ValueRecord",
    "Telemetry",
    "telemetry",
    "current_sink",
    "record_solve",
    "record_projection",
    "record_comm",
    "record_value",
]

WORD_BYTES = 8  # float64 words, the unit the machine models charge


@dataclass
class SolveRecord:
    """One iterative-solve outcome (CG, Chebyshev, p-MG, XXT, ...)."""

    solver: str  #: solver family: "cg", "chebyshev", "pmultigrid", ...
    label: str  #: caller-supplied role, e.g. "pressure", "helmholtz_u0"
    region: str  #: trace path open when the solve finished
    iterations: int
    converged: bool
    initial_residual: Optional[float] = None
    final_residual: Optional[float] = None
    residual_history: List[float] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "solver": self.solver,
            "label": self.label,
            "region": self.region,
            "iterations": self.iterations,
            "converged": self.converged,
            "initial_residual": self.initial_residual,
            "final_residual": self.final_residual,
            "residual_history": [float(r) for r in self.residual_history],
        }


@dataclass
class ProjectionRecord:
    """Successive-RHS projection state at one solve (the Fig. 4 quantities)."""

    label: str
    basis_size: int  #: vectors in the A-orthonormal window before this solve
    rhs_norm: float  #: |b| before projection
    reduced_norm: float  #: |b - A x_bar| actually handed to the solver

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "basis_size": self.basis_size,
            "rhs_norm": self.rhs_norm,
            "reduced_norm": self.reduced_norm,
        }


@dataclass
class CommRecord:
    """One communication phase (gather-scatter, distributed CG, ...)."""

    kind: str  #: "gs", "spmd_cg", ...
    label: str
    messages: int
    words: float  #: float64 words moved (both directions summed)
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def bytes(self) -> float:
        return self.words * WORD_BYTES

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "label": self.label,
            "messages": self.messages,
            "words": self.words,
            "bytes": self.bytes,
            "extra": {k: float(v) for k, v in self.extra.items()},
        }


@dataclass
class ValueRecord:
    """A named scalar fact (XXT nnz, tuner decisions, basis sizes...)."""

    name: str
    value: float
    label: str = ""

    def as_dict(self) -> dict:
        return {"name": self.name, "value": self.value, "label": self.label}


class Telemetry:
    """Process-global sink the instrumented solver loops feed."""

    def __init__(self):
        self.solves: List[SolveRecord] = []
        self.projections: List[ProjectionRecord] = []
        self.comms: List[CommRecord] = []
        self.values: List[ValueRecord] = []

    def reset(self) -> None:
        self.solves.clear()
        self.projections.clear()
        self.comms.clear()
        self.values.clear()

    # -- aggregates ---------------------------------------------------------
    def comm_totals(self) -> Dict[str, float]:
        """Total message count / word / byte volume across all phases."""
        msgs = sum(c.messages for c in self.comms)
        words = float(sum(c.words for c in self.comms))
        return {"messages": msgs, "words": words, "bytes": words * WORD_BYTES}

    def solves_for(self, label: str) -> List[SolveRecord]:
        return [s for s in self.solves if s.label == label]

    def as_dict(self) -> dict:
        return {
            "solves": [s.as_dict() for s in self.solves],
            "projections": [p.as_dict() for p in self.projections],
            "comm": {
                "records": [c.as_dict() for c in self.comms],
                "totals": self.comm_totals(),
            },
            "values": [v.as_dict() for v in self.values],
        }


#: the process-global sink
telemetry = Telemetry()

#: per-thread sink override (installed by repro.obs.scope.run_scope).
_TLS = threading.local()


def _set_thread_sink(sink: Optional[Telemetry]) -> Optional[Telemetry]:
    """Install ``sink`` as this thread's telemetry sink; returns the
    previous override (None when the thread fed the global sink)."""
    prev = getattr(_TLS, "sink", None)
    _TLS.sink = sink
    return prev


def current_sink() -> Telemetry:
    """The calling thread's sink: a per-run override inside a service run
    scope, the process-global sink everywhere else."""
    sink = getattr(_TLS, "sink", None)
    return sink if sink is not None else telemetry


def record_solve(
    solver: str,
    label: str,
    iterations: int,
    converged: bool,
    initial_residual: Optional[float] = None,
    final_residual: Optional[float] = None,
    residual_history: Optional[List[float]] = None,
) -> None:
    """Append a solve record (no-op while observability is disabled)."""
    if not _trace._ENABLED:
        return
    current_sink().solves.append(
        SolveRecord(
            solver=solver,
            label=label,
            region=_trace.get_tracer().current_path,
            iterations=int(iterations),
            converged=bool(converged),
            initial_residual=(
                float(initial_residual) if initial_residual is not None else None
            ),
            final_residual=(
                float(final_residual) if final_residual is not None else None
            ),
            residual_history=list(residual_history or ()),
        )
    )


def record_projection(
    label: str, basis_size: int, rhs_norm: float, reduced_norm: float
) -> None:
    """Append a projection record (no-op while disabled)."""
    if not _trace._ENABLED:
        return
    current_sink().projections.append(
        ProjectionRecord(
            label=label,
            basis_size=int(basis_size),
            rhs_norm=float(rhs_norm),
            reduced_norm=float(reduced_norm),
        )
    )


def record_comm(
    kind: str,
    label: str,
    messages: int,
    words: float,
    **extra: float,
) -> None:
    """Append a communication record (no-op while disabled)."""
    if not _trace._ENABLED:
        return
    current_sink().comms.append(
        CommRecord(
            kind=kind,
            label=label,
            messages=int(messages),
            words=float(words),
            extra=extra,
        )
    )


def record_value(name: str, value: float, label: str = "") -> None:
    """Append a named scalar fact (no-op while disabled)."""
    if not _trace._ENABLED:
        return
    current_sink().values.append(ValueRecord(name=name, value=float(value), label=label))
