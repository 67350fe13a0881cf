"""Unified construction API: one typed config, one run spec, and the
cache-routing facades.

Historically each solver front door grew its own ad-hoc keyword spelling
of the same decisions — ``NavierStokesSolver(pressure_variant=...)``,
``Table2Case.run(variant=...)`` — which made programmatic sweeps (the
service layer's bread and butter) stringly and error-prone.  This module
is the single typed vocabulary:

* :class:`SolverConfig` — every solver-stack decision (preconditioner
  tier, overlap, coarse grid, tolerances, projection window) as one frozen
  dataclass.  Construct once, ``replace()`` per variant, pass everywhere.
* :class:`RunSpec` — one service run: a workload name, its parameters, a
  :class:`SolverConfig`, and a seed.  The unit the
  :class:`repro.service.Session` queue executes and the unit of
  determinism (same spec + seed ⇒ bitwise-identical results).
* Facades that own cache routing (:func:`poisson_solver`,
  :func:`pmg_preconditioner`, :func:`pressure_preconditioner`).  Each
  accepts an optional :class:`repro.service.FactorCache` so amortizable
  setup (FDM eigenpairs, XXT factors, Schwarz subdomain operators,
  condensation factors) is shared across constructions.  The steppers and
  the Table 2 case take ``config=`` / ``cache=`` themselves:
  ``NavierStokesSolver(mesh, re, dt, config=..., cache=...)`` and
  ``Table2Case(level, order, cache=...)``.

``config=`` is the only spelling: the solver constructors take no
per-decision keywords, so an old one is a plain :class:`TypeError`.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

__all__ = [
    "SolverConfig",
    "RunSpec",
    "poisson_solver",
    "pmg_preconditioner",
    "pressure_preconditioner",
]

@dataclass(frozen=True)
class SolverConfig:
    """Every solver-stack decision in one typed, immutable object.

    Fields cover the union of the solver front doors; each consumer reads
    the subset it understands (a Poisson solve ignores ``helmholtz_tol``,
    a Navier-Stokes run ignores ``tol``).  Defaults reproduce the old
    per-constructor defaults exactly.
    """

    #: pressure local-solve tier: "fdm" / "fem" Schwarz, or "condensed"
    #: (the zero-overlap fdm tier; ``overlap`` is ignored).
    pressure_variant: str = "fdm"
    #: Schwarz gridpoint overlap N_o (fem study: 0/1/3).
    overlap: int = 1
    #: include the R_0^T A_0^{-1} R_0 coarse term.
    use_coarse: bool = True
    #: absolute tolerance factor of standalone elliptic solves (Table 2).
    tol: float = 1e-5
    #: iteration cap for the outer solve.
    maxiter: int = 3000
    #: relative tolerance of the pressure solve inside the NS stepper.
    pressure_tol: float = 1e-8
    #: relative tolerance of the velocity Helmholtz solves (NS).
    helmholtz_tol: float = 1e-10
    #: successive-RHS projection window L (0 disables; Fig. 4).
    projection_window: int = 20
    #: p-MG smoother: "jacobi" or "chebyshev".
    pmg_smoother: str = "jacobi"
    #: p-MG coarsest-level solve: "cg" (Jacobi-PCG) or "condensed"
    #: (interface-only condensed PCG; needs coarsest order >= 2).
    pmg_coarse: str = "cg"

    def __post_init__(self):
        if self.pressure_variant not in ("fdm", "fem", "condensed"):
            raise ValueError(
                f"unknown pressure_variant {self.pressure_variant!r}; "
                "use 'fdm', 'fem' or 'condensed'"
            )
        if self.pmg_smoother not in ("jacobi", "chebyshev"):
            raise ValueError(
                f"unknown pmg_smoother {self.pmg_smoother!r}; "
                "use 'jacobi' or 'chebyshev'"
            )
        if self.pmg_coarse not in ("cg", "condensed"):
            raise ValueError(
                f"unknown pmg_coarse {self.pmg_coarse!r}; use 'cg' or 'condensed'"
            )

    def replace(self, **changes) -> "SolverConfig":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready field mapping (report meta, cache keys)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "SolverConfig":
        """Inverse of :meth:`as_dict`; unknown keys are rejected."""
        names = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(d) - names)
        if unknown:
            raise ValueError(f"unknown SolverConfig fields: {unknown}")
        return cls(**dict(d))


@dataclass(frozen=True)
class RunSpec:
    """One service run: workload + parameters + config + seed.

    ``workload`` names a runner registered in :mod:`repro.service.runners`
    (``"table2"``, ``"poisson"``, ``"shear_layer"``, ...);
    ``params`` are that runner's keyword parameters (mesh size, level,
    steps...).  ``seed`` pins every random choice the runner makes, which
    is what makes "same spec ⇒ bitwise-identical result" testable solo vs
    in a session.  ``share_projection=True`` opts a run *into* the
    session's cross-request successive-RHS projection pool (off by default
    because sharing history across runs changes iterate trajectories,
    breaking solo/session bitwise parity on purpose).
    """

    workload: str
    params: Mapping[str, Any] = field(default_factory=dict)
    config: SolverConfig = field(default_factory=SolverConfig)
    seed: int = 0
    label: str = ""
    tags: Tuple[str, ...] = ()
    share_projection: bool = False

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (service report meta, ``serve`` I/O)."""
        return {
            "workload": self.workload,
            "params": dict(self.params),
            "config": self.config.as_dict(),
            "seed": self.seed,
            "label": self.label,
            "tags": list(self.tags),
            "share_projection": self.share_projection,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "RunSpec":
        """Build a spec from a JSON document (the ``serve`` wire format).

        Unknown keys raise: a misspelt ``"parms"`` must not silently run
        the default problem.  So do mistyped values: ``"false"`` is not a
        bool (it would opt the run into the shared projection pool), a
        string is not a tag list, ``"7"`` is not a seed, ``5`` is not a
        label or a workload, and a list of pairs is not ``params``.
        """
        d = dict(d)
        unknown = sorted(set(d) - {f.name for f in dataclasses.fields(cls)})
        if unknown:
            raise ValueError(f"unknown RunSpec fields: {unknown}")
        workload = d["workload"]
        if not isinstance(workload, str):
            raise ValueError(f"RunSpec workload must be a string, got {workload!r}")
        params = d.get("params") or {}
        if not isinstance(params, Mapping):
            raise ValueError(f"RunSpec params must be a mapping, got {params!r}")
        label = d.get("label", "")
        if not isinstance(label, str):
            raise ValueError(f"RunSpec label must be a string, got {label!r}")
        config = d.get("config") or {}
        if not isinstance(config, SolverConfig):
            config = SolverConfig.from_dict(config)
        seed = d.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, numbers.Integral):
            raise ValueError(f"RunSpec seed must be an integer, got {seed!r}")
        tags = d.get("tags") or ()
        if not isinstance(tags, (list, tuple)) or not all(
            isinstance(t, str) for t in tags
        ):
            raise ValueError(f"RunSpec tags must be a list of strings, got {tags!r}")
        share = d.get("share_projection", False)
        if not isinstance(share, bool):
            raise ValueError(
                f"RunSpec share_projection must be a bool, got {share!r}"
            )
        return cls(
            workload=workload,
            params=dict(params),
            config=config,
            seed=int(seed),
            label=label,
            tags=tuple(tags),
            share_projection=share,
        )


# ---------------------------------------------------------------------------
# Facade constructors: one uniform spelling for every solver front door.
# All imports are deferred so `repro.api` stays importable from the solver
# modules themselves (they import SolverConfig).
# ---------------------------------------------------------------------------
def poisson_solver(mesh, h1: float = 1.0, h0: float = 0.0,
                   config: Optional[SolverConfig] = None, cache=None):
    """A :class:`~repro.solvers.condensed.CondensedPoissonSolver` for ``mesh``.

    With a :class:`~repro.service.FactorCache`, the condensation factors
    (interior eigenpairs / Cholesky blocks, Schur complements) are built
    once per (mesh, h1, h0) and shared across constructions.
    """
    from .solvers.condensed import CondensedPoissonSolver

    config = config if config is not None else SolverConfig()
    if cache is None:
        return CondensedPoissonSolver(mesh, h1=h1, h0=h0)
    from .service.cache import mesh_signature

    return cache.get(
        ("condensed_poisson", mesh_signature(mesh), float(h1), float(h0)),
        lambda: CondensedPoissonSolver(mesh, h1=h1, h0=h0),
    )


def pmg_preconditioner(mesh, h1: float = 1.0, h0: float = 0.0,
                       dirichlet_sides=None,
                       config: Optional[SolverConfig] = None, cache=None):
    """A :class:`~repro.solvers.pmultigrid.PMultigrid` V-cycle for ``mesh``.

    Builds the p-hierarchy and the preconditioner from the config's
    ``pmg_smoother`` / ``pmg_coarse`` choices; the condensed coarse solve
    floors the order schedule at 2 so the coarsest level keeps interior
    dofs.  Returns ``(pmg, levels)`` — the finest level's
    :class:`~repro.core.operators.SEMSystem` is ``levels[0].system``, what
    an outer PCG iterates with.  With a :class:`~repro.service.FactorCache`
    the hierarchy + preconditioner pair is built once per
    (mesh, h1, h0, sides, smoother, coarse) and shared.
    """
    from .solvers.pmultigrid import PMultigrid, build_p_hierarchy

    config = config if config is not None else SolverConfig()
    min_order = 2 if config.pmg_coarse == "condensed" else 1

    def build():
        levels = build_p_hierarchy(
            mesh, h1=h1, h0=h0, dirichlet_sides=dirichlet_sides,
            min_order=min_order,
        )
        pmg = PMultigrid(
            levels, smoother=config.pmg_smoother, coarse=config.pmg_coarse
        )
        return pmg, levels

    if cache is None:
        return build()
    from .service.cache import mesh_signature

    sides = tuple(dirichlet_sides) if dirichlet_sides is not None else None
    return cache.get(
        ("pmg", mesh_signature(mesh), float(h1), float(h0), sides,
         config.pmg_smoother, config.pmg_coarse),
        build,
    )


def pressure_preconditioner(mesh, pop, config: Optional[SolverConfig] = None,
                            cache=None):
    """The ``E``-system preconditioner a config selects, for ``pop``.

    Always a :class:`~repro.solvers.schwarz.SchwarzPreconditioner` with
    the config's ``pressure_variant`` (``"fdm"`` / ``"fem"``), ``overlap``
    and ``use_coarse``.  ``"condensed"`` is resolved to ``"fdm"`` with
    zero overlap first: condensing the zero-overlap FDM block gives the
    block's own inverse, so both spellings share one preconditioner.  This
    is the one reader of those three fields: the Navier-Stokes stepper
    and the Table 2 case both come here.  With a
    :class:`~repro.service.FactorCache` the preconditioner is built once
    per (mesh, velocity mask, variant, overlap, use_coarse) and shared
    across all of them.
    """
    from .solvers.schwarz import SchwarzPreconditioner

    config = config if config is not None else SolverConfig()
    variant, overlap = config.pressure_variant, config.overlap
    if variant == "condensed":
        variant, overlap = "fdm", 0

    def build():
        return SchwarzPreconditioner(
            mesh, pop, variant, overlap=overlap, use_coarse=config.use_coarse
        )

    if cache is None:
        return build()
    from .service.cache import array_signature, mesh_signature

    return cache.get(
        ("pressure_precond", mesh_signature(mesh),
         array_signature(pop.vel_mask.constrained), variant, overlap,
         config.use_coarse),
        build,
    )
