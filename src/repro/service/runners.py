"""Workload runners: the functions a :class:`~repro.service.Session` executes.

A runner is ``fn(spec, ctx) -> payload``: it receives one
:class:`~repro.api.RunSpec` and a :class:`RunContext` (the session's
shared :class:`~repro.service.FactorCache` plus the run's seeded RNG) and
returns a JSON-friendly-ish payload (arrays allowed — the service keeps
payloads in memory; reports serialize only scalars).  Runners must be
**deterministic in (spec, seed)**: every random choice draws from
``ctx.rng`` and every solver is built through the config, which is what
makes "same spec ⇒ bitwise-identical payload" a testable property solo vs
in a session.

The registry is open: :func:`register` adds project- or test-local
workloads without touching this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

import numpy as np

from ..api import RunSpec, SolverConfig
from .cache import FactorCache, mesh_signature

__all__ = ["RunContext", "register", "get_runner", "runner_names", "execute"]


@dataclass
class RunContext:
    """Shared state a runner may draw on."""

    cache: Optional[FactorCache] = None
    rng: np.random.Generator = field(
        default_factory=lambda: np.random.default_rng(0)
    )
    #: session-owned successive-RHS projector pool (None for solo runs).
    projectors: Optional[Any] = None


_REGISTRY: Dict[str, Callable[[RunSpec, RunContext], Any]] = {}


def register(name: str):
    """Decorator registering a workload runner under ``name``."""

    def deco(fn: Callable[[RunSpec, RunContext], Any]):
        _REGISTRY[name] = fn
        return fn

    return deco


def get_runner(name: str) -> Callable[[RunSpec, RunContext], Any]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; registered: {sorted(_REGISTRY)}"
        ) from None


def runner_names() -> list:
    return sorted(_REGISTRY)


def execute(spec: RunSpec, cache: Optional[FactorCache] = None) -> Any:
    """Run one spec synchronously outside any session (the solo path)."""
    ctx = RunContext(cache=cache, rng=np.random.default_rng(spec.seed))
    return get_runner(spec.workload)(spec, ctx)


# ---------------------------------------------------------------------------
# Built-in workloads.
# ---------------------------------------------------------------------------
@register("table2")
def _run_table2(spec: RunSpec, ctx: RunContext) -> dict:
    """One Table-2 pressure solve: the sweep/benchmark workhorse.

    ``params``: ``level`` (0-2), ``order``.  The deterministic impulsive
    -start RHS is part of the case, so the payload is bitwise-comparable
    across executions regardless of seed.
    """
    from ..workloads.cylinder_model import Table2Case

    case = Table2Case(
        level=int(spec.params.get("level", 0)),
        order=int(spec.params.get("order", 7)),
        cache=ctx.cache,
    )
    projector = lock = None
    if ctx.projectors is not None:
        key = ("table2", mesh_signature(case.mesh), spec.config.pressure_variant)
        projector, lock = ctx.projectors.acquire(
            key, case.pop.matvec, case.pop.dot
        )
        if not lock.acquire(blocking=False):
            # Another run holds this history: solve without projection
            # rather than serialize (reuse is an acceleration, never a
            # synchronization point).
            projector = lock = None
    try:
        x = case.solve(spec.config, projector=projector)
    finally:
        if lock is not None:
            lock.release()
    return {
        "x": x,
        "iterations": case.last_iterations,
        "converged": case.last_converged,
        "K": case.mesh.K,
    }


def _poisson_mesh(params, cache: Optional[FactorCache]):
    from ..core.mesh import box_mesh_2d, map_mesh

    n = int(params.get("n", 4))
    order = int(params.get("order", 6))
    deformed = bool(params.get("deformed", False))

    def build():
        mesh = box_mesh_2d(n, n, order)
        if deformed:
            def warp(x, y):
                return (
                    x + 0.06 * np.sin(np.pi * x) * np.sin(np.pi * y),
                    y - 0.06 * np.sin(np.pi * x) * np.sin(np.pi * y),
                )
            mesh = map_mesh(mesh, warp)
        return mesh

    if cache is None:
        return build()
    return cache.get(("poisson_mesh", n, order, deformed), build)


@register("poisson")
def _run_poisson(spec: RunSpec, ctx: RunContext) -> dict:
    """A condensed Poisson solve with a seeded random load.

    Small and fast — the unit-test workload for determinism, cache-key,
    and solo-parity checks.  ``params``: ``n`` (elements per direction),
    ``order``, ``deformed`` (bool), ``h1``/``h0``.
    """
    from ..api import poisson_solver

    mesh = _poisson_mesh(spec.params, ctx.cache)
    solver = poisson_solver(
        mesh,
        h1=float(spec.params.get("h1", 1.0)),
        h0=float(spec.params.get("h0", 0.0)),
        config=spec.config,
        cache=ctx.cache,
    )
    f = ctx.rng.standard_normal(mesh.local_shape)
    res = solver.solve(f, tol=spec.config.tol, maxiter=spec.config.maxiter)
    return {
        "x": res.u,
        "iterations": res.iterations,
        "converged": res.converged,
        "mesh_signature": mesh_signature(mesh),
    }


@register("stokes")
def _run_stokes(spec: RunSpec, ctx: RunContext) -> dict:
    """A steady forced Stokes solve on a box mesh.

    ``params``: ``n``, ``order``, ``re``.  Forcing is a fixed smooth field
    (deterministic); the payload carries velocity/pressure arrays.
    """
    from ..api import stokes_solver
    from ..core.mesh import box_mesh_2d

    n = int(spec.params.get("n", 3))
    order = int(spec.params.get("order", 6))

    def build():
        return box_mesh_2d(n, n, order)

    mesh = (
        ctx.cache.get(("stokes_mesh", n, order), build)
        if ctx.cache is not None
        else build()
    )
    solver = stokes_solver(
        mesh,
        re=float(spec.params.get("re", 1.0)),
        config=spec.config,
        cache=ctx.cache,
    )
    res = solver.solve(
        forcing=lambda x, y: (np.sin(np.pi * x) * np.cos(np.pi * y),
                              -np.cos(np.pi * x) * np.sin(np.pi * y))
    )
    return {
        "u": res.u,
        "p": res.p,
        "pressure_iterations": res.pressure_iterations,
        "divergence_norm": res.divergence_norm,
        "converged": res.converged,
    }


@register("shear_layer")
def _run_shear_layer(spec: RunSpec, ctx: RunContext) -> dict:
    """A short shear-layer roll-up integration (the report CLI's workload).

    ``params``: ``n_elements``, ``order``, ``steps``, ``re``, ``dt``,
    ``filter_alpha``.  The solver-stack decisions (``pressure_tol``,
    ``projection_window``) come from ``spec.config``.
    """
    from ..workloads.shear_layer import ShearLayerCase

    case = ShearLayerCase(
        n_elements=int(spec.params.get("n_elements", 16)),
        order=int(spec.params.get("order", 8)),
        re=float(spec.params.get("re", 1e5)),
        dt=float(spec.params.get("dt", 0.002)),
        filter_alpha=float(spec.params.get("filter_alpha", 0.3)),
        pressure_tol=spec.config.pressure_tol,
        projection_window=spec.config.projection_window,
    )
    steps = int(spec.params.get("steps", 5))
    for _ in range(steps):
        case.solver.step()
    stats = case.solver.stats
    return {
        "steps": steps,
        "pressure_iterations": [s.pressure_iterations for s in stats],
        "final_time": case.solver.t,
        "case": case,
    }
