"""Velocity and scalar boundary conditions.

The code supports the paper's benchmark configurations: Dirichlet (no-slip
walls, prescribed inflow such as the Blasius profile of Section 7),
periodic directions (handled topologically by the mesh numbering), and
natural/do-nothing outflow (simply *not* constraining a side, which in the
weak formulation imposes zero traction).

Dirichlet data may be a constant, one callable per component ``f(x, y[, z])``,
or time-dependent ``f(x, y[, z], t)`` — the arity is detected once.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, Optional, Sequence, Union

import numpy as np

from ..core.assembly import DirichletMask
from ..core.mesh import Mesh

__all__ = ["VelocityBC", "ScalarBC"]

Component = Union[float, Callable]


class _SideData:
    """Evaluated Dirichlet data for one side."""

    def __init__(self, mesh: Mesh, side: str, comps: Sequence[Component]):
        self.mask = mesh.boundary[side]
        self.comps = list(comps)
        self.mesh = mesh
        self._time_dependent = any(
            callable(c) and _wants_time(c, mesh.ndim) for c in comps
        )

    def evaluate(self, t: float) -> np.ndarray:
        """The data of every component, one ``(n_comps, K, n...)`` stack."""
        out = np.empty((len(self.comps),) + self.mesh.local_shape)
        for i, c in enumerate(self.comps):
            if callable(c):
                args = [np.asarray(x) for x in self.mesh.coords]
                out[i] = c(*args, t) if _wants_time(c, self.mesh.ndim) else c(*args)
            else:
                out[i] = float(c)
        return out


def _wants_time(f: Callable, ndim: int) -> bool:
    try:
        n_par = len(inspect.signature(f).parameters)
    except (TypeError, ValueError):
        return False
    return n_par > ndim


class VelocityBC:
    """Dirichlet specification for the velocity vector.

    Parameters
    ----------
    mesh:
        The mesh (periodic directions contribute no sides).
    dirichlet:
        Mapping ``side -> components``; components is a scalar/callable per
        velocity component, e.g. ``{"ymin": (0, 0), "xmin": (inflow_u, 0)}``.
        Sides not mentioned are natural (do-nothing) boundaries.
    """

    def __init__(self, mesh: Mesh, dirichlet: Optional[Dict[str, Sequence[Component]]] = None):
        self.mesh = mesh
        dirichlet = dirichlet or {}
        for side in dirichlet:
            if side not in mesh.boundary:
                raise KeyError(
                    f"side {side!r} not on this mesh (have {sorted(mesh.boundary)})"
                )
        for side, comps in dirichlet.items():
            if len(comps) != mesh.ndim:
                raise ValueError(
                    f"side {side!r}: need {mesh.ndim} velocity components, "
                    f"got {len(comps)}"
                )
        self._sides = {
            side: _SideData(mesh, side, comps) for side, comps in dirichlet.items()
        }
        constrained = np.zeros(mesh.local_shape, dtype=bool)
        for sd in self._sides.values():
            constrained |= sd.mask
        self.mask = DirichletMask(constrained)
        self.time_dependent = any(sd._time_dependent for sd in self._sides.values())
        self._cache_t: Optional[float] = None
        self._cache: Optional[np.ndarray] = None

    @classmethod
    def no_slip_all(cls, mesh: Mesh) -> "VelocityBC":
        """Homogeneous Dirichlet on every (non-periodic) side."""
        zero = tuple(0.0 for _ in range(mesh.ndim))
        return cls(mesh, {side: zero for side in mesh.boundary})

    @classmethod
    def none(cls, mesh: Mesh) -> "VelocityBC":
        """Fully periodic / unconstrained problems."""
        return cls(mesh, {})

    def lift(self, t: float = 0.0) -> np.ndarray:
        """Velocity ``(nd, K, n...)`` holding the Dirichlet data on
        constrained nodes (zero elsewhere) — the boundary lift ``u_b`` of
        the solves.  Each call returns a fresh array."""
        return self.apply_to(np.zeros(()), t)

    def apply_to(self, u: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Overwrite constrained nodes of the velocity ``u`` with the
        Dirichlet data (into a fresh array; the cached data is not copied)."""
        if self._cache is None or (self.time_dependent and self._cache_t != t):
            fields = np.zeros((self.mesh.ndim,) + self.mesh.local_shape)
            for sd in self._sides.values():
                fields = np.where(sd.mask, sd.evaluate(t), fields)
            self._cache, self._cache_t = fields, t
        return np.where(self.mask.constrained, self._cache, u)


class ScalarBC:
    """Dirichlet specification for a transported scalar (temperature)."""

    def __init__(self, mesh: Mesh, dirichlet: Optional[Dict[str, Component]] = None):
        self.mesh = mesh
        dirichlet = dirichlet or {}
        for side in dirichlet:
            if side not in mesh.boundary:
                raise KeyError(f"side {side!r} not on this mesh")
        self._sides = {
            side: _SideData(mesh, side, [val]) for side, val in dirichlet.items()
        }
        constrained = np.zeros(mesh.local_shape, dtype=bool)
        for sd in self._sides.values():
            constrained |= sd.mask
        self.mask = DirichletMask(constrained)
        self.time_dependent = any(sd._time_dependent for sd in self._sides.values())

    def lift(self, t: float = 0.0) -> np.ndarray:
        field = np.zeros(self.mesh.local_shape)
        for sd in self._sides.values():
            field = np.where(sd.mask, sd.evaluate(t)[0], field)
        return field

    def apply_to(self, s: np.ndarray, t: float = 0.0) -> np.ndarray:
        return np.where(self.mask.constrained, self.lift(t), s)
