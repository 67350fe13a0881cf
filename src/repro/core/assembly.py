"""Direct-stiffness summation (serial gather-scatter) and Dirichlet masks.

The weighted-residual formulation needs only C0 continuity (Section 2), so
assembly is the "QQ^T" operation: nodal values shared by adjacent elements
are exchanged and *summed* in a single local-to-local transformation — the
serial counterpart of the paper's stand-alone ``gs_init``/``gs_op``
message-passing utility (Section 6).  The distributed-memory version, with
the same semantics and a cost model, lives in :mod:`repro.parallel.gs`.

We follow the Nek convention of keeping every field in redundant *local*
(element-by-element) storage.  A field is "continuous" when shared nodes
agree; ``dssum`` takes an arbitrary local field to the continuous field
whose unique-node values are the sums of the local contributions — exactly
what residual assembly requires.

Like the paper's single ``gs_op``, one call serves several fields: a stack
``(m, K, n...)`` of ``m`` fields is gathered with the ids of field ``c``
offset by ``c * n_global``, so one ``bincount`` and one ``take`` cover all
of them.  ``bincount`` sums each bin in input order, so the result is
bitwise equal to ``m`` separate calls.
"""

from __future__ import annotations

import numpy as np

from ..perf.flops import add_flops
from .mesh import Mesh

__all__ = ["Assembler", "DirichletMask"]


class Assembler:
    """Gather-scatter operator built from a global numbering.

    Parameters
    ----------
    global_ids:
        Integer array over local nodes (any shape); equal entries identify
        the same global degree of freedom.
    """

    def __init__(self, global_ids: np.ndarray):
        self.global_ids = np.asarray(global_ids)
        self._flat_ids = self.global_ids.ravel()
        self.n_global = int(self._flat_ids.max()) + 1 if self._flat_ids.size else 0
        counts = np.bincount(self._flat_ids, minlength=self.n_global)
        if np.any(counts == 0):
            raise ValueError("global numbering has unused ids; compress it first")
        #: multiplicity of each *local* node (how many elements share it)
        self.multiplicity = counts[self.global_ids].astype(float)
        self._inv_mult = 1.0 / self.multiplicity
        #: flat ids per stack size m, field c offset by c * n_global
        self._stack_ids = {1: self._flat_ids}

    @classmethod
    def for_mesh(cls, mesh: Mesh) -> "Assembler":
        """Assembler over the GLL nodes of a mesh."""
        return cls(mesh.global_ids)

    @classmethod
    def for_vertices(cls, mesh: Mesh) -> "Assembler":
        """Assembler over the element-vertex (coarse) grid of a mesh."""
        return cls(mesh.vertex_ids)

    # -- local <-> global transfer ------------------------------------------------
    def _ids(self, m: int) -> np.ndarray:
        """Flat ids of a stack of ``m`` fields (built once per ``m``)."""
        if m not in self._stack_ids:
            offsets = self.n_global * np.arange(m)[:, None]
            self._stack_ids[m] = (offsets + self._flat_ids).ravel()
        return self._stack_ids[m]

    def gather(self, u: np.ndarray) -> np.ndarray:
        """Q^T u: sum local values into a global vector of length n_global
        (``m * n_global`` for a stack of ``m`` fields, field by field)."""
        add_flops(u.size, "comm")
        m = u.size // self._flat_ids.size
        # A size that is not a whole number of fields fails the length check.
        return np.bincount(self._ids(m), weights=u.ravel(), minlength=m * self.n_global)

    def scatter(self, g: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Q g: copy global values out to the redundant local layout."""
        m = g.size // self.n_global
        ids = self._ids(m)
        if out is None:
            shape = self.global_ids.shape
            return g[ids].reshape(shape if m == 1 else (m,) + shape)
        np.take(g, ids, out=out.reshape(-1))
        return out

    # -- local-to-local operations (the gs_op analogues) --------------------------
    def dssum(self, u: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Direct-stiffness summation QQ^T u (shared nodes summed).

        ``u`` is one field or a stack ``(m, K, n...)``; the result has its
        shape.  ``out`` (same shape as ``u``, not aliasing it) makes the
        scatter half allocation-free; the gather half retains one
        global-length ``bincount`` buffer (summing via ``np.add.at`` into a
        pooled buffer is an order of magnitude slower than ``bincount``).
        """
        g = self.gather(u)
        if out is None:
            return self.scatter(g).reshape(u.shape)
        return self.scatter(g, out=out)

    def dsavg(self, u: np.ndarray) -> np.ndarray:
        """Average shared nodes: makes any local field (or stack) continuous."""
        add_flops(u.size, "comm")
        return self.dssum(u) * self._inv_mult

    def dsmax(self, u: np.ndarray) -> np.ndarray:
        """Max-reduce shared nodes.

        The serial reference that the property tests check the distributed
        ``gs_op(op="max")`` against.
        """
        g = np.full(self.n_global, -np.inf)
        np.maximum.at(g, self._flat_ids, u.ravel())
        return self.scatter(g)

    def dsmin(self, u: np.ndarray) -> np.ndarray:
        """Min-reduce shared nodes (serial reference for ``gs_op(op="min")``)."""
        g = np.full(self.n_global, np.inf)
        np.minimum.at(g, self._flat_ids, u.ravel())
        return self.scatter(g)

    def is_continuous(self, u: np.ndarray, tol: float = 1e-12) -> bool:
        """True if shared nodes of ``u`` agree to within ``tol``."""
        return bool(np.max(np.abs(u - self.dsavg(u))) <= tol)

    # -- inner products over unique dofs ------------------------------------------
    def dot(self, u: np.ndarray, v: np.ndarray) -> float:
        """Inner product over *unique* global dofs of continuous fields.

        Shared nodes are de-weighted by their multiplicity so each global
        dof counts once; this is the inner product every Krylov solver in
        :mod:`repro.solvers` uses on local storage.
        """
        add_flops(3 * u.size, "dot")
        return float(np.sum(u * v * self._inv_mult))

    def norm(self, u: np.ndarray) -> float:
        """2-norm over unique global dofs."""
        return float(np.sqrt(max(self.dot(u, u), 0.0)))


class DirichletMask:
    """Homogeneous Dirichlet mask over a set of constrained local nodes.

    Wraps a boolean array; ``apply`` zeroes constrained entries in place of
    eliminating rows/columns, the standard matrix-free treatment of
    essential boundary conditions.
    """

    def __init__(self, constrained: np.ndarray):
        self.constrained = np.asarray(constrained, dtype=bool)
        #: 1.0 on free nodes, 0.0 on constrained ones
        self.factor = (~self.constrained).astype(float)

    @classmethod
    def none(cls, shape) -> "DirichletMask":
        """Mask constraining nothing (pure Neumann / periodic problems)."""
        return cls(np.zeros(shape, dtype=bool))

    @property
    def n_constrained(self) -> int:
        return int(self.constrained.sum())

    def apply(self, u: np.ndarray) -> np.ndarray:
        """Return ``u`` with constrained nodes zeroed."""
        return u * self.factor

    def apply_inplace(self, u: np.ndarray) -> np.ndarray:
        u *= self.factor
        return u

    def __or__(self, other: "DirichletMask") -> "DirichletMask":
        return DirichletMask(self.constrained | other.constrained)
