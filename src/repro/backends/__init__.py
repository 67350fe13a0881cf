"""Kernel backends with shape-aware auto-tuned dispatch.

The paper's Section 6 finding — mxm kernels are >90% of all flops and no
single kernel wins on every calling shape (Table 3) — becomes an
architecture here: the rest of the library calls
:func:`repro.backends.apply_1d` (or binds a :class:`~repro.backends.dispatch.StagePlan`
of such calls), and this package decides *which* kernel runs it.

Layout:

* :mod:`repro.backends.base`           — :class:`KernelBackend` protocol and
  :class:`Workspace` buffer pool (zero-allocation hot paths),
* :mod:`repro.backends.numpy_backends` — the ``matmul`` / ``einsum`` /
  ``flat`` kernel family, the whole registry,
* :mod:`repro.backends.dispatch`       — registry, sanitized entry points,
  flop accounting and the :class:`AutoTuneDispatcher` (default), which
  picks a kernel per shape once per process.

Select a backend with ``REPRO_BACKEND=matmul`` in the environment, the CLI
``--backend`` flag, or :func:`set_backend` / :func:`use_backend`; inspect
the tuner with :func:`backend_report`.  See docs/BACKENDS.md.
"""

from .base import KERNEL_POINTS, KernelBackend, Workspace
from .dispatch import (
    AutoTuneDispatcher,
    active_backend,
    apply_1d,
    apply_tensor,
    available_backends,
    backend_report,
    backend_tallies,
    batched_matvec,
    dispatch_choices,
    get_backend,
    set_backend,
    use_backend,
)
from .numpy_backends import EinsumBackend, FlattenedBackend, MatmulBackend

__all__ = [
    "KERNEL_POINTS",
    "KernelBackend",
    "Workspace",
    "AutoTuneDispatcher",
    "MatmulBackend",
    "EinsumBackend",
    "FlattenedBackend",
    "available_backends",
    "get_backend",
    "active_backend",
    "set_backend",
    "use_backend",
    "backend_report",
    "backend_tallies",
    "dispatch_choices",
    "apply_1d",
    "apply_tensor",
    "batched_matvec",
]
