"""Many-run solver service (the Session API).

One process, many solver runs: a :class:`Session` executes
:class:`~repro.api.RunSpec` runs while sharing the amortizable state
between them —

* :class:`FactorCache` — cross-run factorization/operator cache with
  content-hash keys and LRU byte-cap eviction (:mod:`repro.service.cache`);
* :class:`ProjectorPool` — opt-in cross-run successive-RHS projection
  reuse (:mod:`repro.service.session`).

The cache is what pays.  The worker pool is threads and is measured at
0.3x / 0.8x / 1.0-1.3x a sequential loop (K = 96 / 384 / 1536, 2 cores),
so ``workers`` defaults to 1; process workers are the open item.

Workloads are named runners (:mod:`repro.service.runners`); per-run
observability rides on :func:`repro.obs.run_scope`.  See docs/SERVICE.md.
"""

from .cache import (
    CacheStats,
    FactorCache,
    array_signature,
    estimate_nbytes,
    mesh_signature,
)
from .runners import RunContext, execute, get_runner, register, runner_names
from .session import ProjectorPool, RunResult, Session

__all__ = [
    "Session",
    "RunResult",
    "ProjectorPool",
    "FactorCache",
    "CacheStats",
    "mesh_signature",
    "array_signature",
    "estimate_nbytes",
    "RunContext",
    "register",
    "get_runner",
    "runner_names",
    "execute",
]
