"""Many-run solver service (the Session API).

A :class:`Session` executes :class:`~repro.api.RunSpec` runs while
sharing the amortizable state between them —

* :class:`FactorCache` — cross-run factorization/operator cache with
  content-hash keys, LRU byte-cap eviction and build-time telemetry
  (:mod:`repro.service.cache`);
* :class:`ProjectorPool` — opt-in cross-run successive-RHS projection
  reuse (:mod:`repro.service.session`).

``Session(workers=1)`` runs inline in the caller.  ``workers=n`` runs
its first run inline, then forks n worker processes, each with its own
copy of the (now warm) cache and its own projector pool, and routes every
later run by its content key (the spec without seed, label and tags), so
runs that share factors land on one worker.
A worker that dies or a result that does not pickle fails only its own
runs, with a :class:`ServiceWorkerError`.

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
from .session import ProjectorPool, RunResult, ServiceWorkerError, Session

__all__ = [
    "Session",
    "RunResult",
    "ServiceWorkerError",
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
