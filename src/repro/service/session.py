"""The many-run solver service: ``Session`` and its worker pool.

A :class:`Session` executes many :class:`~repro.api.RunSpec` runs while
sharing the two amortizable assets the runs would otherwise each rebuild:

* a :class:`~repro.service.FactorCache` of factorizations and operators
  (FDM eigenpairs, Schwarz subdomain solves, static-condensation factors,
  meshes) keyed by content signatures;
* a pool of successive-RHS :class:`~repro.solvers.projection.SolutionProjector`
  histories, so a run can warm-start its pressure solves from solutions
  computed by *earlier runs* on the same operator (opt-in per spec — it
  deliberately changes iterate trajectories).

A run in a session executes exactly the code :func:`repro.service.execute`
(the solo path) executes, so its payload is bitwise equal to the solo
payload under every kernel backend.  Each run executes inside
:func:`repro.obs.run_scope`, so it gets a private region tree, telemetry
sink, and exact per-run flop tally; its schema-versioned run report is the
service's streamed telemetry.  :meth:`Session.summary` aggregates
throughput and cache hit rates into the report schema's ``service``
section.

The pool is worker *threads*, and the measurement is that it does not pay:
the solves are short numpy calls under the GIL, and ``Session(workers=2)``
ran at 0.3x / 0.8x / 1.0-1.3x the rate of a sequential loop on the same
cache at K = 96 / 384 / 1536 on 2 cores.  Hence ``workers=1`` by default —
the cache is the part that pays.  Process workers with cache-key affinity
are the open item (ROADMAP item 2).
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from .. import obs
from ..api import RunSpec
from ..solvers.projection import SolutionProjector
from .cache import FactorCache
from .runners import RunContext, get_runner

__all__ = ["Session", "RunResult", "ProjectorPool"]


@dataclass
class RunResult:
    """Outcome of one service run."""

    spec: RunSpec
    index: int
    payload: Any = None
    error: Optional[BaseException] = None
    report: Optional[dict] = None
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.error is None


class ProjectorPool:
    """Shared successive-RHS projection histories, one per operator.

    ``acquire(key, matvec, dot)`` hands back a ``(projector, lock)`` pair
    for the operator identified by ``key`` (e.g. a mesh signature + solve
    label).  Locks are taken non-blocking by callers: if another run holds
    the projector, the caller simply solves without projection rather than
    serializing — reuse is an acceleration, never a synchronization point.
    """

    def __init__(self, max_vectors: int = 20):
        self.max_vectors = int(max_vectors)
        self._lock = threading.Lock()
        self._pool: Dict[Any, tuple] = {}

    def acquire(self, key, matvec, dot):
        with self._lock:
            pair = self._pool.get(key)
            if pair is None:
                pair = (
                    SolutionProjector(matvec, dot, self.max_vectors),
                    threading.Lock(),
                )
                self._pool[key] = pair
            return pair

    def __len__(self) -> int:
        return len(self._pool)


class _Job:
    __slots__ = ("spec", "index", "result", "event")

    def __init__(self, spec: RunSpec, index: int):
        self.spec = spec
        self.index = index
        self.result: Optional[RunResult] = None
        self.event = threading.Event()

    def wait(self, timeout: Optional[float] = None) -> RunResult:
        if not self.event.wait(timeout):
            raise TimeoutError(f"run {self.index} still executing")
        assert self.result is not None
        return self.result


class Session:
    """A many-run solver service over a shared cache and projector pool.

    Parameters
    ----------
    workers:
        Worker-thread count: up to ``workers`` runs execute concurrently
        (measured slower than 1 below K ~ 1536; see the module docstring).
    cache:
        A :class:`FactorCache` to share; built internally when omitted
        (``max_cache_bytes`` caps it).
    reports:
        Record a schema-versioned per-run report for every run (enables
        the obs layer for the session's lifetime).
    projection_window:
        History length of the shared projector pool.

    Use as a context manager; :meth:`close` joins the workers.
    """

    def __init__(
        self,
        workers: int = 1,
        cache: Optional[FactorCache] = None,
        reports: bool = True,
        max_cache_bytes: Optional[int] = None,
        projection_window: int = 20,
    ):
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = int(workers)
        self.cache = cache if cache is not None else FactorCache(max_cache_bytes)
        self.projectors = ProjectorPool(max_vectors=projection_window)
        self.reports = bool(reports)
        self._queue: "queue.Queue[Optional[_Job]]" = queue.Queue()
        self._threads: List[threading.Thread] = []
        self._results: List[RunResult] = []
        self._results_lock = threading.Lock()
        self._submitted = 0
        self._closed = False
        self._t_open = time.perf_counter()
        self._busy_seconds = 0.0
        self._obs_was_enabled: Optional[bool] = None
        if self.reports and not obs.enabled():
            obs.enable()
            self._obs_was_enabled = False

    # ----------------------------------------------------------- worker pool
    def _ensure_workers(self) -> None:
        while len(self._threads) < self.workers:
            t = threading.Thread(
                target=self._worker,
                name=f"repro-service-{len(self._threads)}",
                daemon=True,
            )
            t.start()
            self._threads.append(t)

    def _worker(self) -> None:
        while True:
            job = self._queue.get()
            if job is None:
                self._queue.task_done()
                return
            result = self._execute(job)
            with self._results_lock:
                self._results.append(result)
                self._busy_seconds += result.wall_seconds
            job.result = result
            job.event.set()
            self._queue.task_done()

    def _execute(self, job: _Job) -> RunResult:
        spec = job.spec
        result = RunResult(spec=spec, index=job.index)
        ctx = RunContext(
            cache=self.cache,
            rng=np.random.default_rng(spec.seed),
            projectors=self.projectors if spec.share_projection else None,
        )
        t0 = time.perf_counter()
        with obs.run_scope() as scope:
            try:
                result.payload = get_runner(spec.workload)(spec, ctx)
            except BaseException as exc:
                result.error = exc
            result.wall_seconds = time.perf_counter() - t0
            if self.reports:
                result.report = scope.report(meta=self._run_meta(result))
        return result

    def _run_meta(self, result: RunResult) -> dict:
        spec = result.spec
        return {
            "service_run": {
                "index": result.index,
                "workload": spec.workload,
                "label": spec.label,
                "seed": spec.seed,
                "config": spec.config.as_dict(),
                "ok": result.ok,
                "wall_seconds": result.wall_seconds,
            }
        }

    # ------------------------------------------------------------- public API
    def submit(self, spec: RunSpec) -> _Job:
        """Enqueue one run; returns a handle with ``wait() -> RunResult``."""
        if self._closed:
            raise RuntimeError("session is closed")
        self._ensure_workers()
        job = _Job(spec, self._submitted)
        self._submitted += 1
        self._queue.put(job)
        return job

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute ``specs`` on the pool; results in submission order."""
        jobs = [self.submit(s) for s in specs]
        return [j.wait() for j in jobs]

    def map(self, specs: Sequence[RunSpec]) -> List[Any]:
        """Like :meth:`run` but returns payloads, raising the first error."""
        out = []
        for r in self.run(specs):
            if r.error is not None:
                raise r.error
            out.append(r.payload)
        return out

    @property
    def results(self) -> List[RunResult]:
        with self._results_lock:
            return list(self._results)

    # ---------------------------------------------------------------- summary
    def summary(self) -> dict:
        """The report schema's ``service`` section for this session."""
        with self._results_lock:
            done = list(self._results)
            busy = self._busy_seconds
        wall = time.perf_counter() - self._t_open
        succeeded = sum(1 for r in done if r.ok)
        return {
            "workers": self.workers,
            "runs": len(done),
            "succeeded": succeeded,
            "failed": len(done) - succeeded,
            "wall_seconds": float(wall),
            "busy_seconds": float(busy),
            "throughput_runs_per_s": (len(done) / wall) if wall > 0 else 0.0,
            "cache": self.cache.as_dict(),
            # Constants: there is no cross-run fusion.  Kept only because
            # bench/workloads.py (sweep64, traced runs) reads these two keys
            # for the service.batcher.* per-layer metrics; the literal goes
            # when a benchmark PR drops those metrics.
            "batching": {"fused_groups": 0, "mean_occupancy": 1.0},
        }

    def report(self, meta: Optional[dict] = None) -> dict:
        """A schema-valid service-level report (global obs + ``service``)."""
        return obs.report_json(meta=meta, service=self.summary())

    # ------------------------------------------------------------------ close
    def close(self, timeout: float = 30.0) -> None:
        """Drain the queue and join the workers (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for _ in self._threads:
            self._queue.put(None)
        for t in self._threads:
            t.join(timeout)
        if self._obs_was_enabled is False:
            obs.disable()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
