"""The many-run solver service: ``Session`` and its process workers.

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
payload under every kernel backend — for a pooled session (below), to the
solo payload computed on one BLAS thread.  Each run executes inside
:func:`repro.obs.run_scope`, so it gets a private region tree, telemetry
sink, and exact per-run flop tally; its schema-versioned run report is the
service's streamed telemetry.  :meth:`Session.summary` aggregates
throughput and cache hit rates into the report schema's ``service``
section.

With ``workers=1`` (the default) runs execute inline in the caller.  With
``workers > 1`` they execute on forked worker *processes* — the paper's
distributed-memory model (Section 6), where each rank owns its data —
because threads do not pay here: the solves are short numpy calls under
the GIL.  Runs are routed by cache-key affinity: a run's content key is
its spec without ``seed``, ``label`` and ``tags``, and the first run of
each key goes to the next worker in round-robin order, later runs of that
key to the same worker.  Runs that share factors therefore share one
worker's cache while the keys stay spread over the pool.  Each worker
holds its own ``FactorCache`` (a fork-time copy of the session's, so it
also inherits the kernel tuner's table) and its own ``ProjectorPool``.
The session's first run executes inline before any worker forks, so the
entries it builds — for runs of one workload, typically the shared mesh
and operators — are built once and inherited by every worker rather than
rebuilt in each.

Every run of a pooled session, the inline first run included, executes on
one OpenBLAS thread: n workers each running the default thread count
oversubscribe the cores, and lose to a sequential loop.  OpenBLAS splits a
dot product of more than 10 000 entries across its threads, so a runner
that takes one matches, pooled, a solo run made with one BLAS thread (e.g.
``OPENBLAS_NUM_THREADS=1``) bitwise, and a default-threaded one only to
rounding.

Accounting crosses the process boundary: each :class:`RunResult` carries
its run's per-category flop tally, which the parent adds to its own
counter (so :func:`repro.perf.flops.counting` around a session sees the
workers' work), and the summary's cache block sums the workers' caches.
A worker that dies fails only the runs routed to it, with a typed
:class:`ServiceWorkerError`; its slot is re-forked for the next run.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import multiprocessing as _mp
import multiprocessing.connection as _mpc
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple,
)

import numpy as np

from .. import obs
from ..api import RunSpec
from ..parallel.exec.mp import _reap, _start_method
from ..perf.flops import add_flops
from ..solvers.projection import SolutionProjector
from .cache import CacheStats, FactorCache
from .runners import RunContext, get_runner

__all__ = ["Session", "RunResult", "ProjectorPool", "ServiceWorkerError"]

#: runs sent ahead to one worker; the rest wait in the parent, so a pipe
#: never fills in both directions at once.
_IN_FLIGHT = 2


def _openblas_thread_controls() -> List[Tuple[Callable, Callable]]:
    """``(get, set)`` thread-count functions of every OpenBLAS build loaded
    in this process (numpy and scipy wheels each ship one, with prefixed
    or 64-bit-suffixed symbols); empty where none can be found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh
                     if "openblas" in line.rsplit("/", 1)[-1]}
    except OSError:
        return []
    controls = []
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                get = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}openblas_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    controls.append((get, set_))
    return controls


@contextlib.contextmanager
def _blas_threads(n: int) -> Iterator[None]:
    """Run the block with ``n`` OpenBLAS threads, then restore the counts."""
    controls = _openblas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(n)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, saved):
            set_(count)


class ServiceWorkerError(RuntimeError):
    """A run's outcome could not come back from its worker process: the
    worker died, or the run's result does not pickle."""


@dataclass
class RunResult:
    """Outcome of one service run."""

    spec: RunSpec
    index: int
    payload: Any = None
    error: Optional[BaseException] = None
    report: Optional[dict] = None
    wall_seconds: float = 0.0
    #: the run's per-category flop tally (its ``run_scope`` counter).
    flops: Dict[str, float] = field(default_factory=dict)

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


def content_key(spec: RunSpec) -> str:
    """The routing key: ``spec`` without ``seed``, ``label`` and ``tags``."""
    doc = spec.as_dict()
    for name in ("seed", "label", "tags"):
        del doc[name]
    return json.dumps(doc, sort_keys=True, default=repr)


def _execute(
    spec: RunSpec,
    index: int,
    cache: FactorCache,
    projectors: ProjectorPool,
    reports: bool,
    remote: bool = False,
) -> RunResult:
    """What :func:`~repro.service.execute` runs, inside a private obs scope.

    A run's exception becomes its ``error``; ``KeyboardInterrupt`` and
    ``SystemExit`` are not a run's outcome and propagate.
    """
    result = RunResult(spec=spec, index=index)
    ctx = RunContext(
        cache=cache,
        rng=np.random.default_rng(spec.seed),
        projectors=projectors if spec.share_projection else None,
        remote=remote,
    )
    t0 = time.perf_counter()
    with obs.run_scope() as scope:
        try:
            result.payload = get_runner(spec.workload)(spec, ctx)
        except Exception as exc:
            result.error = exc
        result.wall_seconds = time.perf_counter() - t0
        result.flops = scope.counter.snapshot()
        if reports:
            result.report = scope.report(meta={
                "service_run": {
                    "index": index,
                    "workload": spec.workload,
                    "label": spec.label,
                    "seed": spec.seed,
                    "config": spec.config.as_dict(),
                    "ok": result.ok,
                    "wall_seconds": result.wall_seconds,
                }
            })
    return result


def _worker_main(slot, conn, parent_end, cache, window, reports, obs_on) -> None:
    """A worker process: execute ``(index, spec)`` messages until ``None``.

    Results go back in arrival order as ``[payload, error, report,
    wall_seconds, flops, cache.as_dict()]``.
    """
    parent_end.close()  # so a dead parent reads as EOF here
    # One BLAS thread per process: n workers each running the default
    # thread count oversubscribe the cores.
    for _, set_ in _openblas_thread_controls():
        set_(1)
    if obs_on:  # a spawned worker does not inherit the switch
        obs.enable()
    cache.stats = CacheStats()  # the parent keeps the pre-fork counts
    projectors = ProjectorPool(max_vectors=window)
    while True:
        try:
            msg = conn.recv()
        except EOFError:
            return
        if msg is None:
            return
        index, spec = msg
        try:
            r = _execute(spec, index, cache, projectors, reports, remote=True)
        except KeyboardInterrupt:  # Ctrl-C reached the process group
            return
        fields = [r.payload, r.error, r.report, r.wall_seconds, r.flops,
                  cache.as_dict()]
        try:
            conn.send(fields)
        except Exception as exc:  # pickling failed; nothing was written
            fields[:2] = [None, ServiceWorkerError(
                f"worker {slot}: run {index} of runner {spec.workload!r} "
                f"returned a result that does not pickle: {exc!r}"
            )]
            conn.send(fields)


class _Job:
    __slots__ = ("spec", "index", "result", "_session")

    def __init__(self, session: "Session", spec: RunSpec, index: int):
        self._session = session
        self.spec = spec
        self.index = index
        self.result: Optional[RunResult] = None

    def wait(self, timeout: Optional[float] = None) -> RunResult:
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.result is None:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise TimeoutError(f"run {self.index} still executing")
            self._session._pump(remaining)
        return self.result


class _Worker:
    """One forked worker process and the runs routed to it, in order."""

    def __init__(self, session: "Session", slot: int):
        ctx = _mp.get_context(_start_method())
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_worker_main,
            args=(slot, child, self.conn, session.cache,
                  session.projection_window, session.reports, obs.enabled()),
            name=f"repro-service-{slot}",
            daemon=True,
        )
        self.proc.start()
        child.close()
        self.slot = slot
        self.sent: Deque[_Job] = deque()
        self.backlog: Deque[_Job] = deque()
        #: the worker's latest ``FactorCache.as_dict()``
        self.cache_stats: Dict[str, Any] = {}

    def top_up(self) -> None:
        while self.backlog and len(self.sent) < _IN_FLIGHT:
            job = self.backlog.popleft()
            self.sent.append(job)
            self.conn.send((job.index, job.spec))


class Session:
    """A many-run solver service over a cache and projector pool.

    Parameters
    ----------
    workers:
        ``1`` executes runs inline in the caller; ``n > 1`` forks ``n``
        worker processes and routes runs to them by cache-key affinity
        (see the module docstring).
    cache:
        A :class:`FactorCache` to share; built internally when omitted.
        Process workers start from a fork-time copy of it and do not
        write back.
    max_cache_bytes:
        Byte cap of the internally built cache.  Each worker's copy
        applies the cap on its own, so with ``n`` workers the session may
        hold up to ``n + 1`` times the cap (the parent's copy included),
        and ``summary()["cache"]["bytes"]``, which sums the workers'
        caches, may exceed it.
    reports:
        Record a schema-versioned per-run report for every run (enables
        the obs layer for the session's lifetime).
    projection_window:
        History length of the projector pool (one pool per worker).

    Use as a context manager; :meth:`close` drains the pending runs and
    reaps the workers.
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
        self.projection_window = int(projection_window)
        self.projectors = ProjectorPool(max_vectors=projection_window)
        self.reports = bool(reports)
        self._slots: List[Optional[_Worker]] = [None] * self.workers
        self._route: Dict[str, int] = {}
        #: last cache stats of reaped workers, so the summary keeps them
        self._retired: List[Dict[str, Any]] = []
        self._results: List[RunResult] = []
        self._submitted = 0
        self._closed = False
        self._t_open = time.perf_counter()
        self._busy_seconds = 0.0
        self._obs_was_enabled: Optional[bool] = None
        if self.reports and not obs.enabled():
            obs.enable()
            self._obs_was_enabled = False

    # ----------------------------------------------------------- worker pool
    def _finish(self, job: _Job, result: RunResult) -> None:
        self._results.append(result)
        self._busy_seconds += result.wall_seconds
        job.result = result

    def _retire(self, worker: _Worker, why: str) -> None:
        """Fail every run routed to ``worker`` and reap it; the slot is
        re-forked for the next run routed there."""
        self._slots[worker.slot] = None
        self._retired.append(worker.cache_stats)
        for job in (*worker.sent, *worker.backlog):
            error = ServiceWorkerError(
                f"worker {worker.slot} (pid {worker.proc.pid}) {why} "
                f"before returning run {job.index} ({job.spec.workload!r})"
            )
            self._finish(job, RunResult(spec=job.spec, index=job.index, error=error))
        worker.conn.close()
        _reap([worker.proc])

    def _receive(self, worker: _Worker) -> None:
        """Complete ``worker``'s oldest in-flight run from its pipe."""
        try:
            raw = worker.conn.recv_bytes()
        except (EOFError, OSError):
            worker.proc.join(1.0)
            self._retire(worker, f"exited (exit code {worker.proc.exitcode})")
            return
        job = worker.sent.popleft()
        result = RunResult(spec=job.spec, index=job.index)
        try:
            (result.payload, result.error, result.report, result.wall_seconds,
             result.flops, worker.cache_stats) = pickle.loads(raw)
        except Exception as exc:
            result.error = ServiceWorkerError(
                f"worker {worker.slot}: the result of run {job.index} "
                f"({job.spec.workload!r}) does not unpickle: {exc!r}"
            )
        for cat, n in result.flops.items():
            add_flops(n, cat)  # the run's flops happened in another process
        self._finish(job, result)
        self._send(worker)

    def _send(self, worker: _Worker) -> None:
        try:
            worker.top_up()
        except OSError:
            self._retire(worker, "exited")

    def _pump(self, timeout: Optional[float]) -> None:
        """Wait up to ``timeout`` for results and complete what arrived."""
        busy = {w.conn: w for w in self._slots if w is not None and w.sent}
        if not busy:
            return
        for conn in _mpc.wait(list(busy), timeout=timeout):
            self._receive(busy[conn])

    # ------------------------------------------------------------- public API
    def submit(self, spec: RunSpec) -> _Job:
        """Start one run; returns a handle with ``wait() -> RunResult``.

        With one worker, and for the session's first run, the run executes
        here and now; otherwise it is routed to its key's worker and
        collected by ``wait``.
        """
        if self._closed:
            raise RuntimeError("session is closed")
        job = _Job(self, spec, self._submitted)
        self._submitted += 1
        if self.workers == 1:
            self._finish(job, _execute(spec, job.index, self.cache,
                                       self.projectors, self.reports))
            return job
        slot = self._route.setdefault(
            content_key(spec), len(self._route) % self.workers
        )
        if job.index == 0:
            # A pooled session's first run warms the cache the workers
            # fork from, so they do not each rebuild what it built; it
            # runs on one BLAS thread, as the workers do.
            with _blas_threads(1):
                self._finish(job, _execute(spec, job.index, self.cache,
                                           self.projectors, self.reports))
            return job
        worker = self._slots[slot]
        if worker is None:
            worker = self._slots[slot] = _Worker(self, slot)
        worker.backlog.append(job)
        self._send(worker)
        return job

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute ``specs``; results in submission order."""
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
        """Completed runs, in completion order."""
        return list(self._results)

    # ---------------------------------------------------------------- summary
    def _cache_summary(self) -> dict:
        """The inline cache's stats, or the parent's counts (its first run)
        plus those of every worker the session started.  Entries and bytes
        are the workers' once any has reported, since each worker's cache
        holds a fork-time copy of the parent's."""
        parent = self.cache.as_dict()
        if self.workers == 1:
            return parent
        workers = [*self._retired,
                   *(w.cache_stats for w in self._slots if w is not None)]
        workers = [p for p in workers if p]
        parts = [parent, *workers]
        total = {k: sum(p[k] for p in parts)
                 for k in ("hits", "misses", "evictions", "build_seconds")}
        for k in ("entries", "bytes"):
            total[k] = sum(p[k] for p in workers) if workers else parent[k]
        lookups = total["hits"] + total["misses"]
        total["hit_rate"] = total["hits"] / lookups if lookups else 0.0
        return total

    def summary(self) -> dict:
        """The report schema's ``service`` section for this session."""
        done = self._results
        wall = time.perf_counter() - self._t_open
        succeeded = sum(1 for r in done if r.ok)
        return {
            "workers": self.workers,
            "runs": len(done),
            "succeeded": succeeded,
            "failed": len(done) - succeeded,
            "wall_seconds": float(wall),
            "busy_seconds": float(self._busy_seconds),
            "throughput_runs_per_s": (len(done) / wall) if wall > 0 else 0.0,
            "cache": self._cache_summary(),
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
        """Finish the pending runs, then stop and reap the workers
        (idempotent).  Runs still pending after ``timeout`` seconds fail
        with :class:`ServiceWorkerError`."""
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + timeout
        while (any(w is not None and w.sent for w in self._slots)
               and time.monotonic() < deadline):
            self._pump(deadline - time.monotonic())
        live = [w for w in self._slots if w is not None]
        for w in live:
            try:
                w.conn.send(None)
            except OSError:
                pass
        for w in live:
            w.proc.join(max(0.0, deadline - time.monotonic()))
            self._retire(w, "was stopped by close()")
        if self._obs_was_enabled is False:
            obs.disable()

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
