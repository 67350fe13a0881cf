"""Process-level substrate: SPMD rank programs on real ``multiprocessing``
workers with ``shared_memory`` payload transfer.

This is the executable counterpart of the virtual-clock simulator: the
*same* rank program text (gs_op, distributed CG, XXT fan-in/out) runs on
P OS processes, ships real bytes, and is timed with real clocks — the
repro's analogue of running the paper's code on actual hardware instead
of the alpha-beta model (Section 6, Table 4).

Transport
---------
* one duplex pipe per rank pair carries headers and small payloads;
* large ndarrays travel through named ``multiprocessing.shared_memory``
  segments: the sender copies into a fresh segment and sends a header,
  the receiver attaches, copies out, and unlinks — no fixed slab sizing,
  no chunk protocol, deadlock-free at any message size; segments carry
  run-prefixed names so the driver's cleanup can sweep /dev/shm for
  anything a terminated worker left in flight;
* pairwise exchanges order sends by rank (lower sends first) and rank
  programs visit neighbors in ascending order — the same deadlock-free
  schedule the simulated substrate uses.

Collectives gather to rank 0, fold **in ascending rank order** (the
canonical algorithm shared with the simulator — see
:mod:`repro.parallel.protocol`), and broadcast, so results are
bitwise-identical to the simulated substrate's.

Determinism & safety
--------------------
Workers reseed ``numpy``/``random`` from a base seed (the test suite's
per-nodeid ``REPRO_TEST_SEED``) hashed with their rank, run as daemons (no
orphans past the parent), and the driver enforces a wall-clock timeout
with terminate-and-join cleanup.
"""

from __future__ import annotations

import hashlib
import itertools
import multiprocessing as _mp
import multiprocessing.connection as _mpc
import os
import random
import time
import traceback
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..machine import Machine
from ..protocol import Comm, CommStats, _Timer, payload_words, reduce_in_rank_order

__all__ = [
    "MpComm",
    "run_mp",
    "SPMDWorkerError",
    "SPMDTimeoutError",
    "derive_rank_seed",
    "SHM_THRESHOLD",
]

#: ndarray payloads at or above this many bytes ride shared memory.
SHM_THRESHOLD = int(os.environ.get("REPRO_SHM_THRESHOLD", 1 << 15))


class SPMDWorkerError(RuntimeError):
    """A worker rank raised; carries the remote traceback text."""


class SPMDTimeoutError(RuntimeError):
    """The SPMD run exceeded its wall-clock budget (workers terminated)."""


def derive_rank_seed(base: str, rank: int) -> int:
    """Deterministic per-rank RNG seed from a base token (nodeid) + rank."""
    digest = hashlib.sha256(f"{base}:{rank}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def _untrack_shm(name: str) -> None:
    """Detach a segment from this process's resource tracker.

    Ownership transfers to the receiver (who unlinks after copying); the
    tracker would otherwise warn about 'leaked' segments at shutdown.
    """
    try:  # pragma: no cover - depends on interpreter internals
        from multiprocessing import resource_tracker

        resource_tracker.unregister("/" + name.lstrip("/"), "shared_memory")
    except Exception:
        pass


class _ShmNamer:
    """Run-scoped segment names: ``{prefix}r{rank}c{counter}``.

    Ownership of a segment transfers to the receiver, so a segment created
    for an in-flight message leaks if the timeout path terminates the
    receiver before it attaches.  Deterministic run-prefixed names let the
    driver sweep-unlink every survivor in its cleanup path.
    """

    def __init__(self, prefix: str, rank: int):
        self.prefix = prefix
        self.rank = rank
        self.count = 0

    def __call__(self) -> str:
        self.count += 1
        return f"{self.prefix}r{self.rank}c{self.count}"


def _send_payload(conn, payload: Any, namer: Optional[_ShmNamer] = None) -> None:
    """Ship a payload: small/other objects inline, large ndarrays via shm."""
    if isinstance(payload, np.ndarray) and payload.nbytes >= SHM_THRESHOLD:
        from multiprocessing import shared_memory

        arr = np.ascontiguousarray(payload)
        if namer is not None:
            shm = shared_memory.SharedMemory(
                create=True, size=arr.nbytes, name=namer()
            )
        else:
            shm = shared_memory.SharedMemory(create=True, size=arr.nbytes)
        np.frombuffer(shm.buf, dtype=arr.dtype, count=arr.size)[:] = arr.ravel()
        name = shm.name
        shm.close()
        _untrack_shm(name)
        conn.send(("shm", name, arr.shape, arr.dtype.str))
    else:
        conn.send(("obj", payload))


def _recv_payload(conn) -> Any:
    msg = conn.recv()
    if msg[0] == "obj":
        return msg[1]
    _, name, shape, dtype = msg
    from multiprocessing import shared_memory

    shm = shared_memory.SharedMemory(name=name)
    try:
        n = int(np.prod(shape)) if shape else 1
        arr = np.frombuffer(shm.buf, dtype=dtype, count=n).reshape(shape).copy()
    finally:
        shm.close()
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
    return arr


class MpComm(Comm):
    """One worker rank's communicator over pipes + shared memory."""

    def __init__(
        self,
        rank: int,
        size: int,
        peers: Dict[int, Any],
        barrier,
        machine: Machine,
        shm_prefix: Optional[str] = None,
    ):
        self.rank = rank
        self.size = size
        self.peers = peers
        self._barrier = barrier
        self.machine = machine
        self._stats = CommStats(rank=rank)
        self._shm_namer = (
            _ShmNamer(shm_prefix, rank) if shm_prefix is not None else None
        )

    # ------------------------------------------------------------- protocol ops
    def compute(self, flops: float, mxm_fraction: float = 1.0) -> None:
        # Real substrate: computation happens on the real CPU — the hook
        # only tallies the declared flops and the alpha-beta-gamma model's
        # prediction (stats().compute_seconds is *modeled* time here).
        self._book_compute(flops, mxm_fraction)

    def exchange(self, peer: int, payload: Any, words: Optional[float] = None) -> Any:
        if peer == self.rank or peer not in self.peers:
            raise ValueError(f"rank {self.rank}: invalid exchange peer {peer}")
        w = self._words(payload, words)
        conn = self.peers[peer]
        with _Timer() as t:
            if self.rank < peer:
                _send_payload(conn, payload, self._shm_namer)
                out = _recv_payload(conn)
            else:
                out = _recv_payload(conn)
                _send_payload(conn, payload, self._shm_namer)
        self._book("exchange", t.dt, self._charge("exchange", w))
        return out

    def send_recv(
        self,
        dest: Optional[int] = None,
        payload: Any = None,
        source: Optional[int] = None,
        words: Optional[float] = None,
    ) -> Any:
        w = self._words(payload, words)
        out = None
        with _Timer() as t:
            if dest is not None:
                _send_payload(self.peers[dest], payload, self._shm_namer)
            if source is not None:
                out = _recv_payload(self.peers[source])
        charges = []
        if dest is not None:
            charges.append(self._charge("send", w))
        if source is not None:
            charges.append(self._charge("recv", payload_words(out)))
        self._book("send_recv", t.dt, *charges)
        return out

    def _gather_fold_bcast(self, value: Any, op: str) -> Any:
        """Rank 0 folds contributions in rank order, then broadcasts."""
        if self.size == 1:
            return reduce_in_rank_order([value], op)
        if self.rank == 0:
            contribs = [value] + [
                _recv_payload(self.peers[r]) for r in range(1, self.size)
            ]
            result = reduce_in_rank_order(contribs, op)
            for r in range(1, self.size):
                _send_payload(self.peers[r], result, self._shm_namer)
            return result
        _send_payload(self.peers[0], value, self._shm_namer)
        return _recv_payload(self.peers[0])

    def allreduce(self, value: Any, op: str = "+") -> Any:
        w = payload_words(value)
        with _Timer() as t:
            out = self._gather_fold_bcast(value, op)
        self._book("allreduce", t.dt, self._charge("allreduce", w))
        return out

    def barrier(self) -> None:
        with _Timer() as t:
            if self.size > 1:
                self._barrier.wait()
        self._book("barrier", t.dt, self._charge("barrier"))

    def fan_in_out(self, value: Any, op: str = "+", words_per_level=None) -> Any:
        w = payload_words(value)
        with _Timer() as t:
            out = self._gather_fold_bcast(value, op)
        self._book("fan_in_out", t.dt, self._charge("fan_in_out", w, words_per_level))
        return out

    # ---------------------------------------------------------------- obs hooks
    def trace(self, name: str):
        from ...obs.trace import trace as _trace

        return _trace(name)


# ---------------------------------------------------------------------------
# Worker process entry point.
# ---------------------------------------------------------------------------
def _worker_main(
    rank: int,
    size: int,
    program,
    args: tuple,
    peers: Dict[int, Any],
    barrier,
    machine: Machine,
    result_conn,
    seed_base: str,
    obs_enabled: bool,
    shm_prefix: Optional[str] = None,
) -> None:
    try:
        seed = derive_rank_seed(seed_base, rank)
        random.seed(seed)
        np.random.seed(seed)

        from repro import obs

        obs.reset_all()  # forked workers inherit the parent's obs state
        if obs_enabled:
            obs.enable()
        else:
            obs.disable()

        comm = MpComm(rank, size, peers, barrier, machine, shm_prefix=shm_prefix)
        result = program(comm, *args)

        obs_doc = None
        if obs_enabled:
            obs_doc = {
                "regions": obs.region_tree(),
                "telemetry": obs.telemetry.as_dict(),
            }
        result_conn.send(("ok", rank, result, comm.stats(), obs_doc))
    except BaseException:  # noqa: BLE001 - ship the traceback to the driver
        try:
            result_conn.send(("error", rank, traceback.format_exc()))
        except Exception:  # pragma: no cover - broken pipe on shutdown
            pass
    finally:
        try:
            result_conn.close()
        except Exception:
            pass


#: monotonic run id making default shm prefixes unique across run_mp calls
#: in one parent process (pid alone would collide on back-to-back runs).
_RUN_COUNTER = itertools.count()


def _sweep_shm(prefix: str) -> None:
    """Unlink any /dev/shm segments left by a run using ``prefix`` names.

    Terminated workers (timeout/crash) can die between creating a segment
    and the receiver's unlink; because every segment a run creates is named
    under its prefix, the parent can reclaim them all after cleanup.  A
    no-op on platforms without a /dev/shm filesystem.
    """
    if not os.path.isdir("/dev/shm"):
        return  # pragma: no cover - non-Linux
    try:
        leftovers = os.listdir("/dev/shm")
    except OSError:  # pragma: no cover - race with teardown
        return
    for name in leftovers:
        if name.startswith(prefix):
            try:
                os.unlink(os.path.join("/dev/shm", name))
            except OSError:  # pragma: no cover - concurrent unlink
                pass


def _start_method() -> str:
    configured = os.environ.get("REPRO_MP_START")
    if configured:
        return configured
    methods = _mp.get_all_start_methods()
    return "fork" if "fork" in methods else "spawn"


def _reap(procs: Sequence[Any], timeout: float = 5.0) -> None:
    """Terminate, join, and as a last resort kill ``procs`` (the orphan
    guard shared with :class:`repro.service.Session`)."""
    for proc in procs:
        if proc.is_alive():
            proc.terminate()
    for proc in procs:
        proc.join(timeout=timeout)
        if proc.is_alive():  # pragma: no cover - last resort
            proc.kill()
            proc.join(timeout=timeout)


def run_mp(
    program,
    rank_args: Sequence[tuple],
    ranks: int,
    machine: Machine,
    timeout: Optional[float] = 600.0,
    seed_base: Optional[str] = None,
    obs_enabled: Optional[bool] = None,
    shm_prefix: Optional[str] = None,
) -> Tuple[List[Any], List[CommStats], List[Optional[dict]], float]:
    """Execute ``program(comm, *rank_args[r])`` on ``ranks`` real processes.

    Returns ``(results, stats, rank_obs, wall_seconds)`` in rank order.
    Raises :class:`SPMDWorkerError` if any rank fails and
    :class:`SPMDTimeoutError` (after terminating every worker — the orphan
    guard) if the run exceeds ``timeout`` seconds.

    ``shm_prefix`` names every shared-memory segment the run creates
    (``{prefix}r{rank}c{n}``), which lets cleanup sweep /dev/shm for
    segments a terminated worker left behind.  The default is unique per
    run; pass an explicit prefix to make the sweep observable in tests.
    """
    if len(rank_args) != ranks:
        raise ValueError(f"need {ranks} per-rank argument tuples, got {len(rank_args)}")
    if shm_prefix is None:
        shm_prefix = f"repro-mp-{os.getpid()}-{next(_RUN_COUNTER)}-"
    if seed_base is None:
        seed_base = os.environ.get("REPRO_TEST_SEED", "repro-spmd")
    if obs_enabled is None:
        from ...obs.trace import enabled as _obs_enabled

        obs_enabled = _obs_enabled()

    ctx = _mp.get_context(_start_method())

    # One duplex pipe per rank pair + one result pipe per rank.
    pair_conns: Dict[int, Dict[int, Any]] = {r: {} for r in range(ranks)}
    for a in range(ranks):
        for b in range(a + 1, ranks):
            ca, cb = ctx.Pipe(duplex=True)
            pair_conns[a][b] = ca
            pair_conns[b][a] = cb
    result_parent = []
    result_child = []
    for _ in range(ranks):
        rp, rc = ctx.Pipe(duplex=False)
        result_parent.append(rp)
        result_child.append(rc)
    barrier = ctx.Barrier(ranks) if ranks > 1 else None

    t0 = time.perf_counter()
    procs = []
    for r in range(ranks):
        proc = ctx.Process(
            target=_worker_main,
            args=(
                r,
                ranks,
                program,
                tuple(rank_args[r]),
                pair_conns[r],
                barrier,
                machine,
                result_child[r],
                seed_base,
                obs_enabled,
                shm_prefix,
            ),
            name=f"spmd-mp-{r}",
            daemon=True,
        )
        proc.start()
        procs.append(proc)
    for rc in result_child:
        rc.close()  # parent keeps only the read ends

    def _cleanup() -> None:
        _reap(procs)
        # Reclaim segments a terminated worker created but nobody unlinked
        # (the receiver owns the unlink on the happy path).
        _sweep_shm(shm_prefix)

    deadline = None if timeout is None else time.monotonic() + timeout
    results: List[Any] = [None] * ranks
    stats: List[CommStats] = [CommStats(rank=r) for r in range(ranks)]
    rank_obs: List[Optional[dict]] = [None] * ranks
    pending = {id(c): (i, c) for i, c in enumerate(result_parent)}
    try:
        while pending:
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                raise SPMDTimeoutError(
                    f"SPMD run exceeded {timeout:.1f}s; terminated "
                    f"{sum(p.is_alive() for p in procs)} live worker(s)"
                )
            ready = _mpc.wait([c for _, c in pending.values()], timeout=remaining)
            if not ready:
                continue  # loop re-checks the deadline
            for conn in ready:
                i, _ = pending.pop(id(conn))
                try:
                    msg = conn.recv()
                except EOFError:
                    raise SPMDWorkerError(
                        f"rank {i} exited without reporting (killed or crashed)"
                    ) from None
                if msg[0] == "error":
                    raise SPMDWorkerError(f"rank {msg[1]} failed:\n{msg[2]}")
                _, r, result, st, obs_doc = msg
                results[r] = result
                stats[r] = st
                rank_obs[r] = obs_doc
    finally:
        _cleanup()
        for conn in result_parent:
            conn.close()
        for r in range(ranks):
            for conn in pair_conns[r].values():
                conn.close()
    wall = time.perf_counter() - t0
    return results, stats, rank_obs, wall
