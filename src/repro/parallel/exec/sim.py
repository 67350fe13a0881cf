"""Simulated substrate: SPMD rank programs on virtual alpha-beta clocks.

Runs ``P`` rank programs as cooperative threads in one process; every
:class:`~repro.parallel.protocol.Comm` operation *moves real data* between
the threads (rendezvous exchange, mailbox send/recv, rank-order-fold
collectives) while the shared :class:`SimWorld` advances one virtual clock
per rank — the critical-path semantics the Fig. 6 / Table 4 models are
built on.  A message completes at ``max(t_sender, t_receiver) + alpha +
beta w``; a collective synchronizes everyone and adds its
:func:`~repro.parallel.protocol.op_charge` time.  Each rank books the same
modeled charge the real substrates book; its *measured* time is the
clock's advance, which also holds any wait for a slower peer.

Determinism: the final virtual clocks do not depend on thread scheduling.
Every operation synchronizes its participants (both sides of an exchange
block until matched; collectives block everyone), costs are charged once
at match time from the participants' current clocks, and operations with
disjoint participants commute (``max`` + add on disjoint clock entries).
Data determinism comes from the canonical rank-order fold shared with the
process-level substrates.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..machine import Machine
from ..protocol import Comm, CommStats, payload_words, reduce_in_rank_order

__all__ = ["SimWorld", "SimRankComm", "SPMDPeerError", "run_sim"]


class SPMDPeerError(RuntimeError):
    """Raised in ranks whose peers died mid-program."""


def _copy(payload: Any) -> Any:
    """Give each rank its own array object (mirrors process isolation)."""
    if isinstance(payload, np.ndarray):
        return payload.copy()
    return payload


class SimWorld:
    """Shared state of one simulated SPMD run: the machine, one virtual
    clock per rank, and the rendezvous points."""

    def __init__(self, machine: Machine, p: int):
        self.machine = machine
        self.p = p
        self.clock = np.zeros(p)
        self.cond = threading.Condition()
        self.failed: Optional[Tuple[int, BaseException]] = None
        # pairwise exchange: pair -> {rank: (payload, words)} / {rank: result}
        self._xchg_in: Dict[Tuple[int, int], Dict[int, Tuple[Any, float]]] = {}
        self._xchg_out: Dict[Tuple[int, int], Dict[int, Any]] = {}
        # directional mailboxes: (src, dst) -> queued (payload, send_clock, words)
        self._mail: Dict[Tuple[int, int], deque] = {}
        # current collective: kind/op/items; results keyed per rank
        self._coll: Optional[dict] = None
        self._coll_out: Dict[int, Any] = {}

    # ------------------------------------------------------------------ errors
    def fail(self, rank: int, exc: BaseException) -> None:
        with self.cond:
            if self.failed is None:
                self.failed = (rank, exc)
            self.cond.notify_all()

    def _check_failed(self) -> None:
        if self.failed is not None:
            raise SPMDPeerError(
                f"rank {self.failed[0]} failed: {self.failed[1]!r}"
            )

    def _wait(self) -> None:
        self.cond.wait()
        self._check_failed()

    # ------------------------------------------------------------------- compute
    def compute(self, rank: int, seconds: float) -> None:
        with self.cond:
            self.clock[rank] += seconds

    # ------------------------------------------------------------------ exchange
    def exchange(self, me: int, peer: int, payload: Any, words: float) -> Any:
        if peer == me or not (0 <= peer < self.p):
            raise ValueError(f"rank {me}: invalid exchange peer {peer}")
        pair = (min(me, peer), max(me, peer))
        with self.cond:
            self._check_failed()
            slot = self._xchg_in.setdefault(pair, {})
            if me in slot:
                raise RuntimeError(f"rank {me}: unmatched exchange on {pair}")
            slot[me] = (payload, words)
            if peer in slot:
                # Second arrival: both participants are blocked here, so
                # their clocks are current — both leave at the later clock
                # plus one message time (the larger of the two directions).
                peer_payload, peer_words = slot[peer]
                t = max(self.clock[me], self.clock[peer]) + self.machine.msg_time(
                    max(words, peer_words)
                )
                self.clock[me] = self.clock[peer] = t
                out = self._xchg_out.setdefault(pair, {})
                out[me] = _copy(peer_payload)
                out[peer] = _copy(payload)
                del self._xchg_in[pair]
                self.cond.notify_all()
            while not (
                pair in self._xchg_out and me in self._xchg_out[pair]
            ):
                self._wait()
            result = self._xchg_out[pair].pop(me)
            if not self._xchg_out[pair]:
                del self._xchg_out[pair]
            return result

    # ----------------------------------------------------------------- send/recv
    def send(self, src: int, dst: int, payload: Any, words: float) -> None:
        with self.cond:
            self._check_failed()
            # The receive completes at max(sender clock at send, receiver
            # clock) + message time; the sender is freed after injecting
            # (alpha).
            send_clock = float(self.clock[src])
            self.clock[src] += self.machine.alpha
            self._mail.setdefault((src, dst), deque()).append(
                (_copy(payload), send_clock, words)
            )
            self.cond.notify_all()

    def recv(self, src: int, dst: int) -> Any:
        with self.cond:
            self._check_failed()
            box = self._mail.setdefault((src, dst), deque())
            while not box:
                self._wait()
            payload, send_clock, words = box.popleft()
            t = max(send_clock, float(self.clock[dst])) + self.machine.msg_time(words)
            self.clock[dst] = t
            return payload

    # ---------------------------------------------------------------- collectives
    def collective(
        self,
        me: int,
        kind: str,
        payload: Any,
        op: str,
        seconds: float,
    ) -> Any:
        """Rendezvous of all ranks; the last arrival folds the data (none
        for a barrier) and moves every clock to the latest one plus
        ``seconds``, its modeled charge."""
        with self.cond:
            self._check_failed()
            if self._coll is None:
                self._coll = {"kind": kind, "op": op, "items": {}}
            state = self._coll
            if state["kind"] != kind or state["op"] != op:
                exc = RuntimeError(
                    f"mismatched collectives: rank {me} called {kind}/{op}, "
                    f"others are in {state['kind']}/{state['op']}"
                )
                self.failed = self.failed or (me, exc)
                self.cond.notify_all()
                raise exc
            state["items"][me] = payload
            if len(state["items"]) == self.p:
                items = [state["items"][r] for r in range(self.p)]
                result = None if kind == "barrier" else reduce_in_rank_order(items, op)
                self.clock[:] = float(self.clock.max()) + seconds
                for r in range(self.p):
                    self._coll_out[r] = _copy(result)
                self._coll = None
                self.cond.notify_all()
            while me not in self._coll_out:
                self._wait()
            return self._coll_out.pop(me)


class SimRankComm(Comm):
    """One simulated rank's view: the Comm protocol over a :class:`SimWorld`."""

    def __init__(self, world: SimWorld, rank: int):
        self.world = world
        self.rank = rank
        self.size = world.p
        self.machine = world.machine
        self._stats = CommStats(rank=rank)

    # clock bookkeeping: while this rank sits inside one op nothing else can
    # move its clock (all ops synchronize their participants), so reading
    # before/after without holding the lock across the op is race-free.
    def _clock(self) -> float:
        return float(self.world.clock[self.rank])

    def compute(self, flops: float, mxm_fraction: float = 1.0) -> None:
        self.world.compute(self.rank, self._book_compute(flops, mxm_fraction))

    def exchange(self, peer: int, payload: Any, words: Optional[float] = None) -> Any:
        w = self._words(payload, words)
        t0 = self._clock()
        out = self.world.exchange(self.rank, peer, payload, w)
        self._book("exchange", self._clock() - t0, self._charge("exchange", w))
        return out

    def send_recv(
        self,
        dest: Optional[int] = None,
        payload: Any = None,
        source: Optional[int] = None,
        words: Optional[float] = None,
    ) -> Any:
        w = self._words(payload, words)
        t0 = self._clock()
        out = None
        charges = []
        if dest is not None:
            self.world.send(self.rank, dest, payload, w)
            charges.append(self._charge("send", w))
        if source is not None:
            out = self.world.recv(source, self.rank)
            charges.append(self._charge("recv", payload_words(out)))
        self._book("send_recv", self._clock() - t0, *charges)
        return out

    def _collective(self, kind: str, value: Any, op: str, charge) -> Any:
        t0 = self._clock()
        out = self.world.collective(self.rank, kind, value, op, charge[2])
        self._book(kind, self._clock() - t0, charge)
        return out

    def allreduce(self, value: Any, op: str = "+") -> Any:
        return self._collective(
            "allreduce", value, op, self._charge("allreduce", payload_words(value))
        )

    def barrier(self) -> None:
        self._collective("barrier", None, "+", self._charge("barrier"))

    def fan_in_out(self, value: Any, op: str = "+", words_per_level=None) -> Any:
        charge = self._charge("fan_in_out", payload_words(value), words_per_level)
        return self._collective("fan_in_out", value, op, charge)


def run_sim(program, rank_args: Sequence[tuple], machine: Machine):
    """Execute ``program(comm, *rank_args[r])`` on every simulated rank.

    Returns ``(results, stats, modeled_seconds)``: per-rank results and
    :class:`~repro.parallel.protocol.CommStats` in rank order, and the
    virtual elapsed time (the slowest rank's clock).
    """
    p = len(rank_args)
    world = SimWorld(machine, p)
    results: List[Any] = [None] * p
    stats: List[CommStats] = [CommStats(rank=r) for r in range(p)]

    if p == 1:
        comm = SimRankComm(world, 0)
        results[0] = program(comm, *rank_args[0])
        return results, [comm.stats()], float(world.clock.max())

    def runner(r: int) -> None:
        comm = SimRankComm(world, r)
        stats[r] = comm._stats
        try:
            results[r] = program(comm, *rank_args[r])
        except SPMDPeerError:
            pass  # a peer already carries the root cause
        except BaseException as exc:  # noqa: BLE001 - must wake peers
            world.fail(r, exc)

    threads = [
        threading.Thread(target=runner, args=(r,), name=f"spmd-sim-{r}", daemon=True)
        for r in range(p)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if world.failed is not None:
        raise world.failed[1]
    return results, stats, float(world.clock.max())
