"""The abstract SPMD communicator protocol: one rank's view of the machine.

The paper's execution model is "the standard message-passing-based SPMD
model in which contiguous groups of elements are distributed to processors
and computation proceeds in a loosely synchronous manner" (Section 6).
This module defines that model as an abstract :class:`Comm` protocol — the
communication surface a *rank program* is written against — so the same
program text runs unchanged on every substrate:

* :class:`repro.parallel.exec.sim.SimRankComm` — cooperative threads on
  virtual alpha-beta clocks,
* :class:`repro.parallel.exec.mp.MpComm` — real ``multiprocessing`` workers
  with ``shared_memory`` payload transfer.

A rank program is a plain function ``program(comm, *args)`` that only ever
touches *its own* data and moves the rest explicitly through ``comm``.
Collective data semantics are canonical across substrates: reductions fold
contributions **in ascending rank order** (:func:`reduce_in_rank_order`),
which is what makes CG iterates bitwise-identical between the simulated
and the process-level executors (the parity tests in
``tests/test_spmd_parity.py`` pin this).

Cost accounting is part of the protocol: every implementation tallies a
:class:`CommStats` per rank — messages, words, *measured* seconds and
alpha-beta *modeled* seconds per operation kind — so one merged run report
can show measured-vs-model per comm phase on any substrate (the repro's
analogue of validating Table 4 against wall clocks).  The modeled side is
one table, :func:`op_charge`, booked identically by every substrate; the
measured side is wall time on real processes and the virtual clock's
advance (which includes waiting for peers) on the simulator, so on either
substrate ``measured - modeled`` is the time spent waiting.
"""

from __future__ import annotations

import abc
import contextlib
import math
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .machine import Machine, level_sizes

__all__ = [
    "Comm",
    "CommStats",
    "PhaseStats",
    "REDUCE_OPS",
    "reduce_in_rank_order",
    "payload_words",
    "merge_stats",
    "op_charge",
]

#: reduction operators shared by every substrate: ufunc + identity element.
REDUCE_OPS = {
    "+": (np.add, 0.0),
    "*": (np.multiply, 1.0),
    "max": (np.maximum, -np.inf),
    "min": (np.minimum, np.inf),
}


def reduce_in_rank_order(contributions: Sequence[Any], op: str = "+"):
    """Fold per-rank contributions in ascending rank order.

    This is the *canonical* data algorithm for every collective: all
    substrates produce ``((init op c_0) op c_1) op ... op c_{P-1}`` so the
    result is bitwise-identical regardless of how the bytes moved.
    Scalars fold as python floats; arrays fold elementwise.
    """
    if op not in REDUCE_OPS:
        raise ValueError(f"unknown op {op!r}; choose from {sorted(REDUCE_OPS)}")
    ufunc, init = REDUCE_OPS[op]
    first = np.asarray(contributions[0])
    acc = np.full(first.shape, init, dtype=np.result_type(first, float))
    for c in contributions:
        acc = ufunc(acc, c)
    if acc.ndim == 0:
        return float(acc)
    return acc


def payload_words(payload: Any) -> float:
    """Message size in 8-byte words for accounting, best effort.

    ndarrays count their elements; scalars count one word; anything else
    (e.g. pickled message lists) counts zero unless the caller passes an
    explicit ``words=`` to the comm op.
    """
    if isinstance(payload, np.ndarray):
        return float(payload.size)
    if isinstance(payload, (int, float, np.floating, np.integer)):
        return 1.0
    return 0.0


def op_charge(
    machine: Machine,
    kind: str,
    rank: int,
    size: int,
    words: float = 0.0,
    words_per_level=None,
) -> Tuple[int, float, float]:
    """The alpha-beta charge one rank books for one comm op.

    Returns ``(messages, words, seconds)``: the messages and words *this
    rank sends* and the op's modeled time on ``machine``.  Every substrate
    books exactly this, and the simulator also advances its virtual clocks
    by the collectives' charge, so the modeled ledger of a run is the same
    on all of them.  ``kind`` is one of

    * ``exchange`` — one message of ``words`` each way, ``alpha + beta w``;
    * ``send`` / ``recv`` — one-directional: the sender injects one message
      and is free after ``alpha``; the receiver sends nothing and waits
      ``alpha + beta w`` for the ``words`` it receives;
    * ``allreduce`` — recursive doubling, one message per level;
    * ``barrier`` — a latency-only tree, ``2 alpha`` per level;
    * ``fan_in_out`` — a binomial tree: rank ``r`` sends up its parent link
      (at the level of its lowest set bit) and down each child link, with
      the level sizes of ``words_per_level`` (``words`` when omitted), so a
      run books ``2 (P - 1)`` messages, ``2 sum_l ceil(P / 2^(l+1))`` at
      ``P`` a power of two.

    Collectives on one rank are free.
    """
    levels = math.ceil(math.log2(size)) if size > 1 else 0
    if kind == "exchange":
        return 1, words, machine.msg_time(words)
    if kind == "send":
        return 1, words, machine.alpha
    if kind == "recv":
        return 0, 0.0, machine.msg_time(words)
    if kind == "allreduce":
        return levels, levels * words, machine.allreduce_time(words, size)
    if kind == "barrier":
        return 0, 0.0, 2.0 * levels * machine.alpha
    if kind == "fan_in_out":
        per_level = words if words_per_level is None else words_per_level
        sizes = level_sizes(per_level, levels)
        links = [lvl for lvl in range(levels) if not rank % (2 << lvl)
                 and rank + (1 << lvl) < size]  # child links, down
        if rank:
            links.append((rank & -rank).bit_length() - 1)  # parent link, up
        sent = float(sum(sizes[lvl] for lvl in links))
        return len(links), sent, machine.fan_in_out_time(per_level, size)
    raise ValueError(f"unknown comm op {kind!r}")


@dataclass
class PhaseStats:
    """Traffic + time totals for one operation kind on one rank."""

    calls: int = 0
    messages: int = 0
    words: float = 0.0
    measured_seconds: float = 0.0  #: wall (real) or virtual (sim) time spent
    modeled_seconds: float = 0.0  #: alpha-beta prediction for the same ops

    def add(self, messages: int, words: float, measured: float, modeled: float) -> None:
        self.calls += 1
        self.messages += messages
        self.words += words
        self.measured_seconds += measured
        self.modeled_seconds += modeled

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "messages": self.messages,
            "words": self.words,
            "measured_seconds": self.measured_seconds,
            "modeled_seconds": self.modeled_seconds,
        }


@dataclass
class CommStats:
    """Per-rank accounting every :class:`Comm` implementation keeps."""

    rank: int = 0
    phases: Dict[str, PhaseStats] = field(default_factory=dict)
    compute_flops: float = 0.0
    compute_seconds: float = 0.0  #: modeled (sim) or measured-hook (real)

    def phase(self, kind: str) -> PhaseStats:
        ps = self.phases.get(kind)
        if ps is None:
            ps = PhaseStats()
            self.phases[kind] = ps
        return ps

    @property
    def messages(self) -> int:
        return sum(p.messages for p in self.phases.values())

    @property
    def words(self) -> float:
        return float(sum(p.words for p in self.phases.values()))

    @property
    def comm_seconds(self) -> float:
        return float(sum(p.measured_seconds for p in self.phases.values()))

    @property
    def modeled_comm_seconds(self) -> float:
        return float(sum(p.modeled_seconds for p in self.phases.values()))

    def as_dict(self) -> dict:
        return {
            "rank": self.rank,
            "messages": self.messages,
            "words": self.words,
            "comm_seconds": self.comm_seconds,
            "modeled_comm_seconds": self.modeled_comm_seconds,
            "compute_flops": self.compute_flops,
            "compute_seconds": self.compute_seconds,
            "phases": {k: p.as_dict() for k, p in sorted(self.phases.items())},
        }


def merge_stats(stats: Sequence[CommStats]) -> dict:
    """Merge per-rank stats into one measured-vs-modeled phase table.

    Traffic sums over ranks; times take the per-rank maximum (the critical
    path, matching how the machine models and Table 4 report time).
    """
    phases: Dict[str, dict] = {}
    for s in stats:
        for kind, p in s.phases.items():
            row = phases.setdefault(
                kind,
                {
                    "calls": 0,
                    "messages": 0,
                    "words": 0.0,
                    "measured_seconds_max": 0.0,
                    "modeled_seconds_max": 0.0,
                },
            )
            row["calls"] += p.calls
            row["messages"] += p.messages
            row["words"] += p.words
            row["measured_seconds_max"] = max(
                row["measured_seconds_max"], p.measured_seconds
            )
            row["modeled_seconds_max"] = max(
                row["modeled_seconds_max"], p.modeled_seconds
            )
    return {
        "phases": {k: phases[k] for k in sorted(phases)},
        "messages": sum(s.messages for s in stats),
        "words": float(sum(s.words for s in stats)),
        "comm_seconds_max": max((s.comm_seconds for s in stats), default=0.0),
        "modeled_comm_seconds_max": max(
            (s.modeled_comm_seconds for s in stats), default=0.0
        ),
        "compute_seconds_max": max((s.compute_seconds for s in stats), default=0.0),
    }


class Comm(abc.ABC):
    """One rank's communicator: the surface SPMD rank programs code against.

    Subclasses provide the movement of bytes; the semantics below are the
    contract every substrate honors:

    * ops are *matched*: all participants reach compatible calls in the
      same per-channel order (loosely synchronous execution);
    * collectives fold data in ascending rank order
      (:func:`reduce_in_rank_order`) for cross-substrate bit parity;
    * every op is accounted in :meth:`stats` per operation kind, modeled
      by :func:`op_charge` on :attr:`machine`.
    """

    #: this rank's id, 0-based
    rank: int
    #: number of ranks in the program
    size: int
    #: the alpha-beta-gamma model every op is charged on
    machine: Machine
    _stats: CommStats

    # ------------------------------------------------------------- compute
    @abc.abstractmethod
    def compute(self, flops: float, mxm_fraction: float = 1.0) -> None:
        """Declare local computation.

        Every substrate tallies the declared flops and their
        alpha-beta-gamma time in :meth:`stats`; the simulated substrate
        also advances the rank's virtual clock by it, while real
        substrates measure wall time instead.
        """

    # ---------------------------------------------------------- point-to-point
    @abc.abstractmethod
    def exchange(self, peer: int, payload: Any, words: Optional[float] = None) -> Any:
        """Pairwise bidirectional exchange; returns the peer's payload.

        Both ranks must call :meth:`exchange` naming each other.  Processing
        neighbors in ascending rank order is deadlock-free (the pair with
        the globally smallest ``(min, max)`` edge always progresses).
        """

    @abc.abstractmethod
    def send_recv(
        self,
        dest: Optional[int] = None,
        payload: Any = None,
        source: Optional[int] = None,
        words: Optional[float] = None,
    ) -> Any:
        """One-directional transfer(s): send to ``dest`` and/or receive from
        ``source``.  Returns the received payload (None when not receiving).
        """

    # -------------------------------------------------------------- collectives
    @abc.abstractmethod
    def allreduce(self, value: Any, op: str = "+") -> Any:
        """Reduce ``value`` over all ranks; every rank gets the result.

        Cost-modeled as recursive doubling; data folds in rank order.
        """

    @abc.abstractmethod
    def barrier(self) -> None:
        """Synchronize all ranks (tree-latency cost model)."""

    @abc.abstractmethod
    def fan_in_out(
        self,
        value: Any,
        op: str = "+",
        words_per_level=None,
    ) -> Any:
        """Binary-tree reduce + broadcast (the XXT coarse-solve pattern).

        ``words_per_level`` overrides the modeled per-level message sizes
        (Fig. 6's dissection interface values); data-wise every rank gets
        the rank-order fold of all contributions.
        """

    # ------------------------------------------------------------- observability
    def trace(self, name: str):
        """Per-rank trace region hook.

        Real substrates open a region in the worker's process-local
        :mod:`repro.obs.trace` tree; the simulated substrate returns a
        null span (its virtual clocks already attribute time).
        """
        return contextlib.nullcontext()

    def stats(self) -> CommStats:
        """This rank's accumulated traffic/time accounting."""
        return self._stats

    # ----------------------------------------------------------------- helpers
    def _words(self, payload: Any, words: Optional[float]) -> float:
        return float(words) if words is not None else payload_words(payload)

    def _charge(self, kind: str, words: float = 0.0, words_per_level=None):
        """This rank's :func:`op_charge` for one op."""
        return op_charge(
            self.machine, kind, self.rank, self.size, words, words_per_level
        )

    def _book(self, phase: str, measured: float, *charges) -> None:
        """Book one call of ``phase``: the summed charges + measured time."""
        self._stats.phase(phase).add(
            sum(c[0] for c in charges),
            sum(c[1] for c in charges),
            measured,
            sum(c[2] for c in charges),
        )

    def _book_compute(self, flops: float, mxm_fraction: float) -> float:
        """Tally declared flops; returns their alpha-beta-gamma seconds."""
        dt = self.machine.compute_time(flops, mxm_fraction)
        self._stats.compute_flops += float(flops)
        self._stats.compute_seconds += dt
        return dt

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(rank={self.rank}, size={self.size})"


class _Timer:
    """Tiny context timer used by real substrates."""

    __slots__ = ("t0", "dt")

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.dt = time.perf_counter() - self.t0
        return False
