"""SPMD execution substrates: one rank program, two ways to run it.

The paper's algorithms (gather-scatter, distributed CG, XXT fan-in/out)
are written once as *rank programs* against the abstract
:class:`~repro.parallel.protocol.Comm` protocol, and this package supplies
the interchangeable substrates:

==========  ==================================================================
executor    what runs
==========  ==================================================================
``sim``     cooperative threads on one virtual alpha-beta clock per rank
            (:class:`~repro.parallel.exec.sim.SimWorld`, the cost model)
``mp``      real ``multiprocessing`` workers with ``shared_memory``
            payload transfer and wall-clock timing
==========  ==================================================================

:func:`run_spmd` is the uniform driver; it returns an
:class:`SPMDRunResult` carrying per-rank results, per-rank
:class:`~repro.parallel.protocol.CommStats`, and the merged
measured-vs-modeled phase table.  Both substrates book the same modeled
charge per op (:func:`~repro.parallel.protocol.op_charge`); measured time
is wall time on ``mp`` and the virtual clock's advance on ``sim``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

from ..machine import ASCI_RED_333, LOCALHOST_MP, Machine
from ..protocol import Comm, CommStats, merge_stats
from .mp import (
    SHM_THRESHOLD,
    MpComm,
    SPMDTimeoutError,
    SPMDWorkerError,
    derive_rank_seed,
    run_mp,
)
from .sim import SimRankComm, SimWorld, SPMDPeerError, run_sim

__all__ = [
    "EXECUTORS",
    "SPMDRunResult",
    "SPMDPeerError",
    "SPMDTimeoutError",
    "SPMDWorkerError",
    "run_spmd",
    "derive_rank_seed",
    "MpComm",
    "SimRankComm",
    "SimWorld",
    "run_sim",
    "run_mp",
    "SHM_THRESHOLD",
]

#: executor registry.
EXECUTORS = ("sim", "mp")


@dataclass
class SPMDRunResult:
    """Outcome of one SPMD run on any substrate."""

    executor: str
    ranks: int
    results: List[Any]  #: per-rank return values of the program
    stats: List[CommStats]  #: per-rank comm accounting
    wall_seconds: float  #: real elapsed time of the whole run
    modeled_seconds: float  #: alpha-beta elapsed (sim: virtual clock max)
    rank_obs: List[Optional[dict]] = field(default_factory=list)  #: worker obs docs

    @property
    def merged(self) -> dict:
        """Merged measured-vs-modeled phase table (see ``merge_stats``)."""
        return merge_stats(self.stats)

    def report_section(self) -> dict:
        """The run as an obs-report ``spmd`` section (see ``report_json``).

        Merges every rank's comm phases into one measured-vs-modeled table
        and, when workers collected per-rank trace regions ('mp' executor
        with obs enabled), attaches them under ``rank_regions``.
        """
        merged = self.merged
        section = {
            "executor": self.executor,
            "ranks": self.ranks,
            "wall_seconds": self.wall_seconds,
            "modeled_seconds": self.modeled_seconds,
            "phases": merged["phases"],
            "messages": merged["messages"],
            "words": merged["words"],
            "comm_seconds_max": merged["comm_seconds_max"],
            "modeled_comm_seconds_max": merged["modeled_comm_seconds_max"],
            "compute_seconds_max": merged["compute_seconds_max"],
            "per_rank": [s.as_dict() for s in self.stats],
        }
        regions = [
            doc["regions"] for doc in self.rank_obs if doc and doc.get("regions")
        ]
        if regions:
            section["rank_regions"] = regions
        return section


def run_spmd(
    program,
    rank_args: Sequence[tuple],
    ranks: Optional[int] = None,
    executor: str = "sim",
    machine: Optional[Machine] = None,
    timeout: Optional[float] = 600.0,
    seed_base: Optional[str] = None,
) -> SPMDRunResult:
    """Run ``program(comm, *rank_args[r])`` on every rank of a substrate.

    ``executor`` selects the substrate (``sim`` | ``mp``); ``ranks``
    defaults to ``len(rank_args)``.  ``machine`` is the alpha-beta-gamma
    model every comm op is charged on (``sim``: also the virtual clocks;
    default ASCI-Red for ``sim``, localhost for ``mp``).  For ``mp``,
    ``timeout`` bounds the whole run (workers are terminated past it).
    """
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}; choose from {EXECUTORS}")
    if ranks is None:
        ranks = len(rank_args)
    if ranks < 1:
        raise ValueError(f"need at least one rank, got {ranks}")
    if len(rank_args) != ranks:
        raise ValueError(f"need {ranks} per-rank argument tuples, got {len(rank_args)}")

    if executor == "sim":
        t0 = time.perf_counter()
        results, stats, modeled = run_sim(
            program, rank_args, machine or ASCI_RED_333
        )
        return SPMDRunResult(
            executor="sim",
            ranks=ranks,
            results=results,
            stats=stats,
            wall_seconds=time.perf_counter() - t0,
            modeled_seconds=modeled,
            rank_obs=[None] * ranks,
        )

    machine = machine or LOCALHOST_MP
    results, stats, rank_obs, wall = run_mp(
        program,
        rank_args,
        ranks,
        machine,
        timeout=timeout,
        seed_base=seed_base,
    )
    modeled = max(
        (s.compute_seconds + s.modeled_comm_seconds for s in stats), default=0.0
    )
    return SPMDRunResult(
        executor="mp",
        ranks=ranks,
        results=results,
        stats=stats,
        wall_seconds=wall,
        modeled_seconds=modeled,
        rank_obs=rank_obs,
    )
