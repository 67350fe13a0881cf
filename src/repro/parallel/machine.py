"""Machine models for the simulated message-passing substrate.

The paper's own analysis (Fig. 6's ``latency * 2 log P`` lower bound, the
``3 n^{2/3} log2 P`` XXT communication volume, Table 4's GFLOPS) is built
on the classical alpha-beta-gamma model:

    t_message(w)  = alpha + beta * w          (w = 8-byte words)
    t_compute(f)  = gamma * f                 (gamma = 1 / sustained rate)

We parameterize machines the same way.  :data:`ASCI_RED_333` reflects the
published characteristics of the Sandia machine the paper benchmarks:
333 MHz Pentium II Xeon nodes (Table 3 measures 80-150 MFLOPS sustained
DGEMM), ~15 us MPI latency, ~330 MB/s link bandwidth, and a dual-processor
(SMP) mode the paper drives at 82% efficiency.

Absolute seconds from these models are *not* the reproduction target (see
DESIGN.md); the shapes — crossovers vs P, who wins where — are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

__all__ = [
    "Machine",
    "ASCI_RED_333",
    "ASCI_RED_333_PERF",
    "GENERIC_CLUSTER",
    "LOCALHOST_MP",
    "level_sizes",
]


def level_sizes(n_words_per_level, levels: int) -> list:
    """Per-level message sizes of a ``levels``-deep fan-in/out tree.

    A scalar is used at every level; a short sequence repeats its last
    entry, a long one is cut to ``levels``.
    """
    try:
        sizes = list(n_words_per_level)
    except TypeError:
        sizes = [float(n_words_per_level)] * levels
    if len(sizes) < levels:
        sizes = sizes + [sizes[-1]] * (levels - len(sizes))
    return sizes[:levels]


@dataclass(frozen=True)
class Machine:
    """alpha-beta-gamma cost model of one distributed-memory machine.

    Attributes
    ----------
    name:
        Label used in benchmark output.
    alpha:
        Message latency, seconds.
    beta:
        Inverse bandwidth, seconds per 8-byte word.
    mxm_rate:
        Sustained matrix-matrix (DGEMM) flop rate per processor, flop/s —
        the rate governing >90% of the paper's flops (Section 6).
    other_rate:
        Sustained rate for non-mxm flops (pointwise/dot work is memory
        bound; noticeably slower than DGEMM on cache-based nodes).
    dual_efficiency:
        Parallel efficiency of the intranode dual-processor mode
        (Section 6: "82% dual-processor efficiency").
    """

    name: str
    alpha: float
    beta: float
    mxm_rate: float
    other_rate: float
    dual_efficiency: float = 0.82

    # ------------------------------------------------------------- primitives
    def msg_time(self, n_words: float) -> float:
        """Point-to-point message of ``n_words`` 8-byte words."""
        return self.alpha + self.beta * float(n_words)

    def compute_time(self, flops: float, mxm_fraction: float = 1.0) -> float:
        """Time to execute ``flops`` with the given mxm share."""
        f = float(flops)
        return (
            f * mxm_fraction / self.mxm_rate
            + f * (1.0 - mxm_fraction) / self.other_rate
        )

    def allreduce_time(self, n_words: float, p: int) -> float:
        """Recursive-doubling allreduce: ``log2 P`` exchange rounds."""
        if p <= 1:
            return 0.0
        return math.ceil(math.log2(p)) * (self.msg_time(n_words) + n_words / self.other_rate)

    def fan_in_out_time(self, n_words_per_level, p: int) -> float:
        """Binary-tree fan-in + fan-out with per-level message sizes.

        ``n_words_per_level`` is a scalar (same size each level) or a
        sequence of length ``ceil(log2 P)``; each level is charged one
        message each way — the contention-free routing assumption behind
        the paper's ``latency * 2 log P`` curve.
        """
        if p <= 1:
            return 0.0
        sizes = level_sizes(n_words_per_level, math.ceil(math.log2(p)))
        return sum(2.0 * self.msg_time(s) for s in sizes)

    def dual(self) -> "Machine":
        """The dual-processor (2 ranks/node SMP) variant of this machine."""
        return replace(
            self,
            name=self.name + "-dual",
            mxm_rate=self.mxm_rate * 2.0 * self.dual_efficiency,
            other_rate=self.other_rate * 2.0 * self.dual_efficiency,
        )


#: ASCI-Red 333 MHz node with the standard (``std.``) DGEMM kernels of Table 3.
ASCI_RED_333 = Machine(
    name="ASCI-Red-333-std",
    alpha=15e-6,
    beta=8.0 / 330e6,  # ~330 MB/s per link
    mxm_rate=95e6,  # Table 3 "lkm/csm" column midrange
    other_rate=35e6,
)

#: Same node with the tuned kernel selection (``perf.`` in Section 6/7).
ASCI_RED_333_PERF = Machine(
    name="ASCI-Red-333-perf",
    alpha=15e-6,
    beta=8.0 / 330e6,
    mxm_rate=120e6,  # best-of-Table-3 selection
    other_rate=35e6,
)

#: A contemporary commodity cluster, for model sanity checks.
GENERIC_CLUSTER = Machine(
    name="generic-cluster",
    alpha=2e-6,
    beta=8.0 / 10e9,
    mxm_rate=20e9,
    other_rate=2e9,
)

#: Rough model of the 'mp' executor's transport: pipes + shared memory
#: between processes on one host.  Latency is dominated by the pickle /
#: context-switch round trip, bandwidth by a memory copy.  Used as the
#: default alpha-beta prediction shown next to measured wall times in
#: ``BENCH_spmd_scaling.json``.
LOCALHOST_MP = Machine(
    name="localhost-mp",
    alpha=30e-6,
    beta=8.0 / 2e9,
    mxm_rate=5e9,
    other_rate=1e9,
)
