"""Tests for the simulated substrate's virtual clocks and comm ledger.

Each case is a small rank program run with ``run_spmd(..., executor="sim")``.
A rank's clock ends at its compute seconds plus the measured seconds of
its comm ops, so the per-rank ``CommStats`` show where every rank's time
went: ``modeled`` is the op's alpha-beta charge and ``measured - modeled``
the wait for a slower peer.
"""

import math

import numpy as np
import pytest

from repro.parallel.exec import run_spmd
from repro.parallel.machine import Machine

M = Machine("t", alpha=1e-5, beta=1e-8, mxm_rate=1e8, other_rate=1e7)


def _run(program, p, *args):
    return run_spmd(program, [args] * p, ranks=p, executor="sim", machine=M)


def _end_clocks(run):
    """Each rank's final virtual clock: compute plus measured comm."""
    return [s.compute_seconds + s.comm_seconds for s in run.stats]


def prog_idle(comm):
    return comm.rank


def prog_compute_on(comm, rank, flops):
    if comm.rank == rank:
        comm.compute(flops)


def prog_lead_then_exchange(comm, flops, words):
    if comm.rank == 0:
        comm.compute(flops)
    comm.exchange(1 - comm.rank, np.zeros(words))


def prog_send(comm, words):
    if comm.rank == 0:
        comm.send_recv(dest=1, payload=np.zeros(words))
    else:
        comm.send_recv(source=0)


def prog_lead_then_barrier(comm, rank, flops):
    if comm.rank == rank:
        comm.compute(flops)
    comm.barrier()


def prog_allreduce(comm, words):
    return comm.allreduce(np.zeros(words))


def prog_fan(comm, words, words_per_level=None):
    return comm.fan_in_out(np.zeros(words), "+", words_per_level=words_per_level)


class TestSimComm:
    def test_construction(self):
        with pytest.raises(ValueError):
            run_spmd(prog_idle, [], executor="sim", machine=M)
        run = _run(prog_idle, 4)
        assert run.results == [0, 1, 2, 3]
        assert run.modeled_seconds == 0.0

    def test_compute_advances_one_rank(self):
        run = _run(prog_compute_on, 4, 2, 1e8)
        assert run.stats[2].compute_seconds == pytest.approx(1.0)
        assert run.stats[0].compute_seconds == 0.0
        assert run.modeled_seconds == pytest.approx(1.0)

    def test_exchange_synchronizes_pair(self):
        run = _run(prog_lead_then_exchange, 2, 1e8, 100)  # rank 0 at t = 1
        expect = 1.0 + M.msg_time(100)
        assert _end_clocks(run) == pytest.approx([expect, expect])
        assert run.modeled_seconds == pytest.approx(expect)
        assert run.merged["phases"]["exchange"]["messages"] == 2

    def test_wait_is_measured_minus_modeled(self):
        """An imbalanced pair: rank 1 waits out rank 0's compute lead.  The
        exchange's modeled charge is one message on both ranks, and the
        wait shows only as measured - modeled on the rank that waited."""
        w = 100
        run = _run(prog_lead_then_exchange, 2, 1e8, w)
        lead = run.stats[0].compute_seconds - run.stats[1].compute_seconds
        assert lead == pytest.approx(1.0)
        for st, wait in zip(run.stats, (0.0, lead)):
            x = st.phases["exchange"]
            assert x.modeled_seconds == M.msg_time(w)
            assert x.measured_seconds - x.modeled_seconds == pytest.approx(
                wait, abs=1e-12
            )
        row = run.merged["phases"]["exchange"]
        assert row["modeled_seconds_max"] == M.msg_time(w)
        assert row["measured_seconds_max"] - row["modeled_seconds_max"] == (
            pytest.approx(lead)
        )

    def test_send_recv_frees_sender(self):
        run = _run(prog_send, 2, 50)
        assert _end_clocks(run) == pytest.approx([M.alpha, M.msg_time(50)])
        sent, got = (s.phases["send_recv"] for s in run.stats)
        assert (sent.messages, sent.words) == (1, 50.0)
        assert (got.messages, got.words) == (0, 0.0)
        assert sent.modeled_seconds == M.alpha
        assert got.modeled_seconds == M.msg_time(50)

    def test_barrier_synchronizes(self):
        run = _run(prog_lead_then_barrier, 4, 3, 1e8)
        ends = _end_clocks(run)
        assert ends == pytest.approx([ends[0]] * 4)
        assert ends[0] == pytest.approx(1.0 + 2 * math.log2(4) * M.alpha)
        for st in run.stats:
            assert st.phases["barrier"].modeled_seconds == 2 * 2 * M.alpha

    def test_allreduce_costs_log_p(self):
        run = _run(prog_allreduce, 8, 10)
        assert run.modeled_seconds == pytest.approx(M.allreduce_time(10, 8))
        assert _end_clocks(run) == pytest.approx([run.modeled_seconds] * 8)
        for st in run.stats:
            ph = st.phases["allreduce"]
            assert (ph.messages, ph.words) == (3, 30.0)
            assert ph.modeled_seconds == M.allreduce_time(10, 8)

    def test_single_rank_allreduce_free(self):
        run = _run(prog_allreduce, 1, 1000)
        ph = run.stats[0].phases["allreduce"]
        assert (ph.messages, ph.words, ph.modeled_seconds) == (0, 0.0, 0.0)
        assert run.modeled_seconds == 0.0

    def test_comm_compute_accounting_split(self):
        run = _run(prog_lead_then_exchange, 2, 1e8, 0)
        # rank 1 waited a full second for rank 0 -> accounted as comm time.
        assert run.stats[0].compute_seconds == pytest.approx(1.0)
        assert run.stats[1].compute_seconds == 0.0
        assert run.stats[1].comm_seconds == pytest.approx(1.0 + M.alpha)

    def test_fan_in_out_counts_traffic(self):
        """fan_in_out must feed the message counters like every other op."""
        run = _run(prog_fan, 8, 10)
        row = run.merged["phases"]["fan_in_out"]
        # binary tree over 8 ranks: 4 + 2 + 1 parent links, up and down.
        assert row["messages"] == 2 * (4 + 2 + 1)
        assert row["words"] == pytest.approx(2.0 * (4 + 2 + 1) * 10.0)
        assert row["modeled_seconds_max"] == M.fan_in_out_time(10.0, 8)

    def test_fan_in_out_per_level_sizes(self):
        run = _run(prog_fan, 4, 1, [6.0, 2.0])
        row = run.merged["phases"]["fan_in_out"]
        assert row["messages"] == 2 * (2 + 1)
        assert row["words"] == pytest.approx(2.0 * (2 * 6.0 + 1 * 2.0))

    def test_fan_in_out_single_rank_free(self):
        run = _run(prog_fan, 1, 100)
        ph = run.stats[0].phases["fan_in_out"]
        assert (ph.messages, ph.words, ph.modeled_seconds) == (0, 0.0, 0.0)
        assert run.modeled_seconds == 0.0

    @pytest.mark.parametrize("p", [2, 3, 5, 6, 8])
    def test_fan_in_out_tree_has_p_minus_one_links(self, p):
        run = _run(prog_fan, p, 1)
        assert run.merged["phases"]["fan_in_out"]["messages"] == 2 * (p - 1)
