"""Tests for the SPMD execution substrates (repro.parallel.exec)."""

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.parallel.exec import (
    EXECUTORS,
    SPMDTimeoutError,
    SPMDWorkerError,
    derive_rank_seed,
    run_spmd,
)
from repro.parallel.exec.mp import SHM_THRESHOLD
from repro.parallel.machine import LOCALHOST_MP, Machine
from repro.parallel.protocol import (
    CommStats,
    merge_stats,
    payload_words,
    reduce_in_rank_order,
)

M = Machine("t", alpha=1e-5, beta=1e-8, mxm_rate=1e8, other_rate=1e7)


# ---------------------------------------------------------------------------
# Rank programs used across tests (module-level: picklable for 'mp').
# ---------------------------------------------------------------------------
def prog_allreduce(comm, value):
    return comm.allreduce(value, "+")


def prog_exchange_ring(comm, n):
    me = comm.rank
    mine = np.full(n, float(me + 1))
    got = {}
    for peer in sorted({(me - 1) % comm.size, (me + 1) % comm.size} - {me}):
        got[peer] = comm.exchange(peer, mine)
    return {p: v.copy() for p, v in got.items()}

def prog_big_sendrecv(comm, n):
    me = comm.rank
    big = np.arange(n, dtype=float) + 1000.0 * me
    out = comm.send_recv(
        dest=(me + 1) % comm.size, payload=big, source=(me - 1) % comm.size
    )
    return float(out[0]), float(out[-1])


def prog_fan(comm):
    return comm.fan_in_out(np.array([float(comm.rank)]), "+", words_per_level=[4, 2])


def prog_rank_collect(comm):
    return (comm.rank, comm.size)


def prog_rng(comm):
    return float(np.random.random())


def prog_fail_on_one(comm):
    comm.barrier()
    if comm.rank == 1:
        raise np.linalg.LinAlgError("synthetic breakdown")
    comm.barrier()
    return comm.rank


def prog_hang_on_one(comm):
    if comm.rank == 1:
        time.sleep(60.0)
    return comm.rank


def prog_shm_exchange(comm, n):
    mine = np.full(n, float(comm.rank + 1))
    return float(comm.exchange(comm.rank ^ 1, mine).sum())


def prog_shm_in_flight(comm, n):
    # Rank 0 ships a segment whose receiver never attaches; both ranks then
    # hang so the driver's timeout path has to reclaim the segment.
    if comm.rank == 0:
        from repro.parallel.exec.mp import _send_payload

        _send_payload(comm.peers[1], np.arange(n, dtype=float), comm._shm_namer)
    time.sleep(60.0)


def prog_shm_prefix_probe(comm):
    namer = comm._shm_namer
    return None if namer is None else (namer.prefix, namer.rank)


def prog_stats(comm):
    comm.compute(1e6, 0.5)
    comm.allreduce(1.0)
    if comm.size > 1:
        peer = comm.rank ^ 1
        comm.exchange(peer, np.ones(8))
    return comm.stats()


class TestProtocolHelpers:
    def test_reduce_in_rank_order_scalar(self):
        assert reduce_in_rank_order([1.0, 2.0, 3.0], "+") == 6.0
        assert reduce_in_rank_order([2.0, 3.0], "*") == 6.0
        assert reduce_in_rank_order([-5.0, 2.0], "max") == 2.0
        assert reduce_in_rank_order([-5.0, 2.0], "min") == -5.0

    def test_reduce_in_rank_order_arrays(self):
        a = np.array([1.0, 5.0])
        b = np.array([4.0, 2.0])
        assert np.array_equal(reduce_in_rank_order([a, b], "max"), [4.0, 5.0])

    def test_reduce_unknown_op(self):
        with pytest.raises(ValueError):
            reduce_in_rank_order([1.0], "xor")

    def test_payload_words(self):
        assert payload_words(np.zeros((3, 4))) == 12.0
        assert payload_words(2.5) == 1.0
        assert payload_words([1, 2, 3]) == 0.0

    def test_merge_stats_traffic_sums_time_maxes(self):
        a = CommStats(rank=0)
        a.phase("exchange").add(2, 10.0, 0.5, 0.4)
        b = CommStats(rank=1)
        b.phase("exchange").add(2, 10.0, 0.7, 0.2)
        m = merge_stats([a, b])
        row = m["phases"]["exchange"]
        assert row["messages"] == 4
        assert row["words"] == 20.0
        assert row["measured_seconds_max"] == 0.7
        assert row["modeled_seconds_max"] == 0.4

    def test_derive_rank_seed_deterministic(self):
        assert derive_rank_seed("x", 0) == derive_rank_seed("x", 0)
        assert derive_rank_seed("x", 0) != derive_rank_seed("x", 1)
        assert derive_rank_seed("x", 0) != derive_rank_seed("y", 0)


class TestRegistry:
    def test_available_executors(self):
        assert EXECUTORS == ("sim", "mp")
        with pytest.raises(ValueError, match="unknown executor"):
            run_spmd(prog_rank_collect, [()], ranks=1, executor="mpi")

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            run_spmd(prog_rank_collect, [()], ranks=1, executor="cloud")

    def test_rank_args_length_checked(self):
        with pytest.raises(ValueError):
            run_spmd(prog_rank_collect, [(), ()], ranks=3, executor="sim")

    def test_ranks_default_to_rank_args(self):
        run = run_spmd(prog_rank_collect, [()] * 3, executor="sim", machine=M)
        assert run.results == [(0, 3), (1, 3), (2, 3)]


@pytest.mark.parametrize("executor", ["sim", "mp"])
class TestSubstrates:
    def test_allreduce(self, executor):
        p = 4
        run = run_spmd(
            prog_allreduce,
            [(float(r),) for r in range(p)],
            ranks=p,
            executor=executor,
            machine=M if executor == "sim" else LOCALHOST_MP,
        )
        assert run.results == [6.0] * p
        assert run.executor == executor

    def test_exchange_moves_data(self, executor):
        p = 4
        run = run_spmd(
            prog_exchange_ring, [(5,)] * p, ranks=p, executor=executor, machine=M
        )
        for me in range(p):
            got = run.results[me]
            for peer, v in got.items():
                assert np.array_equal(v, np.full(5, float(peer + 1)))

    def test_fan_in_out(self, executor):
        p = 4
        run = run_spmd(prog_fan, [()] * p, ranks=p, executor=executor, machine=M)
        for r in range(p):
            assert np.array_equal(run.results[r], [6.0])

    def test_single_rank(self, executor):
        run = run_spmd(prog_allreduce, [(7.0,)], ranks=1, executor=executor, machine=M)
        assert run.results == [7.0]

    def test_stats_recorded(self, executor):
        p = 2
        run = run_spmd(prog_stats, [()] * p, ranks=p, executor=executor, machine=M)
        for r, st in enumerate(run.results):
            assert st.rank == r
            assert st.compute_flops == 1e6
            assert "allreduce" in st.phases
            assert st.phases["exchange"].words == 8.0
        merged = run.merged
        assert merged["phases"]["exchange"]["messages"] == 2


class TestSimSubstrate:
    def test_worker_exception_propagates_original_type(self):
        with pytest.raises(np.linalg.LinAlgError):
            run_spmd(prog_fail_on_one, [()] * 2, ranks=2, executor="sim", machine=M)

    def test_virtual_clocks_deterministic(self):
        reports = []
        for _ in range(3):
            run = run_spmd(prog_exchange_ring, [(64,)] * 4, executor="sim", machine=M)
            reports.append((run.modeled_seconds,
                            [s.as_dict() for s in run.stats]))
        assert reports[0] == reports[1] == reports[2]


class TestMpSubstrate:
    def test_shared_memory_path_roundtrip(self):
        # payload well above SHM_THRESHOLD bytes -> travels via shared memory
        n = SHM_THRESHOLD // 8 + 1000
        run = run_spmd(
            prog_big_sendrecv, [(n,)] * 2, ranks=2, executor="mp",
            machine=LOCALHOST_MP, timeout=60,
        )
        assert run.results[0] == (1000.0, 1000.0 + n - 1)
        assert run.results[1] == (0.0, float(n - 1))

    def test_worker_error_reported(self):
        with pytest.raises(SPMDWorkerError, match="synthetic breakdown"):
            run_spmd(
                prog_fail_on_one, [()] * 2, ranks=2, executor="mp",
                machine=LOCALHOST_MP, timeout=60,
            )

    def test_timeout_terminates_workers(self):
        before = len(multiprocessing.active_children())
        with pytest.raises(SPMDTimeoutError):
            run_spmd(
                prog_hang_on_one, [()] * 2, ranks=2, executor="mp",
                machine=LOCALHOST_MP, timeout=1.0,
            )
        # orphan guard: every worker is terminated and joined
        assert len(multiprocessing.active_children()) <= before

    def test_worker_seeds_deterministic_and_distinct(self):
        os.environ["REPRO_TEST_SEED"] = "exec-seed-test"
        try:
            a = run_spmd(
                prog_rng, [()] * 2, ranks=2, executor="mp",
                machine=LOCALHOST_MP, timeout=60,
            )
            b = run_spmd(
                prog_rng, [()] * 2, ranks=2, executor="mp",
                machine=LOCALHOST_MP, timeout=60,
            )
        finally:
            os.environ.pop("REPRO_TEST_SEED", None)
        assert a.results == b.results  # same base seed -> identical streams
        assert a.results[0] != a.results[1]  # ranks get distinct streams

    def test_wall_clock_measured(self):
        run = run_spmd(
            prog_allreduce, [(1.0,)] * 2, ranks=2, executor="mp",
            machine=LOCALHOST_MP, timeout=60,
        )
        assert run.wall_seconds > 0
        assert run.modeled_seconds > 0


@pytest.mark.skipif(not os.path.isdir("/dev/shm"),
                    reason="needs a /dev/shm filesystem to observe segments")
class TestShmLifecycle:
    """Run-prefixed shared-memory names + the cleanup sweep: no segment a
    run creates may outlive it, even when workers are terminated with a
    payload in flight."""

    def _survivors(self, prefix):
        return [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]

    def test_send_payload_uses_prefixed_names(self):
        from multiprocessing import Pipe, shared_memory

        from repro.parallel.exec.mp import _ShmNamer, _send_payload

        a, b = Pipe()
        payload = np.arange(SHM_THRESHOLD // 8 + 10, dtype=float)
        _send_payload(a, payload, _ShmNamer("repro-test-unit-", 3))
        kind, name, shape, dtype = b.recv()
        assert kind == "shm" and name == "repro-test-unit-r3c1"
        shm = shared_memory.SharedMemory(name=name)
        try:
            got = np.frombuffer(shm.buf, dtype=dtype).copy()
        finally:
            shm.close()
            shm.unlink()
        assert np.array_equal(got, payload)

    def test_workers_receive_the_run_prefix(self):
        from repro.parallel.exec.mp import run_mp

        prefix = f"repro-test-{os.getpid()}-probe-"
        results, _, _, _ = run_mp(
            prog_shm_prefix_probe, [()] * 2, 2, LOCALHOST_MP,
            timeout=60.0, shm_prefix=prefix,
        )
        assert results == [(prefix, 0), (prefix, 1)]

    def test_normal_run_leaves_no_segments(self):
        from repro.parallel.exec.mp import run_mp

        n = SHM_THRESHOLD // 8 + 500  # above threshold: rides shared memory
        prefix = f"repro-test-{os.getpid()}-ok-"
        results, _, _, _ = run_mp(
            prog_shm_exchange, [(n,)] * 2, 2, LOCALHOST_MP,
            timeout=60.0, shm_prefix=prefix,
        )
        assert results == [2.0 * n, 1.0 * n]
        assert self._survivors(prefix) == []

    def test_timeout_sweep_reclaims_in_flight_segments(self):
        from repro.parallel.exec.mp import run_mp

        n = SHM_THRESHOLD // 8 + 500
        prefix = f"repro-test-{os.getpid()}-leak-"
        with pytest.raises(SPMDTimeoutError):
            run_mp(
                prog_shm_in_flight, [(n,)] * 2, 2, LOCALHOST_MP,
                timeout=1.5, shm_prefix=prefix,
            )
        # The in-flight segment existed when the timeout hit; the cleanup
        # sweep must have unlinked it along with the workers.
        assert self._survivors(prefix) == []


class TestReportSection:
    def test_section_validates_inside_report(self):
        from repro import obs

        run = run_spmd(
            prog_stats, [()] * 2, ranks=2, executor="mp",
            machine=LOCALHOST_MP, timeout=60,
        )
        doc = obs.report_json(meta={"t": 1}, spmd=run.report_section())
        obs.validate_report(doc)
        assert doc["spmd"]["ranks"] == 2
        assert "exchange" in doc["spmd"]["phases"]

    def test_bad_section_rejected(self):
        from repro import obs

        doc = obs.report_json(spmd={"executor": "mp"})
        with pytest.raises(ValueError):
            obs.validate_report(doc)
