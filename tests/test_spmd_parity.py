"""Cross-substrate parity: the same rank programs on simulated clocks and
real processes must produce bitwise-identical results and book the same
modeled comm ledger.

This is the acceptance gate of the comm-protocol refactor: gather-scatter,
distributed CG, and the distributed XXT coarse solve are written once
against the abstract Comm protocol, and every reduction folds
contributions in ascending rank order — so nothing about the substrate
(thread rendezvous vs pipes and shared memory) may leak into the
arithmetic.  Every op is charged from one alpha-beta table
(``protocol.op_charge``), so messages, words and modeled seconds per
phase agree too; only measured time is the substrate's own.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.mesh import box_mesh_2d, box_mesh_3d
from repro.parallel.coarse_parallel import CoarseSolveModel, poisson_5pt
from repro.parallel.exec import run_spmd
from repro.parallel.gs import gs_init, gs_op_rank
from repro.parallel.machine import ASCI_RED_333, LOCALHOST_MP
from repro.parallel.partition import recursive_spectral_bisection
from repro.parallel.spmd_cg import DistributedSEMSolver


def _partition_field(mesh, p, u):
    if p == 1:
        part = np.zeros(mesh.K, dtype=np.int64)
    else:
        part = recursive_spectral_bisection(
            sp.csr_matrix(mesh.element_adjacency()), p
        )
    ids = [mesh.global_ids[part == r] for r in range(p)]
    vals = [u[part == r] for r in range(p)]
    return ids, vals


class TestGsParity:
    @pytest.mark.parametrize("p", [1, 2, 4])
    @pytest.mark.parametrize("op", ["+", "*", "max", "min"])
    def test_gs_op_bitwise_identical(self, p, op):
        mesh = box_mesh_2d(4, 4, 3)
        rng = np.random.default_rng(11)
        u = rng.standard_normal(mesh.local_shape)
        ids, vals = _partition_field(mesh, p, u)
        handles = gs_init(ids).rank_handles()
        args = [(handles[r], vals[r], op) for r in range(p)]
        sim = run_spmd(gs_op_rank, args, ranks=p, executor="sim",
                       machine=ASCI_RED_333)
        mp = run_spmd(gs_op_rank, args, ranks=p, executor="mp",
                      machine=LOCALHOST_MP, timeout=120)
        for a, b in zip(sim.results, mp.results):
            assert np.array_equal(a, b)

    def test_gs_vector_mode_parity(self):
        mesh = box_mesh_2d(3, 3, 4)
        rng = np.random.default_rng(5)
        p = 2
        part = recursive_spectral_bisection(
            sp.csr_matrix(mesh.element_adjacency()), p
        )
        ids = [mesh.global_ids[part == r] for r in range(p)]
        handles = gs_init(ids).rank_handles()
        # width 1: an (n..., 1) input must come back as (n..., 1), not (n...)
        for width in (2, 1):
            u = rng.standard_normal(mesh.local_shape + (width,))
            vals = [u[part == r] for r in range(p)]
            args = [(handles[r], vals[r], "+") for r in range(p)]
            sim = run_spmd(gs_op_rank, args, ranks=p, executor="sim")
            mp = run_spmd(gs_op_rank, args, ranks=p, executor="mp", timeout=120)
            for a, b, v in zip(sim.results, mp.results, vals):
                assert a.shape == v.shape
                assert np.array_equal(a, b)


class TestCgParity:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_cg_iterates_bitwise_identical(self, p):
        mesh = box_mesh_2d(4, 4, 4)
        solver = DistributedSEMSolver(mesh, ASCI_RED_333, p)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(mesh.local_shape)
        a = solver.solve(f, tol=1e-8, executor="sim")
        b = solver.solve(f, tol=1e-8, executor="mp", timeout=300)
        assert a.iterations == b.iterations
        assert a.history == b.history  # full residual trajectory, bitwise
        assert np.array_equal(a.x, b.x)
        assert a.converged and b.converged

    def test_cg_parity_on_second_mesh(self):
        mesh = box_mesh_2d(3, 5, 3)
        solver = DistributedSEMSolver(mesh, ASCI_RED_333, 2, h1=1.0, h0=0.5)
        rng = np.random.default_rng(17)
        f = rng.standard_normal(mesh.local_shape)
        a = solver.solve(f, tol=1e-9, executor="sim")
        b = solver.solve(f, tol=1e-9, executor="mp", timeout=300)
        assert a.history == b.history
        assert np.array_equal(a.x, b.x)

    def test_mp_solve_reports_wall_and_phases(self):
        mesh = box_mesh_2d(3, 3, 3)
        solver = DistributedSEMSolver(mesh, ASCI_RED_333, 2)
        f = np.ones(mesh.local_shape)
        r = solver.solve(f, tol=1e-6, executor="mp", timeout=300)
        assert r.executor == "mp"
        assert r.wall_seconds > 0
        assert "allreduce" in r.phases and "exchange" in r.phases
        assert r.phases["allreduce"]["measured_seconds_max"] > 0


class TestXXTParity:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_distributed_xxt_bitwise_identical(self, p):
        a, coords = poisson_5pt(13)
        model = CoarseSolveModel(a, ASCI_RED_333, coords=coords)
        rng = np.random.default_rng(2)
        b = rng.standard_normal(model.n)
        xs, _ = model.solve_xxt(b, p, executor="sim")
        xm, _ = model.solve_xxt(b, p, executor="mp")
        assert np.array_equal(xs, xm)
        # and both agree with the serial factorization to roundoff
        assert np.allclose(xs, model.xxt.solve(b), atol=1e-8)


def _assert_same_ledger(sim_phases, mp_phases):
    """Per-phase calls, messages, words and modeled seconds agree."""
    assert sim_phases.keys() == mp_phases.keys()
    for kind, a in sim_phases.items():
        b = mp_phases[kind]
        assert (a["calls"], a["messages"], a["words"]) == (
            b["calls"], b["messages"], b["words"]), kind
        assert a["modeled_seconds_max"] == pytest.approx(
            b["modeled_seconds_max"], rel=1e-15, abs=0.0), kind


class TestLedgerParity:
    @pytest.mark.parametrize("p", [2, 4])
    def test_xxt_fan_in_out_ledger(self, p):
        a, coords = poisson_5pt(15)
        model = CoarseSolveModel(a, ASCI_RED_333, coords=coords)
        b = np.random.default_rng(4).standard_normal(model.n)
        _, sim = model.solve_xxt(b, p, executor="sim")
        _, mp = model.solve_xxt(b, p, executor="mp")
        _assert_same_ledger(sim.merged["phases"], mp.merged["phases"])
        # tree links: P - 1 of them, each crossed once up and once down,
        # carrying the dissection interface sizes of their level
        row = sim.merged["phases"]["fan_in_out"]
        sizes = model.rank_contexts(p)[0].words_per_level
        links = [p >> (lvl + 1) for lvl in range(len(sizes))]
        assert row["messages"] == 2 * (p - 1) == 2 * sum(links)
        assert row["words"] == 2.0 * sum(n * w for n, w in zip(links, sizes))

    @pytest.mark.parametrize("p", [2, 4])
    def test_cg_ledger(self, p):
        mesh = box_mesh_3d(4, 4, 4, 5)
        solver = DistributedSEMSolver(mesh, LOCALHOST_MP, p, h1=1.0, h0=1.0)
        f = np.random.default_rng(8).standard_normal(mesh.local_shape)
        a = solver.solve(f, tol=1e-8, executor="sim")
        b = solver.solve(f, tol=1e-8, executor="mp", timeout=300)
        assert a.history == b.history
        _assert_same_ledger(a.phases, b.phases)
        # sim measures the clock's advance, which holds the wait: never
        # below the modeled charge (up to the roundoff of clock sums)
        for row in a.phases.values():
            assert row["measured_seconds_max"] >= row["modeled_seconds_max"] * (
                1 - 1e-12)
