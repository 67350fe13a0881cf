"""Tests for the SPMD distributed CG solver on the simulated machine."""

import multiprocessing
import os

import numpy as np
import pytest

from repro import obs
from repro.core.mesh import box_mesh_2d, box_mesh_3d
from repro.core.operators import build_helmholtz_system
from repro.parallel.exec import SPMDWorkerError, run_spmd
from repro.parallel.machine import ASCI_RED_333, Machine
from repro.parallel.spmd_cg import DistributedSEMSolver, cg_rank_program
from repro.perf.flops import counting
from repro.solvers.cg import SolveFailure, pcg
from repro.solvers.jacobi import jacobi_preconditioner

M = ASCI_RED_333


def serial_reference(mesh, h1, h0, f):
    system = build_helmholtz_system(mesh, h1=h1, h0=h0)
    from repro.core.element import geometric_factors
    from repro.core.operators import MassOperator

    mass = MassOperator(geometric_factors(mesh))
    b = system.rhs(mass.apply(f))
    res = pcg(system.matvec, b, dot=system.dot,
              precond=jacobi_preconditioner(system), tol=1e-10, maxiter=2000)
    assert res.converged
    return res.x


class TestCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_matches_serial_solution(self, p):
        mesh = box_mesh_2d(4, 4, 4)
        f = mesh.eval_function(lambda x, y: np.sin(np.pi * x) * np.cos(np.pi * y))
        solver = DistributedSEMSolver(mesh, M, p, h1=1.0, h0=1.0)
        res = solver.solve(f, tol=1e-10)
        assert res.converged
        ref = serial_reference(mesh, 1.0, 1.0, f)
        assert np.max(np.abs(res.x - ref)) < 1e-7

    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_inv_mult_equals_gather_scatter_of_ones(self, p):
        """The serial assembler's multiplicity is the gather-scatter sum of
        ones (exact integer counts), so the inner-product weights match a
        rank-program run bitwise."""
        from repro.parallel.gs import gs_op_rank

        mesh = box_mesh_3d(3, 3, 2, 3)
        solver = DistributedSEMSolver(mesh, M, p)
        args = [(h, np.ones(mesh.global_ids[e].shape), "+")
                for h, e in zip(solver.gs.rank_handles(), solver.rank_elems)]
        counts = run_spmd(gs_op_rank, args, executor="sim").results
        for got, m in zip(solver._inv_mult, counts):
            assert np.array_equal(got, 1.0 / m)

    def test_3d_problem(self):
        mesh = box_mesh_3d(2, 2, 2, 3)
        f = mesh.eval_function(lambda x, y, z: x * y + z)
        solver = DistributedSEMSolver(mesh, M, 4, h1=1.0, h0=2.0)
        res = solver.solve(f, tol=1e-9)
        assert res.converged
        ref = serial_reference(mesh, 1.0, 2.0, f)
        assert np.max(np.abs(res.x - ref)) < 1e-6

    def test_iteration_count_independent_of_p(self):
        mesh = box_mesh_2d(4, 4, 4)
        f = mesh.eval_function(lambda x, y: np.exp(x) * y)
        its = []
        for p in (1, 2, 4):
            solver = DistributedSEMSolver(mesh, M, p, h1=1.0, h0=0.5)
            its.append(solver.solve(f, tol=1e-9).iterations)
        # Same algorithm, same arithmetic -> same iterates (up to roundoff
        # in the reduction order: allow +-1).
        assert max(its) - min(its) <= 1

    def test_non_finite_forcing_raises_on_every_rank(self):
        # NaN <= 0 is false, so a breakdown check on the sign alone would
        # iterate to maxiter; the sim executor re-raises the rank's error.
        mesh = box_mesh_2d(4, 4, 4)
        f = mesh.eval_function(lambda x, y: x + y)
        f[5, 2, 2] = np.nan
        solver = DistributedSEMSolver(mesh, M, 2, h1=1.0, h0=1.0)
        with pytest.raises(SolveFailure, match="non-finite right-hand side") as info:
            solver.solve(f, tol=1e-10, executor="sim")
        assert info.value.label == "spmd_cg"

    def test_breakdown_raises_solve_failure(self):
        # h1 < 0 makes A negative definite: p.Ap < 0 at the first iteration.
        mesh = box_mesh_2d(4, 4, 4)
        f = mesh.eval_function(lambda x, y: x + y)
        solver = DistributedSEMSolver(mesh, M, 2, h1=-1.0)
        with pytest.raises(SolveFailure, match="breakdown") as info:
            solver.solve(f, executor="sim")
        assert info.value.label == "spmd_cg"
        assert info.value.iterations == 1

    def test_breakdown_on_mp_leaves_no_residue(self):
        mesh = box_mesh_2d(4, 4, 4)
        f = mesh.eval_function(lambda x, y: x + y)
        solver = DistributedSEMSolver(mesh, M, 2, h1=-1.0)
        before = len(multiprocessing.active_children())
        with pytest.raises(SPMDWorkerError, match="SolveFailure: .*breakdown"):
            solver.solve(f, executor="mp", timeout=120)
        assert len(multiprocessing.active_children()) <= before
        if os.path.isdir("/dev/shm"):  # run_mp's default segment prefix
            prefix = f"repro-mp-{os.getpid()}-"
            assert not [n for n in os.listdir("/dev/shm") if n.startswith(prefix)]

    def test_obs_records_one_solve_not_one_per_rank(self):
        mesh = box_mesh_2d(4, 4, 4)
        f = mesh.eval_function(lambda x, y: x * y)
        solver = DistributedSEMSolver(mesh, M, 2, h1=1.0, h0=1.0)
        obs.enable()
        res = solver.solve(f, tol=1e-8, executor="sim")
        (rec,) = obs.telemetry.solves
        assert (rec.solver, rec.label) == ("spmd_cg", "p2")
        assert rec.iterations == res.iterations and rec.converged

    def test_too_many_ranks_rejected(self):
        mesh = box_mesh_2d(2, 2, 3)
        with pytest.raises(ValueError):
            DistributedSEMSolver(mesh, M, 8)


class TestCostAccounting:
    def test_clock_charged_from_flop_tally(self):
        # Every flop the rank tallies with add_flops reaches its clock; the
        # gather-scatter pre-reduce (b.size per matvec) is charged directly.
        mesh = box_mesh_2d(4, 4, 5)
        f = mesh.eval_function(lambda x, y: np.sin(3 * x + y))
        solver = DistributedSEMSolver(mesh, M, 1, h1=1.0, h0=1.0)
        args = solver._rank_args(f, 1e-8, 500)
        with counting() as fc:
            run = run_spmd(cg_rank_program, args, ranks=1, executor="sim", machine=M)
        its = run.results[0]["iterations"]
        assert its > 0
        b = args[0][1]
        assert run.stats[0].compute_flops == fc.total() + its * b.size

    def test_comm_costs_grow_with_p(self):
        mesh = box_mesh_2d(4, 4, 5)
        f = mesh.eval_function(lambda x, y: np.sin(3 * x + y))
        r2 = DistributedSEMSolver(mesh, M, 2, h1=1.0, h0=1.0).solve(f, tol=1e-8)
        r4 = DistributedSEMSolver(mesh, M, 4, h1=1.0, h0=1.0).solve(f, tol=1e-8)
        assert r4.messages > r2.messages
        assert r2.comm_seconds > 0

    def test_compute_time_scales_down(self):
        mesh = box_mesh_2d(4, 4, 6)
        f = mesh.eval_function(lambda x, y: x + y)
        r1 = DistributedSEMSolver(mesh, M, 1, h1=1.0, h0=1.0).solve(f, tol=1e-8)
        r4 = DistributedSEMSolver(mesh, M, 4, h1=1.0, h0=1.0).solve(f, tol=1e-8)
        assert r4.compute_seconds < 0.5 * r1.compute_seconds
        assert r1.comm_seconds == pytest.approx(0.0)  # single rank: no comm

    def test_speedup_on_compute_bound_machine(self):
        # Very fast network -> near-ideal speedup.
        fast_net = Machine("fast-net", alpha=1e-9, beta=1e-12,
                           mxm_rate=1e8, other_rate=1e7)
        mesh = box_mesh_2d(4, 4, 6)
        f = mesh.eval_function(lambda x, y: np.cos(x * y))
        t = {}
        for p in (1, 4):
            t[p] = DistributedSEMSolver(mesh, fast_net, p, h1=1.0, h0=1.0).solve(
                f, tol=1e-8
            ).simulated_seconds
        assert t[1] / t[4] > 3.0

    def test_latency_bound_machine_shows_no_speedup(self):
        # Pathological network: communication dominates, P hurts.
        slow_net = Machine("slow-net", alpha=1.0, beta=1.0,
                           mxm_rate=1e8, other_rate=1e7)
        mesh = box_mesh_2d(4, 4, 4)
        f = mesh.eval_function(lambda x, y: x)
        t1 = DistributedSEMSolver(mesh, slow_net, 1, h1=1, h0=1).solve(f).simulated_seconds
        t4 = DistributedSEMSolver(mesh, slow_net, 4, h1=1, h0=1).solve(f).simulated_seconds
        assert t4 > t1
