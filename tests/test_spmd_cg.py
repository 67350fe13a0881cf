"""Tests for the SPMD distributed CG solver on the simulated machine."""

import numpy as np
import pytest

from repro.core.mesh import box_mesh_2d, box_mesh_3d
from repro.core.operators import build_helmholtz_system
from repro.parallel.machine import ASCI_RED_333, Machine
from repro.parallel.spmd_cg import DistributedSEMSolver
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

    def test_too_many_ranks_rejected(self):
        mesh = box_mesh_2d(2, 2, 3)
        with pytest.raises(ValueError):
            DistributedSEMSolver(mesh, M, 8)


class TestCostAccounting:
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
