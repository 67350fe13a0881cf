"""Tests for the p-multigrid preconditioner."""

import numpy as np
import pytest

from repro import obs
from repro.core.element import geometric_factors
from repro.core.mesh import box_mesh_2d, box_mesh_3d, map_mesh
from repro.core.operators import MassOperator
from repro.obs.telemetry import telemetry
from repro.solvers.cg import pcg
from repro.solvers.jacobi import JacobiPreconditioner
from repro.solvers.pmultigrid import PMultigrid, build_p_hierarchy


def make_problem(mesh, h1=1.0, h0=0.0, min_order=1):
    levels = build_p_hierarchy(mesh, h1=h1, h0=h0, min_order=min_order)
    geom = geometric_factors(mesh)
    mass = MassOperator(geom)
    f = mesh.eval_function(
        (lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        if mesh.ndim == 2
        else (lambda x, y, z: np.sin(np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z))
    )
    b = levels[0].system.rhs(mass.apply(f))
    return levels, b


class TestHierarchy:
    def test_order_schedule(self):
        m = box_mesh_2d(2, 2, 8)
        levels = build_p_hierarchy(m)
        assert [l.order for l in levels] == [8, 4, 2, 1]
        assert levels[0].prolong_1d is None
        assert levels[1].prolong_1d.shape == (9, 5)

    def test_custom_orders_validated(self):
        m = box_mesh_2d(2, 2, 6)
        with pytest.raises(ValueError):
            build_p_hierarchy(m, orders=[6, 6, 3])
        with pytest.raises(ValueError):
            build_p_hierarchy(m, orders=[4, 2])

    def test_coarse_levels_share_geometry(self):
        m = map_mesh(box_mesh_2d(2, 2, 6), lambda x, y: (x + 0.1 * y * y, y))
        levels = build_p_hierarchy(m, orders=[6, 3])
        # Coarse mesh corners must coincide with fine mesh corners.
        fine_x = np.asarray(m.coords[0])
        coarse_x = np.asarray(levels[1].system.mesh.coords[0])
        assert np.allclose(fine_x[:, 0, 0], coarse_x[:, 0, 0], atol=1e-12)
        assert np.allclose(fine_x[:, -1, -1], coarse_x[:, -1, -1], atol=1e-12)


class TestVCycle:
    def test_standalone_vcycle_converges(self):
        m = box_mesh_2d(3, 3, 8)
        levels, b = make_problem(m)
        mg = PMultigrid(levels)
        system = levels[0].system
        x = np.zeros_like(b)
        norms = [system.norm(b)]
        for _ in range(8):
            x = x + mg(b - system.matvec(x))
            norms.append(system.norm(b - system.matvec(x)))
        # Iterated V-cycles contract the residual; the asymptotic rate of
        # ~0.5 reflects the (deliberately simple) Jacobi smoother — the
        # production-grade smoother for SEM is Schwarz (Lottes-Fischer),
        # and CG acceleration (next test) recovers fast convergence.
        assert norms[-1] < 1e-4 * norms[0]
        rates = [norms[i + 1] / norms[i] for i in range(3, 7)]
        assert max(rates) < 0.65

    def test_preconditioned_cg_beats_jacobi(self):
        m = box_mesh_2d(3, 3, 8)
        levels, b = make_problem(m)
        system = levels[0].system
        mg = PMultigrid(levels)
        res_mg = pcg(system.matvec, b, dot=system.dot, precond=mg,
                     tol=1e-10 * system.norm(b), maxiter=300)
        res_jac = pcg(system.matvec, b, dot=system.dot,
                      precond=JacobiPreconditioner(system.diagonal()),
                      tol=1e-10 * system.norm(b), maxiter=2000)
        assert res_mg.converged and res_jac.converged
        assert res_mg.iterations < 0.35 * res_jac.iterations
        # Same solution.
        assert np.max(np.abs(res_mg.x - res_jac.x)) < 1e-7

    def test_helmholtz_with_mass_term(self):
        m = box_mesh_2d(2, 2, 6)
        levels, b = make_problem(m, h1=1.0, h0=10.0)
        mg = PMultigrid(levels)
        system = levels[0].system
        res = pcg(system.matvec, b, dot=system.dot, precond=mg,
                  tol=1e-10 * system.norm(b), maxiter=100)
        assert res.converged
        assert res.iterations < 20

    def test_3d_vcycle(self):
        m = box_mesh_3d(2, 2, 2, 4)
        levels, b = make_problem(m)
        mg = PMultigrid(levels)
        system = levels[0].system
        res = pcg(system.matvec, b, dot=system.dot, precond=mg,
                  tol=1e-9 * system.norm(b), maxiter=120)
        assert res.converged
        res_jac = pcg(system.matvec, b, dot=system.dot,
                      precond=JacobiPreconditioner(system.diagonal()),
                      tol=1e-9 * system.norm(b), maxiter=2000)
        assert res.iterations < res_jac.iterations

    def test_deformed_mesh(self):
        m = map_mesh(box_mesh_2d(3, 3, 6),
                     lambda x, y: (x + 0.08 * np.sin(np.pi * y), y))
        levels, b = make_problem(m)
        mg = PMultigrid(levels)
        system = levels[0].system
        res = pcg(system.matvec, b, dot=system.dot, precond=mg,
                  tol=1e-9 * system.norm(b), maxiter=100)
        assert res.converged

    def test_empty_hierarchy_rejected(self):
        with pytest.raises(ValueError):
            PMultigrid([])

    def test_iteration_count_order_robust(self):
        """MG iteration counts stay nearly flat in N (the multilevel
        promise), unlike Jacobi's growth."""
        its_mg, its_jac = [], []
        for order in (4, 8, 12):
            m = box_mesh_2d(2, 2, order)
            levels, b = make_problem(m)
            system = levels[0].system
            mg = PMultigrid(levels)
            its_mg.append(pcg(system.matvec, b, dot=system.dot, precond=mg,
                              tol=1e-9 * system.norm(b), maxiter=300).iterations)
            its_jac.append(pcg(system.matvec, b, dot=system.dot,
                               precond=JacobiPreconditioner(system.diagonal()),
                               tol=1e-9 * system.norm(b), maxiter=3000).iterations)
        assert its_mg[-1] <= its_mg[0] + 6
        assert its_jac[-1] > 2 * its_mg[-1]


class TestSmootherTiers:
    """Jacobi/Chebyshev smoothing and the condensed coarsest-level solve:
    selection validation and the obs-report accounting of the condensed
    coarse region."""

    @staticmethod
    def _run(mesh, smoother="jacobi", coarse="cg", min_order=1, label=None):
        levels, b = make_problem(mesh, min_order=min_order)
        system = levels[0].system
        mg = PMultigrid(levels, smoother=smoother, coarse=coarse)
        res = pcg(system.matvec, b, dot=system.dot, precond=mg,
                  tol=0.0, rtol=1e-8, maxiter=200, label=label)
        return res, levels

    def test_min_order_floors_schedule(self):
        m = box_mesh_2d(2, 2, 8)
        assert [l.order for l in build_p_hierarchy(m, min_order=2)] == [8, 4, 2]
        with pytest.raises(ValueError):
            build_p_hierarchy(m, min_order=0)

    def test_chebyshev_smoother_beats_jacobi(self):
        m = box_mesh_2d(3, 3, 8)
        r_jac, _ = self._run(m, smoother="jacobi")
        r_cheb, _ = self._run(m, smoother="chebyshev")
        assert r_jac.converged and r_cheb.converged
        assert r_cheb.iterations < r_jac.iterations

    def test_condensed_coarse_matches_cg_coarse(self):
        m = box_mesh_2d(3, 3, 8)
        r_cg, _ = self._run(m, min_order=2)
        r_cond, _ = self._run(m, coarse="condensed", min_order=2)
        assert r_cg.converged and r_cond.converged
        assert abs(r_cond.iterations - r_cg.iterations) <= 2
        scale = max(float(np.max(np.abs(r_cg.x))), 1e-30)
        assert np.max(np.abs(r_cond.x - r_cg.x)) < 1e-6 * scale

    def test_condensed_3d_obs_report(self):
        """Acceptance shape: a p-MG run with the condensed coarse solve
        lands its iteration count in telemetry and its per-region flops in
        the validated obs report."""
        m = box_mesh_3d(2, 2, 2, 6)
        r_jac, _ = self._run(m, smoother="jacobi", label="pmg_outer_jac")
        obs.enable()  # after the baseline: regions cover the condensed run only
        r_cond, _ = self._run(m, smoother="chebyshev", coarse="condensed",
                              min_order=2, label="pmg_outer_cond")
        assert r_cond.converged
        assert r_cond.iterations <= 8
        assert r_cond.iterations < r_jac.iterations
        assert [s.iterations for s in telemetry.solves_for("pmg_outer_cond")] \
            == [r_cond.iterations]

        # One condensed coarsest-level solve per V-cycle.
        cycles = obs.find_region("pmg").calls
        assert cycles >= r_cond.iterations
        coarse = obs.find_region("pmg/p6/p3/p2/condensed_solve")
        assert coarse is not None and coarse.calls == cycles
        assert coarse.total_flops() > 0

        doc = obs.report_json(meta={"workload": "pmg"})
        obs.validate_report(doc)

    def test_selection_validated(self):
        m = box_mesh_2d(2, 2, 8)
        levels, _ = make_problem(m)
        for bad in ("bogus", "condensed"):
            with pytest.raises(ValueError, match="smoother"):
                PMultigrid(levels, smoother=bad)
        with pytest.raises(ValueError, match="coarse"):
            PMultigrid(levels, coarse="bogus")
        # Default schedule bottoms out at order 1: no interior dofs to
        # condense, and the error says how to fix it.
        with pytest.raises(ValueError, match="min_order=2"):
            PMultigrid(levels, coarse="condensed")
