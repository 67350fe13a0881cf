"""Tests for the rotating-frame (Coriolis) forcing — the GFFC-class
configuration of Fig. 1 (rotating convection)."""

import numpy as np
import pytest

from repro.api import SolverConfig
from repro.core.mesh import box_mesh_2d, box_mesh_3d
from repro.ns.bcs import ScalarBC, VelocityBC
from repro.ns.navier_stokes import NavierStokesSolver
from repro.ns.scalar import BoussinesqCoupling, ScalarTransport


class TestCoriolisTerm:
    def test_2d_term_orthogonal_to_velocity(self):
        m = box_mesh_2d(2, 2, 4)
        sol = NavierStokesSolver(m, re=10, dt=0.01, convection="none", coriolis=3.0)
        u = [m.eval_function(lambda x, y: x), m.eval_function(lambda x, y: y)]
        cor = sol._coriolis_term(u)
        # -2 Omega x u is pointwise orthogonal to u: u . cor = 0.
        dot = u[0] * cor[0] + u[1] * cor[1]
        assert np.allclose(dot, 0.0, atol=1e-13)

    def test_3d_term_is_cross_product(self):
        m = box_mesh_3d(1, 1, 1, 3)
        sol = NavierStokesSolver(m, re=10, dt=0.01, convection="none",
                                 coriolis=(0.0, 0.0, 2.0))
        u = [m.field(1.0), m.field(0.0), m.field(0.0)]  # u = x_hat
        cor = sol._coriolis_term(u)
        # -2 (2 z_hat) x x_hat = -4 y_hat
        assert np.allclose(cor[0], 0.0)
        assert np.allclose(cor[1], -4.0)
        assert np.allclose(cor[2], 0.0)

    def test_3d_requires_vector(self):
        m = box_mesh_3d(1, 1, 1, 3)
        with pytest.raises(ValueError):
            NavierStokesSolver(m, re=10, dt=0.01, convection="none",
                               coriolis=(1.0, 2.0))


class TestRotatingDynamics:
    def test_energy_conserved_by_rotation(self):
        """Coriolis does no work: a rotating inviscid-ish Taylor-Green run
        keeps the viscous-only decay rate."""
        L = 2 * np.pi
        m = box_mesh_2d(4, 4, 7, x1=L, y1=L, periodic=(True, True))

        def run(f):
            sol = NavierStokesSolver(m, re=200.0, dt=0.02, bc=VelocityBC.none(m),
                                     convection="ext", coriolis=f,
                                     config=SolverConfig(projection_window=6))
            sol.set_initial_condition([
                lambda x, y: -np.cos(x) * np.sin(y),
                lambda x, y: np.sin(x) * np.cos(y),
            ])
            sol.advance(15)
            return sol.kinetic_energy()

        e_rot = run(2.0)
        e_still = run(None)
        assert e_rot == pytest.approx(e_still, rel=2e-3)

    @staticmethod
    def _plume_mirror_asymmetry(f):
        """|u_x(x0, y) + u_x(2 - x0, y)| for a plume centered at x = 1:
        exactly zero without rotation, finite with it."""
        from repro.core.evaluation import FieldEvaluator

        m = box_mesh_2d(4, 2, 5, x1=2.0)
        flow = NavierStokesSolver(m, re=500.0, dt=0.02,
                                  bc=VelocityBC.no_slip_all(m),
                                  convection="ext", coriolis=f,
                                  config=SolverConfig(pressure_tol=1e-8))
        flow.set_initial_condition([lambda x, y: 0 * x, lambda x, y: 0 * x])
        tr = ScalarTransport(flow, peclet=500.0,
                             bc=ScalarBC(m, {"ymin": 1.0, "ymax": 0.0}))
        tr.set_initial_condition(
            lambda x, y: (1 - y) + 0.2 * np.exp(-((x - 1.0) ** 2) / 0.02) * np.sin(np.pi * y)
        )
        coupling = BoussinesqCoupling(flow, tr, buoyancy=1.0, g_dir=(0, 1))
        for _ in range(10):
            coupling.step()
        ev = FieldEvaluator(m)
        left = ev.evaluate(flow.u[0], [[0.7, 0.5], [0.85, 0.3]])
        right = ev.evaluate(flow.u[0], [[1.3, 0.5], [1.15, 0.3]])
        return float(np.max(np.abs(left + right)))

    def test_rotation_deflects_buoyant_plume(self):
        """Rotation breaks the mirror symmetry of a centered plume (the
        mirror-antisymmetric u_x of the irrotational case is destroyed)."""
        asym_rot = self._plume_mirror_asymmetry(5.0)
        asym_still = self._plume_mirror_asymmetry(None)
        assert asym_rot > 10.0 * asym_still + 1e-12

    def test_inertial_oscillation_frequency(self):
        """Uniform flow on an f-plane (no pressure coupling for a uniform
        field, periodic box): du/dt = 2 f u x z_hat rotates the velocity
        vector at frequency 2f."""
        L = 2 * np.pi
        m = box_mesh_2d(3, 3, 4, x1=L, y1=L, periodic=(True, True))
        f = 1.5
        sol = NavierStokesSolver(m, re=1e8, dt=0.005, bc=VelocityBC.none(m),
                                 convection="none", coriolis=f,
                                 config=SolverConfig(projection_window=0))
        sol.set_initial_condition([lambda x, y: np.ones_like(x),
                                   lambda x, y: np.zeros_like(x)])
        n = 100
        sol.advance(n)
        t = sol.t
        # exact: (u, v) = (cos(2 f t), -sin(2 f t))
        assert np.allclose(sol.u[0], np.cos(2 * f * t), atol=5e-3)
        assert np.allclose(sol.u[1], -np.sin(2 * f * t), atol=5e-3)
