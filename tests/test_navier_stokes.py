"""Integration tests for the Navier-Stokes solver: exact solutions,
splitting accuracy, OIFS stability at CFL > 1, and diagnostics."""

import numpy as np
import pytest

from repro.api import SolverConfig
from repro.core.mesh import box_mesh_2d, box_mesh_3d
from repro.ns.bcs import ScalarBC, VelocityBC
from repro.ns.navier_stokes import BDF_COEFFS, EXT_COEFFS, NavierStokesSolver
from repro.ns.scalar import BoussinesqCoupling, ScalarTransport
from repro.solvers.cg import SolveFailure


def taylor_green_solver(N=7, ne=4, dt=0.02, re=20.0, projection_window=8, **kw):
    L = 2 * np.pi
    mesh = box_mesh_2d(ne, ne, N, x1=L, y1=L, periodic=(True, True))
    kw.setdefault("convection", "ext")
    sol = NavierStokesSolver(
        mesh, re=re, dt=dt, bc=VelocityBC.none(mesh),
        config=SolverConfig(projection_window=projection_window), **kw
    )
    sol.set_initial_condition(
        [lambda x, y: -np.cos(x) * np.sin(y), lambda x, y: np.sin(x) * np.cos(y)]
    )
    return sol, mesh


def tg_exact_u(mesh, t, nu):
    x, y = (np.asarray(c) for c in mesh.coords)
    return -np.cos(x) * np.sin(y) * np.exp(-2 * nu * t)


class TestCoefficients:
    def test_bdf2_telescopes(self):
        beta0, b = BDF_COEFFS[2]
        # exact for linear functions: beta0 * t - b1 (t-1) - b2 (t-2) = dt-slope
        assert beta0 - sum(b) == pytest.approx(0.0)
        assert beta0 * 0 - (b[0] * (-1) + b[1] * (-2)) == pytest.approx(1.0)

    def test_bdf3_consistency(self):
        beta0, b = BDF_COEFFS[3]
        assert beta0 - sum(b) == pytest.approx(0.0)
        assert -(b[0] * (-1) + b[1] * (-2) + b[2] * (-3)) == pytest.approx(1.0)

    def test_ext_coeffs_reproduce_polynomials(self):
        for k, g in EXT_COEFFS.items():
            # extrapolation to t=0 from values at -1..-k: exact on degree k-1
            assert sum(g) == pytest.approx(1.0)
            if k >= 2:
                assert sum(gq * (-q) for q, gq in enumerate(g, 1)) == pytest.approx(0.0)


class TestConstruction:
    def test_invalid_args(self):
        m = box_mesh_2d(2, 2, 4)
        with pytest.raises(ValueError):
            NavierStokesSolver(m, re=-1, dt=0.1)
        with pytest.raises(ValueError):
            NavierStokesSolver(m, re=10, dt=0.1, scheme=4)
        with pytest.raises(ValueError):
            NavierStokesSolver(m, re=10, dt=0.1, convection="upwind")

    def test_initial_condition_shapes(self):
        m = box_mesh_2d(2, 2, 4)
        sol = NavierStokesSolver(m, re=10, dt=0.1, convection="none")
        with pytest.raises(ValueError):
            sol.set_initial_condition([np.zeros(3), np.zeros(3)])

    def test_wrong_component_count_raises_at_the_call(self):
        m = box_mesh_3d(2, 1, 1, 4)
        sol = NavierStokesSolver(m, re=10, dt=0.01)
        f = lambda x, y, z: 0 * x  # noqa: E731
        with pytest.raises(ValueError, match="nd = 3.*got 2"):
            sol.set_initial_condition([f, f])
        sol.set_initial_condition([f, f, f])
        with pytest.raises(ValueError, match="nd = 3.*got 1"):
            sol.step(extra_forcing=[m.field()])
        assert sol.step_count == 0 and not sol._u_hist

    def test_non_finite_state_raises_solve_failure(self):
        m = box_mesh_2d(2, 2, 4)
        sol = NavierStokesSolver(m, re=10, dt=0.1, convection="none")
        u0 = m.field()
        u0[1, 2, 2] = np.nan
        sol.set_initial_condition([u0, m.field()])
        with pytest.raises(SolveFailure) as info:
            sol.step()
        assert info.value.label == "helmholtz_u0"
        assert info.value.step == 1 and "(at step 1)" in str(info.value)

    @pytest.mark.parametrize("warm_steps", [0, 2])
    def test_unconverged_pressure_solve_names_the_step(self, monkeypatch,
                                                        warm_steps):
        import repro.ns.navier_stokes as ns_mod

        sol, _ = taylor_green_solver(N=4, ne=2)
        sol.advance(warm_steps)
        real_pcg = ns_mod.pcg

        def capped(*args, **kw):
            if kw.get("label") == "pressure":
                kw["maxiter"] = 1
            return real_pcg(*args, **kw)

        monkeypatch.setattr(ns_mod, "pcg", capped)
        with pytest.raises(SolveFailure, match="pressure solve failed") as info:
            sol.step()
        step = warm_steps + 1
        assert info.value.step == step and info.value.label == "pressure"
        assert str(info.value).endswith(f"(at step {step})")

    def test_retried_step_after_failure_matches_clean_run(self, monkeypatch):
        # A failed step must not leave u^n on the histories: the retry
        # would integrate it twice.
        import repro.ns.navier_stokes as ns_mod

        clean, _ = taylor_green_solver(N=4, ne=2, projection_window=0)
        clean.advance(4)
        sol, _ = taylor_green_solver(N=4, ne=2, projection_window=0)
        sol.advance(2)
        real_pcg = ns_mod.pcg

        def capped(*args, **kw):
            if kw.get("label") == "pressure":
                kw["maxiter"] = 1
            return real_pcg(*args, **kw)

        monkeypatch.setattr(ns_mod, "pcg", capped)
        with pytest.raises(SolveFailure):
            sol.step()
        monkeypatch.setattr(ns_mod, "pcg", real_pcg)
        sol.advance(2)
        assert sol.step_count == clean.step_count == 4 and sol.t == clean.t
        assert np.array_equal(sol.u, clean.u) and np.array_equal(sol.p, clean.p)

    def test_retried_scalar_step_after_failure_matches_clean_run(self, monkeypatch):
        import repro.ns.scalar as scalar_mod

        def run(fail_at):
            sol, mesh = taylor_green_solver(N=4, ne=2, projection_window=0)
            heat = ScalarTransport(sol, peclet=10.0)
            heat.set_initial_condition(lambda x, y: np.sin(x) * np.cos(y))
            real_pcg = scalar_mod.pcg
            for k in range(1, 4):
                sol.step()
                if k == fail_at:
                    monkeypatch.setattr(
                        scalar_mod, "pcg",
                        lambda *a, **kw: real_pcg(*a, **{**kw, "maxiter": 1}))
                    with pytest.raises(SolveFailure):
                        heat.step()
                    monkeypatch.setattr(scalar_mod, "pcg", real_pcg)
                heat.step()
            return heat.T

        assert np.array_equal(run(fail_at=2), run(fail_at=None))

    def test_scalar_failure_names_the_flow_step(self):
        sol, mesh = taylor_green_solver(N=4, ne=2)
        heat = ScalarTransport(sol, peclet=10.0)
        T0 = mesh.field()
        T0[0, 1, 1] = np.nan
        heat.T = T0
        sol.advance(2)
        with pytest.raises(SolveFailure) as info:
            heat.step()
        assert info.value.step == 2 and info.value.label == "scalar"

    def test_state_is_one_velocity_stack(self):
        sol, mesh = taylor_green_solver(N=5, ne=3, convection="oifs", filter_alpha=0.1)
        stack = (2,) + mesh.local_shape
        sol.advance(3)
        sol_ext, _ = taylor_green_solver(N=5, ne=3)
        sol_ext.advance(3)
        for s in (sol, sol_ext):
            assert isinstance(s.u, np.ndarray) and s.u.shape == stack
            hists = s._u_hist + s._conv_hist
            assert len(hists) == (2 if s is sol else 4)
            for h in hists:
                assert isinstance(h, np.ndarray) and h.shape == stack

    def test_initial_condition_respects_bc(self):
        m = box_mesh_2d(2, 2, 4)
        bc = VelocityBC(m, {s: (0.0, 0.0) for s in m.boundary})
        sol = NavierStokesSolver(m, re=10, dt=0.1, bc=bc, convection="none")
        sol.set_initial_condition([lambda x, y: np.ones_like(x), lambda x, y: 0 * x])
        assert np.all(sol.u[0][bc.mask.constrained] == 0.0)


class TestTaylorGreen:
    def test_accuracy_short_run(self):
        sol, mesh = taylor_green_solver()
        nu = 1.0 / sol.re
        sol.advance(15)
        err = np.max(np.abs(sol.u[0] - tg_exact_u(mesh, sol.t, nu)))
        assert err < 1e-4

    def test_divergence_free(self):
        sol, _ = taylor_green_solver()
        sol.advance(5)
        assert sol.stats[-1].divergence_norm < 1e-10

    def test_energy_decay_rate(self):
        sol, _ = taylor_green_solver(dt=0.01)
        nu = 1.0 / sol.re
        e0 = sol.kinetic_energy()
        sol.advance(20)
        expect = e0 * np.exp(-4 * nu * sol.t)
        assert sol.kinetic_energy() == pytest.approx(expect, rel=1e-3)

    def test_second_order_temporal_convergence(self):
        # N = 12 puts the spatial/aliasing floor below 1e-6 so the dt^2
        # error is cleanly visible (ratio ~4 per halving).
        errs = []
        for dt in (0.1, 0.05):
            sol, mesh = taylor_green_solver(dt=dt, N=12, re=100.0)
            nu = 1.0 / sol.re
            sol.advance(int(round(0.8 / dt)))
            errs.append(np.max(np.abs(sol.u[0] - tg_exact_u(mesh, sol.t, nu))))
        assert errs[1] < errs[0] / 2.5  # ~4x for clean 2nd order

    def test_projection_reduces_pressure_iterations(self):
        sol, _ = taylor_green_solver(projection_window=10)
        sol.advance(8)
        early = sol.stats[0].pressure_iterations
        late = sol.stats[-1].pressure_iterations
        assert late < early

    def test_oifs_stable_at_cfl_above_one(self):
        sol, mesh = taylor_green_solver(dt=0.2, convection="oifs")
        assert sol.cfl() > 1.0
        nu = 1.0 / sol.re
        sol.advance(8)
        err = np.max(np.abs(sol.u[0] - tg_exact_u(mesh, sol.t, nu)))
        assert err < 5e-2
        assert np.isfinite(sol.kinetic_energy())

    def test_vorticity_of_taylor_green(self):
        sol, mesh = taylor_green_solver()
        w = sol.vorticity()
        x, y = (np.asarray(c) for c in mesh.coords)
        assert np.allclose(w, 2 * np.cos(x) * np.cos(y), atol=1e-5)


class TestChannelFlow:
    @pytest.mark.slow
    def test_poiseuille_steady_state(self):
        """Forced periodic channel: u -> (Re/2) f y (1-y) profile."""
        mesh = box_mesh_2d(2, 3, 6, x1=2.0, periodic=(True, False))
        bc = VelocityBC(mesh, {"ymin": (0.0, 0.0), "ymax": (0.0, 0.0)})
        re = 10.0
        f = 1.0
        sol = NavierStokesSolver(
            mesh, re=re, dt=0.1, bc=bc, convection="ext",
            forcing=lambda x, y, t: (f * np.ones_like(x), 0 * x),
        )
        sol.advance(200)
        y = np.asarray(mesh.coords[1])
        exact = 0.5 * re * f * y * (1 - y)
        assert np.max(np.abs(sol.u[0] - exact)) < 1e-3 * np.max(exact)
        assert np.max(np.abs(sol.u[1])) < 1e-6

    def test_lid_driven_cavity_runs(self):
        mesh = box_mesh_2d(3, 3, 5)
        bc = VelocityBC(
            mesh,
            {
                "ymax": (lambda x, y: 16.0 * (x * (1 - x)) ** 2, 0.0),
                "ymin": (0.0, 0.0),
                "xmin": (0.0, 0.0),
                "xmax": (0.0, 0.0),
            },
        )
        sol = NavierStokesSolver(mesh, re=100.0, dt=0.05, bc=bc, convection="ext",
                                 filter_alpha=0.05)
        sol.advance(10)
        assert np.isfinite(sol.kinetic_energy())
        assert sol.kinetic_energy() > 0
        # The once-per-step filter slightly perturbs the projected field, so
        # the divergence is small but not at solver tolerance (as in Nek).
        assert sol.stats[-1].divergence_norm < 1e-2

    def test_cavity_divergence_tight_without_filter(self):
        mesh = box_mesh_2d(3, 3, 5)
        bc = VelocityBC(
            mesh,
            {
                "ymax": (lambda x, y: 16.0 * (x * (1 - x)) ** 2, 0.0),
                "ymin": (0.0, 0.0),
                "xmin": (0.0, 0.0),
                "xmax": (0.0, 0.0),
            },
        )
        sol = NavierStokesSolver(mesh, re=100.0, dt=0.05, bc=bc, convection="ext")
        sol.advance(10)
        assert sol.stats[-1].divergence_norm < 1e-7


class TestStokesMode:
    def test_stokes_decay_exact(self):
        """convection='none': pure Stokes; TG decays at exp(-2 nu t) without
        the nonlinear terms (which cancel for TG anyway)."""
        sol, mesh = taylor_green_solver(convection="none", dt=0.02)
        nu = 1.0 / sol.re
        sol.advance(10)
        err = np.max(np.abs(sol.u[0] - tg_exact_u(mesh, sol.t, nu)))
        assert err < 1e-5


class TestBDF3:
    def test_third_order_scheme_runs_and_is_accurate(self):
        sol, mesh = taylor_green_solver(scheme=3, dt=0.02, filter_alpha=0.1)
        nu = 1.0 / sol.re
        sol.advance(12)
        err = np.max(np.abs(sol.u[0] - tg_exact_u(mesh, sol.t, nu)))
        assert err < 1e-4


class Test3D:
    def test_3d_taylor_green_short(self):
        L = 2 * np.pi
        mesh = box_mesh_3d(2, 2, 2, 5, x1=L, y1=L, z1=L, periodic=(True, True, True))
        sol = NavierStokesSolver(
            mesh, re=50.0, dt=0.05, bc=VelocityBC.none(mesh),
            convection="ext",
            config=SolverConfig(projection_window=5, pressure_tol=1e-7),
        )
        sol.set_initial_condition(
            [
                lambda x, y, z: np.sin(x) * np.cos(y) * np.cos(z),
                lambda x, y, z: -np.cos(x) * np.sin(y) * np.cos(z),
                lambda x, y, z: np.zeros_like(z),
            ]
        )
        e0 = sol.kinetic_energy()
        sol.advance(3)
        assert sol.kinetic_energy() < e0  # decaying
        assert sol.stats[-1].divergence_norm < 1e-6


class TestScalarTransport:
    def test_pure_diffusion_decay(self):
        mesh = box_mesh_2d(3, 3, 6, periodic=(True, True))
        flow = NavierStokesSolver(mesh, re=1.0, dt=0.005, bc=VelocityBC.none(mesh),
                                  convection="none")
        flow.set_initial_condition([lambda x, y: 0 * x, lambda x, y: 0 * x])
        tr = ScalarTransport(flow, peclet=1.0)
        tr.set_initial_condition(lambda x, y: np.sin(2 * np.pi * x) * np.sin(2 * np.pi * y))
        rate = 8 * np.pi**2  # eigenvalue of -lap for this mode
        T0 = tr.T.copy()
        for _ in range(10):
            flow.step()
            tr.step()
        expect = T0 * np.exp(-rate * flow.t)
        # BDF1 start-up step dominates the error at this stiff decay rate.
        assert np.max(np.abs(tr.T - expect)) < 6e-3 * np.max(np.abs(T0))

    def test_advection_by_uniform_flow(self):
        mesh = box_mesh_2d(4, 1, 7, periodic=(True, False))
        flow = NavierStokesSolver(
            mesh, re=1e6, dt=0.01, convection="ext",
            bc=VelocityBC(mesh, {"ymin": (1.0, 0.0), "ymax": (1.0, 0.0)}),
        )
        flow.set_initial_condition([lambda x, y: np.ones_like(x), lambda x, y: 0 * x])
        tr = ScalarTransport(flow, peclet=1e6)
        tr.set_initial_condition(lambda x, y: np.sin(2 * np.pi * x) + 0 * y)
        for _ in range(10):
            flow.step()
            tr.step()
        x = np.asarray(mesh.coords[0])
        exact = np.sin(2 * np.pi * (x - flow.t))
        assert np.max(np.abs(tr.T - exact)) < 5e-3

    def test_dirichlet_scalar_steady_conduction(self):
        mesh = box_mesh_2d(2, 2, 5)
        flow = NavierStokesSolver(mesh, re=1.0, dt=0.05, convection="none")
        flow.set_initial_condition([lambda x, y: 0 * x, lambda x, y: 0 * x])
        bc = ScalarBC(mesh, {"ymin": 1.0, "ymax": 0.0})
        tr = ScalarTransport(flow, peclet=1.0, bc=bc)
        tr.set_initial_condition(lambda x, y: 0 * x)
        for _ in range(60):
            flow.step()
            tr.step()
        y = np.asarray(mesh.coords[1])
        # steady 1-D conduction between the walls, adiabatic sides
        assert np.max(np.abs(tr.T - (1 - y))) < 1e-3

    def test_invalid_peclet(self):
        mesh = box_mesh_2d(2, 2, 4)
        flow = NavierStokesSolver(mesh, re=1.0, dt=0.1, convection="none")
        with pytest.raises(ValueError):
            ScalarTransport(flow, peclet=0.0)


class TestBoussinesq:
    def test_unstable_stratification_grows(self):
        """Hot bottom plate: buoyancy injects kinetic energy."""
        mesh = box_mesh_2d(4, 2, 5, x1=2.0)
        bc = VelocityBC.no_slip_all(mesh)
        flow = NavierStokesSolver(mesh, re=1.0, dt=0.02, bc=bc, convection="ext",
                                  config=SolverConfig(pressure_tol=1e-7))
        flow.set_initial_condition([lambda x, y: 0 * x, lambda x, y: 0 * x])
        sbc = ScalarBC(mesh, {"ymin": 1.0, "ymax": 0.0})
        tr = ScalarTransport(flow, peclet=1.0, bc=sbc)
        tr.set_initial_condition(
            lambda x, y: (1 - y) + 0.05 * np.sin(np.pi * x) * np.sin(np.pi * y)
        )
        coupling = BoussinesqCoupling(flow, tr, buoyancy=5e3, g_dir=(0, 1))
        for _ in range(8):
            coupling.step()
        assert flow.kinetic_energy() > 1e-8
        assert np.isfinite(flow.kinetic_energy())

    def test_bad_g_dir(self):
        mesh = box_mesh_2d(2, 2, 4)
        flow = NavierStokesSolver(mesh, re=1.0, dt=0.1, convection="none")
        tr = ScalarTransport(flow, peclet=1.0)
        with pytest.raises(ValueError):
            BoussinesqCoupling(flow, tr, 1.0, g_dir=(0, 1, 0))


class TestKovasznay:
    """Steady 2-D Navier-Stokes with the closed-form Kovasznay solution —
    exercises through-flow Dirichlet boundaries with OIFS convection."""

    @pytest.mark.slow
    def test_converges_to_exact_steady_state(self):
        re = 40.0
        lam = re / 2 - np.sqrt(re**2 / 4 + 4 * np.pi**2)
        ue = lambda x, y: 1 - np.exp(lam * x) * np.cos(2 * np.pi * y)  # noqa: E731
        ve = lambda x, y: (lam / (2 * np.pi)) * np.exp(lam * x) * np.sin(2 * np.pi * y)  # noqa: E731
        mesh = box_mesh_2d(3, 2, 9, x0=-0.5, x1=1.0, y0=-0.5, y1=0.5)
        bc = VelocityBC(mesh, {s: (ue, ve) for s in mesh.boundary})
        sol = NavierStokesSolver(
            mesh, re=re, dt=0.01, bc=bc, convection="oifs",
            config=SolverConfig(projection_window=15, pressure_tol=1e-10),
        )
        sol.set_initial_condition([ue, ve])
        sol.advance(200)
        ke1 = sol.kinetic_energy()
        sol.advance(50)
        # steady: energy drift negligible
        assert abs(sol.kinetic_energy() - ke1) < 1e-6 * ke1
        err_u = np.max(np.abs(sol.u[0] - mesh.eval_function(ue)))
        err_v = np.max(np.abs(sol.u[1] - mesh.eval_function(ve)))
        assert err_u < 5e-3  # dt-splitting bias dominated at this dt
        assert err_v < 5e-3

    def test_oifs_without_boundary_fix_would_diverge(self):
        """Regression guard: the through-flow case must use the OIFS
        boundary re-imposition (it blows up otherwise)."""
        re = 40.0
        lam = re / 2 - np.sqrt(re**2 / 4 + 4 * np.pi**2)
        ue = lambda x, y: 1 - np.exp(lam * x) * np.cos(2 * np.pi * y)  # noqa: E731
        ve = lambda x, y: (lam / (2 * np.pi)) * np.exp(lam * x) * np.sin(2 * np.pi * y)  # noqa: E731
        mesh = box_mesh_2d(2, 2, 6, x0=-0.5, x1=1.0, y0=-0.5, y1=0.5)
        bc = VelocityBC(mesh, {s: (ue, ve) for s in mesh.boundary})
        sol = NavierStokesSolver(mesh, re=re, dt=0.02, bc=bc, convection="oifs")
        sol.set_initial_condition([ue, ve])
        sol.advance(30)
        assert np.isfinite(sol.kinetic_energy())

