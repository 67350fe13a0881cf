"""End-to-end integration: a miniature production run wiring every
subsystem together — 3-D deformed mesh, OIFS Navier-Stokes with filter and
projection, coupled scalar, diagnostics, checkpoint/restart, VTK dump, and
flop instrumentation."""

import numpy as np
import pytest

pytestmark = pytest.mark.slow

from repro import (
    FieldEvaluator,
    FlowDiagnostics,
    NavierStokesSolver,
    ScalarBC,
    ScalarTransport,
    VelocityBC,
    load_checkpoint,
    save_checkpoint,
    save_vtk,
)
from repro.api import SolverConfig
from repro.perf.flops import counting
from repro.workloads.hairpin import bump_channel_mesh


CONFIG = SolverConfig(projection_window=12, pressure_tol=1e-6)


@pytest.fixture(scope="module")
def production_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("run")
    mesh = bump_channel_mesh(4, 2, 2, order=5, bump_height=0.25)
    bc = VelocityBC(mesh, {"zmin": (0.0, 0.0, 0.0), "zmax": (1.0, 0.0, 0.0)})
    flow = NavierStokesSolver(
        mesh, re=800.0, dt=0.04, bc=bc, convection="oifs",
        filter_alpha=0.1, config=CONFIG,
    )
    flow.set_initial_condition([
        lambda x, y, z: np.clip(z / 0.4, 0, 1) * (2 - np.clip(z / 0.4, 0, 1)),
        lambda x, y, z: np.zeros_like(z),
        lambda x, y, z: np.zeros_like(z),
    ])
    heat = ScalarTransport(flow, peclet=500.0,
                           bc=ScalarBC(mesh, {"zmin": 1.0, "zmax": 0.0}))
    heat.set_initial_condition(lambda x, y, z: 1.0 - z)
    with counting() as fc:
        for _ in range(6):
            flow.step()
            heat.step()
    return tmp, mesh, flow, heat, fc


class TestEndToEnd:
    def test_run_is_healthy(self, production_run):
        _, mesh, flow, heat, _ = production_run
        assert np.isfinite(flow.kinetic_energy())
        assert flow.kinetic_energy() > 0
        assert all(np.isfinite(s.divergence_norm) for s in flow.stats)
        assert np.isfinite(heat.T).all()
        assert 0.0 <= heat.T.min() + 1e-6 and heat.T.max() <= 1.0 + 1e-6

    def test_mxm_dominates_flops(self, production_run):
        *_, fc = production_run
        assert fc.fraction("mxm") > 0.6  # the Section 6 structural claim

    def test_diagnostics_consistent(self, production_run):
        _, mesh, flow, _, _ = production_run
        diag = FlowDiagnostics(mesh, flow.geom)
        budget = diag.energy_budget(flow.u, nu=1.0 / flow.re)
        assert budget["kinetic_energy"] == pytest.approx(flow.kinetic_energy(), rel=1e-10)
        assert budget["dissipation"] > 0
        assert budget["enstrophy"] > 0
        # No net mass flux through the periodic+walls enclosure sides.
        assert abs(diag.mass_flux(flow.u, "zmin")) < 1e-10

    def test_probe_boundary_layer_profile(self, production_run):
        _, mesh, flow, _, _ = production_run
        ev = FieldEvaluator(mesh)
        pts = np.column_stack([
            np.full(6, 0.5), np.full(6, 0.5), np.linspace(0.02, 0.95, 6)
        ])
        u_prof = ev.evaluate(flow.u[0], pts)
        assert np.all(np.isfinite(u_prof))
        assert u_prof[-1] > u_prof[0]  # boundary layer: faster away from wall

    def test_vtk_dump(self, production_run):
        tmp, mesh, flow, heat, _ = production_run
        path = save_vtk(tmp / "state.vtk", mesh,
                        {"velocity": flow.u, "temperature": heat.T})
        text = path.read_text()
        assert "VECTORS velocity double" in text
        assert "SCALARS temperature double 1" in text

    def test_checkpoint_restart_continues(self, production_run):
        tmp, mesh, flow, heat, _ = production_run
        ck = save_checkpoint(tmp / "ck.npz", flow)
        bc = VelocityBC(mesh, {"zmin": (0.0, 0.0, 0.0), "zmax": (1.0, 0.0, 0.0)})
        fresh = NavierStokesSolver(
            mesh, re=800.0, dt=0.04, bc=bc, convection="oifs",
            filter_alpha=0.1, config=CONFIG,
        )
        load_checkpoint(ck, fresh)
        assert fresh.t == pytest.approx(flow.t)
        fresh.step()
        assert np.isfinite(fresh.kinetic_energy())
        assert fresh.step_count == flow.step_count + 1
