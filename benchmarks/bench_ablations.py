"""Ablations of the paper's design choices.

Not a paper table — the quantified versions of Section 5/6's design
arguments, on one fixed workload each:

* projection window length L (Fig. 4's knob): iterations vs L;
* Schwarz overlap width for the tensor (FDM) local solves;
* coarse-grid on/off at fixed fine smoother (the A_0 term);
* OIFS substep CFL target: stability/cost trade-off.
"""

import numpy as np
import pytest

from conftest import fmt_table, write_result
from repro.api import SolverConfig
from repro.core.mesh import box_mesh_2d
from repro.core.pressure import PressureOperator
from repro.ns.bcs import VelocityBC
from repro.ns.navier_stokes import NavierStokesSolver
from repro.solvers.cg import pcg
from repro.solvers.schwarz import SchwarzPreconditioner
from repro.workloads.convection_cell import ConvectionCellCase


@pytest.fixture(scope="module")
def projection_ablation():
    out = {}
    for L in (0, 2, 5, 10, 26):
        case = ConvectionCellCase(n_elements=3, order=6, dt=0.03,
                                  projection_window=L, pressure_tol=1e-6)
        out[L] = case.run(24)
    return out


def test_projection_window_ablation(benchmark, projection_ablation):
    benchmark(lambda: None)
    rows = [[L, r.mean_iterations_tail, r.mean_residual_tail]
            for L, r in projection_ablation.items()]
    text = fmt_table(["L", "tail iters", "tail resid0"], rows,
                     title="Ablation: projection window length (convection cell)")
    write_result("ablation_projection_window", text)
    tails = {L: r.mean_iterations_tail for L, r in projection_ablation.items()}
    # Monotone-ish improvement saturating by L ~ 10-26 (dt^l term, Sec. 5).
    assert tails[26] <= tails[5] <= tails[0]
    assert tails[26] < 0.6 * tails[0]


@pytest.fixture(scope="module")
def schwarz_ablation():
    mesh = box_mesh_2d(6, 6, 6)
    pop = PressureOperator(mesh)
    xp = pop.interp_to_pressure(np.asarray(mesh.coords[0]))
    yp = pop.interp_to_pressure(np.asarray(mesh.coords[1]))
    g = np.sin(2 * np.pi * xp) * np.cos(np.pi * yp)
    g -= g.sum() / g.size
    tol = 1e-6 * float(np.linalg.norm(g.ravel()))
    out = {}
    for overlap in (0, 1, 2):
        pc = SchwarzPreconditioner(mesh, pop, variant="fdm", overlap=overlap)
        out[("fdm", overlap, True)] = pcg(pop.matvec, g, dot=pop.dot, precond=pc,
                                          tol=tol, maxiter=1500).iterations
    pc = SchwarzPreconditioner(mesh, pop, variant="fdm", use_coarse=False)
    out[("fdm", 1, False)] = pcg(pop.matvec, g, dot=pop.dot, precond=pc,
                                 tol=tol, maxiter=1500).iterations
    return out


def test_schwarz_overlap_and_coarse_ablation(benchmark, schwarz_ablation):
    benchmark(lambda: None)
    rows = [["overlap=%d%s" % (o, "" if c else " (A0=0)"), it]
            for (v, o, c), it in schwarz_ablation.items()]
    text = fmt_table(["configuration", "iterations"], rows,
                     title="Ablation: FDM Schwarz overlap width and coarse grid (E system)")
    write_result("ablation_schwarz", text)
    a = schwarz_ablation
    assert a[("fdm", 1, True)] < a[("fdm", 0, True)]
    assert a[("fdm", 2, True)] <= a[("fdm", 1, True)] + 2
    assert a[("fdm", 1, False)] > 1.5 * a[("fdm", 1, True)]


@pytest.fixture(scope="module")
def oifs_ablation():
    """Taylor-Green at CFL ~ 2: substep target governs stability and cost."""
    out = {}
    L = 2 * np.pi
    for target in (1.0, 0.5, 0.25):
        mesh = box_mesh_2d(4, 4, 7, x1=L, y1=L, periodic=(True, True))
        sol = NavierStokesSolver(mesh, re=20.0, dt=0.2, bc=VelocityBC.none(mesh),
                                 convection="oifs", oifs_cfl_target=target,
                                 config=SolverConfig(projection_window=8))
        sol.set_initial_condition([
            lambda x, y: -np.cos(x) * np.sin(y),
            lambda x, y: np.sin(x) * np.cos(y),
        ])
        nu = 1 / sol.re
        ok = True
        try:
            sol.advance(8)
        except Exception:
            ok = False
        if ok:
            ue = -np.cos(mesh.coords[0]) * np.sin(mesh.coords[1]) * np.exp(-2 * nu * sol.t)
            err = float(np.max(np.abs(sol.u[0] - ue)))
            ok = np.isfinite(err) and err < 1.0
        else:
            err = np.inf
        out[target] = (ok, err)
    return out


def test_oifs_substep_ablation(benchmark, oifs_ablation):
    benchmark(lambda: None)
    rows = [[t, ok, err] for t, (ok, err) in oifs_ablation.items()]
    text = fmt_table(["CFL target", "stable", "err"], rows,
                     title="Ablation: OIFS RK4 substep CFL target (TG at CFL ~ 2)")
    write_result("ablation_oifs", text)
    assert oifs_ablation[0.25][0]
    # Tighter substeps never hurt accuracy.
    if oifs_ablation[0.5][0]:
        assert oifs_ablation[0.25][1] <= 2.0 * oifs_ablation[0.5][1]


def test_batched_vs_looped_operator_ablation(benchmark):
    """The library's central implementation choice: apply tensor kernels
    batched over all K elements (one BLAS-3 call per direction) instead of
    looping per element — the numpy realization of the paper's
    'mxm as the computational kernel' strategy."""
    import time

    from repro.core.element import geometric_factors
    from repro.core.mesh import box_mesh_3d
    from repro.core.operators import LaplaceOperator

    mesh = box_mesh_3d(4, 4, 4, 7)
    geom = geometric_factors(mesh)
    lap = LaplaceOperator(mesh, geom)
    u = np.random.default_rng(0).standard_normal(mesh.local_shape)

    def batched():
        return lap.apply(u)

    def looped():
        out = np.empty_like(u)
        from repro.parallel.spmd_cg import _slice_geom

        for k in range(mesh.K):
            lap_k = LaplaceOperator(mesh, _slice_geom(geom, np.array([k])))
            out[k] = lap_k.apply(u[k:k + 1])[0]
        return out

    ref = batched()
    assert np.allclose(looped(), ref, atol=1e-10)

    def timeit(fn, reps=5):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        return (time.perf_counter() - t0) / reps

    t_b = timeit(batched)
    t_l = timeit(looped, reps=2)
    benchmark(batched)
    text = fmt_table(
        ["variant", "sec/apply", "speedup"],
        [["per-element loop", t_l, 1.0], ["batched over K", t_b, t_l / t_b]],
        title=f"Ablation: batched vs looped Laplacian apply (K={mesh.K}, N=7, 3-D)",
    )
    write_result("ablation_batched_kernels", text)
    assert t_b < t_l  # batching must win

