"""Command-line interface: quick reproductions and demos.

    python -m repro info              # package/version/system inventory
    python -m repro demo              # 30-second Taylor-Green validation
    python -m repro table3            # mxm kernel MFLOPS sweep
    python -m repro table4            # terascale GFLOPS model
    python -m repro fig4  [--steps N] # projection study
    python -m repro fig6  [--size n]  # coarse-solver comparison
    python -m repro table2 [--level L]# Schwarz variants on the cylinder mesh
    python -m repro backends          # kernel backend / auto-tuner report
    python -m repro report [--steps N]# traced shear-layer run -> JSON report
    python -m repro spmd --executor mp --ranks 4   # distributed CG, real procs
    python -m repro sweep --runs 24                # many-run service, shared cache
    python -m repro pmg --coarse condensed         # p-MG smoother/coarse tiers
    python -m repro serve < specs.jsonl            # JSON-lines run service

Every subcommand accepts a global ``--backend NAME`` selecting the kernel
backend all tensor-product applies route through (equivalent to the
``REPRO_BACKEND`` environment variable; see docs/BACKENDS.md).  Valid
names are ``auto``/``matmul``/``einsum``/``flat``; anything else fails
with the available list.

The full benchmark harness (all tables/figures with shape assertions) is
``pytest benchmarks/ --benchmark-only``; the CLI offers the fast subset
for interactive exploration.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

__all__ = ["main"]


def _cmd_info(_args) -> int:
    import repro

    print(f"repro {repro.__version__} — reproduction of Tufo & Fischer, SC'99")
    print(f"public API: {len(repro.__all__)} names; see docs/API.md")
    print("paper experiments: Tables 1-4, Figures 3/4/6/8 "
          "(pytest benchmarks/ --benchmark-only)")
    return 0


def _cmd_demo(_args) -> int:
    from repro import NavierStokesSolver, SolverConfig, VelocityBC, box_mesh_2d

    L = 2 * np.pi
    mesh = box_mesh_2d(4, 4, 8, x1=L, y1=L, periodic=(True, True))
    sol = NavierStokesSolver(mesh, re=50.0, dt=0.02, bc=VelocityBC.none(mesh),
                             convection="ext",
                             config=SolverConfig(projection_window=10))
    sol.set_initial_condition([lambda x, y: -np.cos(x) * np.sin(y),
                               lambda x, y: np.sin(x) * np.cos(y)])
    e0 = sol.kinetic_energy()
    sol.advance(50)
    exact = e0 * np.exp(-4 * sol.t / sol.re)
    rel = abs(sol.kinetic_energy() - exact) / e0
    print(f"Taylor-Green, K={mesh.K}, N={mesh.order}: 50 steps to t={sol.t:.2f}")
    print(f"  kinetic energy {sol.kinetic_energy():.8f} (exact {exact:.8f}, "
          f"rel err {rel:.2e})")
    print(f"  final pressure iterations: {sol.stats[-1].pressure_iterations} "
          f"(projection active)")
    return 0 if rel < 1e-4 else 1


def _cmd_table3(_args) -> int:
    from repro.perf.mxm import KERNELS, best_kernel_per_shape, sweep_table3

    table = sweep_table3(min_time=0.05)
    names = list(KERNELS)
    print("Table 3: MFLOPS per kernel, (n1 x n2) x (n2 x n3)")
    print(f"{'n1':>4} {'n2':>4} {'n3':>4} " + " ".join(f"{n:>10}" for n in names))
    for (n1, n2, n3), row in table.items():
        print(f"{n1:4d} {n2:4d} {n3:4d} "
              + " ".join(f"{row[n]:10.1f}" for n in names))
    winners = best_kernel_per_shape(table)
    print("winners:", sorted(set(winners.values())))
    return 0


def _cmd_table4(_args) -> int:
    from repro.parallel.machine import ASCI_RED_333, ASCI_RED_333_PERF
    from repro.parallel.perf_model import TerascaleModel

    rows = TerascaleModel().table4({"std": ASCI_RED_333, "perf": ASCI_RED_333_PERF})
    print("Table 4 model: (K, N) = (8168, 15), 26 steps, ASCI-Red-333")
    print(f"{'kernels':>8} {'mode':>7} {'P':>6} {'time(s)':>8} {'GFLOPS':>7}")
    for r in rows:
        print(f"{r.kernels:>8} {r.mode:>7} {r.P:6d} {r.time_s:8.0f} {r.gflops:7.1f}")
    return 0


def _cmd_fig4(args) -> int:
    from repro.workloads.convection_cell import ConvectionCellCase

    n = args.steps
    with_proj = ConvectionCellCase(n_elements=3, order=6, dt=0.03,
                                   projection_window=26).run(n)
    without = ConvectionCellCase(n_elements=3, order=6, dt=0.03,
                                 projection_window=0).run(n)
    print(f"Fig. 4: pressure solves over {n} steps (buoyant convection)")
    print(f"{'step':>5} {'iters L=26':>11} {'resid0 L=26':>12} "
          f"{'iters L=0':>10} {'resid0 L=0':>11}")
    for s in range(n):
        print(f"{s + 1:5d} {with_proj.pressure_iterations[s]:11d} "
              f"{with_proj.initial_residuals[s]:12.3e} "
              f"{without.pressure_iterations[s]:10d} "
              f"{without.initial_residuals[s]:11.3e}")
    ratio = without.mean_iterations_tail / max(with_proj.mean_iterations_tail, 1e-9)
    print(f"tail iteration ratio: {ratio:.2f} (paper: 2.5-5x)")
    return 0


def _cmd_fig6(args) -> int:
    from repro.parallel.coarse_parallel import CoarseSolveModel, poisson_5pt
    from repro.parallel.machine import ASCI_RED_333

    a, coords = poisson_5pt(args.size)
    model = CoarseSolveModel(a, ASCI_RED_333, coords=coords)
    print(f"Fig. 6: coarse solvers, n = {model.n} "
          f"(nnz(X) = {model.xxt.nnz}, residual {model.xxt.verify(a):.1e})")
    print(f"{'P':>6} {'XXT':>11} {'red. LU':>11} {'dist Ainv':>11} {'bound':>11}")
    for p in (1, 4, 16, 64, 256, 1024, 2048):
        print(f"{p:6d} {model.time_xxt(p):11.3e} {model.time_redundant_lu(p):11.3e} "
              f"{model.time_distributed_ainv(p):11.3e} "
              f"{model.time_latency_bound(p):11.3e}")
    return 0


def _cmd_backends(args) -> int:
    from repro import backends

    if args.exercise:
        # Touch the Table 3 shape family so the report has content.
        from repro.core.mesh import box_mesh_2d, box_mesh_3d
        from repro.core.operators import LaplaceOperator

        for mesh in (box_mesh_2d(4, 4, 8), box_mesh_3d(2, 2, 2, 7)):
            lap = LaplaceOperator(mesh)
            u = np.random.default_rng(0).standard_normal(mesh.local_shape)
            for _ in range(3):
                lap.apply(u)
    print(backends.backend_report())
    return 0


def _cmd_report(args) -> int:
    """Traced shear-layer run -> schema-validated observability report.

    Runs ``--steps`` timesteps of the Fig. 3 shear-layer workload with the
    full observability layer enabled (region tree, solver telemetry,
    backend dispatch choices), plus a simulated gather-scatter profile of
    the same mesh partitioned over ``--ranks`` processors so the report
    carries real mesh-derived communication volumes.  See
    docs/OBSERVABILITY.md for the schema.
    """
    import json

    from repro import obs
    from repro.api import RunSpec, SolverConfig
    from repro.perf.flops import reset_flops
    from repro.service import execute

    obs.enable()
    obs.reset_all()
    reset_flops()
    spec = RunSpec(
        "shear_layer",
        params={
            "n_elements": args.elements,
            "order": args.order,
            "steps": args.steps,
        },
        config=SolverConfig(
            projection_window=args.projection_window,
            pressure_tol=1e-6,  # the workload's historical tolerance
        ),
    )
    payload = execute(spec)
    case = payload["case"]
    sol = case.solver

    if args.ranks > 1:
        # Simulated parallel profile: partition this run's mesh, then push
        # one field through the gather-scatter kernel per step on the
        # ASCI-Red cost model — the Section 6 communication numbers.
        import scipy.sparse as sp

        from repro.parallel.comm import SimComm
        from repro.parallel.gs import gs_init
        from repro.parallel.machine import ASCI_RED_333
        from repro.parallel.partition import recursive_spectral_bisection

        mesh = case.mesh
        adj = sp.csr_matrix(mesh.element_adjacency())
        part = recursive_spectral_bisection(
            adj, args.ranks, coords=mesh.element_centroids()
        )
        rank_elems = [np.nonzero(part == r)[0] for r in range(args.ranks)]
        if all(e.size for e in rank_elems):
            gs = gs_init([mesh.global_ids[e] for e in rank_elems])
            comm = SimComm(ASCI_RED_333, args.ranks)
            fields = [np.asarray(sol.u[0])[e] for e in rank_elems]
            for _ in range(args.steps):
                gs.gs_op(fields, "+", comm=comm)
            obs.record_value(
                "gs_simulated_seconds", comm.elapsed(), label=f"p{args.ranks}"
            )

    meta = spec.as_dict()
    meta["ranks"] = args.ranks
    doc = obs.report_json(meta=meta)
    obs.validate_report(doc)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"report written to {args.out} "
              f"({len(doc['solves'])} solves, "
              f"{doc['comm']['totals']['messages']} comm messages)")
    if args.text or not args.out:
        print(obs.report_text() if args.text else json.dumps(doc, indent=2,
                                                             sort_keys=True))
    obs.disable()
    obs.reset_all()
    return 0


def _cmd_spmd(args) -> int:
    """End-to-end distributed CG solve on a selectable SPMD substrate.

    Partitions a box mesh over ``--ranks``, runs the same CG rank program
    on the chosen ``--executor`` (simulated clocks or real processes), and
    prints measured vs alpha-beta-modeled time per communication phase.
    ``--out`` writes the schema-validated obs report with the merged
    per-rank ``spmd`` section.
    """
    import json

    from repro import obs
    from repro.core.mesh import box_mesh_2d
    from repro.parallel.exec import EXECUTORS
    from repro.parallel.machine import ASCI_RED_333, LOCALHOST_MP
    from repro.parallel.spmd_cg import DistributedSEMSolver

    if args.executor not in EXECUTORS:
        print(f"unknown executor {args.executor!r} "
              f"(have: {', '.join(EXECUTORS)})")
        return 2

    from repro.api import RunSpec, SolverConfig

    spec = RunSpec(
        "spmd_cg",
        params={
            "elements": args.elements,
            "order": args.order,
            "ranks": args.ranks,
            "executor": args.executor,
        },
        config=SolverConfig(tol=args.tol, maxiter=args.maxiter),
        seed=args.seed,
    )
    obs.enable()
    obs.reset_all()
    machine = LOCALHOST_MP if args.executor == "mp" else ASCI_RED_333
    mesh = box_mesh_2d(args.elements, args.elements, args.order)
    solver = DistributedSEMSolver(mesh, machine, args.ranks)
    rng = np.random.default_rng(spec.seed)
    f = rng.standard_normal(mesh.local_shape)

    res = solver.solve(f, tol=spec.config.tol, maxiter=spec.config.maxiter,
                       executor=args.executor, timeout=args.timeout)
    print(f"spmd cg: K={mesh.K} N={mesh.order} ranks={args.ranks} "
          f"executor={args.executor}")
    print(f"  {res.iterations} iterations, converged={res.converged}, "
          f"residual {res.residual_norm:.3e}")
    print(f"  wall {res.wall_seconds:.4f}s, alpha-beta model "
          f"{res.simulated_seconds:.4e}s")
    print(f"  {'phase':<12} {'calls':>7} {'messages':>9} {'words':>12} "
          f"{'measured(s)':>12} {'modeled(s)':>12}")
    for kind, row in res.phases.items():
        print(f"  {kind:<12} {row['calls']:>7d} {row['messages']:>9d} "
              f"{row['words']:>12.0f} {row['measured_seconds_max']:>12.4e} "
              f"{row['modeled_seconds_max']:>12.4e}")

    rc = 0 if res.converged else 1
    if args.out:
        doc = obs.report_json(meta=spec.as_dict(), spmd=res.report_section)
        obs.validate_report(doc)
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"report written to {args.out}")
    obs.disable()
    obs.reset_all()
    return rc


#: The Table 2 variant rows as typed configs (shared by table2 and sweep).
def _table2_configs():
    from repro.api import SolverConfig

    return [
        ("FDM", SolverConfig(pressure_variant="fdm")),
        ("FEM No=0", SolverConfig(pressure_variant="fem", overlap=0)),
        ("FEM No=1", SolverConfig(pressure_variant="fem", overlap=1)),
        ("FEM No=3", SolverConfig(pressure_variant="fem", overlap=3)),
        ("FDM No=0", SolverConfig(pressure_variant="fdm", overlap=0)),
        ("A0=0", SolverConfig(pressure_variant="fdm", use_coarse=False)),
    ]


def _cmd_table2(args) -> int:
    from repro.service import FactorCache
    from repro.workloads.cylinder_model import Table2Case

    # One cache for the whole table: the mesh, pressure operator, and RHS
    # are built once and every variant row reuses them.
    cache = FactorCache()
    case = Table2Case(level=args.level, order=7, cache=cache)
    print(f"Table 2: E-system variants, K = {case.mesh.K}, N = 7, eps = 1e-5")
    configs = _table2_configs()
    if args.variant is not None:
        configs = [(t, c) for t, c in configs
                   if c.pressure_variant == args.variant]
    print(f"{'variant':>10} {'iters':>6} {'cpu (s)':>8}")
    for tag, config in configs:
        r = case.run(config)
        print(f"{tag:>10} {r.iterations:6d} {r.cpu_seconds:8.2f}")
    return 0


def _cmd_sweep(args) -> int:
    """Many-run sweep through the Session service.

    Submits ``--runs`` Table-2-style pressure solves (cycling the variant
    rows) to a :class:`repro.service.Session`: all runs share one
    factorization cache and every run is traced into a schema-versioned
    report.  Prints the service summary (throughput, cache hit rate);
    ``--out`` writes the full service-level report JSON.
    """
    import json

    from repro import obs
    from repro.api import RunSpec
    from repro.service import Session

    variants = _table2_configs()
    specs = [
        RunSpec(
            "table2",
            params={"level": args.level, "order": args.order},
            config=variants[i % len(variants)][1],
            label=variants[i % len(variants)][0],
            seed=i,
        )
        for i in range(args.runs)
    ]
    with Session(workers=args.workers) as sess:
        results = sess.run(specs)
        summary = sess.summary()
        doc = sess.report(meta={"workload": "table2_sweep",
                                "runs": args.runs,
                                "level": args.level,
                                "order": args.order})
    obs.validate_report(doc)

    per_variant = {}
    for r in results:
        if r.ok:
            per_variant.setdefault(r.spec.label, []).append(
                r.payload["iterations"]
            )
    print(f"sweep: {summary['runs']} runs on {summary['workers']} workers")
    print(f"{'variant':>10} {'runs':>5} {'iters':>6}")
    for tag, iters in sorted(per_variant.items()):
        print(f"{tag:>10} {len(iters):5d} {iters[0]:6d}")
    cache = summary["cache"]
    print(f"throughput: {summary['throughput_runs_per_s']:.2f} runs/s "
          f"(wall {summary['wall_seconds']:.2f}s, "
          f"busy {summary['busy_seconds']:.2f}s)")
    print(f"cache: {cache['hits']} hits / {cache['misses']} misses "
          f"(hit rate {cache['hit_rate']:.2f}, {cache['entries']} entries, "
          f"{cache['bytes'] / 1e6:.1f} MB)")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"service report written to {args.out}")
    failed = [r for r in results if not r.ok]
    for r in failed[:3]:
        print(f"run {r.index} failed: {r.error!r}")
    return 0 if not failed else 1


def _cmd_pmg(args) -> int:
    """p-multigrid-preconditioned Poisson solve with selectable tiers."""
    from repro.api import SolverConfig, pmg_preconditioner
    from repro.core.mesh import box_mesh_2d, box_mesh_3d
    from repro.solvers.cg import pcg

    if args.dim == 2:
        mesh = box_mesh_2d(args.elements, args.elements, args.order)
    else:
        mesh = box_mesh_3d(args.elements, args.elements, args.elements,
                           args.order)
    config = SolverConfig(pmg_smoother=args.smoother, pmg_coarse=args.coarse)
    pmg, levels = pmg_preconditioner(mesh, config=config)
    system = levels[0].system
    rng = np.random.default_rng(0)
    b = system.rhs(rng.standard_normal(mesh.local_shape))
    res = pcg(system.matvec, b, dot=system.dot, precond=pmg,
              tol=0.0, rtol=args.rtol, maxiter=args.maxiter)
    orders = " -> ".join(str(lvl.order) for lvl in levels)
    rel = res.residual_norm / max(res.initial_residual_norm, 1e-300)
    print(f"p-MG Poisson: {mesh.ndim}-D, K={mesh.K}, N={mesh.order} "
          f"(orders {orders})")
    print(f"  smoother={args.smoother}  coarse={args.coarse}")
    print(f"  iterations={res.iterations}  converged={res.converged}  "
          f"|r|/|r0|={rel:.2e}")
    return 0 if res.converged else 1


def _cmd_serve(args) -> int:
    """Line-oriented run service: JSON RunSpecs in, JSON results out.

    Reads one :class:`repro.api.RunSpec` document per stdin line (the
    ``RunSpec.as_dict`` wire format), executes it on the shared Session,
    and emits one JSON result line per run (submission order).  A final
    line carries the service summary.  This is the scriptable front end:

        echo '{"workload": "table2", "params": {"level": 0}}' \\
            | python -m repro serve
    """
    import json

    from repro.api import RunSpec
    from repro.service import Session

    stream = sys.stdin
    specs = []
    for line in stream:
        line = line.strip()
        if not line:
            continue
        specs.append(RunSpec.from_dict(json.loads(line)))
    with Session(workers=args.workers) as sess:
        results = sess.run(specs)
        summary = sess.summary()
    for r in results:
        out = {
            "index": r.index,
            "workload": r.spec.workload,
            "label": r.spec.label,
            "ok": r.ok,
            "wall_seconds": r.wall_seconds,
        }
        if r.ok and isinstance(r.payload, dict):
            for key in ("iterations", "converged", "K"):
                if key in r.payload:
                    out[key] = r.payload[key]
        if not r.ok:
            out["error"] = repr(r.error)
        print(json.dumps(out, sort_keys=True))
    print(json.dumps({"summary": summary}, sort_keys=True))
    return 0 if all(r.ok for r in results) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Quick reproductions of Tufo & Fischer (SC'99).",
    )
    # An unknown name fails with the registered list.
    from repro.backends import available_backends

    parser.add_argument(
        "--backend",
        default=None,
        choices=available_backends(),
        help="kernel backend for all tensor applies "
             "(default: auto, or $REPRO_BACKEND)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="package summary")
    sub.add_parser("demo", help="Taylor-Green validation run")
    sub.add_parser("table3", help="mxm kernel MFLOPS sweep")
    sub.add_parser("table4", help="terascale GFLOPS model")
    p4 = sub.add_parser("fig4", help="pressure projection study")
    p4.add_argument("--steps", type=int, default=24)
    p6 = sub.add_parser("fig6", help="coarse-grid solver comparison")
    p6.add_argument("--size", type=int, default=31,
                    help="grid side (paper: 63 and 127)")
    p2 = sub.add_parser("table2", help="E-system preconditioner variants on "
                                       "the cylinder mesh")
    p2.add_argument("--level", type=int, default=0, choices=[0, 1, 2])
    p2.add_argument("--variant", default=None,
                    choices=["fdm", "fem"],
                    help="run only the rows of one local-solve family")
    pb = sub.add_parser("backends", help="kernel backend / auto-tuner report")
    pb.add_argument("--exercise", action="store_true",
                    help="run a few operator applies first so the tuner "
                         "has shapes to report")
    ps = sub.add_parser("spmd", help="distributed CG on a real or simulated "
                                     "SPMD substrate")
    ps.add_argument("--executor", default="sim",
                    help="substrate: virtual clocks (sim) or worker "
                         "processes (mp)")
    ps.add_argument("--ranks", type=int, default=4)
    ps.add_argument("--elements", type=int, default=4,
                    help="elements per direction of the box mesh")
    ps.add_argument("--order", type=int, default=6)
    ps.add_argument("--tol", type=float, default=1e-8)
    ps.add_argument("--maxiter", type=int, default=2000)
    ps.add_argument("--timeout", type=float, default=300.0,
                    help="hard wall-clock bound for process executors (s)")
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--out", default=None,
                    help="write the obs report (with spmd section) here")
    pr = sub.add_parser("report", help="traced shear-layer run -> JSON report")
    pr.add_argument("--steps", type=int, default=10)
    pr.add_argument("--elements", type=int, default=8,
                    help="elements per direction (default 8)")
    pr.add_argument("--order", type=int, default=8)
    pr.add_argument("--ranks", type=int, default=4,
                    help="ranks for the simulated gather-scatter profile "
                         "(1 disables)")
    pr.add_argument("--projection-window", type=int, default=10)
    pr.add_argument("--out", default=None, help="write the JSON report here")
    pr.add_argument("--text", action="store_true",
                    help="print the Table-2-style text breakdown instead "
                         "of raw JSON")
    pw = sub.add_parser("sweep", help="many-run Table-2 sweep through the "
                                      "Session service (shared cache)")
    pw.add_argument("--runs", type=int, default=12,
                    help="number of runs to submit (variant rows cycle)")
    pw.add_argument("--workers", type=int, default=1,
                    help="worker processes, one BLAS thread each; runs "
                         "sharing a cache key stay on one worker (1 = inline)")
    pw.add_argument("--level", type=int, default=0, choices=[0, 1, 2])
    pw.add_argument("--order", type=int, default=7)
    pw.add_argument("--out", default=None,
                    help="write the service-level report JSON here")
    pg = sub.add_parser("pmg", help="p-multigrid-preconditioned Poisson "
                                    "solve (smoother/coarse tier selection)")
    pg.add_argument("--dim", type=int, default=3, choices=[2, 3])
    pg.add_argument("--elements", type=int, default=2,
                    help="elements per direction")
    pg.add_argument("--order", type=int, default=6)
    pg.add_argument("--smoother", default="jacobi",
                    choices=["jacobi", "chebyshev"])
    pg.add_argument("--coarse", default="cg", choices=["cg", "condensed"])
    pg.add_argument("--rtol", type=float, default=1e-8)
    pg.add_argument("--maxiter", type=int, default=200)
    pv = sub.add_parser("serve", help="JSON-lines run service: RunSpec "
                                      "documents on stdin, results on stdout")
    pv.add_argument("--workers", type=int, default=1,
                    help="worker processes (see sweep --workers)")
    args = parser.parse_args(argv)
    if args.backend is not None:
        from repro import backends as _backends

        _backends.set_backend(args.backend)
    return {
        "info": _cmd_info,
        "demo": _cmd_demo,
        "table3": _cmd_table3,
        "table4": _cmd_table4,
        "fig4": _cmd_fig4,
        "fig6": _cmd_fig6,
        "table2": _cmd_table2,
        "backends": _cmd_backends,
        "report": _cmd_report,
        "spmd": _cmd_spmd,
        "sweep": _cmd_sweep,
        "pmg": _cmd_pmg,
        "serve": _cmd_serve,
    }[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
