"""The five workloads.  Each is one function of a :class:`Ctx`:

    build inputs from the seed -> construct -> warm up on a throwaway
    -> ``ctx.ready()`` (end of set-up) -> timed closed loop -> checks.

Everything runs in the worker process ``run.py`` spawns; nothing here is
imported before the set-up clock starts, and ``repro`` is imported inside
the functions so the clock sees it.  The program only ever receives the
generated inputs (arrays, spec order) — never the seed.

Window sizes are fixed work, scaled linearly by ``--seconds`` over the
nominal run length, so counts repeat exactly from run to run.
"""

from __future__ import annotations

import resource
import time
import traceback
from typing import Callable, Dict, List, Optional

from spans import Tracer

#: ``run_seconds`` in BENCHMARK.json: the run length the windows are sized for.
NOMINAL_SECONDS = 15

clock = time.perf_counter


class SetupDone(Exception):
    """Raised by ``Ctx.ready()`` in a set-up-only worker."""


class Ctx:
    """What a workload reads (seed, scale, tracer) and what it fills in."""

    def __init__(self, workload: str, seed: int, seconds: float, traced: bool,
                 setup_only: bool, t0: float, reference: Optional[dict]):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.setup_only = setup_only
        self.t0 = t0
        #: seed-0 reference block of this workload (None for other seeds)
        self.reference = reference if seed == 0 else None
        self.tracer = Tracer(workload, traced)
        self.setup_s = 0.0
        self.ops: List[float] = []  # seconds of each timed operation
        self.window_s = 0.0  # wall seconds of the whole timed window
        self.solve_s = 0.0
        self.child_rss_kb = 0
        self.attempted = 0
        self.failures: List[str] = []
        self.layer: Dict[str, float] = {}
        self.detail: Dict[str, object] = {}

    def scaled(self, base: int) -> int:
        return max(2, round(base * self.seconds / NOMINAL_SECONDS))

    def ready(self) -> None:
        self.setup_s = clock() - self.t0
        if self.setup_only:
            raise SetupDone

    def op(self, fn: Callable):
        """Run one timed operation and return its (non-None) result; a
        raise is a failed operation and returns None."""
        self.attempted += 1
        t = clock()
        try:
            result = fn()
        except Exception:
            self.failures.append("operation raised:\n" + traceback.format_exc())
            return None
        self.ops.append(clock() - t)
        return result

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append("check failed: " + message)

    def pinned(self, key: str, value: float, rel: float = 0.0, abs_: float = 0.0) -> None:
        """Compare against the seed-0 reference (skipped for other seeds)."""
        if self.reference is None or key not in self.reference:
            return
        ref = self.reference[key]
        self.check(abs(value - ref) <= abs_ + rel * abs(ref),
                   f"{key} = {value!r}, reference {ref!r}")

    def end_to_end(self) -> Dict[str, float]:
        import numpy as np

        ops = self.ops or [0.0]
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + self.child_rss_kb
        return {
            "setup_s": self.setup_s,
            "step_s": float(np.median(ops)),
            "step_tail_s": float(np.percentile(ops, tail_percentile(len(ops)))),
            "advance_s": self.window_s,
            "solve_s": self.solve_s,
            "runs_per_s": len(self.ops) / self.window_s if self.window_s else 0.0,
            "peak_rss_mb": rss_kb / 1024.0,
        }


def tail_percentile(n: int) -> int:
    """Highest percentile with at least ten samples beyond it; with fewer
    than twenty samples no tail can be resolved and the median stands in."""
    for q in (99, 95, 90, 75):
        if n * (100 - q) >= 1000:
            return q
    return 50


def _smooth_noise(rng, coords, extents):
    """Three random-phase low Fourier modes, amplitude <= 1."""
    import numpy as np

    out = 0.0
    for m in (1, 2, 3):
        term = 1.0
        for c, length in zip(coords, extents):
            term = term * np.sin(2 * np.pi * (m * np.asarray(c) / length + rng.uniform()))
        out = out + term / 3.0
    return out


def _flop_window(ctx: Ctx, counted) -> None:
    """``counted`` is the FlopCounter of a ``repro.perf.flops.counting()`` block."""
    ctx.layer["perf.flops.total"] = counted.total()
    ctx.layer["perf.flops.mxm_frac"] = counted.fraction("mxm")


# --------------------------------------------------------------------------
# Layer wrappers shared by the Navier-Stokes and elliptic workloads.
# --------------------------------------------------------------------------
def _trace_pop(tr: Tracer, pop) -> None:
    """Time the E matvec and the assembler's dssum of a pressure operator."""
    tr.wrap(pop.assembler, "dssum", "core.assembly.dssum")
    tr.wrap(pop, "matvec", "core.pressure.e_apply", flops=True)


def _trace_schwarz(tr: Tracer, precond):
    """Time a Schwarz preconditioner's apply, local solves and coarse term.

    Returns the callable to hand to ``pcg``: ``__call__`` is looked up on
    the type, so the apply is timed by replacing the object the caller
    passes rather than an attribute on it.
    """
    tr.wrap(precond, "local_solves", "solvers.schwarz.local", flops=True)
    if precond.coarse is not None:
        tr.wrap(precond.coarse, "apply", "solvers.coarse.apply", flops=True)
    return tr.timed(precond, "solvers.schwarz.apply")


def _pressure_stack_metrics(ctx: Ctx, totals: dict) -> None:
    def get(name, key):
        return totals.get(name, {}).get(key, 0.0)

    def mflops(name):
        s = get(name, "seconds")
        return get(name, "flops") / s / 1e6 if s else 0.0

    ctx.layer.update({
        "solvers.schwarz.apply_s": get("solvers.schwarz.apply", "seconds"),
        "solvers.schwarz.calls": get("solvers.schwarz.apply", "calls"),
        "solvers.schwarz.local_s": get("solvers.schwarz.local", "seconds"),
        "solvers.schwarz.local_mflops": mflops("solvers.schwarz.local"),
        "solvers.coarse.apply_s": get("solvers.coarse.apply", "seconds"),
        "solvers.coarse.mflops": mflops("solvers.coarse.apply"),
        "core.pressure.e_apply_s": get("core.pressure.e_apply", "seconds"),
        "core.pressure.e_apply_calls": get("core.pressure.e_apply", "calls"),
        "core.pressure.e_apply_mflops": mflops("core.pressure.e_apply"),
        "core.assembly.dssum_s": get("core.assembly.dssum", "seconds"),
        "core.assembly.dssum_calls": get("core.assembly.dssum", "calls"),
    })


def _replay_backends(ctx: Ctx) -> None:
    """``backends.*``: replay the workload's five heaviest dispatch shapes.

    Each shape runs through the sanitized dispatch entry under ``auto`` and
    under every registered fixed backend, and straight into the winning
    kernel; the gap between the first and the last is dispatch glue.
    """
    import numpy as np

    from repro.backends import (available_backends, dispatch, dispatch_choices,
                                get_backend, use_backend)

    rows = dispatch_choices()
    ctx.layer["backends.kernel_calls"] = sum(r["hits"] for r in rows)

    def flops(row) -> float:
        if row["point"] == "batched_matvec":
            k, m, n = row["op_shape"]
            return 2.0 * k * m * n
        ops = [row["op_shape"]] if row["point"] == "apply_1d" else row["op_shape"]
        size, total = float(np.prod(row["field_shape"])), 0.0
        for op in ops:
            if op is not None:
                m, n = op
                total += 2.0 * m * n * (size / n)
                size = size / n * m
        return total

    def best_seconds(fn) -> float:
        fn(), fn()
        best = float("inf")
        for _ in range(15):
            t = clock()
            fn()
            best = min(best, clock() - t)
        return best

    rng = np.random.default_rng(0)
    top = sorted(rows, key=lambda r: -flops(r) * r["hits"])[:5]
    work = auto_s = glue_weighted = hits = 0.0
    ratios = []
    for row in top:
        u = rng.standard_normal(row["field_shape"])
        if row["point"] == "apply_1d":
            op = rng.standard_normal(row["op_shape"])
            d = row["direction"]
            call = lambda b: b.apply_1d(op, u, d)  # noqa: E731
        elif row["point"] == "batched_matvec":
            op = rng.standard_normal(row["op_shape"])
            call = lambda b: b.batched_matvec(op, u)  # noqa: E731
        else:
            op = [None if s is None else rng.standard_normal(s) for s in row["op_shape"]]
            call = lambda b: b.apply_tensor(op, u)  # noqa: E731
        t_auto = best_seconds(lambda: call(dispatch))
        t_kernel = best_seconds(lambda: call(get_backend(row["kernel"])))
        t_fixed = []
        for name in available_backends():
            if name != "auto" and get_backend(name).supports(row["point"]):
                with use_backend(name):
                    t_fixed.append(best_seconds(lambda: call(dispatch)))
        work += flops(row)
        auto_s += t_auto
        ratios.append(min(t_fixed) / t_auto)
        glue_weighted += (t_auto - t_kernel) * row["hits"]
        hits += row["hits"]
    ctx.layer["backends.kernel_mflops"] = work / auto_s / 1e6 if auto_s else 0.0
    ctx.layer["backends.auto_vs_best"] = min(ratios) if ratios else 0.0
    ctx.layer["backends.dispatch_call_us"] = 1e6 * glue_weighted / hits if hits else 0.0
    ctx.detail["backends.top_shapes"] = [
        {k: r[k] for k in ("point", "op_shape", "field_shape", "kernel", "hits")} for r in top
    ]


# --------------------------------------------------------------------------
# hairpin3d, shear2d
# --------------------------------------------------------------------------
def _run_ns(ctx: Ctx, make_case: Callable, base_steps: int) -> None:
    import numpy as np

    import repro.ns.navier_stokes as ns_mod
    from repro import obs
    from repro.core.operators import HelmholtzOperator
    from repro.perf.flops import counting

    n = ctx.scaled(base_steps)
    tr = ctx.tracer

    # Warm-up on a throwaway instance: tuner trials and first-touch costs.
    warm = make_case().solver
    t = clock()
    warm.advance(2)
    ctx.layer["backends.tune_s"] = clock() - t
    # The traced run also needs untraced times of the same steps: the
    # throwaway runs on from the same initial condition, so its step i does
    # the work of the measured instance's step i.
    untraced = []
    if ctx.traced:
        for _ in range(max(1, n // 5)):
            t = clock()
            warm.step()
            untraced.append(clock() - t)
    del warm

    solver = make_case().solver

    # Seconds per pressure solve, the paper's other unit of truth: one
    # timer around the stepper's pressure pcg call (also in untraced runs).
    pressure_solves: List[float] = []
    pcg = ns_mod.pcg

    def timed_pcg(*args, **kwargs):
        if kwargs.get("label") != "pressure":
            return pcg(*args, **kwargs)
        t = clock()
        try:
            return pcg(*args, **kwargs)
        finally:
            pressure_solves.append(clock() - t)

    ns_mod.pcg = timed_pcg

    substeps: List[int] = []
    basis: List[int] = []
    ratio: List[float] = []
    if ctx.traced:
        _trace_pop(tr, solver.pop)
        solver.pressure_precond = _trace_schwarz(tr, solver.pressure_precond)
        tr.wrap(solver.conv, "oifs_integrate", "ns.convection.oifs",
                after=lambda res, a, kw: substeps.append(kw["n_steps"]))
        # Helmholtz operators are built lazily inside step(): wrap the class.
        tr.wrap(HelmholtzOperator, "apply", "core.operators.helmholtz")
        proj = solver.projector
        if proj is not None:
            proj.matvec = solver.pop.matvec  # history matvecs through the timed E apply
            norm = np.linalg.norm

            def after_start(res, args, kw):
                basis.append(len(proj))
                ratio.append(float(norm(res[1]) / max(norm(args[0]), 1e-300)))

            tr.wrap(proj, "start", "solvers.projection.start", after=after_start)
            tr.wrap(proj, "finish", "solvers.projection.finish")
        if solver.filter is not None:
            solver.filter = tr.timed(solver.filter, "core.filters.filter")
        obs.reset_all()
        obs.enable()

    ctx.ready()

    step = tr.timed(solver.step, "ns.step")
    with counting() as flops:
        t0 = clock()
        for _ in range(n):
            if ctx.op(step) is None:
                break
        ctx.window_s = clock() - t0
    if ctx.traced:
        obs.disable()
    ctx.solve_s = float(np.median(pressure_solves)) if pressure_solves else 0.0

    # ---- output checks -----------------------------------------------------
    stats = solver.stats
    its = [s.pressure_iterations for s in stats]
    div = [s.divergence_norm for s in stats]
    energy = solver.kinetic_energy()
    ref = ctx.reference
    ctx.check(len(stats) == n, f"{len(stats)} of {n} steps completed")
    ctx.check(bool(np.isfinite(energy)), f"kinetic energy {energy!r} not finite")
    if ref is not None and n <= len(ref["pressure_iterations"]) and len(stats) == n:
        ctx.check(div[-1] <= 2.0 * ref["divergence_norm"][n - 1],
                  f"final divergence {div[-1]:.3e} > 2 x {ref['divergence_norm'][n - 1]:.3e}")
        ref_its = sum(ref["pressure_iterations"][:n])
        ctx.check(abs(sum(its) - ref_its) <= 0.01 * ref_its,
                  f"pressure iterations {sum(its)}, reference {ref_its}")
        if n == len(ref["pressure_iterations"]):
            ctx.pinned("kinetic_energy", energy, rel=0.05)
    ctx.detail["reference"] = {
        "pressure_iterations": its, "divergence_norm": div, "kinetic_energy": energy,
    }
    _flop_window(ctx, flops)

    if not ctx.traced:
        return
    # ---- per-layer metrics -------------------------------------------------
    totals = tr.totals()
    _pressure_stack_metrics(ctx, totals)

    def region(name: str) -> float:
        node = obs.find_region("step/" + name)
        return node.seconds if node is not None else 0.0

    def sec(name: str) -> float:
        return totals.get(name, {}).get("seconds", 0.0)

    phases = {p: region(p) for p in ("convection", "helmholtz", "pressure", "filter")}
    step_node = obs.find_region("step")
    glue = step_node.self_seconds() if step_node is not None else 0.0
    projection_s = sec("solvers.projection.start") + sec("solvers.projection.finish")
    in_pressure = tr.seconds_under("ns.step", {
        "core.pressure.e_apply", "solvers.schwarz.apply",
        "solvers.projection.start", "solvers.projection.finish"})
    ctx.layer.update({
        "ns.convection.s": phases["convection"],
        "ns.convection.substeps": sum(substeps),
        "ns.helmholtz.s": phases["helmholtz"],
        "solvers.cg.helmholtz_iters": sum(sum(s.helmholtz_iterations) for s in stats),
        "core.operators.helmholtz_s": sec("core.operators.helmholtz"),
        "core.operators.helmholtz_calls": totals.get("core.operators.helmholtz", {}).get("calls", 0),
        "ns.pressure.s": phases["pressure"],
        "solvers.cg.pressure_iters": sum(its),
        "solvers.projection.s": projection_s,
        "solvers.projection.basis_size": float(np.mean(basis)) if basis else 0.0,
        "solvers.projection.residual_ratio": float(np.median(ratio)) if ratio else 0.0,
        "solvers.cg.glue_s": phases["pressure"] - in_pressure,
        "core.filters.filter_s": sec("core.filters.filter"),
        "ns.step.glue_s": glue,
        "ns.step.mflops": ctx.layer["perf.flops.total"] / ctx.window_s / 1e6,
    })
    k = len(untraced)
    if len(ctx.ops) >= 2 + k:
        ctx.layer["obs.overhead_frac"] = sum(ctx.ops[2:2 + k]) / sum(untraced) - 1.0
    accounted = sum(phases.values()) + glue
    ctx.check(abs(accounted - ctx.window_s) <= 0.02 * ctx.window_s,
              f"phases + glue = {accounted:.3f} s, traced window {ctx.window_s:.3f} s")
    ctx.detail["obs_regions"] = obs.region_tree()
    _replay_backends(ctx)


def hairpin3d(ctx: Ctx) -> None:
    import numpy as np

    from repro.workloads.hairpin import HairpinCase

    def make_case():
        case = HairpinCase(order=7, elements=(6, 3, 3), dt=0.02,
                           projection_window=30, pressure_tol=1e-6)
        if ctx.seed:
            rng = np.random.default_rng(ctx.seed)  # the same field every call
            sol = case.solver
            sol.set_initial_condition([
                c + 1e-3 * _smooth_noise(rng, sol.mesh.coords, (4.0, 2.0, 1.0))
                for c in sol.u
            ])
        return case

    _run_ns(ctx, make_case, base_steps=40)


def shear2d(ctx: Ctx) -> None:
    import numpy as np

    from repro.workloads.shear_layer import ShearLayerCase

    phase = np.random.default_rng(ctx.seed).uniform() if ctx.seed else 0.0

    def make_case():
        case = ShearLayerCase(n_elements=16, order=8, rho=30, re=1e5,
                              filter_alpha=0.3, dt=0.002)
        if ctx.seed:
            sol = case.solver
            x = np.asarray(sol.mesh.coords[0])
            sol.set_initial_condition([sol.u[0], 0.05 * np.sin(2 * np.pi * (x + phase))])
        return case

    _run_ns(ctx, make_case, base_steps=200)


# --------------------------------------------------------------------------
# elliptic_tiers
# --------------------------------------------------------------------------
def elliptic_tiers(ctx: Ctx) -> None:
    import numpy as np

    from repro.api import SolverConfig, pmg_preconditioner
    from repro.core.mesh import box_mesh_3d
    from repro.core.operators import build_poisson_system
    from repro.perf.flops import counting
    from repro.solvers.cg import pcg
    from repro.solvers.condensed import CondensedEPreconditioner, CondensedPoissonSolver
    from repro.solvers.schwarz import SchwarzPreconditioner
    from repro.workloads.cylinder_model import Table2Case

    rounds = ctx.scaled(9)
    tr = ctx.tracer
    norm = np.linalg.norm

    case = Table2Case(level=1, order=7)
    pop, rhs = case.pop, case.rhs
    e_tol = 1e-5 * float(norm(rhs))
    mesh3 = box_mesh_3d(4, 4, 4, 8)
    forcing = np.random.default_rng(ctx.seed).standard_normal(mesh3.local_shape)
    p_rtol = 1e-8

    def e_solve(precond):
        res = pcg(pop.matvec, rhs, dot=pop.dot, precond=precond, tol=e_tol, maxiter=3000)
        return res.x, res.iterations, res.converged

    def condensed_solve(solver):
        res = solver.solve(forcing, tol=0.0, rtol=p_rtol)
        return res.u, res.iterations, res.converged

    def pmg_solve(built):
        pmg, levels = built
        system = levels[0].system
        res = pcg(system.matvec, system.rhs(forcing), dot=system.dot, precond=pmg,
                  tol=0.0, rtol=p_rtol, maxiter=500)
        return res.x, res.iterations, res.converged

    tiers = [  # name, cold build, warm solve
        ("e_fdm", lambda: SchwarzPreconditioner(case.mesh, pop, variant="fdm"), e_solve),
        ("e_fem1", lambda: SchwarzPreconditioner(case.mesh, pop, variant="fem", overlap=1),
         e_solve),
        ("e_condensed", lambda: CondensedEPreconditioner(case.mesh, pop), e_solve),
        ("p3d_condensed", lambda: CondensedPoissonSolver(mesh3, schur="auto"), condensed_solve),
        ("p3d_pmg",
         lambda: pmg_preconditioner(mesh3, config=SolverConfig(pmg_smoother="chebyshev")),
         pmg_solve),
    ]

    # Set-up: every cold build, then one warm-up solve per tier.
    built, build_s, warm_s = {}, {}, 0.0
    for name, build, solve in tiers:
        t = clock()
        built[name] = build()
        build_s[name] = clock() - t
        t = clock()
        solve(built[name])
        warm_s += clock() - t
    ctx.layer["backends.tune_s"] = warm_s
    if ctx.traced:
        _trace_pop(tr, pop)
        for name in ("e_fdm", "e_fem1"):
            built[name] = _trace_schwarz(tr, built[name])
    solves = {name: tr.timed(solve, f"solvers.{name}.solve") for name, _, solve in tiers}
    ctx.ready()

    solve_s = {name: [] for name in solves}
    last = {}

    def one_round():
        for name, solve in solves.items():
            t = clock()
            last[name] = solve(built[name])
            solve_s[name].append(clock() - t)

    with counting() as flops:
        t0 = clock()
        for _ in range(rounds):
            ctx.op(one_round)
        ctx.window_s = clock() - t0
    medians = {name: float(np.median(v)) if v else 0.0 for name, v in solve_s.items()}
    ctx.solve_s = sum(medians.values())

    # ---- output checks -----------------------------------------------------
    system3 = build_poisson_system(mesh3)
    b3 = system3.rhs(forcing)
    iters = {}
    for name, _, _ in tiers:
        if name not in last:
            continue
        x, iters[name], converged = last[name]
        ctx.check(bool(converged), f"{name} did not converge")
        if name.startswith("e_"):
            resid, tol = float(norm(rhs - pop.matvec(x))), e_tol
        else:
            resid, tol = float(norm(b3 - system3.matvec(x))), p_rtol * float(norm(b3))
        ctx.check(resid <= 10 * tol, f"{name} true residual {resid:.3e} > 10 x {tol:.3e}")
        ctx.pinned(f"{name}.iters", iters[name], abs_=2)
    ctx.detail["reference"] = {f"{name}.iters": it for name, it in iters.items()}
    ctx.detail["tier_solve_s"] = medians
    ctx.detail["tier_build_s"] = build_s
    _flop_window(ctx, flops)

    if not ctx.traced:
        return
    _pressure_stack_metrics(ctx, tr.totals())
    for name, _, _ in tiers:
        ctx.layer[f"solvers.{name}.setup_s"] = build_s[name]
        ctx.layer[f"solvers.{name}.solve_s"] = medians[name]
        ctx.layer[f"solvers.{name}.iters"] = iters.get(name, 0)
    # The forced-dense 3-D Schur form: only here, so its element-matrix
    # probe stays out of the untraced run's peak_rss_mb.
    t = clock()
    dense = CondensedPoissonSolver(mesh3, schur="dense")
    ctx.layer["solvers.p3d_condensed_dense.setup_s"] = clock() - t
    condensed_solve(dense)
    times = []
    for _ in range(3):
        t = clock()
        x_dense, _, _ = condensed_solve(dense)
        times.append(clock() - t)
    ctx.layer["solvers.p3d_condensed_dense.solve_s"] = float(np.median(times))
    if "p3d_condensed" in last:
        gap = float(np.max(np.abs(x_dense - last["p3d_condensed"][0])))
        ctx.check(gap <= 1e-9, f"tensor vs dense Schur solutions differ by {gap:.3e}")
    _replay_backends(ctx)


# --------------------------------------------------------------------------
# sweep64
# --------------------------------------------------------------------------
def sweep64(ctx: Ctx) -> None:
    import numpy as np

    from repro.api import RunSpec, SolverConfig
    from repro.perf.flops import counting
    from repro.service import FactorCache, Session, execute

    n = ctx.scaled(64)
    variants = [  # the six Table-2 rows of benchmarks/bench_service.py
        ("fdm", SolverConfig(pressure_variant="fdm")),
        ("fem-No0", SolverConfig(pressure_variant="fem", overlap=0)),
        ("fem-No1", SolverConfig(pressure_variant="fem", overlap=1)),
        ("fem-No3", SolverConfig(pressure_variant="fem", overlap=3)),
        ("condensed", SolverConfig(pressure_variant="condensed")),
        ("no-coarse", SolverConfig(pressure_variant="fdm", use_coarse=False)),
    ]

    def spec(i: int) -> RunSpec:
        label, config = variants[i % len(variants)]
        return RunSpec("table2", params={"level": 0, "order": 4}, config=config,
                       seed=i, label=label, share_projection=False)

    order = np.random.default_rng(ctx.seed).permutation(n) if ctx.seed else range(n)
    specs = [spec(int(i)) for i in order]

    # Warm-up doubles as the parity reference: one solo run per variant on
    # its own cache.  The table2 payload does not depend on the spec seed,
    # so six solo results cover all n runs.
    t = clock()
    solo_cache = FactorCache()
    solo = {spec(i).label: execute(spec(i), cache=solo_cache) for i in range(len(variants))}
    ctx.layer["backends.tune_s"] = clock() - t
    ctx.ready()

    cache = FactorCache()
    build_s: List[float] = []
    if ctx.traced:
        get = cache.get

        def timed_get(key, builder):
            def timed_builder():
                t = clock()
                try:
                    return builder()
                finally:
                    build_s.append(clock() - t)
            return get(key, timed_builder)

        cache.get = timed_get

    with counting() as flops, Session(workers=2, cache=cache) as session:
        t0 = clock()
        results = session.run(specs)
        ctx.window_s = clock() - t0
        summary = session.summary()

    # ---- output checks -----------------------------------------------------
    ctx.attempted += n
    for r in results:
        if not r.ok:
            ctx.failures.append(f"run {r.index} ({r.spec.label}) raised {r.error!r}")
            continue
        ctx.ops.append(r.wall_seconds)
        ref = solo[r.spec.label]
        gap = float(np.max(np.abs(r.payload["x"] - ref["x"])) / np.max(np.abs(ref["x"])))
        if gap > 1e-8 or r.payload["converged"] != ref["converged"] or not ref["converged"]:
            ctx.failures.append(f"run {r.index} ({r.spec.label}) differs from solo by {gap:.3e}")
    ctx.solve_s = float(np.median(ctx.ops)) if ctx.ops else 0.0
    hit_rate = summary["cache"]["hit_rate"]
    ctx.check(hit_rate >= 0.9, f"cache hit rate {hit_rate:.3f} < 0.9")
    for label, payload in solo.items():
        ctx.pinned(f"{label}.iters", payload["iterations"])
    ctx.detail["reference"] = {f"{k}.iters": v["iterations"] for k, v in solo.items()}
    _flop_window(ctx, flops)

    if not ctx.traced:
        return
    # One-worker baseline: the same specs, sequentially, one shared cache.
    w1_cache = FactorCache()
    t0 = clock()
    for s in specs:
        execute(s, cache=w1_cache)
    w1 = n / (clock() - t0)
    e2e = ctx.end_to_end()
    ctx.layer.update({
        "service.session.w1_runs_per_s": w1,
        "service.session.scaling": e2e["runs_per_s"] / w1,
        "service.session.busy_frac": summary["busy_seconds"] / (2 * ctx.window_s),
        "service.session.run_median_s": e2e["step_s"],
        "service.session.run_tail_s": e2e["step_tail_s"],
        "service.cache.hit_rate": hit_rate,
        "service.cache.build_s": sum(build_s),
        "service.cache.bytes": summary["cache"]["bytes"],
        "service.batcher.mean_occupancy": summary["batching"]["mean_occupancy"],
        "service.batcher.fused_groups": summary["batching"]["fused_groups"],
    })
    _replay_backends(ctx)


# --------------------------------------------------------------------------
# spmd_cg
# --------------------------------------------------------------------------
def spmd_cg(ctx: Ctx) -> None:
    import numpy as np

    from repro.core.mesh import box_mesh_3d
    from repro.parallel.machine import LOCALHOST_MP
    from repro.parallel.spmd_cg import DistributedSEMSolver
    from repro.perf.flops import counting

    n = ctx.scaled(8)
    mesh = box_mesh_3d(6, 6, 6, 7)
    forcing = mesh.eval_function(lambda x, y, z: np.sin(np.pi * x) * y * (1 + z))
    if ctx.seed:
        rng = np.random.default_rng(ctx.seed)
        forcing = forcing + 1e-3 * _smooth_noise(rng, mesh.coords, (1.0, 1.0, 1.0))

    def solve(solver, executor="mp"):
        t = clock()
        res = solver.solve(forcing, tol=1e-9, executor=executor, timeout=60.0)
        return res, clock() - t

    p2 = DistributedSEMSolver(mesh, LOCALHOST_MP, 2, h1=1.0, h0=1.0)
    t = clock()
    solve(p2)  # warm-up: first fork, page-cache and allocator effects
    ctx.layer["backends.tune_s"] = clock() - t
    ctx.ready()

    runs = []
    # The rank processes' flops are theirs; this process counts only the
    # right-hand-side assembly and the in-process `sim` reference.
    with counting() as flops:
        t0 = clock()
        for _ in range(n):
            out = ctx.op(lambda: solve(p2))
            if out is not None:
                runs.append(out)
        ctx.window_s = clock() - t0
        # Two rank processes live beside this one; the P=1 reference below
        # would otherwise be the largest child.
        ctx.child_rss_kb = 2 * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        ctx.solve_s = float(np.median([outer for _, outer in runs])) if runs else 0.0

        # ---- output checks: sim executor and P=1 as references ---------------
        sim, _ = solve(p2, executor="sim")
        p1 = DistributedSEMSolver(mesh, LOCALHOST_MP, 1, h1=1.0, h0=1.0)
        p1_runs = [solve(p1) for _ in range(n if ctx.traced else 1)]
    for res, _ in runs:
        ok = (res.converged and res.iterations == sim.iterations
              and res.history == sim.history and np.array_equal(res.x, sim.x))
        ctx.check(ok, "mp solve is not bitwise equal to the sim executor's")
    ctx.check(p1_runs[0][0].iterations == sim.iterations,
              f"P=1 took {p1_runs[0][0].iterations} iterations, P=2 {sim.iterations}")
    ctx.pinned("iters", sim.iterations)
    ctx.detail["reference"] = {"iters": sim.iterations}
    _flop_window(ctx, flops)

    if not ctx.traced or not runs:
        return

    def phase(res, kind, field):
        return res.phases.get(kind, {}).get(field, 0.0)

    def med(values):
        return float(np.median(list(values)))

    exchange = med(phase(r, "exchange", "measured_seconds_max") for r, _ in runs)
    allreduce = med(phase(r, "allreduce", "measured_seconds_max") for r, _ in runs)
    modeled = med(sum(p["modeled_seconds_max"] for p in r.phases.values()) for r, _ in runs)
    t1 = med(outer for _, outer in p1_runs)
    first = runs[0][0]
    ctx.layer.update({
        "parallel.exec.mp.spawn_s": med(outer - r.wall_seconds for r, outer in runs),
        "parallel.comm.exchange_s": exchange,
        "parallel.comm.allreduce_s": allreduce,
        "parallel.comm.modeled_s": modeled,
        "parallel.comm.measured_over_model": (exchange + allreduce) / modeled,
        "parallel.comm.messages": first.messages,
        "parallel.comm.words": sum(p["words"] for p in first.phases.values()),
        "parallel.spmd_cg.p1_solve_s": t1,
        "parallel.spmd_cg.efficiency_p2": t1 / (2 * ctx.solve_s),
        "parallel.spmd_cg.iters": first.iterations,
    })
    _replay_backends(ctx)


WORKLOADS = {
    "hairpin3d": hairpin3d,
    "shear2d": shear2d,
    "elliptic_tiers": elliptic_tiers,
    "sweep64": sweep64,
    "spmd_cg": spmd_cg,
}
