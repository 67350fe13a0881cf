"""Cross-module property-based tests (hypothesis): structural invariants
that must hold for arbitrary admissible inputs.

Hypothesis settings (deadline, example counts, derandomization seed) come
from the shared profile registered in ``conftest.py`` — individual tests
carry no ``@settings`` decoration."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.core.assembly import Assembler, DirichletMask
from repro.core.element import geometric_factors
from repro.core.filters import FieldFilter
from repro.core.mesh import box_mesh_2d, box_mesh_3d, map_mesh
from repro.core.operators import LaplaceOperator, MassOperator, build_poisson_system
from repro.core.pressure import PressureOperator
from repro.ns.diagnostics import FlowDiagnostics
from repro.solvers.cg import pcg
from repro.solvers.condensed import CondensedPoissonSolver
from repro.solvers.xxt import XXTSolver


def small_deformation(ax, ay, fx, fy):
    def f(x, y):
        return (
            x + ax * np.sin(fx * np.pi * x) * np.sin(np.pi * y),
            y + ay * np.sin(np.pi * x) * np.sin(fy * np.pi * y),
        )
    return f


@given(
    ax=st.floats(-0.08, 0.08),
    ay=st.floats(-0.08, 0.08),
    fx=st.integers(1, 3),
    fy=st.integers(1, 3),
    order=st.integers(3, 7),
)
def test_deformed_geometry_valid_and_operators_spd(ax, ay, fx, fy, order):
    """Any small smooth deformation yields positive Jacobians, an SPD
    Laplacian energy, and exact constant annihilation."""
    # Keep the map a diffeomorphism: total gradient perturbation below 1.
    assume(abs(ax) * fx * np.pi + abs(ay) * fy * np.pi < 0.8)
    mesh = map_mesh(box_mesh_2d(2, 2, order), small_deformation(ax, ay, fx, fy))
    try:
        geom = geometric_factors(mesh)
    except ValueError:
        # The *discrete* Jacobian (differentiated interpolant) can dip
        # non-positive at low order even for analytically safe maps;
        # rejecting the draw is the correct behavior to exercise.
        assume(False)
    assert np.all(geom.jac > 0)
    lap = LaplaceOperator(mesh, geom)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(mesh.local_shape)
    assert float(np.sum(u * lap.apply(u))) >= -1e-10
    assert np.allclose(lap.apply(np.ones(mesh.local_shape)), 0.0, atol=1e-10)
    # Mass = deformed area: quadrature of J must equal integral of |J|.
    assert float(np.sum(geom.bm)) > 0


@given(
    order=st.integers(4, 9),
    alpha=st.floats(0.01, 1.0),
    seed=st.integers(0, 10**6),
)
def test_filter_is_contraction_on_energy(order, alpha, seed):
    """The filter never increases the (quadrature) L2 norm of a continuous
    field beyond roundoff (its modal symbol is in [1-alpha, 1])."""
    mesh = box_mesh_2d(2, 2, order)
    geom = geometric_factors(mesh)
    asm = Assembler.for_mesh(mesh)
    filt = FieldFilter(mesh, alpha, asm)
    rng = np.random.default_rng(seed)
    u = asm.dsavg(rng.standard_normal(mesh.local_shape))
    e0 = float(np.sum(geom.bm * u * u))
    v = filt(u)
    e1 = float(np.sum(geom.bm * v * v))
    assert e1 <= e0 * (1.0 + 1e-9)


@given(
    nex=st.integers(2, 4),
    ney=st.integers(2, 4),
    order=st.integers(3, 6),
    seed=st.integers(0, 10**6),
)
def test_divergence_theorem(nex, ney, order, seed):
    """integral div u == boundary flux for any polynomial velocity field."""
    mesh = box_mesh_2d(nex, ney, order)
    geom = geometric_factors(mesh)
    diag = FlowDiagnostics(mesh, geom)
    rng = np.random.default_rng(seed)
    cu = rng.standard_normal(3)
    cv = rng.standard_normal(3)
    u = [
        mesh.eval_function(lambda x, y: cu[0] + cu[1] * x + cu[2] * x * y),
        mesh.eval_function(lambda x, y: cv[0] + cv[1] * y + cv[2] * x * y),
    ]
    gu = diag.grad_phys(u[0])
    gv = diag.grad_phys(u[1])
    vol = diag.integrate(gu[0] + gv[1])
    flux = sum(diag.mass_flux(u, s) for s in ("xmin", "xmax", "ymin", "ymax"))
    assert vol == pytest.approx(flux, abs=1e-10 * (1 + abs(vol)))


@given(
    n=st.integers(8, 40),
    seed=st.integers(0, 10**6),
)
def test_xxt_inverts_random_spd(n, seed):
    rng = np.random.default_rng(seed)
    m = sp.random(n, n, density=0.25, random_state=rng)
    a = sp.csr_matrix(m @ m.T + sp.diags(np.full(n, n * 1.0)))
    solver = XXTSolver(a, leaf_size=4)
    assert solver.verify(a, n_samples=2, seed=seed) < 1e-8


@given(
    n=st.integers(5, 30),
    cond=st.floats(1.0, 1e4),
    seed=st.integers(0, 10**6),
)
def test_pcg_solves_any_spd_system(n, cond, seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    a = q @ np.diag(np.geomspace(1.0, cond, n)) @ q.T
    x_true = rng.standard_normal(n)
    b = a @ x_true
    res = pcg(lambda v: a @ v, b, tol=1e-12 * np.linalg.norm(b), maxiter=20 * n)
    assert res.converged
    assert np.linalg.norm(res.x - x_true) < 1e-6 * np.linalg.norm(x_true)


@given(
    order=st.integers(3, 6),
    seed=st.integers(0, 10**6),
)
def test_pressure_operator_adjoint_random_mesh(order, seed):
    """D and D^T stay exact adjoints under random smooth deformations."""
    rng = np.random.default_rng(seed)
    amp = rng.uniform(-0.06, 0.06, 2)
    mesh = map_mesh(box_mesh_2d(2, 2, order), small_deformation(amp[0], amp[1], 1, 1))
    pop = PressureOperator(mesh)
    u = [rng.standard_normal(mesh.local_shape) for _ in range(2)]
    p = rng.standard_normal(pop.p_shape)
    lhs = float(np.sum(p * pop.apply_div(u)))
    w = pop.apply_div_t(p)
    rhs = sum(float(np.sum(u[c] * w[c])) for c in range(2))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


@given(
    kind=st.sampled_from(["rect2d", "deformed2d", "periodic2d", "box3d"]),
    open_boundary=st.booleans(),
    nex=st.integers(1, 3),
    ney=st.integers(1, 2),
    order=st.integers(3, 5),
    seed=st.integers(0, 10**6),
)
def test_consistent_poisson_symmetric_with_exactly_constant_nullspace(
    kind, open_boundary, nex, ney, order, seed
):
    """E = D B^-1 D^T is symmetric on every mesh kind, and its null space is
    exactly the constants when the flow is enclosed or periodic (rank
    deficiency 1) and trivial once one side is an open boundary (0)."""
    if kind == "box3d":
        mesh = box_mesh_3d(nex, ney, 1, min(order, 4))
    elif kind == "periodic2d":
        # Fully periodic when enclosed; periodic in x with one y side open
        # otherwise.
        mesh = box_mesh_2d(max(nex, 2), 2, order, periodic=(True, not open_boundary))
    else:
        mesh = box_mesh_2d(nex, ney, order)
        if kind == "deformed2d":
            # A random global bilinear map keeps the elements straight-sided
            # but skewed (nonzero off-diagonal cofactors).  Curved elements
            # would not do: GL quadrature then under-integrates D^T 1, so
            # the constant is only approximately in the null space of E.
            a, b, c, d = np.random.default_rng(seed).uniform(-0.25, 0.25, 4)
            mesh = map_mesh(
                mesh, lambda x, y: (x + a * x * y + c * y, y + b * x * y + d * x)
            )
    sides = sorted(mesh.boundary)
    if open_boundary:
        sides = sides[:-1]  # leave one side open
    vel_mask = (
        DirichletMask(mesh.boundary_mask(sides)) if sides
        else DirichletMask.none(mesh.local_shape)
    )
    pop = PressureOperator(mesh, vel_mask=vel_mask)
    n = int(np.prod(pop.p_shape))
    e = np.column_stack([
        pop.apply_e(np.eye(n)[j].reshape(pop.p_shape)).ravel() for j in range(n)
    ])
    scale = float(np.max(np.abs(e)))
    assert np.max(np.abs(e - e.T)) <= 1e-11 * scale
    lam = np.linalg.eigvalsh(0.5 * (e + e.T))
    assert lam.min() >= -1e-10 * scale
    enclosed = not open_boundary
    deficiency = int(np.sum(lam < 1e-9 * lam.max()))
    assert deficiency == (1 if enclosed else 0)
    assert pop.has_nullspace == enclosed
    if enclosed:
        assert np.max(np.abs(e @ np.ones(n))) <= 1e-10 * scale


@given(
    order=st.integers(2, 7),
    seed=st.integers(0, 10**6),
)
def test_mass_integral_linearity_and_positivity(order, seed):
    mesh = box_mesh_2d(3, 2, order, x1=1.5)
    geom = geometric_factors(mesh)
    mass = MassOperator(geom)
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(mesh.local_shape)
    g = rng.standard_normal(mesh.local_shape)
    a, b = rng.standard_normal(2)
    assert mass.integrate(a * f + b * g) == pytest.approx(
        a * mass.integrate(f) + b * mass.integrate(g), rel=1e-10, abs=1e-10
    )
    assert mass.integrate(np.abs(f) + 0.1) > 0


@given(
    n_parts=st.sampled_from([2, 4]),
    seed=st.integers(0, 10**6),
    op=st.sampled_from(["+", "max", "min"]),
)
def test_gs_matches_serial_for_random_partitions(n_parts, seed, op):
    """gs_op_rank over any element partition reproduces the serial reduction."""
    from repro.core.mesh import box_mesh_2d
    from repro.parallel.exec import run_spmd
    from repro.parallel.gs import gs_init, gs_op_rank

    mesh = box_mesh_2d(4, 3, 3)
    rng = np.random.default_rng(seed)
    part = rng.integers(0, n_parts, mesh.K)
    assume(len(np.unique(part)) == n_parts)
    u = rng.standard_normal(mesh.local_shape)
    asm = Assembler.for_mesh(mesh)
    serial = {"+": asm.dssum, "max": asm.dsmax, "min": asm.dsmin}[op](u)
    ids = [mesh.global_ids[part == p] for p in range(n_parts)]
    vals = [u[part == p] for p in range(n_parts)]
    handles = gs_init(ids).rank_handles()
    out = run_spmd(gs_op_rank, [(h, v, op) for h, v in zip(handles, vals)]).results
    for p in range(n_parts):
        assert np.allclose(out[p], serial[part == p])


@given(seed=st.integers(0, 10**6), a=st.floats(-2, 2), b=st.floats(-2, 2))
def test_oifs_advection_is_linear_in_the_field(seed, a, b):
    """The sub-integrated advection operator is linear in the advected field."""
    from repro.core.assembly import Assembler as Asm
    from repro.ns.convection import Convection

    mesh = box_mesh_2d(3, 1, 5, periodic=(True, False))
    geom = geometric_factors(mesh)
    conv = Convection(mesh, geom, Asm(mesh.global_ids))
    rng = np.random.default_rng(seed)
    w = [np.full(mesh.local_shape, 0.7), np.zeros(mesh.local_shape)]
    v1 = Asm(mesh.global_ids).dsavg(rng.standard_normal(mesh.local_shape))
    v2 = Asm(mesh.global_ids).dsavg(rng.standard_normal(mesh.local_shape))
    w_of_t = lambda s: conv.contravariant(w)  # noqa: E731
    o_lin = conv.oifs_integrate([a * v1 + b * v2], w_of_t, 0, 0.02, 8)[0]
    o1 = conv.oifs_integrate([v1], w_of_t, 0, 0.02, 8)[0]
    o2 = conv.oifs_integrate([v2], w_of_t, 0, 0.02, 8)[0]
    scale = 1 + np.max(np.abs(o_lin))
    assert np.allclose(o_lin, a * o1 + b * o2, atol=1e-9 * scale)


@given(steps=st.integers(1, 5), seed=st.integers(0, 10**6))
def test_checkpoint_roundtrip_arbitrary_state(steps, seed):
    """Checkpoints restore velocity/pressure/history exactly after any
    number of steps."""
    import tempfile

    from repro.api import SolverConfig
    from repro.core.io import load_checkpoint, save_checkpoint
    from repro.ns.bcs import VelocityBC
    from repro.ns.navier_stokes import NavierStokesSolver

    L = 2 * np.pi
    mesh = box_mesh_2d(2, 2, 5, x1=L, y1=L, periodic=(True, True))

    def build():
        s = NavierStokesSolver(mesh, re=20.0, dt=0.05, bc=VelocityBC.none(mesh),
                               convection="ext",
                               config=SolverConfig(projection_window=4))
        rng = np.random.default_rng(seed)
        c = rng.uniform(0.5, 1.5)
        s.set_initial_condition([
            lambda x, y: -c * np.cos(x) * np.sin(y),
            lambda x, y: c * np.sin(x) * np.cos(y),
        ])
        return s

    a = build()
    a.advance(steps)
    with tempfile.TemporaryDirectory() as d:
        ck = save_checkpoint(pathlib_join(d, "ck.npz"), a)
        b = build()
        load_checkpoint(ck, b)
    assert b.t == a.t
    for c in range(2):
        assert np.array_equal(a.u[c], b.u[c])
    assert np.array_equal(a.p, b.p)


def pathlib_join(d, name):
    import pathlib

    return pathlib.Path(d) / name


def _deformed_mesh(ax, ay, fx, fy, order):
    """Random admissible deformed mesh, or reject the draw (see the
    geometry SPD test for why geometric_factors may refuse a map)."""
    assume(abs(ax) * fx * np.pi + abs(ay) * fy * np.pi < 0.8)
    mesh = map_mesh(box_mesh_2d(2, 2, order), small_deformation(ax, ay, fx, fy))
    try:
        geometric_factors(mesh)
    except ValueError:
        assume(False)
    return mesh


@given(
    ax=st.floats(-0.06, 0.06),
    ay=st.floats(-0.06, 0.06),
    fx=st.integers(1, 3),
    fy=st.integers(1, 3),
    order=st.integers(3, 6),
)
def test_condensed_operator_symmetric_spd_on_deformed_elements(ax, ay, fx, fy, order):
    """The per-element Schur complements and the assembled condensed
    operator are symmetric and nonnegative on any deformed mesh."""
    mesh = _deformed_mesh(ax, ay, fx, fy, order)
    cs = CondensedPoissonSolver(mesh)
    s = cs.ec.schur
    assert np.max(np.abs(s - s.transpose(0, 2, 1))) < 1e-10 * max(
        1.0, float(np.max(np.abs(s)))
    )
    rng = np.random.default_rng(0)
    # Admissible interface vectors: continuous across elements, zero on
    # the Dirichlet boundary.
    vecs = [
        cs.iface.dsavg(rng.standard_normal(s.shape[:2])) * cs._b_factor
        for _ in range(3)
    ]
    for v in vecs:
        q = cs.iface.dot(v, cs.apply_condensed(v))
        assert q >= -1e-10 * max(1.0, cs.iface.dot(v, v))
    a01 = cs.iface.dot(vecs[0], cs.apply_condensed(vecs[1]))
    a10 = cs.iface.dot(vecs[1], cs.apply_condensed(vecs[0]))
    assert a01 == pytest.approx(a10, rel=1e-9, abs=1e-11)


@given(
    ax=st.floats(-0.06, 0.06),
    ay=st.floats(-0.06, 0.06),
    order=st.integers(3, 6),
    seed=st.integers(0, 10**6),
)
def test_condensed_split_roundtrips_full_solution(ax, ay, order, seed):
    """Boundary/interior splitting is exact: back-substituting from the
    *full* solve's shell values reproduces its interior values."""
    mesh = _deformed_mesh(ax, ay, 1, 1, order)
    sys = build_poisson_system(mesh)
    rng = np.random.default_rng(seed)
    f_local = rng.standard_normal(mesh.local_shape)
    full = pcg(sys.matvec, sys.rhs(f_local), dot=sys.dot,
               tol=1e-13, maxiter=5000)
    assert full.converged
    cs = CondensedPoissonSolver(mesh)
    u_flat = full.x.reshape(mesh.K, -1)
    u_i = cs.ec.back_substitute(
        np.ascontiguousarray(u_flat[:, cs.ec.b_idx]),
        np.ascontiguousarray(cs.ec.interior_of(f_local)),
    )
    scale = max(1.0, float(np.max(np.abs(full.x))))
    assert np.max(np.abs(u_i - u_flat[:, cs.ec.i_idx])) < 1e-8 * scale


@given(
    ax=st.floats(-0.06, 0.06),
    ay=st.floats(-0.06, 0.06),
    order=st.integers(3, 6),
    seed=st.integers(0, 10**6),
)
def test_condensed_solve_matches_full_solve(ax, ay, order, seed):
    """The condensed solver and the full-grid PCG agree to tight tolerance
    for arbitrary right-hand sides on arbitrary admissible meshes."""
    mesh = _deformed_mesh(ax, ay, 1, 1, order)
    sys = build_poisson_system(mesh)
    rng = np.random.default_rng(seed)
    f_local = rng.standard_normal(mesh.local_shape)
    full = pcg(sys.matvec, sys.rhs(f_local), dot=sys.dot,
               tol=1e-13, maxiter=5000)
    cs = CondensedPoissonSolver(mesh)
    res = cs.solve(f_local, tol=1e-13, maxiter=5000)
    assert full.converged and res.converged
    scale = max(float(np.max(np.abs(full.x))), 1e-30)
    assert np.max(np.abs(res.u - full.x)) < 1e-10 * scale
