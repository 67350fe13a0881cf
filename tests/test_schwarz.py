"""Tests for the additive overlapping Schwarz preconditioner."""

import numpy as np
import pytest

from repro.core.assembly import DirichletMask
from repro.core.mesh import box_mesh_2d, box_mesh_3d, map_mesh
from repro.core.pressure import PressureOperator
from repro.solvers.cg import pcg
from repro.solvers.schwarz import PressureLattice, SchwarzPreconditioner


def make_problem(nex=4, ney=4, N=5, periodic=(False, False), deform=None):
    m = box_mesh_2d(nex, ney, N, periodic=periodic)
    if deform is not None:
        m = map_mesh(m, deform)
    pop = PressureOperator(m)
    return m, pop


class TestPressureLattice:
    def test_round_trip(self):
        m, pop = make_problem(3, 2, 5)
        lat = PressureLattice(m, pop)
        p = np.random.default_rng(0).standard_normal(pop.p_shape)
        assert np.allclose(lat.from_lattice(lat.to_lattice(p)), p)

    def test_lattice_shape(self):
        m, pop = make_problem(3, 2, 5)
        lat = PressureLattice(m, pop)
        assert lat.shape == (2 * 4, 3 * 4)  # (s, r) with m = N-1 = 4

    def test_lattice_coords_monotone_interior(self):
        m, pop = make_problem(2, 2, 6)
        lat = PressureLattice(m, pop)
        x = lat.lattice_coords[0]
        assert np.all(np.diff(x, axis=1) > 0)
        y = lat.lattice_coords[1]
        assert np.all(np.diff(y, axis=0) > 0)

    def test_subdomain_clipping_at_boundary(self):
        m, pop = make_problem(2, 2, 5)
        lat = PressureLattice(m, pop)
        idx = lat.subdomain_indices(0, 1)  # corner element
        assert idx[0][0] == 0 and idx[1][0] == 0  # clipped low
        assert idx[0].size == lat.m + 1 and idx[1].size == lat.m + 1

    def test_subdomain_wrap_periodic(self):
        m, pop = make_problem(3, 3, 5, periodic=(True, True))
        lat = PressureLattice(m, pop)
        idx = lat.subdomain_indices(0, 1)
        assert idx[0][0] == lat.shape[0] - 1  # wrapped
        assert idx[0].size == lat.m + 2

    def test_low_order_rejected(self):
        m = box_mesh_2d(2, 2, 2)
        pop = PressureOperator(m)
        with pytest.raises(ValueError):
            PressureLattice(m, pop)


class TestConstruction:
    def test_bad_variant(self):
        m, pop = make_problem(2, 2, 4)
        with pytest.raises(ValueError):
            SchwarzPreconditioner(m, pop, variant="ilu")

    def test_fem_3d_rejected(self):
        m = box_mesh_3d(2, 2, 2, 4)
        pop = PressureOperator(m)
        with pytest.raises(ValueError):
            SchwarzPreconditioner(m, pop, variant="fem")

    def test_negative_overlap_rejected(self):
        m, pop = make_problem(2, 2, 4)
        with pytest.raises(ValueError):
            SchwarzPreconditioner(m, pop, variant="fem", overlap=-1)


def spd_check(precond, pop, seed=0, nsamp=4):
    rng = np.random.default_rng(seed)
    for _ in range(nsamp):
        p = rng.standard_normal(pop.p_shape)
        q = rng.standard_normal(pop.p_shape)
        if pop.has_nullspace:
            p -= p.mean()
            q -= q.mean()
        lhs = float(np.sum(q * precond(p)))
        rhs = float(np.sum(p * precond(q)))
        assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-12)
        assert float(np.sum(p * precond(p))) > 0


class TestSymmetry:
    def test_fdm_precond_spd(self):
        m, pop = make_problem(3, 3, 5)
        spd_check(SchwarzPreconditioner(m, pop, variant="fdm"), pop)

    def test_fem_precond_spd(self):
        m, pop = make_problem(3, 3, 5)
        spd_check(SchwarzPreconditioner(m, pop, variant="fem", overlap=1), pop, 1)

    def test_no_coarse_spd(self):
        m, pop = make_problem(3, 3, 5)
        spd_check(
            SchwarzPreconditioner(m, pop, variant="fdm", use_coarse=False), pop, 2
        )


def solve_iters(m, pop, precond, tol=1e-5, maxiter=2000, seed=3):
    rng = np.random.default_rng(seed)
    p_exact = rng.standard_normal(pop.p_shape)
    if pop.has_nullspace:
        p_exact -= p_exact.mean()
    b = pop.matvec(p_exact)
    res = pcg(pop.matvec, b, dot=pop.dot, precond=precond, tol=tol, maxiter=maxiter)
    assert res.converged, f"no convergence: {res}"
    return res.iterations


class TestPreconditioning:
    def test_fdm_beats_unpreconditioned(self):
        m, pop = make_problem(4, 4, 5)
        it_pc = solve_iters(m, pop, SchwarzPreconditioner(m, pop, variant="fdm"))
        it_plain = solve_iters(m, pop, None)
        assert it_pc < 0.7 * it_plain

    def test_coarse_grid_helps(self):
        # The Table 2 headline: dropping A_0 inflates iteration counts.
        m, pop = make_problem(6, 6, 5)
        pc_with = SchwarzPreconditioner(m, pop, variant="fdm", use_coarse=True)
        pc_without = SchwarzPreconditioner(m, pop, variant="fdm", use_coarse=False)
        it_with = solve_iters(m, pop, pc_with)
        it_without = solve_iters(m, pop, pc_without)
        assert it_with < it_without

    def test_overlap_reduces_iterations(self):
        m, pop = make_problem(4, 4, 5)
        its = {}
        for no in (0, 1, 3):
            pc = SchwarzPreconditioner(m, pop, variant="fem", overlap=no)
            its[no] = solve_iters(m, pop, pc)
        assert its[1] < its[0]
        assert its[3] <= its[1]

    def test_fdm_comparable_to_fem_minimal_overlap(self):
        m, pop = make_problem(4, 4, 6)
        it_fdm = solve_iters(m, pop, SchwarzPreconditioner(m, pop, variant="fdm"))
        it_fem = solve_iters(
            m, pop, SchwarzPreconditioner(m, pop, variant="fem", overlap=1)
        )
        assert it_fdm <= 2.0 * it_fem  # "competitive in terms of iteration count"

    def test_periodic_problem(self):
        m, pop = make_problem(4, 4, 5, periodic=(True, True))
        pc = SchwarzPreconditioner(m, pop, variant="fdm")
        assert solve_iters(m, pop, pc) < 100

    def test_deformed_mesh(self):
        m, pop = make_problem(
            4, 4, 5, deform=lambda x, y: (x + 0.08 * np.sin(np.pi * y), y + 0.08 * np.sin(np.pi * x))
        )
        pc = SchwarzPreconditioner(m, pop, variant="fdm")
        assert solve_iters(m, pop, pc) < 120

    def test_3d_fdm(self):
        m = box_mesh_3d(2, 2, 2, 4)
        pop = PressureOperator(m)
        pc = SchwarzPreconditioner(m, pop, variant="fdm")
        it_pc = solve_iters(m, pop, pc)
        it_plain = solve_iters(m, pop, None)
        assert it_pc < it_plain

    def test_open_boundary_problem(self):
        m = box_mesh_2d(4, 4, 5)
        vel_mask = DirichletMask(m.boundary_mask(["xmin", "ymin", "ymax"]))
        pop = PressureOperator(m, vel_mask=vel_mask)
        assert not pop.has_nullspace
        # Coarse Dirichlet on the open side's vertices.
        xv = np.zeros(m.n_vertices)
        from repro.solvers.coarse import element_corner_coords

        corners = element_corner_coords(m)
        for k in range(m.K):
            for v in range(4):
                xv[m.vertex_ids[k, v]] = corners[k, v, 0]
        pc = SchwarzPreconditioner(
            m, pop, variant="fdm", dirichlet_vertices=np.isclose(xv, 1.0)
        )
        assert solve_iters(m, pop, pc) < 150


# ---------------------------------------------------------------------------
# Batched apply against a per-subdomain dense reference
# ---------------------------------------------------------------------------
def _deform_2d(x, y):
    return x + 0.08 * np.sin(np.pi * y), y + 0.08 * np.sin(np.pi * x)


BATCHED_MESHES = {
    "2d-rectilinear": lambda: box_mesh_2d(4, 3, 5, x1=2.0),
    "2d-periodic": lambda: box_mesh_2d(4, 4, 5, periodic=(True, True)),
    "2d-deformed": lambda: map_mesh(box_mesh_2d(4, 4, 5), _deform_2d),
    "3d-box": lambda: box_mesh_3d(3, 2, 2, 4),
    "3d-periodic-x": lambda: box_mesh_3d(3, 3, 2, 5, periodic=(True, False, False)),
}
BATCHED_CASES = [
    (name, variant, overlap)
    for name in sorted(BATCHED_MESHES)
    for variant, overlap in [("fdm", 1), ("fem", 0), ("fem", 1), ("fem", 3)]
    if variant == "fdm" or name.startswith("2d")  # fem local solves are 2-D only
]


def dense_local_inverse(pc, cls, j):
    """Explicit ``A~_k^{-1}`` of subdomain ``j`` of a shape class."""
    if pc.variant == "fem":
        return cls.solver[j]
    fdm = cls.solver
    big_s = fdm.s[0][j]
    for a in range(1, fdm.ndim):  # kron runs slow -> fast: direction t down to r
        big_s = np.kron(fdm.s[a][j], big_s)
    return (big_s * fdm.inv_denom[j].ravel()[None, :]) @ big_s.T


def reference_local_solves(pc, r, lattice):
    """``sum_k R_k^T A~_k^{-1} R_k r`` one subdomain at a time, with ``R_k``
    taken from the lattice index arithmetic, not from the stored gather."""
    rl = lattice.to_lattice(r)
    weight = None
    if pc.weighted:
        weight = np.zeros(lattice.shape)
        for k in range(pc.mesh.K):
            np.add.at(weight, np.ix_(*lattice.subdomain_indices(k, pc.overlap)), 1.0)
        weight = 1.0 / np.sqrt(weight)
        rl = rl * weight
    acc = np.zeros(lattice.shape)
    seen = 0
    for cls in pc.subdomain_classes:
        for j, k in enumerate(cls.elements):
            ids = np.ix_(*lattice.subdomain_indices(k, pc.overlap))
            sub = rl[ids]
            assert sub.shape == cls.shape
            sol = dense_local_inverse(pc, cls, j) @ sub.ravel()
            np.add.at(acc, ids, sol.reshape(sub.shape))
            seen += 1
    assert seen == pc.mesh.K
    if weight is not None:
        acc *= weight
    return lattice.from_lattice(acc)


class TestBatchedApply:
    @pytest.mark.parametrize("mesh_name,variant,overlap", BATCHED_CASES)
    def test_matches_dense_subdomain_loop(self, mesh_name, variant, overlap):
        mesh = BATCHED_MESHES[mesh_name]()
        pop = PressureOperator(mesh)
        pc = SchwarzPreconditioner(mesh, pop, variant=variant, overlap=overlap)
        lattice = PressureLattice(mesh, pop)
        r = np.random.default_rng(7).standard_normal(pop.p_shape)
        got = pc.local_solves(r)
        ref = reference_local_solves(pc, r, lattice)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
        # The full apply adds the coarse term and projects the null space.
        full = ref + pc.coarse.apply(r)
        if pop.has_nullspace:
            full -= full.mean()
        assert np.max(np.abs(pc(r) - full)) <= 1e-12 * np.max(np.abs(full))

    def test_shape_classes_partition_the_elements(self):
        m = box_mesh_3d(3, 3, 3, 4)
        pop = PressureOperator(m)
        pc = SchwarzPreconditioner(m, pop)
        elements = np.concatenate([c.elements for c in pc.subdomain_classes])
        assert sorted(elements.tolist()) == list(range(m.K))
        # Clipped boundary extensions: 2 extents per direction -> <= 2^3 here.
        assert 1 < len(pc.subdomain_classes) <= 8
        assert len({c.shape for c in pc.subdomain_classes}) == len(pc.subdomain_classes)

    def test_returns_fresh_arrays(self):
        m, pop = make_problem(3, 3, 5)
        pc = SchwarzPreconditioner(m, pop)
        r = np.random.default_rng(0).standard_normal(pop.p_shape)
        first = pc(r)
        kept = first.copy()
        second = pc(2.0 * r)
        assert second is not first
        assert np.array_equal(first, kept)

    def test_3d_precond_symmetric(self):
        m = box_mesh_3d(3, 2, 2, 4)
        pop = PressureOperator(m)
        spd_check(SchwarzPreconditioner(m, pop, variant="fdm"), pop, seed=5)

    def test_3d_periodic_precond_symmetric(self):
        m = box_mesh_3d(3, 3, 2, 4, periodic=(True, False, False))
        pop = PressureOperator(m)
        spd_check(SchwarzPreconditioner(m, pop, variant="fdm"), pop, seed=6)

    @pytest.mark.parametrize("variant", ["fdm", "fem"])
    def test_shared_preconditioner_is_thread_safe(self, variant):
        """Threads applying one shared preconditioner concurrently each
        reproduce their solo result bitwise (scratch is per-thread)."""
        import sys
        import threading

        m, pop = make_problem(6, 6, 6)
        pc = SchwarzPreconditioner(m, pop, variant=variant)
        rng = np.random.default_rng(11)
        n_threads = 3  # more than this box's cores, so applies interleave
        inputs = [rng.standard_normal(pop.p_shape) for _ in range(n_threads)]
        solo = [pc(r) for r in inputs]
        mismatches = [0] * n_threads
        errors = []
        barrier = threading.Barrier(n_threads)

        def work(i):
            try:
                barrier.wait(timeout=30)
                for _ in range(150):
                    if not np.array_equal(pc(inputs[i]), solo[i]):
                        mismatches[i] += 1
            except Exception as exc:  # re-raised through the assert below
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=work, args=(i,)) for i in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert mismatches == [0] * n_threads


# ---------------------------------------------------------------------------
# Class-batched FEM build against the one-subdomain-at-a-time assembly
# ---------------------------------------------------------------------------
def _oracle_positively_oriented(xs, ys):
    ax = np.diff(xs, axis=1)[:-1, :]
    ay = np.diff(ys, axis=1)[:-1, :]
    bx = np.diff(xs, axis=0)[:, :-1]
    by = np.diff(ys, axis=0)[:, :-1]
    return bool(np.all(ax * by - ay * bx > 0))


def _oracle_pad_mirror_2d(c):
    out = np.empty((c.shape[0] + 2, c.shape[1] + 2))
    out[1:-1, 1:-1] = c
    out[0, 1:-1] = 2 * c[0] - c[1]
    out[-1, 1:-1] = 2 * c[-1] - c[-2]
    out[:, 0] = 2 * out[:, 1] - out[:, 2]
    out[:, -1] = 2 * out[:, -2] - out[:, -3]
    return out


def _oracle_tri_stiffness(p):
    b = np.array([p[1, 1] - p[2, 1], p[2, 1] - p[0, 1], p[0, 1] - p[1, 1]])
    c = np.array([p[2, 0] - p[1, 0], p[0, 0] - p[2, 0], p[1, 0] - p[0, 0]])
    area2 = (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1]) - (p[2, 0] - p[0, 0]) * (
        p[1, 1] - p[0, 1]
    )
    if area2 <= 0:
        raise ValueError("degenerate or inverted triangle in local FEM grid")
    return (np.outer(b, b) + np.outer(c, c)) / (2.0 * area2)


def _oracle_fem_laplacian_grid_2d(xg, yg):
    """Padded-grid assembly, ghost ring included, then the interior block."""
    gy, gx = xg.shape
    a = np.zeros((gy * gx, gy * gx))
    for j in range(gy - 1):
        for i in range(gx - 1):
            quad = [(j, i), (j, i + 1), (j + 1, i + 1), (j + 1, i)]
            pts = np.array([[xg[q], yg[q]] for q in quad])
            ids = [q[0] * gx + q[1] for q in quad]
            for tri in ((0, 1, 2), (0, 2, 3)):
                tids = [ids[t] for t in tri]
                a[np.ix_(tids, tids)] += _oracle_tri_stiffness(pts[list(tri)])
    interior = np.zeros((gy, gx), dtype=bool)
    interior[1:-1, 1:-1] = True
    keep = np.nonzero(interior.ravel())[0]
    return a[np.ix_(keep, keep)]


def _oracle_fem_inverse(pc, lattice, k):
    """Subdomain k's symmetrised local inverse, built on its own."""
    import scipy.linalg

    from repro.solvers.schwarz import _arclength_line

    iy, ix = lattice.subdomain_indices(k, pc.overlap)
    xs = lattice.lattice_coords[0][np.ix_(iy, ix)]
    ys = lattice.lattice_coords[1][np.ix_(iy, ix)]
    if not _oracle_positively_oriented(xs, ys):
        xs, ys = np.meshgrid(
            _arclength_line(xs, ys, 1, ix), _arclength_line(xs, ys, 0, iy)
        )
    a = _oracle_fem_laplacian_grid_2d(_oracle_pad_mirror_2d(xs), _oracle_pad_mirror_2d(ys))
    inv = scipy.linalg.cho_solve(scipy.linalg.cho_factor(a), np.eye(a.shape[0]))
    return 0.5 * (inv + inv.T)


def _table2_l0():
    from repro.workloads.cylinder_model import Table2Case

    case = Table2Case(level=0, order=7)
    return case.mesh


FEM_BUILD_MESHES = {
    "table2-L0": _table2_l0,
    "2d-periodic": lambda: box_mesh_2d(8, 8, 4, periodic=(True, True)),
    "2d-deformed": lambda: map_mesh(box_mesh_2d(4, 4, 5), _deform_2d),
}


class TestFEMBuild:
    @pytest.mark.parametrize("overlap", [0, 1, 3])
    @pytest.mark.parametrize("mesh_name", sorted(FEM_BUILD_MESHES))
    def test_class_stacks_bitwise_equal_per_subdomain_build(self, mesh_name, overlap):
        mesh = FEM_BUILD_MESHES[mesh_name]()
        pop = PressureOperator(mesh)
        pc = SchwarzPreconditioner(mesh, pop, variant="fem", overlap=overlap,
                                   use_coarse=False)
        lattice = PressureLattice(mesh, pop)
        for cls in pc.subdomain_classes:
            ref = np.stack([_oracle_fem_inverse(pc, lattice, k) for k in cls.elements])
            assert np.array_equal(cls.solver, ref)

    def test_inverted_ghost_only_triangle_raises(self):
        from repro.solvers.schwarz import _add_fem_laplacian

        # Padded 5 x 6 grid; the top-right corner quad's first triangle
        # (0, gx-2), (0, gx-1), (1, gx-1) has no interior vertex.
        yg, xg = np.meshgrid(np.arange(5.0), np.arange(6.0), indexing="ij")
        xg[0, -1] = xg[0, -2] - 0.5  # fold it over
        with pytest.raises(ValueError, match="inverted"):
            _oracle_fem_laplacian_grid_2d(xg, yg)
        with pytest.raises(ValueError, match="inverted"):
            _add_fem_laplacian(xg[None], yg[None], np.zeros((1, 12, 12)))

    def test_periodic_wrap_inside_subdomain_is_clamped(self):
        """With N_o >= 2 the periodic seam can fall inside a subdomain; its
        domain-length interval must not survive into the surrogate."""
        from repro.solvers.schwarz import _arclength_line

        m, pop = make_problem(8, 8, 4, periodic=(True, True))
        lattice = PressureLattice(m, pop)
        surrogates = 0
        for k in range(m.K):
            iy, ix = lattice.subdomain_indices(k, 3)
            xs = lattice.lattice_coords[0][np.ix_(iy, ix)]
            ys = lattice.lattice_coords[1][np.ix_(iy, ix)]
            if _oracle_positively_oriented(xs, ys):
                continue
            surrogates += 1
            for axis, idx in ((1, ix), (0, iy)):
                ds = np.diff(_arclength_line(xs, ys, axis, idx))
                assert ds.max() <= 3.0 * np.median(ds)
        assert surrogates > 0
        iters = {
            no: solve_iters(m, pop, SchwarzPreconditioner(m, pop, variant="fem",
                                                          overlap=no), tol=1e-8)
            for no in (1, 3)
        }
        assert iters[3] <= iters[1]
