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
