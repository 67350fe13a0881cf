"""Statically condensed solver tier: units, parity, flop accounting.

Covers the three exposure paths of the condensed tier: the standalone
:class:`CondensedPoissonSolver`, the pressure-system
:func:`CondensedEPreconditioner` (the zero-overlap FDM Schwarz tier), and
the ``batched_matvec`` kernel dispatch entry its hot loop runs through.
The flop-exponent regression pins the tier's defining property —
interface applies that are *linear* in the per-element dof count
(``O(N^d)``) where the standard operator apply is ``O(N^{d+1})``.
"""

import numpy as np
import pytest

from repro import obs
from repro.api import SolverConfig
from repro.backends import dispatch
from repro.core.mesh import box_mesh_2d, box_mesh_3d, map_mesh
from repro.core.operators import (
    HelmholtzOperator,
    build_helmholtz_system,
    build_poisson_system,
)
from repro.core.pressure import PressureOperator
from repro.obs.telemetry import telemetry
from repro.perf.flops import counting
from repro.solvers.cg import pcg
from repro.solvers.condensed import CondensedEPreconditioner, CondensedPoissonSolver
from repro.solvers.schwarz import SchwarzPreconditioner
from repro.solvers.static_condensation import (
    DenseInteriorSolver,
    ElementCondensation,
    TensorInteriorSolver,
    dense_element_matrices,
    rectilinear_extents,
    shell_split,
)
from repro.workloads.cylinder_model import Table2Case


def _deformed(mesh_args, amp=0.04):
    base = box_mesh_2d(*mesh_args)

    def warp(x, y):
        return (
            x + amp * np.sin(np.pi * x) * np.sin(np.pi * y),
            y + 0.75 * amp * np.sin(np.pi * x) * np.sin(np.pi * y),
        )

    return map_mesh(base, warp)


class TestShellSplit:
    def test_2d_counts_and_layout(self):
        b, i = shell_split((5, 5))
        assert b.size == 16 and i.size == 9
        full = np.arange(25).reshape(5, 5)
        assert np.array_equal(full.ravel()[i], full[1:-1, 1:-1].ravel())
        assert np.array_equal(np.sort(np.concatenate([b, i])), np.arange(25))

    def test_3d_counts_and_layout(self):
        b, i = shell_split((5, 4, 3))
        full = np.arange(60).reshape(5, 4, 3)
        assert np.array_equal(full.ravel()[i], full[1:-1, 1:-1, 1:-1].ravel())
        assert b.size + i.size == 60

    def test_rejects_too_small(self):
        with pytest.raises(ValueError, match=">= 3"):
            shell_split((2, 5))

    def test_read_only(self):
        b, _ = shell_split((4, 4))
        with pytest.raises(ValueError):
            b[0] = 7


class TestBatchedMatvecDispatch:
    def test_matches_reference_and_counts_flops(self):
        rng = np.random.default_rng(0)
        mats = rng.standard_normal((6, 9, 7))
        vecs = rng.standard_normal((6, 7))
        dispatch.batched_matvec(mats, vecs)  # warm the tuner
        with counting() as fc:
            out = dispatch.batched_matvec(mats, vecs)
        assert np.allclose(out, np.einsum("kij,kj->ki", mats, vecs))
        assert fc.counts["mxm"] == pytest.approx(2.0 * 6 * 9 * 7)

    def test_out_parameter(self):
        rng = np.random.default_rng(1)
        mats = rng.standard_normal((4, 5, 5))
        vecs = rng.standard_normal((4, 5))
        out = np.empty((4, 5))
        ret = dispatch.batched_matvec(mats, vecs, out=out)
        assert ret is out
        assert np.allclose(out, np.einsum("kij,kj->ki", mats, vecs))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            dispatch.batched_matvec(np.zeros((2, 3, 3)), np.zeros((2, 4)))
        with pytest.raises(ValueError):
            dispatch.batched_matvec(np.zeros((3, 3)), np.zeros((3,)))


class TestInteriorSolvers:
    def test_tensor_matches_dense_on_rectilinear(self):
        mesh = box_mesh_2d(2, 3, 6, x1=1.5, y1=2.0)
        hs = rectilinear_extents(mesh)
        assert hs is not None
        op = HelmholtzOperator(mesh, 1.3, 0.7)
        mats = dense_element_matrices(op.apply, mesh.K, mesh.local_shape[1:])
        _, i_idx = shell_split(mesh.local_shape[1:])
        dense = DenseInteriorSolver(mats[:, i_idx[:, None], i_idx[None, :]])
        tensor = TensorInteriorSolver(hs, mesh.order, h1=1.3, h0=0.7)
        rng = np.random.default_rng(2)
        f = rng.standard_normal((mesh.K, i_idx.size))
        assert np.allclose(dense.solve_flat(f), tensor.solve_flat(f),
                           rtol=1e-9, atol=1e-11)

    def test_rectilinear_detection_rejects_deformed(self):
        assert rectilinear_extents(_deformed((2, 2, 5))) is None

    def test_condensation_roundtrip_per_element(self):
        """condense + exact Schur solve + back-substitution reproduces any
        per-element solution of the local (unassembled) system."""
        mesh = box_mesh_2d(2, 2, 5)
        op = HelmholtzOperator(mesh, 1.0, 0.5)  # h0 > 0: block invertible
        mats = dense_element_matrices(op.apply, mesh.K, mesh.local_shape[1:])
        ec = ElementCondensation(mats, mesh.local_shape[1:])
        rng = np.random.default_rng(3)
        u = rng.standard_normal((mesh.K, mats.shape[1]))
        f = np.einsum("kij,kj->ki", mats, u)
        g_b, _ = ec.condense_rhs(f[:, ec.b_idx], f[:, ec.i_idx])
        u_b = np.stack([np.linalg.solve(ec.schur[k], g_b[k])
                        for k in range(mesh.K)])
        u_i = ec.back_substitute(u_b, f[:, ec.i_idx])
        rec = ec.merge(u_b, u_i).reshape(mesh.K, -1)
        assert np.allclose(rec, u, atol=1e-9)


class TestCondensedPoissonSolver:
    def _parity(self, mesh, h1=1.0, h0=0.0, sides=None):
        if h0:
            sys = build_helmholtz_system(mesh, h1, h0, dirichlet_sides=sides)
        else:
            sys = build_poisson_system(mesh, dirichlet_sides=sides)
        rng = np.random.default_rng(4)
        f = rng.standard_normal(mesh.local_shape)
        full = pcg(sys.matvec, sys.rhs(f), dot=sys.dot, tol=1e-13, maxiter=5000)
        cs = CondensedPoissonSolver(mesh, h1=h1, h0=h0, dirichlet_sides=sides)
        res = cs.solve(f, tol=1e-13, maxiter=5000)
        assert full.converged and res.converged
        scale = max(float(np.max(np.abs(full.x))), 1e-30)
        assert np.max(np.abs(res.u - full.x)) < 1e-10 * scale
        return cs

    def test_rectilinear_2d_uses_tensor_interior(self):
        cs = self._parity(box_mesh_2d(3, 2, 6, x1=1.5))
        assert cs.interior_kind == "tensor"

    def test_helmholtz_mixed_sides(self):
        self._parity(box_mesh_2d(2, 2, 5), h1=0.8, h0=2.5, sides=["xmin"])

    def test_deformed_2d_falls_back_to_dense(self):
        cs = self._parity(_deformed((2, 2, 5)))
        assert cs.interior_kind == "dense"

    def test_3d(self):
        self._parity(box_mesh_3d(2, 2, 2, 3))

    def test_interface_is_much_smaller_than_full(self):
        mesh = box_mesh_2d(2, 2, 12)
        cs = CondensedPoissonSolver(mesh)
        n_full = np.prod(mesh.local_shape)
        assert cs.n_interface < 0.4 * n_full

    def test_rejects_singular_neumann(self):
        mesh = box_mesh_2d(2, 2, 4, periodic=(True, True))
        with pytest.raises(ValueError, match="singular"):
            CondensedPoissonSolver(mesh)

    def test_rejects_order_one(self):
        with pytest.raises(ValueError, match="order >= 2"):
            CondensedPoissonSolver(box_mesh_2d(2, 2, 1))


class TestFlopExponent:
    """The tier's headline claim, pinned by exact flop accounting: the
    condensed interface apply is ~O(N^d) per element while the standard
    consistent-Poisson apply is ~O(N^{d+1}) (d = 2 here)."""

    NS = [4, 6, 8, 10, 12, 16]

    @staticmethod
    def _slope(ns, flops_per_elem):
        ln = np.log(np.asarray(ns, float))
        return float(np.polyfit(ln, np.log(np.asarray(flops_per_elem)), 1)[0])

    def test_condensed_apply_is_linear_in_dofs(self):
        per_elem = []
        for n in self.NS:
            mesh = box_mesh_2d(2, 2, n)
            cs = CondensedPoissonSolver(mesh)
            rng = np.random.default_rng(5)
            v = cs.iface.dsavg(
                rng.standard_normal((mesh.K, cs.ec.n_b))
            ) * cs._b_factor
            cs.apply_condensed(v)  # warm up the kernel auto-tuner
            with counting() as fc:
                cs.apply_condensed(v)
            per_elem.append(fc.total() / mesh.K)
        slope = self._slope(self.NS, per_elem)
        # d + 0.3: apply cost grows like the N^d dofs per element.
        assert slope <= 2.3, (slope, per_elem)

    def test_standard_e_apply_is_superlinear(self):
        per_elem = []
        for n in self.NS:
            mesh = box_mesh_2d(2, 2, n)
            pop = PressureOperator(mesh)
            rng = np.random.default_rng(6)
            p = rng.standard_normal(pop.p_shape)
            pop.apply_e(p)  # warm up
            with counting() as fc:
                pop.apply_e(p)
            per_elem.append(fc.total() / mesh.K)
        slope = self._slope(self.NS, per_elem)
        # d + 0.8: the tensor-product apply carries the extra factor of N.
        assert slope >= 2.8, (slope, per_elem)


class TestCondensedEPreconditioner:
    def test_symmetric_and_psd_on_mean_free_vectors(self):
        case = Table2Case(0, 7)
        pop = case.pop
        m = CondensedEPreconditioner(case.mesh, pop)
        rng = np.random.default_rng(7)

        def mean_free(r):
            return r - np.sum(r) / r.size

        r1 = mean_free(rng.standard_normal(pop.p_shape))
        r2 = mean_free(rng.standard_normal(pop.p_shape))
        a = pop.dot(r1, m(r2))
        b = pop.dot(r2, m(r1))
        assert a == pytest.approx(b, rel=1e-9, abs=1e-11)
        for _ in range(4):
            r = mean_free(rng.standard_normal(pop.p_shape))
            assert pop.dot(r, m(r)) >= -1e-10


@pytest.mark.slow
class TestTable2Parity:
    """Condensed-preconditioned PCG reproduces the Schwarz/FDM solution on
    the Table 2 cylinder mesh, with iteration counts landing in the
    schema-validated run-report telemetry."""

    def test_level0_parity_and_telemetry(self):
        case = Table2Case(0, 7)
        pop = case.pop
        obs.enable()
        r_fdm = case.run(SolverConfig(pressure_variant="fdm"))
        r_cond = case.run(SolverConfig(pressure_variant="condensed"))
        assert r_fdm.converged and r_cond.converged
        records = telemetry.solves_for("table2_pressure")
        assert [s.iterations for s in records] == [
            r_fdm.iterations, r_cond.iterations,
        ]
        doc = obs.report_json(meta={"workload": "table2", "K": case.mesh.K})
        obs.validate_report(doc)
        labels = [s["label"] for s in doc["solves"]]
        assert labels.count("table2_pressure") == 2
        obs.disable()
        obs.reset_all()

        # Solution parity at tight tolerance (modulo the pressure mean).
        sw = SchwarzPreconditioner(case.mesh, pop, variant="fdm")
        cd = CondensedEPreconditioner(case.mesh, pop)
        kw = dict(dot=pop.dot, tol=1e-10, maxiter=3000)
        ps = pcg(pop.matvec, case.rhs, precond=sw, **kw)
        pc = pcg(pop.matvec, case.rhs, precond=cd, **kw)
        assert ps.converged and pc.converged
        a = pop.remove_mean(ps.x)
        b = pop.remove_mean(pc.x)
        assert np.max(np.abs(a - b)) < 1e-7 * max(float(np.max(np.abs(a))), 1e-30)


@pytest.mark.slow
class TestFlowSolverIntegration:
    def test_navier_stokes_with_condensed_tier(self):
        from repro.ns.bcs import VelocityBC
        from repro.ns.navier_stokes import NavierStokesSolver

        L = 2 * np.pi
        mesh = box_mesh_2d(2, 2, 5, x1=L, y1=L, periodic=(True, True))
        sol = NavierStokesSolver(
            mesh, re=50.0, dt=0.02, bc=VelocityBC.none(mesh),
            config=SolverConfig(pressure_variant="condensed"),
        )
        sol.set_initial_condition([
            lambda x, y: -np.cos(x) * np.sin(y),
            lambda x, y: np.sin(x) * np.cos(y),
        ])
        e0 = sol.kinetic_energy()
        sol.advance(3)
        e1 = sol.kinetic_energy()
        assert np.isfinite(e1) and 0 < e1 <= e0 * (1 + 1e-8)
