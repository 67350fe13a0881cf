"""Tests for direct-stiffness summation and Dirichlet masks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.assembly import Assembler, DirichletMask
from repro.core.mesh import box_mesh_2d, box_mesh_3d


@pytest.fixture
def mesh2():
    return box_mesh_2d(3, 2, 4)


class TestAssembler:
    def test_multiplicity(self, mesh2):
        a = Assembler.for_mesh(mesh2)
        assert a.multiplicity.min() == 1.0
        assert a.multiplicity.max() == 4.0  # interior cross point of 2x2 block

    def test_dssum_constant_scales_by_multiplicity(self, mesh2):
        a = Assembler.for_mesh(mesh2)
        u = np.ones(mesh2.local_shape)
        assert np.allclose(a.dssum(u), a.multiplicity)

    def test_dsavg_idempotent(self, mesh2):
        a = Assembler.for_mesh(mesh2)
        u = np.random.default_rng(0).standard_normal(mesh2.local_shape)
        v = a.dsavg(u)
        assert np.allclose(a.dsavg(v), v)
        assert a.is_continuous(v)

    def test_dssum_is_qqt(self, mesh2):
        a = Assembler.for_mesh(mesh2)
        u = np.random.default_rng(1).standard_normal(mesh2.local_shape)
        assert np.allclose(a.dssum(u), a.scatter(a.gather(u)))

    def test_gather_scatter_roundtrip_on_global(self, mesh2):
        a = Assembler.for_mesh(mesh2)
        g = np.random.default_rng(2).standard_normal(a.n_global)
        # scatter then gather multiplies by multiplicity per dof.
        got = a.gather(a.scatter(g))
        mult_g = np.bincount(a.global_ids.ravel(), minlength=a.n_global)
        assert np.allclose(got, g * mult_g)

    def test_dot_counts_unique_dofs_once(self, mesh2):
        a = Assembler.for_mesh(mesh2)
        u = a.scatter(np.random.default_rng(3).standard_normal(a.n_global))
        v = a.scatter(np.random.default_rng(4).standard_normal(a.n_global))
        gu, gv = a.gather(u * a._inv_mult), a.gather(v * a._inv_mult)
        assert a.dot(u, v) == pytest.approx(float(np.dot(gu, gv)))

    def test_norm_matches_global_norm(self, mesh2):
        a = Assembler.for_mesh(mesh2)
        g = np.random.default_rng(5).standard_normal(a.n_global)
        u = a.scatter(g)
        assert a.norm(u) == pytest.approx(np.linalg.norm(g))

    def test_dsmax_dsmin(self, mesh2):
        a = Assembler.for_mesh(mesh2)
        u = np.random.default_rng(6).standard_normal(mesh2.local_shape)
        mx, mn = a.dsmax(u), a.dsmin(u)
        assert np.all(mx >= u - 1e-15)
        assert np.all(mn <= u + 1e-15)
        assert a.is_continuous(mx) and a.is_continuous(mn)

    def test_3d_dssum_symmetric_adjoint(self):
        m = box_mesh_3d(2, 2, 1, 2)
        a = Assembler.for_mesh(m)
        u = np.random.default_rng(7).standard_normal(m.local_shape)
        v = np.random.default_rng(8).standard_normal(m.local_shape)
        # QQ^T is symmetric wrt the plain (redundant) dot product.
        assert np.sum(a.dssum(u) * v) == pytest.approx(np.sum(u * a.dssum(v)))

    def test_vertex_assembler(self, mesh2):
        a = Assembler.for_vertices(mesh2)
        assert a.n_global == mesh2.n_vertices

    def test_non_compressed_ids_raise(self):
        with pytest.raises(ValueError):
            Assembler(np.array([0, 2, 3]))  # id 1 missing

    @pytest.mark.parametrize("mesh", [
        box_mesh_2d(3, 2, 4),
        box_mesh_3d(2, 2, 1, 3),
        box_mesh_2d(3, 3, 4, periodic=(True, True)),
        box_mesh_3d(2, 2, 2, 3, periodic=(True, False, True)),
    ], ids=["2d", "3d", "2d-periodic", "3d-periodic"])
    @pytest.mark.parametrize("m", [2, 3])
    def test_stacked_fields_bitwise_equal_per_field_calls(self, mesh, m):
        a = Assembler.for_mesh(mesh)
        u = np.random.default_rng(m).standard_normal((m,) + mesh.local_shape)
        per_field = np.stack([a.dssum(f) for f in u])
        assert np.array_equal(a.dssum(u), per_field)
        out = np.empty_like(u)
        assert a.dssum(u, out=out) is out
        assert np.array_equal(out, per_field)
        assert np.array_equal(a.dsavg(u), np.stack([a.dsavg(f) for f in u]))

    def test_field_of_wrong_size_raises(self, mesh2):
        a = Assembler.for_mesh(mesh2)
        for bad in (np.zeros((2, 5)), np.zeros(a.global_ids.size + 1)):
            with pytest.raises(ValueError):
                a.dssum(bad)


class TestDirichletMask:
    def test_apply_zeroes_constrained(self, mesh2):
        mask = DirichletMask(mesh2.boundary_mask())
        u = np.ones(mesh2.local_shape)
        v = mask.apply(u)
        assert np.all(v[mask.constrained] == 0)
        assert np.all(v[~mask.constrained] == 1)

    def test_none_mask(self, mesh2):
        mask = DirichletMask.none(mesh2.local_shape)
        u = np.random.default_rng(0).standard_normal(mesh2.local_shape)
        assert np.array_equal(mask.apply(u), u)
        assert mask.n_constrained == 0

    def test_union(self, mesh2):
        m1 = DirichletMask(mesh2.boundary["xmin"])
        m2 = DirichletMask(mesh2.boundary["xmax"])
        m = m1 | m2
        assert m.n_constrained == m1.n_constrained + m2.n_constrained

    def test_apply_inplace(self, mesh2):
        mask = DirichletMask(mesh2.boundary_mask())
        u = np.ones(mesh2.local_shape)
        out = mask.apply_inplace(u)
        assert out is u
        assert u[mask.constrained].sum() == 0


@settings(max_examples=20, deadline=None)
@given(
    nex=st.integers(1, 3),
    ney=st.integers(1, 3),
    order=st.integers(1, 5),
    seed=st.integers(0, 10**6),
)
def test_dssum_preserves_continuous_fields_weighted(nex, ney, order, seed):
    """dssum(u / mult) == u for any continuous u (QQ^T W = I on range of Q)."""
    m = box_mesh_2d(nex, ney, order)
    a = Assembler.for_mesh(m)
    g = np.random.default_rng(seed).standard_normal(a.n_global)
    u = a.scatter(g)
    assert np.allclose(a.dssum(u * a._inv_mult), u)
