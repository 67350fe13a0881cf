"""Tests for the vertex-mesh coarse operator A_0 and the R_0 transfers."""

import numpy as np
import pytest

from repro.core.mesh import box_mesh_2d, box_mesh_3d, map_mesh
from repro.core.pressure import PressureOperator
from repro.solvers.coarse import (
    CoarseOperator,
    assemble_vertex_laplacian,
    bilinear_element_stiffness,
    element_corner_coords,
)


class TestCorners:
    def test_corner_coords_2d(self):
        m = box_mesh_2d(2, 1, 3, x1=2.0)
        c = element_corner_coords(m)
        assert c.shape == (2, 4, 2)
        # Element 0 corners: (0,0), (1,0), (0,1), (1,1) in (t,s,r)-lex order.
        assert np.allclose(c[0], [[0, 0], [1, 0], [0, 1], [1, 1]])

    def test_corner_coords_3d(self):
        m = box_mesh_3d(1, 1, 1, 2, x1=2, y1=3, z1=4)
        c = element_corner_coords(m)
        assert c.shape == (1, 8, 3)
        assert np.allclose(c[0, 0], [0, 0, 0])
        assert np.allclose(c[0, 7], [2, 3, 4])
        assert np.allclose(c[0, 1], [2, 0, 0])  # r-bit fastest
        assert np.allclose(c[0, 4], [0, 0, 4])  # t-bit slowest


class TestElementStiffness:
    def test_unit_square_known_matrix(self):
        # Bilinear Laplacian on the unit square: diag 2/3, opposite -1/3, adj -1/6.
        corners = np.array([[[0, 0], [1, 0], [0, 1], [1, 1]]], dtype=float)
        a = bilinear_element_stiffness(corners)[0]
        assert np.allclose(np.diag(a), 2.0 / 3.0)
        assert a[0, 3] == pytest.approx(-1.0 / 3.0)
        assert a[0, 1] == pytest.approx(-1.0 / 6.0)
        assert np.allclose(a.sum(axis=1), 0.0, atol=1e-14)

    def test_rowsums_zero_deformed(self):
        corners = np.array([[[0, 0], [1.2, 0.1], [-0.1, 1.0], [1.0, 1.3]]])
        a = bilinear_element_stiffness(corners)[0]
        assert np.allclose(a, a.T)
        assert np.allclose(a.sum(axis=1), 0.0, atol=1e-13)

    def test_unit_cube_trilinear(self):
        corners = np.zeros((1, 8, 3))
        for v in range(8):
            corners[0, v] = [(v >> 0) & 1, (v >> 1) & 1, (v >> 2) & 1]
        a = bilinear_element_stiffness(corners)[0]
        assert np.allclose(np.diag(a), 1.0 / 3.0)
        assert np.allclose(a.sum(axis=1), 0.0, atol=1e-13)

    def test_inverted_rejected(self):
        corners = np.array([[[0, 0], [-1.0, 0], [0, 1], [-1, 1]]], dtype=float)
        with pytest.raises(ValueError):
            bilinear_element_stiffness(corners)


class TestVertexLaplacian:
    def test_assembled_matches_five_point_scale(self):
        # Uniform h: assembled bilinear FEM Laplacian has diag 8/3 at interior.
        m = box_mesh_2d(3, 3, 2, x1=3.0, y1=3.0)  # h = 1 elements
        a0 = assemble_vertex_laplacian(m)
        assert a0.shape == (16, 16)
        interior = [5, 6, 9, 10]
        for i in interior:
            assert a0[i, i] == pytest.approx(8.0 / 3.0)
        assert np.allclose(np.asarray(a0.sum(axis=1)).ravel(), 0.0, atol=1e-13)

    def test_spd_after_pinning(self):
        m = box_mesh_2d(3, 2, 3)
        pop = PressureOperator(m)
        co = CoarseOperator(m, pop)
        a = co.a0.toarray()
        assert np.allclose(a, a.T, atol=1e-12)
        assert np.linalg.eigvalsh(a).min() > 0


class TestCoarseOperator:
    def test_restrict_prolong_adjoint(self):
        m = box_mesh_2d(3, 2, 5)
        pop = PressureOperator(m)
        co = CoarseOperator(m, pop)
        rng = np.random.default_rng(0)
        r = rng.standard_normal(pop.p_shape)
        x0 = rng.standard_normal(m.n_vertices)
        assert np.dot(co.restrict(r), x0) == pytest.approx(
            float(np.sum(r * co.prolong(x0))), rel=1e-12
        )

    def test_prolong_of_linear_vertex_field_interpolates(self):
        m = box_mesh_2d(2, 2, 4)
        pop = PressureOperator(m)
        co = CoarseOperator(m, pop)
        # vertex values = x-coordinate -> prolong = x at Gauss points.
        vx = np.zeros(m.n_vertices)
        corners = element_corner_coords(m)
        for k in range(m.K):
            for v in range(4):
                vx[m.vertex_ids[k, v]] = corners[k, v, 0]
        p = co.prolong(vx)
        x_gl = pop.interp_to_pressure(np.asarray(m.coords[0]))
        assert np.allclose(p, x_gl, atol=1e-12)

    def test_apply_symmetric_psd(self):
        m = box_mesh_2d(3, 3, 4)
        pop = PressureOperator(m)
        co = CoarseOperator(m, pop)
        rng = np.random.default_rng(1)
        p = rng.standard_normal(pop.p_shape)
        q = rng.standard_normal(pop.p_shape)
        assert float(np.sum(q * co.apply(p))) == pytest.approx(
            float(np.sum(p * co.apply(q))), rel=1e-10
        )
        assert float(np.sum(p * co.apply(p))) >= -1e-12

    def test_dirichlet_vertices_respected(self):
        m = box_mesh_2d(3, 2, 4)
        pop = PressureOperator(m)
        dmask = np.zeros(m.n_vertices, dtype=bool)
        dmask[:4] = True
        co = CoarseOperator(m, pop, dirichlet_vertices=dmask)
        b = np.random.default_rng(2).standard_normal(m.n_vertices)
        x = co.solve_vertex(b)
        assert np.allclose(x[:4], 0.0)

    def test_3d_apply_runs(self):
        m = box_mesh_3d(2, 2, 1, 3)
        pop = PressureOperator(m)
        co = CoarseOperator(m, pop)
        r = np.random.default_rng(3).standard_normal(pop.p_shape)
        out = co.apply(r)
        assert out.shape == pop.p_shape
        assert np.all(np.isfinite(out))

    def test_3d_restrict_prolong_adjoint(self):
        m = box_mesh_3d(2, 1, 2, 4)
        pop = PressureOperator(m)
        co = CoarseOperator(m, pop)
        rng = np.random.default_rng(4)
        r = rng.standard_normal(pop.p_shape)
        x0 = rng.standard_normal(m.n_vertices)
        assert np.dot(co.restrict(r), x0) == pytest.approx(
            float(np.sum(r * co.prolong(x0))), rel=1e-12
        )

    def test_deformed_mesh_coarse_runs(self):
        m = map_mesh(box_mesh_2d(3, 3, 4), lambda x, y: (x + 0.1 * np.sin(np.pi * y), y))
        pop = PressureOperator(m)
        co = CoarseOperator(m, pop)
        r = np.random.default_rng(5).standard_normal(pop.p_shape)
        assert np.all(np.isfinite(co.apply(r)))


def assemble_r0(mesh, pop):
    """Sparse ``R_0`` (n_vertices x n_pressure) built entry by entry from the
    1-D corner hats at the Gauss points — the reference for the GEMM form."""
    import scipy.sparse as sp

    from repro.core.quadrature import gauss_legendre

    gl, _ = gauss_legendre(pop.m)
    hat = [0.5 * (1.0 - gl), 0.5 * (1.0 + gl)]  # left / right corner
    nd, m = mesh.ndim, pop.m
    rows, cols, vals = [], [], []
    for k in range(mesh.K):
        for corner in range(2**nd):
            bits = [(corner >> d) & 1 for d in range(nd)]  # r-bit fastest
            for point in np.ndindex(*(m,) * nd):  # (t, s, r) order
                w = 1.0
                for axis, idx in enumerate(point):
                    w *= hat[bits[nd - 1 - axis]][idx]
                rows.append(mesh.vertex_ids[k, corner])
                cols.append(np.ravel_multi_index((k,) + point, pop.p_shape))
                vals.append(w)
    n_p = int(np.prod(pop.p_shape))
    return sp.csr_matrix((vals, (rows, cols)), shape=(mesh.n_vertices, n_p))


class TestTransferMatchesAssembledR0:
    @pytest.mark.parametrize(
        "make_mesh",
        [
            lambda: box_mesh_2d(3, 2, 5),
            lambda: box_mesh_2d(3, 3, 4, periodic=(True, False)),
            lambda: map_mesh(
                box_mesh_2d(3, 3, 4), lambda x, y: (x + 0.1 * np.sin(np.pi * y), y)
            ),
            lambda: box_mesh_3d(2, 2, 2, 4),
            lambda: box_mesh_3d(3, 2, 2, 3, periodic=(True, False, False)),
        ],
        ids=["2d", "2d-periodic-x", "2d-deformed", "3d", "3d-periodic-x"],
    )
    def test_restrict_prolong_equal_sparse_r0(self, make_mesh):
        m = make_mesh()
        pop = PressureOperator(m)
        co = CoarseOperator(m, pop)
        r0 = assemble_r0(m, pop)
        rng = np.random.default_rng(8)
        r = rng.standard_normal(pop.p_shape)
        x0 = rng.standard_normal(m.n_vertices)
        assert np.allclose(co.restrict(r), r0 @ r.ravel(), rtol=0, atol=1e-13)
        assert np.allclose(
            co.prolong(x0), (r0.T @ x0).reshape(pop.p_shape), rtol=0, atol=1e-13
        )

    def test_transfer_is_unmasked_solve_is_masked(self):
        m = box_mesh_2d(3, 2, 4)
        pop = PressureOperator(m)
        dmask = np.zeros(m.n_vertices, dtype=bool)
        dmask[[0, 5]] = True
        co = CoarseOperator(m, pop, dirichlet_vertices=dmask)
        r = np.random.default_rng(9).standard_normal(pop.p_shape)
        b0 = co.restrict(r)
        assert np.all(b0[dmask] != 0.0)  # the transfer does not mask
        x = co.solve_vertex(b0)
        assert np.all(x[dmask] == 0.0)
        free = ~dmask
        a_ff = co.a0.toarray()[np.ix_(free, free)]
        assert np.allclose(x[free], np.linalg.solve(a_ff, b0[free]), atol=1e-12)
