"""Tests for geometric factors on affine and deformed elements."""

import numpy as np
import pytest

from repro.core.element import geometric_factors
from repro.core.mesh import box_mesh_2d, box_mesh_3d, map_mesh


class TestAffine2D:
    def test_jacobian_of_unit_box(self):
        # Element of size hx x hy maps from [-1,1]^2: J = hx*hy/4.
        m = box_mesh_2d(2, 4, 5)  # elements 0.5 x 0.25
        g = geometric_factors(m)
        assert np.allclose(g.jac, 0.5 * 0.25 / 4.0)

    def test_mass_sums_to_area(self):
        m = box_mesh_2d(3, 2, 6, x1=2.0, y1=3.0)
        g = geometric_factors(m)
        assert np.sum(g.bm) == pytest.approx(6.0, rel=1e-12)

    def test_metrics_of_affine_map(self):
        m = box_mesh_2d(2, 2, 4, x1=4.0, y1=2.0)  # hx=2, hy=1
        g = geometric_factors(m)
        # dr/dx = 2/hx = 1, ds/dy = 2/hy = 2; cross terms zero.
        assert np.allclose(g.dxi_dx[0][0], 1.0)
        assert np.allclose(g.dxi_dx[0][1], 0.0)
        assert np.allclose(g.dxi_dx[1][0], 0.0)
        assert np.allclose(g.dxi_dx[1][1], 2.0)

    def test_g_matrix_symmetry_accessor(self):
        m = box_mesh_2d(1, 1, 3)
        g = geometric_factors(m)
        assert g.g_matrix(1, 0) is g.g_matrix(0, 1)


class TestDeformed2D:
    def test_mass_sums_to_deformed_area(self):
        # Map (x,y) -> (x, y*(1+0.5x)): a linear shear; area = int_0^1 (1+0.5x) dx = 1.25.
        m = map_mesh(box_mesh_2d(4, 4, 7), lambda x, y: (x, y * (1 + 0.5 * x)))
        g = geometric_factors(m)
        assert np.sum(g.bm) == pytest.approx(1.25, rel=1e-10)

    def test_smooth_deformation_area_via_quadrature(self):
        # Area under J-weighted quadrature must match the analytic area of the
        # image of [0,1]^2 under (x + eps sin(pi x) sin(pi y), y ...) which
        # preserves area to O(eps^2) only if divergence-free; use exact map:
        # (x, y + 0.1 sin(2 pi x)): shear, area preserved = 1.
        m = map_mesh(box_mesh_2d(3, 3, 8), lambda x, y: (x, y + 0.1 * np.sin(2 * np.pi * x)))
        g = geometric_factors(m)
        assert np.sum(g.bm) == pytest.approx(1.0, rel=1e-8)

    def test_inverted_element_raises(self):
        m = map_mesh(box_mesh_2d(1, 1, 4), lambda x, y: (-x, y))
        with pytest.raises(ValueError, match="Jacobian"):
            geometric_factors(m)

    def test_metric_identity(self):
        # dxi/dx is the matrix inverse of dx/dxi: check via G contraction:
        # sum_a (dxi_a/dx_c)(dx_c/dxi_b) = delta_ab. Verify with jac consistency:
        m = map_mesh(
            box_mesh_2d(2, 2, 6),
            lambda x, y: (x + 0.1 * y * y, y + 0.1 * np.sin(np.pi * x)),
        )
        g = geometric_factors(m)
        from repro.backends.dispatch import apply_1d
        from repro.core.basis import gll_derivative_matrix

        d = gll_derivative_matrix(m.order)
        xr, xs = (apply_1d(d, m.coords[0], a) for a in range(2))
        yr, ys = (apply_1d(d, m.coords[1], a) for a in range(2))
        rx, ry = g.dxi_dx[0]
        sx, sy = g.dxi_dx[1]
        assert np.allclose(rx * xr + ry * yr, 1.0, atol=1e-10)
        assert np.allclose(rx * xs + ry * ys, 0.0, atol=1e-10)
        assert np.allclose(sx * xr + sy * yr, 0.0, atol=1e-10)
        assert np.allclose(sx * xs + sy * ys, 1.0, atol=1e-10)


class TestAffine3D:
    def test_jacobian_and_volume(self):
        m = box_mesh_3d(2, 1, 1, 3, x1=2.0, y1=3.0, z1=4.0)
        g = geometric_factors(m)
        assert np.allclose(g.jac, (1.0 * 3.0 * 4.0) / 8.0)
        assert np.sum(g.bm) == pytest.approx(24.0, rel=1e-12)

    def test_metrics_diagonal(self):
        m = box_mesh_3d(1, 1, 1, 2, x1=2.0)
        g = geometric_factors(m)
        assert np.allclose(g.dxi_dx[0][0], 1.0)  # dr/dx = 2/2
        assert np.allclose(g.dxi_dx[1][1], 2.0)  # ds/dy = 2/1
        assert np.allclose(g.dxi_dx[2][2], 2.0)
        for a in range(3):
            for c in range(3):
                if a != c:
                    assert np.allclose(g.dxi_dx[a][c], 0.0, atol=1e-13)


class TestDeformed3D:
    def test_volume_of_sheared_box(self):
        # Volume-preserving shear (x, y + 0.2 sin(2 pi x), z + 0.1 x y): J has det 1 scale.
        m = map_mesh(
            box_mesh_3d(2, 2, 2, 5),
            lambda x, y, z: (x, y + 0.2 * np.sin(2 * np.pi * x), z + 0.1 * x * y),
        )
        g = geometric_factors(m)
        assert np.sum(g.bm) == pytest.approx(1.0, rel=1e-8)

    def test_metric_inverse_identity_3d(self):
        m = map_mesh(
            box_mesh_3d(1, 1, 1, 4),
            lambda x, y, z: (x + 0.05 * y * z, y + 0.05 * z * x, z + 0.05 * x * y),
        )
        g = geometric_factors(m)
        from repro.backends.dispatch import apply_1d
        from repro.core.basis import gll_derivative_matrix

        d = gll_derivative_matrix(m.order)
        dx, dy, dz = ([apply_1d(d, c, a) for a in range(3)] for c in m.coords)
        for a in range(3):
            for b in range(3):
                acc = (
                    g.dxi_dx[a][0] * dx[b] + g.dxi_dx[a][1] * dy[b] + g.dxi_dx[a][2] * dz[b]
                )
                assert np.allclose(acc, 1.0 if a == b else 0.0, atol=1e-10)

    def test_g_packing_3d(self):
        m = box_mesh_3d(1, 1, 1, 2)
        g = geometric_factors(m)
        assert len(g.g) == 6
        assert g.g_matrix(2, 0) is g.g_matrix(0, 2)
