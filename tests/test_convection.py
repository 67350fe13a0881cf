"""Tests for the convection operator and OIFS sub-integration."""

import numpy as np
import pytest

from repro.core.assembly import Assembler
from repro.core.element import geometric_factors
from repro.core.mesh import box_mesh_2d, box_mesh_3d, map_mesh
from repro.ns.convection import Convection, courant_number


def make_conv(mesh):
    geom = geometric_factors(mesh)
    return Convection(mesh, geom, Assembler.for_mesh(mesh)), geom


class TestGradPhys:
    def test_linear_field(self):
        m = box_mesh_2d(3, 2, 5, x1=2.0)
        conv, _ = make_conv(m)
        v = m.eval_function(lambda x, y: 3 * x - 2 * y)
        gx, gy = conv.grad_phys(v)
        assert np.allclose(gx, 3.0, atol=1e-10)
        assert np.allclose(gy, -2.0, atol=1e-10)

    def test_deformed_mesh_polynomial(self):
        m = map_mesh(box_mesh_2d(2, 2, 7), lambda x, y: (x + 0.2 * y, y))
        conv, _ = make_conv(m)
        v = np.asarray(m.coords[0]) ** 2  # v = x^2 in physical coords
        gx, gy = conv.grad_phys(v)
        assert np.allclose(gx, 2 * np.asarray(m.coords[0]), atol=1e-9)
        assert np.allclose(gy, 0.0, atol=1e-9)

    def test_3d_gradient(self):
        m = box_mesh_3d(2, 1, 1, 4)
        conv, _ = make_conv(m)
        v = m.eval_function(lambda x, y, z: x * y + z)
        g = conv.grad_phys(v)
        assert np.allclose(g[0], np.asarray(m.coords[1]), atol=1e-10)
        assert np.allclose(g[1], np.asarray(m.coords[0]), atol=1e-10)
        assert np.allclose(g[2], 1.0, atol=1e-10)


class TestAdvect:
    def test_constant_advection_of_linear_field(self):
        m = box_mesh_2d(2, 2, 5)
        conv, _ = make_conv(m)
        w = [np.full(m.local_shape, 2.0), np.full(m.local_shape, -1.0)]
        v = m.eval_function(lambda x, y: x + 4 * y)
        assert np.allclose(conv.advect(w, v), 2 * 1 + (-1) * 4, atol=1e-10)

    def test_advect_stacked_fields(self):
        m = box_mesh_2d(2, 2, 4)
        conv, _ = make_conv(m)
        w = np.stack([m.eval_function(lambda x, y: y), m.eval_function(lambda x, y: -x)])
        outs = conv.advect(w, w)
        assert outs.shape == w.shape
        # (w.grad)w for solid rotation: centripetal: (-x, -y)
        assert np.allclose(outs[0], -np.asarray(m.coords[0]), atol=1e-9)
        assert np.allclose(outs[1], -np.asarray(m.coords[1]), atol=1e-9)
        # The stacked call is bitwise the per-field one.
        for c in range(2):
            assert np.array_equal(outs[c], conv.advect(w, w[c]))


class TestCourant:
    def test_uniform_flow_cfl(self):
        m = box_mesh_2d(4, 4, 6)
        conv, geom = make_conv(m)
        u = [np.ones(m.local_shape), np.zeros(m.local_shape)]
        from repro.core.quadrature import gll_points

        dx_ref = np.min(np.diff(gll_points(6)))
        # |u_r| = u * dr/dx = 1 * (2/h) with h = 0.25
        expect = 0.1 * (2 / 0.25) / dx_ref
        assert courant_number(m, geom, u, 0.1) == pytest.approx(expect, rel=1e-12)

    def test_zero_velocity(self):
        m = box_mesh_2d(2, 2, 4)
        conv, geom = make_conv(m)
        u = [np.zeros(m.local_shape)] * 2
        assert courant_number(m, geom, u, 1.0) == 0.0


class TestOIFS:
    def test_uniform_translation_periodic(self):
        """Advect a smooth wave by a constant field over one OIFS-style
        interval (a fraction of the period) with well-resolved substeps:
        spectral-in-space, RK4-in-time accuracy."""
        L = 1.0
        m = box_mesh_2d(6, 1, 8, x1=L, periodic=(True, False))
        conv, _ = make_conv(m)
        c = 1.0
        w = [np.full(m.local_shape, c), np.zeros(m.local_shape)]
        v0 = m.eval_function(lambda x, y: np.sin(2 * np.pi * x) + 0 * y)
        dist = 0.1
        out = conv.oifs_integrate([v0], lambda s: w, 0.0, dist / c, n_steps=40)[0]
        x = np.asarray(m.coords[0])
        exact = np.sin(2 * np.pi * (x - dist))
        assert np.max(np.abs(out - exact)) < 1e-6

    def test_translation_partial_distance(self):
        L = 1.0
        m = box_mesh_2d(6, 1, 9, x1=L, periodic=(True, False))
        conv, _ = make_conv(m)
        w = [np.full(m.local_shape, 1.0), np.zeros(m.local_shape)]
        v0 = m.eval_function(lambda x, y: np.cos(2 * np.pi * x) + 0 * y)
        dist = 0.25
        out = conv.oifs_integrate([v0], lambda s: w, 0.0, dist, n_steps=100)[0]
        x = np.asarray(m.coords[0])
        exact = np.cos(2 * np.pi * (x - dist))
        assert np.max(np.abs(out - exact)) < 1e-6

    def test_time_dependent_advecting_field(self):
        """w(s) = s * c: displacement integral s^2/2 * c."""
        m = box_mesh_2d(6, 1, 8, periodic=(True, False))
        conv, _ = make_conv(m)

        def w_of_t(s):
            return [np.full(m.local_shape, 2.0 * s), np.zeros(m.local_shape)]

        v0 = m.eval_function(lambda x, y: np.sin(2 * np.pi * x) + 0 * y)
        out = conv.oifs_integrate([v0], w_of_t, 0.0, 0.5, n_steps=40)[0]
        x = np.asarray(m.coords[0])
        exact = np.sin(2 * np.pi * (x - 0.25))  # integral of 2s over [0, .5]
        assert np.max(np.abs(out - exact)) < 1e-4

    def test_multiple_fields_advected_together(self):
        m = box_mesh_2d(4, 1, 7, periodic=(True, False))
        conv, _ = make_conv(m)
        w = [np.full(m.local_shape, 1.0), np.zeros(m.local_shape)]
        v0 = m.eval_function(lambda x, y: np.sin(2 * np.pi * x) + 0 * y)
        v1 = m.eval_function(lambda x, y: np.cos(4 * np.pi * x) + 0 * y)
        o0, o1 = conv.oifs_integrate([v0, v1], lambda s: w, 0.0, 0.1, n_steps=10)
        x = np.asarray(m.coords[0])
        assert np.max(np.abs(o0 - np.sin(2 * np.pi * (x - 0.1)))) < 1e-4
        assert np.max(np.abs(o1 - np.cos(4 * np.pi * (x - 0.1)))) < 1e-3

    def test_invalid_steps(self):
        m = box_mesh_2d(2, 1, 4)
        conv, _ = make_conv(m)
        with pytest.raises(ValueError):
            conv.oifs_integrate([m.field()], lambda s: [m.field()] * 2, 0, 1, 0)

    def test_rk4_convergence_order(self):
        """Halving the substep cuts the error by >= ~16x once inside the
        RK4 stability region (the collocated spectral derivative is stiff,
        so the asymptotic range starts at a substep CFL well below one)."""
        m = box_mesh_2d(4, 1, 6, periodic=(True, False))
        conv, _ = make_conv(m)

        def w_of_t(s):
            return [np.full(m.local_shape, 1.0 + np.sin(3 * s)), np.zeros(m.local_shape)]

        v0 = m.eval_function(lambda x, y: np.sin(2 * np.pi * x) + 0 * y)
        ref = conv.oifs_integrate([v0], w_of_t, 0.0, 0.3, n_steps=256)[0]
        e1 = np.max(np.abs(conv.oifs_integrate([v0], w_of_t, 0.0, 0.3, 16)[0] - ref))
        e2 = np.max(np.abs(conv.oifs_integrate([v0], w_of_t, 0.0, 0.3, 32)[0] - ref))
        assert e2 < e1 / 8.0
