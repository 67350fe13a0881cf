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
        out = conv.oifs_integrate(
            [v0], lambda s: conv.contravariant(w), 0.0, dist / c, n_steps=40
        )[0]
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
        out = conv.oifs_integrate(
            [v0], lambda s: conv.contravariant(w), 0.0, dist, n_steps=100
        )[0]
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
        out = conv.oifs_integrate(
            [v0], lambda s: conv.contravariant(w_of_t(s)), 0.0, 0.5, n_steps=40
        )[0]
        x = np.asarray(m.coords[0])
        exact = np.sin(2 * np.pi * (x - 0.25))  # integral of 2s over [0, .5]
        assert np.max(np.abs(out - exact)) < 1e-4

    def test_multiple_fields_advected_together(self):
        m = box_mesh_2d(4, 1, 7, periodic=(True, False))
        conv, _ = make_conv(m)
        w = [np.full(m.local_shape, 1.0), np.zeros(m.local_shape)]
        v0 = m.eval_function(lambda x, y: np.sin(2 * np.pi * x) + 0 * y)
        v1 = m.eval_function(lambda x, y: np.cos(4 * np.pi * x) + 0 * y)
        o0, o1 = conv.oifs_integrate(
            [v0, v1], lambda s: conv.contravariant(w), 0.0, 0.1, n_steps=10
        )
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

        def wr_of_t(s):
            return conv.contravariant(w_of_t(s))

        v0 = m.eval_function(lambda x, y: np.sin(2 * np.pi * x) + 0 * y)
        ref = conv.oifs_integrate([v0], wr_of_t, 0.0, 0.3, n_steps=256)[0]
        e1 = np.max(np.abs(conv.oifs_integrate([v0], wr_of_t, 0.0, 0.3, 16)[0] - ref))
        e2 = np.max(np.abs(conv.oifs_integrate([v0], wr_of_t, 0.0, 0.3, 32)[0] - ref))
        assert e2 < e1 / 8.0


# ---------------------------------------------------------------------------
# The reference-coordinate operator against the physical-coordinate form.
# ---------------------------------------------------------------------------
def _advect_physical(conv, w, v):
    """``sum_c w_c (grad_phys v)_c`` — the metric applied per advected field."""
    g = conv.grad_phys(v)
    return sum(w[c] * g[c] for c in range(len(g)))


def _rk4_physical(conv, v0, w_of_t, t_start, t_end, n_steps, boundary_fix=None):
    """RK4 on ``dv/ds = -(w(s) . grad) v`` in physical coordinates, with four
    ``w(s)`` evaluations per substep."""
    h = (t_end - t_start) / n_steps
    v = np.array(v0, dtype=float)

    def rhs(fields, tt):
        w = w_of_t(tt)
        return -np.stack([_advect_physical(conv, w, f) for f in fields])

    for s in range(n_steps):
        t = t_start + s * h
        k1 = rhs(v, t)
        k2 = rhs(v + 0.5 * h * k1, t + 0.5 * h)
        k3 = rhs(v + 0.5 * h * k2, t + 0.5 * h)
        k4 = rhs(v + h * k3, t + h)
        v = conv.assembler.dsavg(v + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4))
        if boundary_fix is not None:
            v = boundary_fix(v, t + h)
    return v


def _lagrange(times, levels):
    """``s -> sum_i l_i(s) levels[i]`` over the history ``times``."""

    def at(s):
        out = 0.0
        for i, ti in enumerate(times):
            c = np.prod([(s - tj) / (ti - tj) for j, tj in enumerate(times) if j != i])
            out = out + c * levels[i]
        return out

    return at


def _deformed_2d():
    base = box_mesh_2d(3, 3, 6, x1=2.0)
    return map_mesh(base, lambda x, y: (x + 0.15 * x * y, y + 0.1 * x * y))


def _hairpin_mesh():
    from repro.workloads.hairpin import bump_channel_mesh

    return bump_channel_mesh(3, 2, 2, order=5)


def _velocity(m, phase):
    """A smooth, mesh-filling velocity stack (C0, through-flow in x)."""
    x = [np.asarray(c) for c in m.coords]
    u = [1.0 + 0.3 * np.sin(x[1] + phase) * np.cos(0.7 * x[0])]
    u += [0.2 * np.cos(x[0] - phase + 0.5 * c) * (1 + x[-1]) for c in range(1, m.ndim)]
    return np.stack(u)


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


MESHES = {
    "deformed2d": _deformed_2d,
    "box3d": lambda: box_mesh_3d(2, 2, 2, 5, x1=1.5, z1=0.8),
    "hairpin3d": _hairpin_mesh,
}


class TestReferenceForm:
    @pytest.mark.parametrize("name", sorted(MESHES))
    def test_advect_matches_physical_form(self, name):
        m = MESHES[name]()
        conv, _ = make_conv(m)
        w = _velocity(m, 0.3)
        v = _velocity(m, 1.1)
        out = conv.advect(w, v)
        ref = np.stack([_advect_physical(conv, w, f) for f in v])
        assert _rel(out, ref) < 1e-12

    def test_contravariant_is_the_metric_contraction(self):
        m = _hairpin_mesh()
        conv, geom = make_conv(m)
        w = _velocity(m, 0.4)
        wr = conv.contravariant(w)
        for a in range(3):
            ref = sum(geom.dxi_dx[a][c] * w[c] for c in range(3))
            assert np.array_equal(wr[a], ref)

    @pytest.mark.parametrize("levels", [2, 3])
    @pytest.mark.parametrize("name", ["deformed2d", "hairpin3d"])
    def test_oifs_matches_physical_rk4(self, name, levels):
        """A Lagrange history of ``levels`` velocities advecting the oldest
        level up to the new time, through-flow Dirichlet data re-imposed
        after every substep."""
        from repro.ns.bcs import VelocityBC

        m = MESHES[name]()
        conv, _ = make_conv(m)
        dt = 0.02
        if m.ndim == 2:
            bc = VelocityBC(m, {"xmin": (lambda x, y, t: 1.0 + t + 0 * y, 0.0),
                                "ymin": (0.0, 0.0), "ymax": (0.0, 0.0)})
        else:
            bc = VelocityBC(m, {"zmin": (0.0, 0.0, 0.0), "zmax": (1.0, 0.0, 0.0)})
        times = [-q * dt for q in range(levels)]
        hist = [bc.apply_to(conv.assembler.dsavg(_velocity(m, 0.2 * q)), t)
                for q, t in enumerate(times)]
        w_of_t = _lagrange(times, hist)
        wr_of_t = _lagrange(times, [conv.contravariant(u) for u in hist])
        args = (times[-1], times[0] + dt, 3 * levels)
        out = conv.oifs_integrate(hist[-1], wr_of_t, *args, boundary_fix=bc.apply_to)
        ref = _rk4_physical(conv, hist[-1], w_of_t, *args, boundary_fix=bc.apply_to)
        assert _rel(out, ref) < 1e-11

    def test_stepper_interpolant_is_the_contracted_lagrange_field(self):
        """The stepper's ``W(s)`` combines per-level ``W_i`` exactly as the
        physical ``w(s)`` combines the levels."""
        from repro.ns.navier_stokes import NavierStokesSolver

        m = _deformed_2d()
        sol = NavierStokesSolver(m, re=100.0, dt=0.01, scheme=3)
        sol._u_hist = [_velocity(m, 0.1 * q) for q in range(3)]
        sol._t_hist = [0.0, -0.01, -0.02]
        wr_of_t = sol._advecting_field_interpolant()
        w_of_t = _lagrange(sol._t_hist, sol._u_hist)
        for s in (-0.02, -0.005, 0.0, 0.004, 0.01):
            assert _rel(wr_of_t(s), sol.conv.contravariant(w_of_t(s))) < 1e-13
