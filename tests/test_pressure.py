"""Tests for the PN-PN-2 pressure operators D, D^T and E = D B^-1 D^T."""

import re

import numpy as np
import pytest

from repro.backends import available_backends, use_backend
from repro.core.assembly import DirichletMask
from repro.core.mesh import box_mesh_2d, box_mesh_3d, map_mesh
from repro.core.pressure import PressureOperator
from repro.backends.dispatch import apply_1d, apply_tensor
from repro.solvers.cg import pcg
from repro.workloads.hairpin import bump_channel_mesh


@pytest.fixture
def pop2():
    return PressureOperator(box_mesh_2d(3, 2, 5))


class TestShapes:
    def test_pressure_grid_shape(self, pop2):
        assert pop2.p_shape == (6, 4, 4)
        assert pop2.pressure_field().shape == (6, 4, 4)

    def test_order_one_rejected(self):
        with pytest.raises(ValueError):
            PressureOperator(box_mesh_2d(1, 1, 1))

    def test_wrong_component_count(self, pop2):
        with pytest.raises(ValueError):
            pop2.apply_div([np.zeros(pop2.mesh.local_shape)])

    def test_wrong_element_count_names_both_shapes(self, pop2):
        with pytest.raises(ValueError, match=re.escape("(2, 7, 6, 6), expected (2, 6, 6, 6)")):
            pop2.apply_div(np.zeros((2, 7, 6, 6)))
        with pytest.raises(ValueError, match=re.escape("(7, 4, 4), expected (6, 4, 4)")):
            pop2.apply_div_t(np.zeros((7, 4, 4)))

    def test_wrong_out_shapes_name_both_shapes(self, pop2):
        u = np.zeros((2,) + pop2.mesh.local_shape)
        with pytest.raises(ValueError, match=re.escape("(6, 5, 5), expected (6, 4, 4)")):
            pop2.apply_div(u, out=np.empty((6, 5, 5)))
        with pytest.raises(ValueError, match=re.escape("(2, 6, 5, 5), expected (2, 6, 6, 6)")):
            pop2.apply_div_t(pop2.pressure_field(), out=np.empty((2, 6, 5, 5)))


class TestDivergence:
    def test_div_of_divergence_free_field_is_zero(self, pop2):
        m = pop2.mesh
        u = [m.eval_function(lambda x, y: y), m.eval_function(lambda x, y: x)]
        assert np.max(np.abs(pop2.apply_div(u))) < 1e-12

    def test_div_of_linear_field_is_mass(self, pop2):
        # u = (x, 0): div u = 1, so (D u)_q = integral q = bm_p entries.
        m = pop2.mesh
        u = [m.eval_function(lambda x, y: x), m.field()]
        assert np.allclose(pop2.apply_div(u), pop2.bm_p, atol=1e-12)

    def test_div_deformed_polynomial(self):
        m = map_mesh(box_mesh_2d(2, 2, 6), lambda x, y: (x + 0.2 * y, y))
        pop = PressureOperator(m)
        u = [m.eval_function(lambda x, y: x * x), m.field()]
        # div u = 2x; weak form: (D u)_lm = w_lm J_lm 2 x_lm on the GL grid.
        two_x = 2.0 * pop.interp_to_pressure(np.asarray(m.coords[0]))
        assert np.allclose(pop.apply_div(u), pop.bm_p * two_x, atol=1e-10)

    def test_div_3d(self):
        m = box_mesh_3d(2, 1, 1, 4)
        pop = PressureOperator(m)
        u = [
            m.eval_function(lambda x, y, z: x),
            m.eval_function(lambda x, y, z: -0.5 * y),
            m.eval_function(lambda x, y, z: -0.5 * z),
        ]
        assert np.max(np.abs(pop.apply_div(u))) < 1e-12


class TestAdjointness:
    @pytest.mark.parametrize("builder,args", [(box_mesh_2d, (2, 3)), (box_mesh_3d, (2, 1, 2))])
    def test_div_t_is_exact_transpose(self, builder, args):
        m = builder(*args, 4)
        pop = PressureOperator(m)
        rng = np.random.default_rng(0)
        u = [rng.standard_normal(m.local_shape) for _ in range(m.ndim)]
        p = rng.standard_normal(pop.p_shape)
        lhs = float(np.sum(p * pop.apply_div(u)))
        w = pop.apply_div_t(p)
        rhs = sum(float(np.sum(u[c] * w[c])) for c in range(m.ndim))
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_div_t_deformed_adjoint(self):
        m = map_mesh(
            box_mesh_2d(2, 2, 5),
            lambda x, y: (x + 0.1 * np.sin(np.pi * y), y + 0.1 * x * x),
        )
        pop = PressureOperator(m)
        rng = np.random.default_rng(1)
        u = [rng.standard_normal(m.local_shape) for _ in range(2)]
        p = rng.standard_normal(pop.p_shape)
        lhs = float(np.sum(p * pop.apply_div(u)))
        w = pop.apply_div_t(p)
        rhs = sum(float(np.sum(u[c] * w[c])) for c in range(2))
        assert lhs == pytest.approx(rhs, rel=1e-11)


class TestE:
    def test_symmetric(self, pop2):
        rng = np.random.default_rng(2)
        p = rng.standard_normal(pop2.p_shape)
        q = rng.standard_normal(pop2.p_shape)
        assert pop2.dot(q, pop2.apply_e(p)) == pytest.approx(
            pop2.dot(p, pop2.apply_e(q)), rel=1e-10
        )

    def test_positive_semidefinite(self, pop2):
        rng = np.random.default_rng(3)
        for _ in range(5):
            p = rng.standard_normal(pop2.p_shape)
            assert pop2.dot(p, pop2.apply_e(p)) >= -1e-12

    def test_constant_nullspace_enclosed(self, pop2):
        assert pop2.has_nullspace
        ones = np.ones(pop2.p_shape)
        assert np.max(np.abs(pop2.apply_e(ones))) < 1e-10

    def test_no_nullspace_with_open_boundary(self):
        # Leave xmax unconstrained (outflow-like): constants no longer in null(E).
        m = box_mesh_2d(2, 2, 4)
        mask = DirichletMask(m.boundary_mask(["xmin", "ymin", "ymax"]))
        pop = PressureOperator(m, vel_mask=mask)
        assert not pop.has_nullspace

    def test_fully_periodic_has_nullspace(self):
        m = box_mesh_2d(3, 3, 4, periodic=(True, True))
        pop = PressureOperator(m)
        assert pop.has_nullspace

    def test_e_range_orthogonal_to_constants(self, pop2):
        p = np.random.default_rng(4).standard_normal(pop2.p_shape)
        ep = pop2.apply_e(p)
        assert abs(np.sum(ep)) < 1e-8 * np.linalg.norm(ep.ravel()) * ep.size**0.5


class TestESolve:
    def test_cg_recovers_manufactured_pressure(self):
        m = box_mesh_2d(3, 3, 5)
        pop = PressureOperator(m)
        x_p = pop.interp_to_pressure(np.asarray(m.coords[0]))
        y_p = pop.interp_to_pressure(np.asarray(m.coords[1]))
        p_exact = np.cos(np.pi * x_p) * np.cos(np.pi * y_p)
        p_exact -= np.sum(p_exact) / p_exact.size
        g = pop.matvec(p_exact)
        res = pcg(pop.matvec, g, dot=pop.dot, tol=1e-12, maxiter=2000)
        assert res.converged
        diff = res.x - p_exact
        diff -= np.sum(diff) / diff.size
        assert np.max(np.abs(diff)) < 1e-7

    def test_open_boundary_solve_unique(self):
        m = box_mesh_2d(2, 2, 4)
        mask = DirichletMask(m.boundary_mask(["xmin", "ymin", "ymax"]))
        pop = PressureOperator(m, vel_mask=mask)
        rng = np.random.default_rng(5)
        p_exact = rng.standard_normal(pop.p_shape)
        g = pop.matvec(p_exact)
        res = pcg(pop.matvec, g, dot=pop.dot, tol=1e-12, maxiter=4000)
        assert res.converged
        assert np.max(np.abs(res.x - p_exact)) < 1e-5


class TestInterpolation:
    def test_interp_round_trip_low_degree(self, pop2):
        m = pop2.mesh
        u = m.eval_function(lambda x, y: 1.0 + x + y + 0.1 * x * y)
        p = pop2.interp_to_pressure(u)
        back = pop2.interp_to_velocity(p)
        assert np.allclose(back, u, atol=1e-10)

    def test_mean_and_remove_mean(self, pop2):
        p = np.ones(pop2.p_shape) * 3.0
        assert pop2.mean(p) == pytest.approx(3.0)
        q = pop2.remove_mean(p + np.random.default_rng(6).standard_normal(pop2.p_shape))
        # mass-weighted mean is ~0 afterwards
        assert abs(pop2.mean(q)) < 1e-12


def _unfactored_div(pop, u):
    """Reference D: per (c, a), a full derivative along a, then a GLL -> GL
    interpolation along every direction."""
    nd = pop.mesh.ndim
    out = np.zeros(pop.p_shape)
    for c in range(nd):
        for a in range(nd):
            out += pop.wcof[a][c] * apply_tensor([pop.j_down] * nd, apply_1d(pop.d, u[c], a))
    return out


def _unfactored_div_t(pop, p):
    """Reference D^T: the transpose of each (c, a) chain of ``_unfactored_div``."""
    nd = pop.mesh.ndim
    out = np.zeros((nd,) + pop.mesh.local_shape)
    for c in range(nd):
        for a in range(nd):
            lifted = apply_tensor([pop.j_down.T] * nd, pop.wcof[a][c] * p)
            out[c] += apply_1d(np.asarray(pop.d).T, lifted, a)
    return out


EQUIVALENCE_MESHES = {
    "rect2d": lambda: box_mesh_2d(3, 2, 5),
    "bilinear2d": lambda: map_mesh(
        box_mesh_2d(3, 2, 6), lambda x, y: (x + 0.1 * x * y + 0.2 * y, y - 0.15 * x * y + 0.05 * x)
    ),
    "periodic2d": lambda: box_mesh_2d(3, 3, 4, periodic=(True, True)),
    "box3d": lambda: box_mesh_3d(2, 2, 1, 4),
    "bump3d": lambda: bump_channel_mesh(3, 2, 2, order=4),
}


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("kind", sorted(EQUIVALENCE_MESHES))
def test_factored_applies_match_unfactored_chain(kind, backend):
    """The factored stage trees equal the unfactored per-(c, a) chain."""
    mesh = EQUIVALENCE_MESHES[kind]()
    rng = np.random.default_rng(11)
    u = rng.standard_normal((mesh.ndim,) + mesh.local_shape)
    p = rng.standard_normal((mesh.K,) + (mesh.order - 1,) * mesh.ndim)

    def close(got, ref):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    with use_backend(backend):
        pop = PressureOperator(mesh)
        close(pop.apply_div(u), _unfactored_div(pop, u))
        close(pop.apply_div_t(p), _unfactored_div_t(pop, p))
        close(pop.apply_e(p), _unfactored_div(pop, pop.apply_binv(_unfactored_div_t(pop, p))))
