"""Tests for variable-coefficient diffusion."""

import numpy as np
import pytest

from repro.core.assembly import Assembler, DirichletMask
from repro.core.element import geometric_factors
from repro.core.mesh import box_mesh_2d, box_mesh_3d
from repro.core.operators import (
    LaplaceOperator,
    MassOperator,
    SEMSystem,
)
from repro.solvers.cg import pcg
from repro.solvers.jacobi import jacobi_preconditioner


class TestVariableCoefficient:
    def test_constant_coeff_matches_scaled_laplacian(self):
        m = box_mesh_2d(2, 2, 5)
        geom = geometric_factors(m)
        lap = LaplaceOperator(m, geom)
        lap2 = LaplaceOperator(m, geom, coeff=np.full(m.local_shape, 2.5))
        u = np.random.default_rng(0).standard_normal(m.local_shape)
        assert np.allclose(lap2.apply(u), 2.5 * lap.apply(u), atol=1e-12)
        assert np.allclose(lap2.diagonal(), 2.5 * lap.diagonal(), atol=1e-12)

    def test_symmetry_with_variable_coeff(self):
        m = box_mesh_2d(2, 2, 4)
        geom = geometric_factors(m)
        nu = m.eval_function(lambda x, y: 1.0 + 0.5 * np.sin(np.pi * x) * y)
        lap = LaplaceOperator(m, geom, coeff=nu)
        rng = np.random.default_rng(1)
        u, v = rng.standard_normal((2,) + m.local_shape)
        assert float(np.sum(v * lap.apply(u))) == pytest.approx(
            float(np.sum(u * lap.apply(v))), rel=1e-11
        )

    def test_invalid_coeff(self):
        m = box_mesh_2d(2, 2, 3)
        with pytest.raises(ValueError):
            LaplaceOperator(m, coeff=np.zeros(m.local_shape))
        with pytest.raises(ValueError):
            LaplaceOperator(m, coeff=np.ones(3))

    def test_manufactured_variable_coeff_solution(self):
        """-d/dx(nu du/dx) = f with nu = 1 + x, u = x(1-x):
        f = -( (1+x)(1-2x) )' = -(1 - 2x - 2x + ... ) compute: nu u' =
        (1+x)(1-2x) = 1 - x - 2x^2; d/dx = -1 - 4x; f = 1 + 4x."""
        m = box_mesh_2d(3, 1, 8)
        geom = geometric_factors(m)
        nu = m.eval_function(lambda x, y: 1.0 + x)
        lap = LaplaceOperator(m, geom, coeff=nu)
        mask = DirichletMask(m.boundary_mask(["xmin", "xmax"]))
        asm = Assembler.for_mesh(m)
        sys = SEMSystem(m, asm, mask, lap.apply, lap.diagonal)
        mass = MassOperator(geom)
        f = m.eval_function(lambda x, y: 1.0 + 4.0 * x)
        b = sys.rhs(mass.apply(f))
        res = pcg(sys.matvec, b, dot=sys.dot, precond=jacobi_preconditioner(sys),
                  tol=1e-12, maxiter=2000)
        assert res.converged
        exact = m.eval_function(lambda x, y: x * (1 - x))
        assert np.max(np.abs(res.x - exact)) < 1e-9

    def test_3d_variable_coeff(self):
        m = box_mesh_3d(2, 1, 1, 4)
        geom = geometric_factors(m)
        nu = m.eval_function(lambda x, y, z: 1.0 + 0.3 * x * z)
        lap = LaplaceOperator(m, geom, coeff=nu)
        assert np.allclose(lap.apply(np.ones(m.local_shape)), 0.0, atol=1e-12)

