"""Tests for the batched tensor-product kernels against explicit Kronecker forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends.dispatch import apply_1d, apply_tensor
from repro.perf.flops import counting


def rng_field(seed, *shape):
    return np.random.default_rng(seed).standard_normal(shape)


def grad(d, u):
    """Reference-space gradient: ``d`` along every direction of ``u``."""
    return [apply_1d(d, u, a) for a in range(u.ndim - 1)]


def grad_transpose(d, ws):
    """Its adjoint ``sum_a D_a^T w_a``, as the Laplace apply accumulates it."""
    dt = np.ascontiguousarray(d.T)
    out = apply_1d(dt, ws[0], 0)
    for a in range(1, len(ws)):
        out += apply_1d(dt, ws[a], a)
    return out


class TestApply1D:
    def test_2d_direction_r_matches_kron(self):
        K, n = 3, 5
        A = rng_field(0, n, n)
        u = rng_field(1, K, n, n)
        out = apply_1d(A, u, 0)
        for k in range(K):
            ref = (np.kron(np.eye(n), A) @ u[k].ravel()).reshape(n, n)
            assert np.allclose(out[k], ref)

    def test_2d_direction_s_matches_kron(self):
        K, n = 2, 4
        A = rng_field(0, n, n)
        u = rng_field(1, K, n, n)
        out = apply_1d(A, u, 1)
        for k in range(K):
            ref = (np.kron(A, np.eye(n)) @ u[k].ravel()).reshape(n, n)
            assert np.allclose(out[k], ref)

    @pytest.mark.parametrize("direction", [0, 1, 2])
    def test_3d_matches_kron(self, direction):
        K, n = 2, 3
        A = rng_field(0, n, n)
        u = rng_field(1, K, n, n, n)
        out = apply_1d(A, u, direction)
        eye = np.eye(n)
        mats = [eye, eye, eye]
        mats[2 - direction] = A  # kron order: t (x) s (x) r
        big = np.kron(np.kron(mats[0], mats[1]), mats[2])
        for k in range(K):
            assert np.allclose(out[k].ravel(), big @ u[k].ravel())

    def test_rectangular_operator_changes_extent(self):
        K, n, m = 4, 6, 3
        J = rng_field(0, m, n)
        u = rng_field(1, K, n, n)
        assert apply_1d(J, u, 0).shape == (K, n, m)
        assert apply_1d(J, u, 1).shape == (K, m, n)

    def test_rectangular_3d_t_direction(self):
        K, n, m = 2, 4, 2
        J = rng_field(0, m, n)
        u = rng_field(1, K, n, n, n)
        out = apply_1d(J, u, 2)
        assert out.shape == (K, m, n, n)
        big = np.kron(np.kron(J, np.eye(n)), np.eye(n))
        for k in range(K):
            assert np.allclose(out[k].ravel(), big @ u[k].ravel())

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            apply_1d(np.eye(3), np.zeros((2, 4, 4)), 0)

    def test_bad_direction_raises(self):
        with pytest.raises(ValueError):
            apply_1d(np.eye(4), np.zeros((2, 4, 4)), 2)

    def test_output_contiguous(self):
        u = rng_field(0, 3, 5, 5)
        for d in (0, 1):
            assert apply_1d(np.eye(5), u, d).flags["C_CONTIGUOUS"]

    def test_flops_accounted(self):
        K, n = 7, 6
        u = rng_field(0, K, n, n)
        with counting() as fc:
            apply_1d(np.eye(n), u, 0)
        assert fc.counts.get("mxm") == pytest.approx(2 * K * n**3)


class TestApplyTensor:
    def test_2d_separable(self):
        K, n = 3, 4
        A, B = rng_field(0, n, n), rng_field(1, n, n)
        u = rng_field(2, K, n, n)
        out = apply_tensor((A, B), u)
        big = np.kron(B, A)
        for k in range(K):
            assert np.allclose(out[k].ravel(), big @ u[k].ravel())

    def test_3d_separable(self):
        K, n = 2, 3
        A, B, C = (rng_field(i, n, n) for i in range(3))
        u = rng_field(9, K, n, n, n)
        out = apply_tensor((A, B, C), u)
        big = np.kron(np.kron(C, B), A)
        for k in range(K):
            assert np.allclose(out[k].ravel(), big @ u[k].ravel())

    def test_none_skips_direction(self):
        K, n = 2, 5
        A = rng_field(0, n, n)
        u = rng_field(1, K, n, n)
        assert np.allclose(apply_tensor((A, None), u), apply_1d(A, u, 0))
        assert np.allclose(apply_tensor((None, A), u), apply_1d(A, u, 1))

    def test_wrong_arity_raises(self):
        with pytest.raises(ValueError):
            apply_tensor((np.eye(3),), np.zeros((1, 3, 3)))


class TestGradients:
    def test_grad_2d_on_linear_field(self):
        from repro.core.basis import gll_derivative_matrix
        from repro.core.quadrature import gll_points

        n = 6
        x = gll_points(n)
        X, Y = np.meshgrid(x, x, indexing="xy")  # rows ~ s(y), cols ~ r(x)
        u = (2 * X + 3 * Y)[None, :, :]
        D = gll_derivative_matrix(n)
        ur, us = grad(D, u)
        assert np.allclose(ur, 2.0, atol=1e-11)
        assert np.allclose(us, 3.0, atol=1e-11)

    def test_grad_transpose_2d_is_adjoint(self):
        n, K = 5, 2
        D = rng_field(0, n, n)
        u = rng_field(1, K, n, n)
        wr, ws = rng_field(2, K, n, n), rng_field(3, K, n, n)
        ur, us = grad(D, u)
        lhs = np.sum(ur * wr) + np.sum(us * ws)
        rhs = np.sum(u * grad_transpose(D, (wr, ws)))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_grad_transpose_3d_is_adjoint(self):
        n, K = 4, 2
        D = rng_field(0, n, n)
        u = rng_field(1, K, n, n, n)
        w = [rng_field(i + 2, K, n, n, n) for i in range(3)]
        g = grad(D, u)
        lhs = sum(np.sum(gi * wi) for gi, wi in zip(g, w))
        rhs = np.sum(u * grad_transpose(D, w))
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_grad_3d_on_trilinear_field(self):
        from repro.core.basis import gll_derivative_matrix
        from repro.core.quadrature import gll_points

        n = 4
        x = gll_points(n)
        Z, Y, X = np.meshgrid(x, x, x, indexing="ij")  # axes (t, s, r)
        u = (X + 2 * Y + 5 * Z)[None]
        D = gll_derivative_matrix(n)
        ur, us, ut = grad(D, u)
        assert np.allclose(ur, 1.0, atol=1e-11)
        assert np.allclose(us, 2.0, atol=1e-11)
        assert np.allclose(ut, 5.0, atol=1e-11)


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=7),
    K=st.integers(min_value=1, max_value=4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_apply_1d_linearity(n, K, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    u = rng.standard_normal((K, n, n))
    v = rng.standard_normal((K, n, n))
    a, b = rng.standard_normal(2)
    for d in (0, 1):
        lhs = apply_1d(A, a * u + b * v, d)
        rhs = a * apply_1d(A, u, d) + b * apply_1d(A, v, d)
        assert np.allclose(lhs, rhs, atol=1e-10)
