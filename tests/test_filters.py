"""Tests for the Fischer-Mullen stabilization filter."""

import numpy as np
import pytest

from repro.core.filters import (
    FieldFilter,
    interpolation_filter_1d,
    legendre_vandermonde,
    modal_coefficients,
    modal_filter_1d,
)
from repro.core.mesh import box_mesh_2d, box_mesh_3d
from repro.core.quadrature import gauss_lobatto_legendre, legendre


class TestVandermonde:
    def test_invertible_and_correct(self):
        n = 8
        phi = legendre_vandermonde(n)
        x, _ = gauss_lobatto_legendre(n)
        assert phi.shape == (n + 1, n + 1)
        assert np.allclose(phi[:, 3], legendre(3, x))
        assert abs(np.linalg.det(phi)) > 1e-10

    def test_modal_coefficients_roundtrip(self):
        n = 7
        rng = np.random.default_rng(0)
        coeffs = rng.standard_normal(n + 1)
        x, _ = gauss_lobatto_legendre(n)
        u = sum(coeffs[k] * legendre(k, x) for k in range(n + 1))
        assert np.allclose(modal_coefficients(n, u), coeffs, atol=1e-10)


class TestInterpolationFilter1D:
    def test_alpha_zero_is_identity(self):
        f = interpolation_filter_1d(9, 0.0)
        assert np.allclose(f, np.eye(10))

    def test_preserves_low_modes_exactly(self):
        n = 10
        f = interpolation_filter_1d(n, 0.7)
        x, _ = gauss_lobatto_legendre(n)
        for k in range(n):  # all modes below N
            u = legendre(k, x)
            assert np.allclose(f @ u, u, atol=1e-10)

    def test_damps_top_mode(self):
        n = 8
        x, _ = gauss_lobatto_legendre(n)
        un = legendre(n, x)
        for alpha in (0.05, 0.3, 1.0):
            f = interpolation_filter_1d(n, alpha)
            filtered = f @ un
            cn = modal_coefficients(n, filtered)[n]
            # Top-mode energy strictly reduced, fully removed at alpha=1 only
            # in the modal sense of the projection P (interp round trip).
            assert abs(cn) < 1.0
            if alpha == 1.0:
                # P u_N has reduced norm; damping monotone in alpha.
                f_small = interpolation_filter_1d(n, 0.05)
                cn_small = modal_coefficients(n, f_small @ un)[n]
                assert abs(cn) <= abs(cn_small) + 1e-12

    def test_invalid_alpha_raises(self):
        with pytest.raises(ValueError):
            interpolation_filter_1d(5, -0.1)
        with pytest.raises(ValueError):
            interpolation_filter_1d(5, 1.5)

    def test_matches_modal_form_action_on_top_mode(self):
        # The interpolation filter equals the modal filter with sigma_N = 1-alpha
        # on the polynomial space: P annihilates exactly the part of p_N not
        # representable on the coarse grid. Verify F is a polynomial filter:
        # F^2 with alpha=1 equals F (projection property).
        n = 7
        f = interpolation_filter_1d(n, 1.0)
        assert np.allclose(f @ f, f, atol=1e-10)


class TestModalFilter1D:
    def test_identity_sigma(self):
        n = 6
        f = modal_filter_1d(n, np.ones(n + 1))
        assert np.allclose(f, np.eye(n + 1), atol=1e-10)

    def test_kills_selected_mode(self):
        n = 6
        sigma = np.ones(n + 1)
        sigma[n] = 0.0
        f = modal_filter_1d(n, sigma)
        x, _ = gauss_lobatto_legendre(n)
        assert np.allclose(f @ legendre(n, x), 0.0, atol=1e-10)
        assert np.allclose(f @ legendre(n - 1, x), legendre(n - 1, x), atol=1e-10)

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            modal_filter_1d(4, [1.0, 1.0])


class TestFieldFilter:
    def test_alpha_zero_noop(self):
        m = box_mesh_2d(2, 2, 6)
        filt = FieldFilter(m, 0.0)
        u = np.random.default_rng(0).standard_normal(m.local_shape)
        assert filt(u) is u

    def test_preserves_smooth_field(self):
        m = box_mesh_2d(3, 3, 9)
        filt = FieldFilter(m, 0.3)
        u = m.eval_function(lambda x, y: np.sin(2 * np.pi * x) * np.cos(np.pi * y))
        v = filt(u)
        # Smooth, well-resolved field: filter changes it only slightly.
        assert np.max(np.abs(v - u)) < 1e-3 * np.max(np.abs(u))

    def test_output_is_continuous(self):
        m = box_mesh_2d(3, 2, 7)
        filt = FieldFilter(m, 0.5)
        u = np.random.default_rng(1).standard_normal(m.local_shape)
        v = filt(u)
        assert filt.assembler.is_continuous(v)

    def test_reduces_roughness(self):
        # Filtering random noise must reduce the high-mode energy.
        m = box_mesh_2d(2, 2, 8)
        filt = FieldFilter(m, 1.0)
        u = np.random.default_rng(2).standard_normal(m.local_shape)
        u = filt.assembler.dsavg(u)
        v = filt(u)
        from repro.backends.dispatch import apply_1d
        from repro.core.basis import gll_derivative_matrix

        d = gll_derivative_matrix(m.order)

        def roughness(f):
            fr, fs = (apply_1d(d, f, a) for a in range(2))
            return float(np.sum(fr**2 + fs**2))

        assert roughness(v) < roughness(u)

    def test_3d_filter_runs_and_preserves_constants(self):
        m = box_mesh_3d(2, 1, 1, 5)
        filt = FieldFilter(m, 0.4)
        ones = np.ones(m.local_shape)
        assert np.allclose(filt(ones), 1.0, atol=1e-12)

    def test_multi_mode_ramp(self):
        m = box_mesh_2d(2, 2, 8)
        filt = FieldFilter(m, 0.5, n_modes=3)
        u = m.eval_function(lambda x, y: x + y)
        assert np.allclose(filt(u), u, atol=1e-10)  # linear fields untouched

    def test_invalid_args(self):
        m = box_mesh_2d(1, 1, 4)
        with pytest.raises(ValueError):
            FieldFilter(m, -0.2)
        with pytest.raises(ValueError):
            FieldFilter(m, 0.2, n_modes=0)
        with pytest.raises(ValueError):
            FieldFilter(m, 0.2, n_modes=5)

    def test_filter_stacked_fields(self):
        m = box_mesh_2d(2, 1, 5)
        filt = FieldFilter(m, 0.2)
        u = m.eval_function(lambda x, y: x)
        v = m.eval_function(lambda x, y: y)
        fu, fv = filt(np.stack([u, v]))
        assert np.allclose(fu, u, atol=1e-10)
        assert np.allclose(fv, v, atol=1e-10)
        # One stacked call is bitwise the per-field calls.
        rough = np.random.default_rng(3).standard_normal((3,) + m.local_shape)
        assert np.array_equal(filt(rough), np.stack([filt(f) for f in rough]))
