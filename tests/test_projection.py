"""Tests for the successive-RHS projection accelerator (Fischer '98)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.solvers.cg import pcg
from repro.solvers.projection import SolutionProjector


def make_spd(n, seed=0, cond=100.0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.geomspace(1.0, cond, n)
    return q @ (lam[:, None] * q.T)


@pytest.fixture
def system():
    a = make_spd(40, seed=1)
    dot = lambda u, v: float(np.dot(u, v))  # noqa: E731
    return a, (lambda x: a @ x), dot


class TestBasics:
    def test_empty_start_passthrough(self, system):
        _, mv, dot = system
        proj = SolutionProjector(mv, dot)
        b = np.arange(40.0)
        x0, bp = proj.start(b)
        assert np.allclose(x0, 0.0)
        assert np.allclose(bp, b)

    def test_invalid_window(self, system):
        _, mv, dot = system
        with pytest.raises(ValueError):
            SolutionProjector(mv, dot, max_vectors=0)

    def test_repeated_rhs_solved_in_zero_iterations(self, system):
        a, mv, dot = system
        proj = SolutionProjector(mv, dot)
        rng = np.random.default_rng(2)
        b = rng.standard_normal(40)
        x0, bp = proj.start(b)
        res = pcg(mv, bp, dot=dot, tol=1e-12, maxiter=500)
        proj.finish(res.x, x0 + res.x)
        # Same RHS again: projection should supply (almost) the full solution.
        x0b, bpb = proj.start(b)
        assert np.linalg.norm(bpb) < 1e-9 * np.linalg.norm(b)
        assert np.allclose(x0b, np.linalg.solve(a, b), atol=1e-8)

    def test_basis_stays_a_orthonormal(self, system):
        a, mv, dot = system
        proj = SolutionProjector(mv, dot, max_vectors=10)
        rng = np.random.default_rng(3)
        for _ in range(6):
            b = rng.standard_normal(40)
            x0, bp = proj.start(b)
            res = pcg(mv, bp, dot=dot, tol=1e-12, maxiter=500)
            proj.finish(res.x, x0 + res.x)
        basis = np.array(proj._basis)
        gram = basis @ a @ basis.T
        assert np.allclose(gram, np.eye(len(proj)), atol=1e-8)

    def test_window_restart(self, system):
        _, mv, dot = system
        proj = SolutionProjector(mv, dot, max_vectors=3)
        rng = np.random.default_rng(4)
        for i in range(6):
            b = rng.standard_normal(40)
            x0, bp = proj.start(b)
            res = pcg(mv, bp, dot=dot, tol=1e-10, maxiter=500)
            proj.finish(res.x, x0 + res.x)
            assert len(proj) <= 3

    def test_degenerate_zero_update_skipped(self, system):
        _, mv, dot = system
        proj = SolutionProjector(mv, dot)
        proj.finish(np.zeros(40))
        assert len(proj) == 0

    def test_reset(self, system):
        _, mv, dot = system
        proj = SolutionProjector(mv, dot)
        proj.finish(np.ones(40))
        assert len(proj) == 1
        proj.reset()
        assert len(proj) == 0


class TestSmoothSequence:
    def test_iteration_reduction_on_smooth_rhs_sequence(self, system):
        """The Fig. 4 effect in miniature: slowly-varying RHS sequence sees
        large iteration-count and initial-residual reductions."""
        a, mv, dot = system
        rng = np.random.default_rng(5)
        base = rng.standard_normal(40)
        drift = rng.standard_normal(40)

        def rhs(t):
            return base + 0.05 * t * drift + 0.001 * np.sin(t) * base

        its_with, its_without, r0_with, r0_without = [], [], [], []
        proj = SolutionProjector(mv, dot, max_vectors=20)
        for step in range(12):
            b = rhs(step)
            # Without projection.
            res0 = pcg(mv, b, dot=dot, tol=1e-8, maxiter=500)
            its_without.append(res0.iterations)
            r0_without.append(res0.initial_residual_norm)
            # With projection.
            x0, bp = proj.start(b)
            res1 = pcg(mv, bp, dot=dot, tol=1e-8, maxiter=500)
            its_with.append(res1.iterations)
            r0_with.append(res1.initial_residual_norm)
            proj.finish(res1.x, x0 + res1.x)
            # Both must produce the same solution.
            assert np.allclose(x0 + res1.x, res0.x, atol=1e-6)
        # After the transient, projected solves are much cheaper.
        assert np.mean(its_with[4:]) < 0.5 * np.mean(its_without[4:])
        assert np.mean(r0_with[4:]) < 1e-2 * np.mean(r0_without[4:])

    def test_matvec_budget(self, system):
        """One extra matvec per step (the A-orthonormalization)."""
        _, mv, dot = system
        proj = SolutionProjector(mv, dot)
        rng = np.random.default_rng(6)
        for _ in range(5):
            b = rng.standard_normal(40)
            x0, bp = proj.start(b)
            res = pcg(mv, bp, dot=dot, tol=1e-10, maxiter=500)
            proj.finish(res.x, x0 + res.x)
        assert proj.matvec_count == 5


@given(window=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_projection_invariants_across_restarts(window, seed):
    """On a random SPD system and a random RHS sequence that overflows the
    window at least once: the projected guess satisfies the Galerkin
    condition (the A-optimal element of the span), guess + CG correction
    equals the direct solve, and the basis is A-orthonormal after every
    fold, restarts included."""
    n = 24
    a = make_spd(n, seed=seed, cond=50.0)
    dot = lambda u, v: float(np.dot(u, v))  # noqa: E731
    proj = SolutionProjector(lambda x: a @ x, dot, max_vectors=window)
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(n)
    restarts = 0
    for _ in range(2 * window + 2):
        b = base + 0.1 * rng.standard_normal(n)
        x_bar, b_pert = proj.start(b)
        scale = np.linalg.norm(b)
        assert np.allclose(b_pert, b - a @ x_bar, atol=1e-10 * scale)
        if len(proj):
            basis = np.array(proj._basis)
            assert np.abs(basis @ b_pert).max() <= 1e-9 * scale
        res = pcg(lambda x: a @ x, b_pert, dot=dot, tol=1e-13 * scale,
                  maxiter=500)
        assert res.converged
        x = x_bar + res.x
        assert np.allclose(x, np.linalg.solve(a, b), atol=1e-9 * scale)
        before = len(proj)
        proj.finish(res.x, x)
        restarts += before == window
        basis = np.array(proj._basis)
        assert np.allclose(basis @ a @ basis.T, np.eye(len(proj)), atol=1e-9)
    assert restarts >= 1

