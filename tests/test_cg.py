"""Focused tests for the PCG driver semantics."""

import numpy as np
import pytest

from repro.solvers.cg import CGResult, SolveFailure, pcg


def spd(n, cond=50.0, seed=0):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return q @ np.diag(np.geomspace(1, cond, n)) @ q.T


class TestPCGSemantics:
    def test_zero_rhs_immediate(self):
        a = spd(10)
        res = pcg(lambda v: a @ v, np.zeros(10), tol=1e-12)
        assert res.converged and res.iterations == 0
        assert np.all(res.x == 0)

    def test_x0_warm_start_reduces_iterations(self):
        a = spd(30, cond=500.0)
        rng = np.random.default_rng(1)
        x_true = rng.standard_normal(30)
        b = a @ x_true
        cold = pcg(lambda v: a @ v, b, tol=1e-10, maxiter=500)
        warm = pcg(lambda v: a @ v, b, x0=x_true + 1e-6 * rng.standard_normal(30),
                   tol=1e-10, maxiter=500)
        assert warm.converged and cold.converged
        assert warm.iterations < cold.iterations

    def test_rtol_vs_tol_stopping(self):
        a = spd(20)
        b = np.ones(20)
        r0 = np.linalg.norm(b)
        res = pcg(lambda v: a @ v, b, tol=0.0, rtol=1e-3, maxiter=500)
        assert res.residual_norm <= 1e-3 * r0
        # stricter of the two criteria applies
        res2 = pcg(lambda v: a @ v, b, tol=1e-9, rtol=0.5, maxiter=500)
        assert res2.residual_norm <= max(1e-9, 0.5 * r0)

    def test_history_monotone_overall(self):
        a = spd(25, cond=100.0)
        b = np.random.default_rng(2).standard_normal(25)
        res = pcg(lambda v: a @ v, b, tol=1e-10, maxiter=500)
        assert len(res.residual_history) == res.iterations + 1
        assert res.residual_history[-1] < res.residual_history[0]

    def test_callback_invoked_each_iteration(self):
        a = spd(15)
        b = np.ones(15)
        seen = []
        pcg(lambda v: a @ v, b, tol=1e-10, maxiter=100,
            callback=lambda it, r: seen.append((it, r)))
        assert seen[0][0] == 0
        assert seen[-1][1] <= 1e-10 * np.linalg.norm(b) + 1e-10

    def test_maxiter_returns_unconverged(self):
        a = spd(40, cond=1e6, seed=3)
        b = np.random.default_rng(3).standard_normal(40)
        res = pcg(lambda v: a @ v, b, tol=1e-14, maxiter=3)
        assert not res.converged
        assert res.iterations == 3

    def test_indefinite_matrix_breaks_down(self):
        a = np.diag([1.0, -1.0, 2.0])
        b = np.array([1.0, 1.0, 1.0])
        with pytest.raises(np.linalg.LinAlgError):
            pcg(lambda v: a @ v, b, tol=1e-12, maxiter=50)

    def test_nan_rhs_raises_immediately(self):
        a = spd(5)
        b = np.full(5, np.nan)
        with pytest.raises(np.linalg.LinAlgError):
            pcg(lambda v: a @ v, b)

    def test_nan_rhs_raises_solve_failure_with_label(self):
        a = spd(5)
        b = np.full(5, np.nan)
        with pytest.raises(SolveFailure, match="non-finite") as info:
            pcg(lambda v: a @ v, b, label="pressure")
        assert info.value.label == "pressure"
        assert info.value.iterations == 0
        assert len(info.value.residual_history) == 1

    def test_breakdown_carries_iteration_and_history(self):
        a = np.diag([1.0, -1.0, 2.0])
        with pytest.raises(SolveFailure) as info:
            pcg(lambda v: a @ v, np.ones(3), tol=1e-12, maxiter=50, label="x")
        assert info.value.label == "x"
        assert info.value.iterations == len(info.value.residual_history) >= 1

    def test_preconditioner_accelerates(self):
        a = spd(60, cond=1e4, seed=4)
        b = np.random.default_rng(4).standard_normal(60)
        plain = pcg(lambda v: a @ v, b, tol=1e-8, maxiter=2000)
        inv_diag = 1.0 / np.diag(a)
        jac = pcg(lambda v: a @ v, b, precond=lambda r: inv_diag * r,
                  tol=1e-8, maxiter=2000)
        exact = np.linalg.inv(a)
        perfect = pcg(lambda v: a @ v, b, precond=lambda r: exact @ r,
                      tol=1e-8, maxiter=2000)
        assert perfect.iterations <= 2
        assert jac.converged and plain.converged

    def test_custom_dot_used(self):
        a = spd(10)
        b = np.ones(10)
        w = np.linspace(1, 2, 10)
        # weighted dot corresponds to solving in a rescaled space; CG still
        # converges to the same solution because A stays symmetric wrt it
        # only if W commutes -> use W = identity-scaled to check plumbing.
        calls = []

        def dot(u, v):
            calls.append(1)
            return float(np.sum(u * v))

        res = pcg(lambda v: a @ v, b, dot=dot, tol=1e-10, maxiter=200)
        assert res.converged
        assert len(calls) > 0

    def test_result_repr(self):
        a = spd(5)
        res = pcg(lambda v: a @ v, np.ones(5), tol=1e-10)
        assert "converged" in repr(res)
