"""Orr-Sommerfeld / Tollmien-Schlichting workload (Table 1).

Table 1 measures the error in computed growth rates "when a
small-amplitude Tollmien-Schlichting wave is superimposed on plane
Poiseuille channel flow at Re = 7500" (amplitude 1e-5, so the nonlinear
Navier-Stokes evolution tracks linear theory to ~5 digits).

Pieces:

* :func:`orr_sommerfeld_eigs` — reference linear theory: a Chebyshev
  collocation solver for the OS eigenproblem

      (U - c)(phi'' - a^2 phi) - U'' phi = (phi'''' - 2 a^2 phi'' + a^4 phi) / (i a Re)

  with clamped walls; returns eigenvalues ``c`` sorted by growth rate and
  the eigenfunction of the least-stable mode (for Re = 7500, a = 1, the
  classical unstable TS mode with omega_i = a c_i ~ 2.2347e-3).
* :class:`OrrSommerfeldCase` — the SEM side: K-element channel with the
  TS eigenfunction superimposed on the parabolic base flow, run with the
  full nonlinear solver; the perturbation-energy growth rate is fitted
  and compared against linear theory, reproducing Table 1's convergence
  in N (with filter strengths alpha) and in dt (2nd/3rd order).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
import scipy.linalg

from ..core.mesh import box_mesh_2d
from ..ns.bcs import VelocityBC
from ..api import SolverConfig
from ..ns.navier_stokes import NavierStokesSolver
from ..solvers.cg import SolveFailure

__all__ = [
    "chebyshev_diff_matrix",
    "orr_sommerfeld_eigs",
    "ts_wave_fields",
    "OrrSommerfeldCase",
]


def chebyshev_diff_matrix(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Chebyshev-Gauss-Lobatto points and differentiation matrix (Trefethen)."""
    if n == 0:
        return np.array([1.0]), np.zeros((1, 1))
    x = np.cos(np.pi * np.arange(n + 1) / n)
    c = np.ones(n + 1)
    c[0] = c[-1] = 2.0
    c *= (-1.0) ** np.arange(n + 1)
    dx = x[:, None] - x[None, :]
    d = (c[:, None] / c[None, :]) / (dx + np.eye(n + 1))
    d -= np.diag(d.sum(axis=1))
    return x, d


def orr_sommerfeld_eigs(
    re: float,
    alpha_wave: float,
    n_cheb: int = 100,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Solve the OS eigenproblem for plane Poiseuille flow ``U = 1 - y^2``.

    Returns ``(c_sorted, y, phi)``: all finite eigenvalues sorted by
    descending imaginary part (temporal growth = alpha * Im(c)), the
    Chebyshev points, and the wall-normal eigenfunction ``phi(y)`` of the
    least-stable mode (normalized to max |phi| = 1).
    """
    y, d = chebyshev_diff_matrix(n_cheb)
    d2 = d @ d
    d4 = d2 @ d2
    n = n_cheb + 1
    u_base = 1.0 - y**2
    upp = -2.0 * np.ones(n)
    a2 = alpha_wave**2
    lap = d2 - a2 * np.eye(n)
    bilap = d4 - 2 * a2 * d2 + a2**2 * np.eye(n)
    # (U - c) lap phi - U'' phi = (1/(i a Re)) bilap phi
    a_mat = np.diag(u_base) @ lap - np.diag(upp) - bilap / (1j * alpha_wave * re)
    b_mat = lap.astype(complex)
    # Clamped BCs: phi = phi' = 0 at both walls; impose on rows 0, n-1 and
    # the derivative on rows 1, n-2 (standard replacement trick).
    for row, mat_row in ((0, np.eye(n)[0]), (n - 1, np.eye(n)[-1])):
        a_mat[row] = mat_row
        b_mat[row] = 0.0
    a_mat[1] = d[0]
    b_mat[1] = 0.0
    a_mat[n - 2] = d[-1]
    b_mat[n - 2] = 0.0
    w, v = scipy.linalg.eig(a_mat, b_mat)
    finite = np.isfinite(w) & (np.abs(w) < 50.0)
    w, v = w[finite], v[:, finite]
    order = np.argsort(-w.imag)
    w, v = w[order], v[:, order]
    phi = v[:, 0]
    phi = phi / phi[np.argmax(np.abs(phi))]
    return w, y, phi


def ts_wave_fields(
    re: float,
    alpha_wave: float,
    n_cheb: int = 100,
):
    """TS-wave perturbation velocity ``(u', v')`` as callables of (x, y).

    From the streamfunction ``psi = phi(y) exp(i a x)``:
    ``u' = Re{phi'(y) e^{i a x}}``, ``v' = Re{-i a phi(y) e^{i a x}}``.
    Returns ``(u_fn, v_fn, c)`` with ``c`` the mode's complex phase speed.
    """
    w, y, phi = orr_sommerfeld_eigs(re, alpha_wave, n_cheb)
    _, d = chebyshev_diff_matrix(n_cheb)
    dphi = d @ phi
    # Interpolate phi, phi' to arbitrary y via barycentric interpolation.
    from ..core.basis import lagrange_eval

    def u_fn(x, yq):
        interp = lagrange_eval(y, np.clip(np.asarray(yq).ravel(), -1, 1))
        vals = interp @ dphi
        out = np.real(vals * np.exp(1j * alpha_wave * np.asarray(x).ravel()))
        return out.reshape(np.asarray(x).shape)

    def v_fn(x, yq):
        interp = lagrange_eval(y, np.clip(np.asarray(yq).ravel(), -1, 1))
        vals = interp @ phi
        out = np.real(-1j * alpha_wave * vals * np.exp(1j * alpha_wave * np.asarray(x).ravel()))
        return out.reshape(np.asarray(x).shape)

    return u_fn, v_fn, w[0]


@dataclass
class GrowthRateResult:
    """Outcome of one SEM growth-rate measurement."""

    measured_rate: float
    theory_rate: float
    relative_error: float
    energies: List[float]
    times: List[float]
    blew_up: bool


class OrrSommerfeldCase:
    """SEM nonlinear growth-rate measurement (the Table 1 experiment).

    Parameters
    ----------
    order:
        Polynomial order N.
    k_elements:
        Element grid; the paper's K = 15 corresponds to (5, 3).
    re, alpha_wave:
        Channel Reynolds number (7500) and TS wavenumber (1.0).
    amplitude:
        Perturbation amplitude (1e-5 in the paper).
    filter_alpha:
        Stabilization filter strength (the Table 1 ``alpha`` column).
    scheme:
        Temporal order, 2 or 3.
    """

    def __init__(
        self,
        order: int,
        k_elements: Tuple[int, int] = (5, 3),
        re: float = 7500.0,
        alpha_wave: float = 1.0,
        amplitude: float = 1e-5,
        filter_alpha: float = 0.0,
        scheme: int = 2,
        dt: float = 0.003125,
        n_cheb: int = 100,
        convection: str = "ext",
    ):
        self.re = re
        self.alpha_wave = alpha_wave
        self.amplitude = amplitude
        lx = 2 * np.pi / alpha_wave
        # Cosine-graded wall-normal elements: the TS eigenfunction's wall
        # structure at Re = 7500 is what the resolution must capture.
        ney = k_elements[1]
        y_breaks = -np.cos(np.pi * np.arange(ney + 1) / ney)
        self.mesh = box_mesh_2d(
            k_elements[0], k_elements[1], order,
            x0=0.0, x1=lx, y0=-1.0, y1=1.0, periodic=(True, False),
            y_breaks=y_breaks,
        )
        bc = VelocityBC(self.mesh, {"ymin": (0.0, 0.0), "ymax": (0.0, 0.0)})
        # Body force 2/Re sustains the parabolic base flow exactly.
        # Explicit extrapolated convection suffices for the small-dt spatial
        # study; the large-dt temporal study (CFL >> 1, as in the paper)
        # needs the OIFS sub-integration.
        self.solver = NavierStokesSolver(
            self.mesh,
            re=re,
            dt=dt,
            bc=bc,
            scheme=scheme,
            convection=convection,
            filter_alpha=filter_alpha,
            config=SolverConfig(projection_window=15, pressure_tol=1e-9),
            forcing=lambda x, y, t: (np.full_like(x, 2.0 / re), np.zeros_like(x)),
        )
        self.u_fn, self.v_fn, self.c_mode = ts_wave_fields(re, alpha_wave, n_cheb)
        #: linear-theory temporal energy growth rate (2 * a * Im(c))
        self.theory_rate = 2.0 * alpha_wave * float(self.c_mode.imag)
        amp = amplitude
        self.solver.set_initial_condition(
            [
                lambda x, y: (1 - y**2) + amp * self.u_fn(x, y),
                lambda x, y: amp * self.v_fn(x, y),
            ]
        )
        self._base_u = self.mesh.eval_function(lambda x, y: 1 - y**2)

    def perturbation_energy(self) -> float:
        """``integral |u - U_base|^2`` over the channel."""
        du = self.solver.u[0] - self._base_u
        dv = self.solver.u[1]
        return self.solver.mass.integrate(du * du + dv * dv)

    def measure_growth_rate(
        self, t_final: float = 5.0, sample_every: int = 4
    ) -> GrowthRateResult:
        """Run to ``t_final`` and fit ``d ln E / dt`` of the perturbation.

        Divergence of the energy (> 1e6 x initial) is reported as blow-up
        (the unfiltered 3rd-order rows of Table 1).
        """
        sol = self.solver
        e0 = self.perturbation_energy()
        energies, times = [e0], [sol.t]
        n_steps = int(round(t_final / sol.dt))
        blew_up = False
        for s in range(n_steps):
            try:
                sol.step()
            except SolveFailure:
                blew_up = True
                break
            if (s + 1) % sample_every == 0 or s == n_steps - 1:
                e = self.perturbation_energy()
                energies.append(e)
                times.append(sol.t)
                if not np.isfinite(e) or e > 1e6 * e0:
                    blew_up = True
                    break
        if blew_up or len(energies) < 3:
            return GrowthRateResult(np.nan, self.theory_rate, np.inf,
                                    energies, times, True)
        # Least-squares slope of ln E vs t (skip the initial transient).
        t_arr = np.array(times)
        e_arr = np.array(energies)
        skip = max(1, len(t_arr) // 5)
        slope = np.polyfit(t_arr[skip:], np.log(e_arr[skip:]), 1)[0]
        rel = abs(slope - self.theory_rate) / abs(self.theory_rate)
        return GrowthRateResult(float(slope), self.theory_rate, float(rel),
                                list(e_arr), list(t_arr), False)
