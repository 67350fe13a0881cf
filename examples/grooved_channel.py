#!/usr/bin/env python
"""Forced convective heat transfer in a grooved channel — the Fig. 1
heat-transfer-augmentation workload (Greiner/Fischer/Wirtz, ref. [12]).

A periodic channel whose bottom wall carries a smooth groove is driven by
a constant pressure-gradient forcing; temperature is transported with a
hot bottom wall and cold top wall.  Demonstrates

* deformed-geometry meshing (the groove is a coordinate map),
* coupled momentum + scalar transport on the same SEM infrastructure,
* velocity profiles read off the GLL nodes of one vertical node line,
* heat-transfer diagnostics (Nusselt number, bulk temperature).

Run:  python examples/grooved_channel.py  [--quick]
"""

import sys

import numpy as np

from repro import (
    NavierStokesSolver,
    ScalarBC,
    ScalarTransport,
    SolverConfig,
    VelocityBC,
    box_mesh_2d,
    map_mesh,
)

QUICK = "--quick" in sys.argv
RE = 120.0
PE = 80.0
N_STEPS = 80 if QUICK else 240
GROOVE_DEPTH = 0.25
LX = 3.0

base = box_mesh_2d(6 if QUICK else 9, 3, 6, x1=LX, y1=1.0, periodic=(True, False))


def groove(x, y):
    # A smooth groove in the bottom wall, flat top: depth decays with height.
    depth = GROOVE_DEPTH * np.exp(-((x - LX / 2) ** 2) / 0.18)
    return x, y - depth * (1.0 - y)


mesh = map_mesh(base, groove)
bc = VelocityBC(mesh, {"ymin": (0.0, 0.0), "ymax": (0.0, 0.0)})
flow = NavierStokesSolver(
    mesh, re=RE, dt=0.02, bc=bc, convection="ext",
    filter_alpha=0.05, config=SolverConfig(projection_window=20),
    forcing=lambda x, y, t: (np.full_like(x, 2.0 / RE * 4.0), np.zeros_like(x)),
)
flow.set_initial_condition(
    [lambda x, y: 4.0 * np.clip(y, 0, 1) * (1 - np.clip(y, 0, 1)), lambda x, y: 0 * x]
)
transport = ScalarTransport(
    flow, peclet=PE, bc=ScalarBC(mesh, {"ymin": 1.0, "ymax": 0.0})
)
transport.set_initial_condition(lambda x, y: 1.0 - np.clip(y, 0, 1))


def nusselt_bottom():
    g = flow.conv.grad_phys(transport.T)
    mask = mesh.boundary["ymin"]
    # Heat flux normal to the (curved) groove wall ~ -dT/dy on the wall.
    return float(-np.mean(g[1][mask]))


def bulk_temperature():
    num = flow.mass.integrate(transport.T * flow.u[0])
    den = flow.mass.integrate(flow.u[0]) or 1.0
    return num / den


print(f"grooved channel: Re = {RE}, Pe = {PE}, K = {mesh.K}, N = {mesh.order}, "
      f"groove depth = {GROOVE_DEPTH}")
print(f"{'step':>5} {'t':>6} {'flow KE':>10} {'Nu_bottom':>10} {'T_bulk':>8} {'p-iters':>8}")
for s in range(N_STEPS):
    st = flow.step()
    transport.step()
    if (s + 1) % (N_STEPS // 8) == 0:
        print(f"{st.step:5d} {st.time:6.2f} {flow.kinetic_energy():10.4f} "
              f"{nusselt_bottom():10.4f} {bulk_temperature():8.4f} "
              f"{st.pressure_iterations:8d}")

# Velocity profile through the groove center vs a flat station.  The groove
# map leaves x unchanged, so every GLL node column is an exact vertical line.
X, Y = (np.asarray(c) for c in mesh.coords)


def profile(x0, n=9):
    """``(x, y, u)`` at ``n`` nodes of the node line nearest ``x0``."""
    xc = X.flat[np.argmin(np.abs(X - x0))]
    on = np.abs(X - xc) < 1e-12
    # Shared interface nodes repeat with equal coordinates and values.
    y, first = np.unique(Y[on], return_index=True)
    u = flow.u[0][on][first]
    pick = np.linspace(0, len(y) - 1, n).round().astype(int)
    return xc, y[pick], u[pick]


for tag, x0 in (("groove center", LX / 2), ("flat station", 0.2)):
    xc, ys, us = profile(x0)
    ys = np.round(ys, 2) + 0.0  # print -0.00 as 0.00
    prof = "  ".join(f"{v:6.3f}" for v in us)
    print(f"\nu(y) at {tag} (x = {xc:.2f}, y = {ys[0]:.2f} .. {ys[-1]:.2f}):  {prof}")

print(f"\nfinal Nusselt number at the grooved wall: {nusselt_bottom():.4f}")
print("groove recirculation present:", bool(flow.u[0][Y < 0].min() < 0))
