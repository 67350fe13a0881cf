#!/usr/bin/env python
"""The parallel substrate: partitioning, gather-scatter, XXT, and the
terascale model (the Sections 5-7 machinery).

Walks through what the SPMD layer does for a real mesh:

1. partition elements across simulated ranks with recursive spectral
   bisection and report shared-vertex statistics,
2. set up the gs_init/gs_op_rank gather-scatter kernel and run one
   residual assembly on simulated ranks priced by the ASCI-Red machine
   model,
3. factor a coarse-grid operator with XXT and compare solve strategies
   versus P (the Fig. 6 story),
4. print the Table 4 GFLOPS model for the paper's (K, N) = (8168, 15) run.

Run:  python examples/parallel_scaling.py
"""

import numpy as np
import scipy.sparse as sp

from repro import box_mesh_3d
from repro.parallel.coarse_parallel import CoarseSolveModel, poisson_5pt
from repro.parallel.exec import run_spmd
from repro.parallel.gs import gs_init, gs_op_rank
from repro.parallel.machine import ASCI_RED_333, ASCI_RED_333_PERF
from repro.parallel.partition import partition_statistics, recursive_spectral_bisection
from repro.parallel.perf_model import TerascaleModel

# 1. ---------------------------------------------------------------- RSB
mesh = box_mesh_3d(4, 4, 4, 5)
P = 8
part = recursive_spectral_bisection(sp.csr_matrix(mesh.element_adjacency()), P,
                                    coords=mesh.element_centroids())
stats = partition_statistics(mesh, part)
print(f"RSB partition of K = {mesh.K} elements onto P = {P} ranks:")
print(f"  sizes = {stats['sizes'].tolist()}, imbalance = {stats['imbalance']:.3f}")
print(f"  shared vertices = {stats['shared_vertices']} "
      f"(max sharing degree {stats['max_vertex_degree']})")

# 2. ------------------------------------------------------- gather-scatter
ids = [mesh.global_ids[part == p] for p in range(P)]
handle = gs_init(ids)
vals = [np.random.default_rng(p).standard_normal(ids[p].shape) for p in range(P)]
run = run_spmd(gs_op_rank, [(h, v, "+") for h, v in zip(handle.rank_handles(), vals)],
               machine=ASCI_RED_333)
xchg = run.merged["phases"]["exchange"]
print(f"\ngather-scatter (one residual assembly):")
print(f"  shared nodes = {handle.n_shared}, "
      f"max per-rank volume = {handle.max_rank_volume()} words")
print(f"  {xchg['messages']} messages, {xchg['words']:.0f} words; simulated time "
      f"on ASCI-Red-333: {run.modeled_seconds * 1e6:.1f} us "
      f"(modeled exchange {xchg['modeled_seconds_max'] * 1e6:.1f} us per rank, "
      f"measured incl. wait {xchg['measured_seconds_max'] * 1e6:.1f} us)")

# 3. ------------------------------------------------------------ XXT/Fig 6
a, coords = poisson_5pt(63)
model = CoarseSolveModel(a, ASCI_RED_333, coords=coords)
print(f"\ncoarse solve strategies, n = {model.n} "
      f"(XXT nnz = {model.xxt.nnz}, residual {model.xxt.verify(a):.1e}):")
print(f"  {'P':>6} {'XXT':>10} {'red. LU':>10} {'dist Ainv':>10} {'bound':>10}")
for p in (1, 16, 256, 2048):
    print(f"  {p:6d} {model.time_xxt(p):10.2e} {model.time_redundant_lu(p):10.2e} "
          f"{model.time_distributed_ainv(p):10.2e} {model.time_latency_bound(p):10.2e}")

# 4. ------------------------------------------------------------- Table 4
print("\nTable 4 model, (K, N) = (8168, 15), 26 impulsive-start steps:")
tmodel = TerascaleModel()
rows = tmodel.table4({"std": ASCI_RED_333, "perf": ASCI_RED_333_PERF})
print(f"  {'kernels':>7} {'mode':>7} {'P':>6} {'time (s)':>9} {'GFLOPS':>7}")
for r in rows:
    print(f"  {r.kernels:>7} {r.mode:>7} {r.P:6d} {r.time_s:9.0f} {r.gflops:7.1f}")
best = max(rows, key=lambda r: r.gflops)
print(f"\nheadline: {best.gflops:.0f} GFLOPS at P = {best.P} "
      f"({best.kernels}, {best.mode}) — paper: 319 GFLOPS")

# 5. ----------------------------------------------- executable SPMD solve
from repro.parallel.spmd_cg import DistributedSEMSolver

mesh_s = box_mesh_3d(4, 4, 2, 4)
f = np.sin(np.pi * np.asarray(mesh_s.coords[0])) * np.asarray(mesh_s.coords[1])
print("\nexecutable SPMD Helmholtz solve (real algorithm, virtual clocks):")
print(f"  {'P':>4} {'iters':>6} {'sim time':>10} {'speedup':>8}")
t1 = None
for p in (1, 2, 4, 8):
    r = DistributedSEMSolver(mesh_s, ASCI_RED_333, p, h1=1.0, h0=1.0).solve(f, tol=1e-8)
    t1 = t1 or r.simulated_seconds
    print(f"  {p:4d} {r.iterations:6d} {r.simulated_seconds:10.4f} "
          f"{t1 / r.simulated_seconds:8.2f}")
