"""Table 2: additive Schwarz variants on the cylinder pressure problem.

Paper shapes to reproduce (N = 7, eps = 1e-5, quad-refinement sequence):

* dropping the coarse grid (A_0 = 0) inflates iterations severalfold and
  the gap widens with K (paper: 169/364/802 vs ~50-170 with coarse);
* FEM iterations fall with overlap (N_o = 0 > 1 >= 3);
* the FDM tensor solves are competitive with FEM minimal overlap in
  iterations and faster in cpu;
* iteration counts grow with K (high-aspect-ratio elements).

Each variant reports its solve ("cpu") and preconditioner build ("setup")
seconds.

Workload substitution (DESIGN.md): graded half-annulus around a unit
cylinder with an impulsive-start RHS; levels K = 96 / 384 / 1536.
"""

import numpy as np
import pytest

from conftest import fmt_table, write_result
from repro.api import SolverConfig
from repro.workloads.cylinder_model import Table2Case

LEVELS = [0, 1, 2]
VARIANTS = [
    ("FDM", SolverConfig(pressure_variant="fdm")),
    ("No=0", SolverConfig(pressure_variant="fem", overlap=0)),
    ("No=1", SolverConfig(pressure_variant="fem", overlap=1)),
    ("No=3", SolverConfig(pressure_variant="fem", overlap=3)),
    ("A0=0", SolverConfig(pressure_variant="fdm", use_coarse=False)),
]


@pytest.fixture(scope="module")
def results():
    out = {}
    for level in LEVELS:
        case = Table2Case(level=level, order=7)
        row = {}
        for tag, config in VARIANTS:
            row[tag] = case.run(config.replace(tol=1e-5))
        out[case.mesh.K] = row
    return out


def test_table2(benchmark, results):
    # Benchmark one representative preconditioned solve (level 0, FDM).
    case = Table2Case(level=0, order=7)
    from repro.solvers.cg import pcg
    from repro.solvers.schwarz import SchwarzPreconditioner

    pc = SchwarzPreconditioner(case.mesh, case.pop, variant="fdm")
    rhs_norm = float(np.linalg.norm(case.rhs.ravel()))
    benchmark.pedantic(
        lambda: pcg(case.pop.matvec, case.rhs, dot=case.pop.dot, precond=pc,
                    tol=1e-5 * rhs_norm, maxiter=500),
        rounds=3, iterations=1,
    )

    headers = ["K"]
    for tag, _ in VARIANTS:
        headers += [f"{tag} iter", f"{tag} cpu", f"{tag} setup"]
    rows = []
    for K, row in results.items():
        r = [K]
        for tag, _ in VARIANTS:
            r += [row[tag].iterations, row[tag].cpu_seconds, row[tag].setup_seconds]
        rows.append(r)
    text = fmt_table(headers, rows,
                     title="Table 2: additive Schwarz, cylinder problem, N=7, eps=1e-5")
    write_result("table2_schwarz", text)

    for K, row in results.items():
        assert all(r.converged for r in row.values()), f"non-convergence at K={K}"
        # Coarse grid essential; gap grows with K.
        assert row["A0=0"].iterations > 2 * row["FDM"].iterations
        # Overlap helps (weak monotonicity as in our weighted variant).
        assert row["No=1"].iterations <= row["No=0"].iterations
        assert row["No=3"].iterations <= row["No=1"].iterations + 2
        # FDM competitive in iterations, faster in cpu.
        assert row["FDM"].iterations <= 1.3 * row["No=1"].iterations
        assert row["FDM"].cpu_seconds < row["No=1"].cpu_seconds
    ks = sorted(results)
    # Iterations grow with K for the no-coarse variant (aspect-ratio effect).
    assert results[ks[-1]]["A0=0"].iterations > results[ks[0]]["A0=0"].iterations
