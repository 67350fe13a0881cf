"""Condensed elliptic tier: flop-exponent sweeps.

Two measurements back the tier's headline claim (Huismann-style linear
operation count on the statically condensed interface system):

1. **Exponent sweep** — exact flops/element (via the dispatch layer's
   analytic counters) of the condensed interface apply versus the
   standard consistent-Poisson ``apply_e`` on ``box_mesh_2d(2, 2, N)``
   for N in {4..16}.  Fitted log-log slopes must straddle d = 2: the
   condensed apply grows like the N^d dofs per element, the standard
   tensor apply carries the extra factor of N.

2. **3-D exponent sweep** — the same measurement on ``box_mesh_3d`` for
   the tensor-factorized Schur apply versus the dense shell apply it
   replaces.  The factorized slope must track d = 3 (the dofs per
   element) while the dense apply squares the ~6N^2 shell (~N^4): the
   gap is the reason the 3-D tier evaluates the Schur complement through
   batched 1-D contractions instead of forming it.

Results land in ``BENCH_condensed_solver.json`` at the repo root so the
tier's cost trajectory is machine-readable PR over PR.
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
import pytest

from conftest import fmt_table, write_result
from repro.core.mesh import box_mesh_2d, box_mesh_3d
from repro.core.pressure import PressureOperator
from repro.perf.flops import counting
from repro.solvers.condensed import CondensedPoissonSolver

JSON_PATH = pathlib.Path(__file__).resolve().parent.parent / "BENCH_condensed_solver.json"

#: Polynomial orders for the per-element flop-exponent sweep (d = 2).
SWEEP_NS = [4, 6, 8, 10, 12, 16]

#: Polynomial orders for the 3-D Schur-apply sweep (d = 3; the dense
#: shell apply at N = 12 already runs 1.5 Mflop/element).
SWEEP_NS_3D = [4, 6, 8, 10, 12]


def _fit_slope(ns, per_elem):
    ln = np.log(np.asarray(ns, float))
    return float(np.polyfit(ln, np.log(np.asarray(per_elem, float)), 1)[0])


def _time_apply(apply_fn, *args, min_time=0.05, **kwargs):
    reps, elapsed = 0, 0.0
    t_end = time.perf_counter() + min_time
    while time.perf_counter() < t_end or reps < 3:
        t0 = time.perf_counter()
        apply_fn(*args, **kwargs)
        elapsed += time.perf_counter() - t0
        reps += 1
    return elapsed / reps


@pytest.fixture(scope="module")
def sweep():
    """Flops/element and wall time of condensed vs standard applies."""
    rows = []
    for n in SWEEP_NS:
        mesh = box_mesh_2d(2, 2, n)
        cs = CondensedPoissonSolver(mesh)
        rng = np.random.default_rng(11)
        v = cs.iface.dsavg(rng.standard_normal((mesh.K, cs.ec.n_b))) * cs._b_factor
        cs.apply_condensed(v)  # warm up the kernel auto-tuner
        with counting() as fc:
            cs.apply_condensed(v)
        condensed_flops = float(fc.total()) / mesh.K
        t_cond = _time_apply(cs.apply_condensed, v)

        pop = PressureOperator(mesh)
        p = rng.standard_normal(pop.p_shape)
        pop.apply_e(p)  # warm up
        with counting() as fc:
            pop.apply_e(p)
        e_flops = float(fc.total()) / mesh.K
        t_e = _time_apply(pop.apply_e, p)
        rows.append(
            {
                "N": n,
                "condensed_flops_per_element": condensed_flops,
                "e_apply_flops_per_element": e_flops,
                "condensed_apply_seconds": t_cond,
                "e_apply_seconds": t_e,
            }
        )
    return {
        "mesh": "box_mesh_2d(2, 2, N)",
        "rows": rows,
        "condensed_slope": _fit_slope(
            SWEEP_NS, [r["condensed_flops_per_element"] for r in rows]
        ),
        "e_apply_slope": _fit_slope(
            SWEEP_NS, [r["e_apply_flops_per_element"] for r in rows]
        ),
    }


@pytest.fixture(scope="module")
def sweep3d():
    """Flops/element of the tensor-factorized vs dense 3-D Schur apply."""
    rows = []
    for n in SWEEP_NS_3D:
        mesh = box_mesh_3d(1, 1, 1, n)
        row = {"N": n}
        for schur in ("tensor", "dense"):
            cs = CondensedPoissonSolver(mesh, h0=1.0, schur=schur)
            rng = np.random.default_rng(12)
            v = rng.standard_normal((mesh.K, cs.ec.n_b))
            cs.ec.apply_schur(v)  # warm up the kernel auto-tuner
            with counting() as fc:
                cs.ec.apply_schur(v)
            row[f"{schur}_flops_per_element"] = float(fc.total()) / mesh.K
            row[f"{schur}_apply_seconds"] = _time_apply(cs.ec.apply_schur, v)
        rows.append(row)
    return {
        "mesh": "box_mesh_3d(1, 1, 1, N)",
        "rows": rows,
        "tensor_slope": _fit_slope(
            SWEEP_NS_3D, [r["tensor_flops_per_element"] for r in rows]
        ),
        "dense_slope": _fit_slope(
            SWEEP_NS_3D, [r["dense_flops_per_element"] for r in rows]
        ),
    }


def test_generate_condensed_bench(benchmark, sweep, sweep3d):
    doc = {"exponent_sweep": sweep, "exponent_sweep_3d": sweep3d}

    rows = [
        [
            r["N"],
            f"{r['condensed_flops_per_element']:.0f}",
            f"{r['e_apply_flops_per_element']:.0f}",
        ]
        for r in sweep["rows"]
    ]
    rows.append(
        ["slope", f"{sweep['condensed_slope']:.3f}", f"{sweep['e_apply_slope']:.3f}"]
    )
    text = fmt_table(
        ["N", "condensed flops/elem", "E-apply flops/elem"],
        rows,
        title="Condensed interface apply vs standard E apply (2-D, K = 4)",
    )
    rows3d = [
        [
            r["N"],
            f"{r['tensor_flops_per_element']:.0f}",
            f"{r['dense_flops_per_element']:.0f}",
        ]
        for r in sweep3d["rows"]
    ]
    rows3d.append(
        ["slope", f"{sweep3d['tensor_slope']:.3f}", f"{sweep3d['dense_slope']:.3f}"]
    )
    text += "\n" + fmt_table(
        ["N", "tensor flops/elem", "dense flops/elem"],
        rows3d,
        title="Factorized vs dense 3-D Schur apply (K = 1)",
    )
    write_result("condensed_solver", text)
    JSON_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    # Time one representative condensed interface apply via pytest-benchmark.
    mesh = box_mesh_2d(4, 4, 8)
    cs = CondensedPoissonSolver(mesh)
    v = cs.iface.dsavg(
        np.random.default_rng(3).standard_normal((mesh.K, cs.ec.n_b))
    ) * cs._b_factor
    out = np.empty_like(v)
    benchmark(cs.apply_condensed, v, out=out)

    # Qualitative contract: the exponent gap is the whole point of the
    # tier.  Bounds are loose so machine noise cannot flake the suite.
    assert sweep["condensed_slope"] <= 2.3, sweep
    assert sweep["e_apply_slope"] >= 2.8, sweep
    # 3-D: the factorized apply tracks the N^3 dofs per element, the
    # dense shell apply the squared ~6N^2 shell.
    assert sweep3d["tensor_slope"] <= 3.3, sweep3d
    assert sweep3d["dense_slope"] >= 3.5, sweep3d


def test_json_is_machine_readable(sweep, sweep3d):
    doc = {"exponent_sweep": sweep, "exponent_sweep_3d": sweep3d}
    JSON_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    loaded = json.loads(JSON_PATH.read_text())
    assert [r["N"] for r in loaded["exponent_sweep"]["rows"]] == SWEEP_NS
    assert [r["N"] for r in loaded["exponent_sweep_3d"]["rows"]] == SWEEP_NS_3D
