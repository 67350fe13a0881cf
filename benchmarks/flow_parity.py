"""Parity of two source trees on the two flow workloads.

Runs the seed-0 ``hairpin3d`` case (40 steps) and the seed-0 ``shear2d``
case (200 steps), built exactly as ``bench/workloads.py`` builds them, and
saves the final velocity and pressure, the kinetic energy and the per-step
pressure iteration counts; ``--compare`` then checks two such dumps::

    python benchmarks/flow_parity.py --src OLD/src --out old.npz
    python benchmarks/flow_parity.py --src src --out new.npz
    python benchmarks/flow_parity.py --compare old.npz new.npz

By default the check is bitwise (``np.array_equal``): a layout refactor
changes no bit of the solution.  A change that reorders floating-point work
(a refactored operator, say) is judged with ``--rtol-u`` / ``--rtol-ke``
instead: the final velocity's max |du| relative to max |u|, and the
relative kinetic-energy difference, per case.  Iteration totals are printed
either way.

Pin the kernel backend (``REPRO_BACKEND=matmul``) for both runs: the
default auto-tuner picks kernels by timing, and two kernels may differ in
the last bit.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

import numpy as np

CASES = ("hairpin3d", "shear2d")


def run(src: str, out: str) -> None:
    sys.path.insert(0, src)
    from repro.workloads.hairpin import HairpinCase
    from repro.workloads.shear_layer import ShearLayerCase

    cases = {
        "hairpin3d": (HairpinCase(order=7, elements=(6, 3, 3), dt=0.02,
                                  projection_window=30, pressure_tol=1e-6), 40),
        "shear2d": (ShearLayerCase(n_elements=16, order=8, rho=30, re=1e5,
                                   filter_alpha=0.3, dt=0.002), 200),
    }
    data = {}
    for name, (case, steps) in cases.items():
        sol = case.solver
        sol.advance(steps)
        data[f"{name}_u"] = np.stack([np.asarray(c) for c in sol.u])
        data[f"{name}_p"] = sol.p
        data[f"{name}_iters"] = [s.pressure_iterations for s in sol.stats]
        data[f"{name}_ke"] = sol.kinetic_energy()
    np.savez(out, **data)


def compare(a: str, b: str, rtol_u: Optional[float] = None,
            rtol_ke: Optional[float] = None) -> bool:
    with np.load(a) as da, np.load(b) as db:
        ok = True
        for name in CASES:
            its_a, its_b = da[f"{name}_iters"], db[f"{name}_iters"]
            print(f"{name:10s} pressure iterations {int(its_a.sum())} -> "
                  f"{int(its_b.sum())}")
            if rtol_u is None:
                for key in ("iters", "p", "u", "ke"):
                    same = np.array_equal(da[f"{name}_{key}"], db[f"{name}_{key}"])
                    ok &= same
                    print(f"{name:10s} {key:5s} array_equal={same}")
                continue
            u_a, u_b = da[f"{name}_u"], db[f"{name}_u"]
            du = float(np.max(np.abs(u_b - u_a)) / np.max(np.abs(u_a)))
            ke_a, ke_b = float(da[f"{name}_ke"]), float(db[f"{name}_ke"])
            dke = abs(ke_b - ke_a) / abs(ke_a)
            ok &= du <= rtol_u and dke <= rtol_ke
            print(f"{name:10s} max|du|/max|u| {du:.2e} (<= {rtol_u:.0e}: "
                  f"{du <= rtol_u})")
            print(f"{name:10s} kinetic energy {ke_a:.15e} -> {ke_b:.15e}, "
                  f"rel {dke:.2e} (<= {rtol_ke:.0e}: {dke <= rtol_ke})")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", help="source tree to import repro from")
    ap.add_argument("--out", help="npz file for the final fields")
    ap.add_argument("--compare", nargs=2, metavar="NPZ")
    ap.add_argument("--rtol-u", type=float,
                    help="compare to this relative max |du| instead of bitwise")
    ap.add_argument("--rtol-ke", type=float, default=1e-9,
                    help="relative kinetic-energy bound with --rtol-u")
    args = ap.parse_args()
    if args.compare:
        return 0 if compare(*args.compare, args.rtol_u, args.rtol_ke) else 1
    run(args.src, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
