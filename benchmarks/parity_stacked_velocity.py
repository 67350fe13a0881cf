"""Bitwise parity of two source trees on the two flow workloads.

Runs the seed-0 ``hairpin3d`` case (40 steps) and the seed-0 ``shear2d``
case (200 steps), built exactly as ``bench/workloads.py`` builds them, and
saves the final velocity and pressure; ``--compare`` then checks two such
dumps with ``np.array_equal``.  Used to show that a layout refactor changes
no bit of the solution::

    python benchmarks/parity_stacked_velocity.py --src OLD/src --out old.npz
    python benchmarks/parity_stacked_velocity.py --src src --out new.npz
    python benchmarks/parity_stacked_velocity.py --compare old.npz new.npz

Pin the kernel backend (``REPRO_BACKEND=matmul``) for both runs: the
default auto-tuner picks kernels by timing, and two kernels may differ in
the last bit.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


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
    np.savez(out, **data)


def compare(a: str, b: str) -> bool:
    with np.load(a) as da, np.load(b) as db:
        ok = True
        for key in sorted(da.files):
            same = np.array_equal(da[key], db[key])
            ok &= same
            print(f"{key:18s} array_equal={same}")
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--src", help="source tree to import repro from")
    ap.add_argument("--out", help="npz file for the final fields")
    ap.add_argument("--compare", nargs=2, metavar="NPZ")
    args = ap.parse_args()
    if args.compare:
        return 0 if compare(*args.compare) else 1
    run(args.src, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
