#!/usr/bin/env python
"""Generate docs/API.md from the package's docstrings (run from repo root)."""

import importlib
import inspect
import pathlib

MODULES = [
    "repro",
    "repro.backends", "repro.backends.base", "repro.backends.numpy_backends",
    "repro.backends.dispatch",
    "repro.core.quadrature", "repro.core.basis", "repro.core.tensor",
    "repro.core.mesh", "repro.core.element", "repro.core.assembly",
    "repro.core.operators", "repro.core.pressure", "repro.core.filters",
    "repro.solvers.cg", "repro.solvers.jacobi", "repro.solvers.schwarz",
    "repro.solvers.fdm", "repro.solvers.static_condensation",
    "repro.solvers.condensed", "repro.solvers.coarse",
    "repro.solvers.projection", "repro.solvers.xxt",
    "repro.solvers.pmultigrid", "repro.solvers.chebyshev",
    "repro.ns.bcs", "repro.ns.convection", "repro.ns.navier_stokes",
    "repro.ns.scalar", "repro.ns.diagnostics",
    "repro.parallel.machine", "repro.parallel.protocol",
    "repro.parallel.exec", "repro.parallel.exec.sim", "repro.parallel.exec.mp",
    "repro.parallel.gs",
    "repro.parallel.partition", "repro.parallel.spmd_cg",
    "repro.parallel.coarse_parallel", "repro.parallel.perf_model",
    "repro.workloads.orr_sommerfeld", "repro.workloads.shear_layer",
    "repro.workloads.cylinder_model", "repro.workloads.convection_cell",
    "repro.workloads.hairpin",
    "repro.perf.flops", "repro.perf.mxm",
    "repro.obs", "repro.obs.trace", "repro.obs.telemetry", "repro.obs.report",
    "repro.obs.scope",
    "repro.api",
    "repro.service", "repro.service.cache",
    "repro.service.runners", "repro.service.session",
]


def first_paragraph(doc):
    if not doc:
        return "(undocumented)"
    out = []
    for line in inspect.cleandoc(doc).splitlines():
        if not line.strip() and out:
            break
        if line.strip():
            out.append(line.strip())
    return " ".join(out)


def describe(mod):
    lines = [f"## `{mod.__name__}`", "", first_paragraph(mod.__doc__), ""]
    names = getattr(mod, "__all__", None)
    if not names:
        return lines
    for name in names:
        obj = getattr(mod, name, None)
        if obj is None or name == "__version__":
            continue
        kind = "class" if inspect.isclass(obj) else (
            "function" if callable(obj) else "data")
        try:
            sig = str(inspect.signature(obj)) if callable(obj) else ""
        except (TypeError, ValueError):
            sig = ""
        lines.append(f"### `{name}{sig}`  *({kind})*")
        lines.append("")
        lines.append(first_paragraph(inspect.getdoc(obj)))
        if inspect.isclass(obj):
            methods = [
                (m, f) for m, f in vars(obj).items()
                if callable(f) and not m.startswith("_") and f.__doc__
            ]
            if methods:
                lines.append("")
                for m, f in methods:
                    try:
                        msig = str(inspect.signature(f))
                    except (TypeError, ValueError):
                        msig = "(...)"
                    lines.append(f"- **`{m}{msig}`** — {first_paragraph(f.__doc__)}")
        lines.append("")
    return lines


def render() -> str:
    """The full text of docs/API.md for the importable package."""
    out = [
        "# API reference",
        "",
        "Generated by `python docs/gen_api.py` from the package docstrings;",
        "see docs/ALGORITHMS.md for the mathematics, DESIGN.md for the",
        "paper mapping, and docs/SERVICE.md for the typed-config / Session",
        "service layer (`repro.api`, `repro.service`).",
        "",
    ]
    for name in MODULES:
        mod = importlib.import_module(name)
        out.extend(describe(mod))
    return "\n".join(out) + "\n"


def main():
    path = pathlib.Path(__file__).parent / "API.md"
    path.write_text(render())
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
