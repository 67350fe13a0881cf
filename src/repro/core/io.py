"""Field I/O: legacy-VTK export and solver checkpointing.

The production code's runs are "usually 14 to 24 hours in length" with
"setup and I/O costs typically in the range of 2-5%" (Section 7) — i.e.
restart files and visualization dumps are part of the system.  Here:

* :func:`save_vtk` — write mesh + nodal fields as legacy VTK unstructured
  grids (one quad/hex cell per GLL sub-cell), readable by ParaView/VisIt;
* :func:`save_checkpoint` / :func:`load_checkpoint` — lossless state dumps
  (npz) for :class:`~repro.ns.navier_stokes.NavierStokesSolver`, restoring
  velocity, pressure, time, and the BDF history so a restarted run
  continues bit-compatibly.
"""

from __future__ import annotations

import pathlib
from typing import Dict, List, Optional

import numpy as np

from .mesh import Mesh

__all__ = ["save_vtk", "save_checkpoint", "load_checkpoint"]


def _subcell_connectivity(mesh: Mesh) -> np.ndarray:
    """Connectivity of GLL sub-cells (quads/hexes) in local-node indices."""
    n1 = mesh.n1
    nd = mesh.ndim
    cells = []
    if nd == 2:
        def nid(j, i):
            return j * n1 + i

        for j in range(n1 - 1):
            for i in range(n1 - 1):
                cells.append([nid(j, i), nid(j, i + 1), nid(j + 1, i + 1), nid(j + 1, i)])
    else:
        def nid3(l, j, i):
            return (l * n1 + j) * n1 + i

        for l in range(n1 - 1):
            for j in range(n1 - 1):
                for i in range(n1 - 1):
                    cells.append([
                        nid3(l, j, i), nid3(l, j, i + 1),
                        nid3(l, j + 1, i + 1), nid3(l, j + 1, i),
                        nid3(l + 1, j, i), nid3(l + 1, j, i + 1),
                        nid3(l + 1, j + 1, i + 1), nid3(l + 1, j + 1, i),
                    ])
    return np.asarray(cells, dtype=np.int64)


def save_vtk(
    path,
    mesh: Mesh,
    point_fields: Optional[Dict[str, np.ndarray]] = None,
) -> pathlib.Path:
    """Write the mesh and batched nodal fields as a legacy-VTK file.

    ``point_fields`` maps names to batched scalar fields ``(K, ...)`` or to
    vectors (written as such): a velocity stack ``(ndim, K, ...)`` or a
    sequence of ``ndim`` components.  Nodes are written redundantly per
    element (VTK handles coincident points), so no global renumbering is
    required.
    """
    path = pathlib.Path(path)
    point_fields = point_fields or {}
    K = mesh.K
    npts_el = mesh.n1**mesh.ndim
    coords = [np.asarray(c).reshape(K, -1) for c in mesh.coords]
    sub = _subcell_connectivity(mesh)
    n_cells = K * len(sub)
    cell_size = sub.shape[1]
    vtk_type = 9 if mesh.ndim == 2 else 12  # VTK_QUAD / VTK_HEXAHEDRON

    lines: List[str] = [
        "# vtk DataFile Version 3.0",
        "repro spectral element output",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {K * npts_el} double",
    ]
    zeros = np.zeros(K * npts_el)
    xs = coords[0].ravel()
    ys = coords[1].ravel()
    zs = coords[2].ravel() if mesh.ndim == 3 else zeros
    for x, y, z in zip(xs, ys, zs):
        lines.append(f"{x:.12g} {y:.12g} {z:.12g}")

    lines.append(f"CELLS {n_cells} {n_cells * (cell_size + 1)}")
    for k in range(K):
        base = k * npts_el
        for cell in sub:
            lines.append(str(cell_size) + " " + " ".join(str(base + c) for c in cell))
    lines.append(f"CELL_TYPES {n_cells}")
    lines.extend([str(vtk_type)] * n_cells)

    if point_fields:
        lines.append(f"POINT_DATA {K * npts_el}")
        for name, field in point_fields.items():
            if isinstance(field, (list, tuple)) or np.ndim(field) == mesh.ndim + 2:
                comps = [np.asarray(c).reshape(-1) for c in field]
                if len(comps) != mesh.ndim:
                    raise ValueError(
                        f"vector field {name!r}: need {mesh.ndim} components"
                    )
                if mesh.ndim == 2:
                    comps = comps + [np.zeros_like(comps[0])]
                lines.append(f"VECTORS {name} double")
                for vals in zip(*comps):
                    lines.append(" ".join(f"{v:.12g}" for v in vals))
            else:
                flat = np.asarray(field).reshape(-1)
                if flat.size != K * npts_el:
                    raise ValueError(
                        f"scalar field {name!r}: wrong size {flat.size}"
                    )
                lines.append(f"SCALARS {name} double 1")
                lines.append("LOOKUP_TABLE default")
                lines.extend(f"{v:.12g}" for v in flat)

    path.write_text("\n".join(lines) + "\n")
    return path


def save_checkpoint(path, solver) -> pathlib.Path:
    """Dump a NavierStokesSolver's evolving state (npz, lossless)."""
    path = pathlib.Path(path)
    np.savez_compressed(
        path,
        t=solver.t,
        step_count=solver.step_count,
        p=solver.p,
        u=solver.u,
        t_hist=np.asarray(solver._t_hist),
        u_hist=np.asarray(solver._u_hist),
        conv_hist=np.asarray(solver._conv_hist),
    )
    return path


def load_checkpoint(path, solver) -> None:
    """Restore state written by :func:`save_checkpoint` into a solver
    built with the same mesh/configuration."""
    with np.load(path) as data:
        solver.t = float(data["t"])
        solver.step_count = int(data["step_count"])
        solver.p = data["p"]
        solver.u = data["u"]
        solver._t_hist = [float(v) for v in data["t_hist"]]
        solver._u_hist = list(data["u_hist"])
        solver._conv_hist = list(data["conv_hist"])
    if solver.projector is not None:
        solver.projector.reset()  # projection space is a pure accelerator
