"""Tests for VTK export and checkpoint/restart."""

import numpy as np
import pytest

from repro.api import SolverConfig
from repro.core.io import load_checkpoint, save_checkpoint, save_vtk
from repro.core.mesh import box_mesh_2d, box_mesh_3d, map_mesh
from repro.ns.bcs import VelocityBC
from repro.ns.navier_stokes import NavierStokesSolver


class TestVTK:
    def test_2d_file_structure(self, tmp_path):
        m = box_mesh_2d(2, 2, 3)
        f = m.eval_function(lambda x, y: x + y)
        path = save_vtk(tmp_path / "out.vtk", m, {"f": f})
        text = path.read_text()
        npts = m.K * m.n1**2
        assert f"POINTS {npts} double" in text
        n_cells = m.K * (m.n1 - 1) ** 2
        assert f"CELL_TYPES {n_cells}" in text
        assert "SCALARS f double 1" in text
        # all subcells are VTK_QUAD (9)
        tail = text.split("CELL_TYPES")[1].splitlines()[1:n_cells + 1]
        assert set(tail) == {"9"}

    def test_3d_hexes(self, tmp_path):
        m = box_mesh_3d(1, 1, 2, 2)
        path = save_vtk(tmp_path / "out3.vtk", m)
        text = path.read_text()
        assert "12" in text.split("CELL_TYPES")[1]

    def test_vector_field(self, tmp_path):
        m = box_mesh_2d(2, 1, 2)
        u = [m.eval_function(lambda x, y: x), m.eval_function(lambda x, y: y)]
        text = save_vtk(tmp_path / "v.vtk", m, {"vel": u}).read_text()
        assert "VECTORS vel double" in text

    def test_velocity_stack_is_written_as_vectors(self, tmp_path):
        m = box_mesh_3d(1, 1, 2, 2)
        u = np.stack([np.asarray(c) for c in m.coords])  # (3, K, n, n, n)
        text = save_vtk(tmp_path / "v3.vtk", m, {"velocity": u}).read_text()
        assert "VECTORS velocity double" in text
        i0 = text.splitlines().index("VECTORS velocity double") + 1
        first = [float(v) for v in text.splitlines()[i0].split()]
        assert first == [float(u[c].flat[0]) for c in range(3)]

    def test_coordinates_roundtrip(self, tmp_path):
        m = map_mesh(box_mesh_2d(2, 2, 2), lambda x, y: (x + 0.1 * y, y))
        path = save_vtk(tmp_path / "c.vtk", m)
        lines = path.read_text().splitlines()
        i0 = lines.index("POINTS 36 double") + 1
        pts = np.array([[float(v) for v in l.split()] for l in lines[i0:i0 + 36]])
        assert np.allclose(np.sort(pts[:, 0])[:1], m.coords[0].min())
        assert np.allclose(pts[:, 2], 0.0)

    def test_bad_field_size(self, tmp_path):
        m = box_mesh_2d(2, 2, 3)
        with pytest.raises(ValueError):
            save_vtk(tmp_path / "bad.vtk", m, {"f": np.zeros(5)})
        with pytest.raises(ValueError):
            save_vtk(tmp_path / "bad2.vtk", m, {"v": [m.field()]})


class TestCheckpoint:
    def make_solver(self):
        L = 2 * np.pi
        mesh = box_mesh_2d(3, 3, 5, x1=L, y1=L, periodic=(True, True))
        sol = NavierStokesSolver(mesh, re=30.0, dt=0.05, bc=VelocityBC.none(mesh),
                                 convection="ext",
                                 config=SolverConfig(projection_window=5))
        sol.set_initial_condition([
            lambda x, y: -np.cos(x) * np.sin(y),
            lambda x, y: np.sin(x) * np.cos(y),
        ])
        return sol

    def test_restart_continues_identically(self, tmp_path):
        a = self.make_solver()
        a.advance(4)
        save_checkpoint(tmp_path / "ck.npz", a)

        b = self.make_solver()
        load_checkpoint(tmp_path / "ck.npz", b)
        assert b.t == pytest.approx(a.t)
        assert b.step_count == a.step_count
        # Fresh solvers drop the projection space, so compare against a
        # reference that also restarts its projector at this point.
        a.projector.reset()
        a.advance(3)
        b.advance(3)
        for c in range(2):
            assert np.allclose(a.u[c], b.u[c], atol=1e-12)
        assert np.allclose(a.p, b.p, atol=1e-10)

    def test_checkpoint_fields_roundtrip(self, tmp_path):
        a = self.make_solver()
        a.advance(3)
        save_checkpoint(tmp_path / "ck.npz", a)
        b = self.make_solver()
        load_checkpoint(tmp_path / "ck.npz", b)
        for c in range(2):
            assert np.array_equal(a.u[c], b.u[c])
        assert np.array_equal(a.p, b.p)
        assert len(b._u_hist) == len(a._u_hist)
        assert b._t_hist == a._t_hist

    def test_stacked_state_roundtrip_is_bitwise(self, tmp_path):
        a = self.make_solver()
        a.advance(3)
        save_checkpoint(tmp_path / "ck.npz", a)
        b = self.make_solver()
        load_checkpoint(tmp_path / "ck.npz", b)
        stack = (2,) + a.mesh.local_shape
        assert isinstance(b.u, np.ndarray) and b.u.shape == stack
        assert np.array_equal(a.u, b.u)
        for hist in ("_u_hist", "_conv_hist"):
            ha, hb = getattr(a, hist), getattr(b, hist)
            assert len(ha) == len(hb) == 2
            for x, y in zip(ha, hb):
                assert y.shape == stack and np.array_equal(x, y)
