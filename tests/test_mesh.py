"""Tests for mesh construction, numbering, boundaries, and refinement."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mesh import box_mesh_2d, box_mesh_3d, map_mesh


class TestBoxMesh2D:
    def test_counts(self):
        m = box_mesh_2d(3, 2, 4)
        assert m.K == 6
        assert m.n1 == 5
        assert m.local_shape == (6, 5, 5)
        # Global nodes: (3*4+1) * (2*4+1)
        assert m.n_nodes == 13 * 9
        assert m.n_vertices == 4 * 3

    def test_coordinates_cover_domain(self):
        m = box_mesh_2d(2, 2, 5, x0=-1, x1=3, y0=0, y1=2)
        x, y = m.coords
        assert x.min() == pytest.approx(-1) and x.max() == pytest.approx(3)
        assert y.min() == pytest.approx(0) and y.max() == pytest.approx(2)

    def test_shared_nodes_have_identical_coordinates(self):
        m = box_mesh_2d(3, 3, 6)
        for c in m.coords:
            flat = {}
            for gid, val in zip(m.global_ids.ravel(), c.ravel()):
                if gid in flat:
                    assert val == pytest.approx(flat[gid], abs=1e-13)
                else:
                    flat[gid] = val

    def test_interface_multiplicity(self):
        m = box_mesh_2d(2, 1, 3)
        counts = np.bincount(m.global_ids.ravel())
        # One shared edge of 4 nodes, each appearing twice.
        assert np.sum(counts == 2) == 4
        assert np.sum(counts == 1) == m.n_nodes - 4

    def test_periodic_x_identifies_edges(self):
        m = box_mesh_2d(3, 2, 3, periodic=(True, False))
        assert m.n_nodes == (3 * 3) * (2 * 3 + 1)
        assert "xmin" not in m.boundary and "ymin" in m.boundary
        # Left edge of element column 0 matches right edge of column 2.
        left = m.global_ids[0, :, 0]
        right = m.global_ids[2, :, -1]
        assert np.array_equal(left, right)

    def test_fully_periodic(self):
        m = box_mesh_2d(4, 4, 2, periodic=(True, True))
        assert m.boundary == {}
        assert m.n_nodes == (4 * 2) ** 2
        assert m.n_vertices == 16

    def test_boundary_masks_partition_boundary(self):
        m = box_mesh_2d(3, 3, 4)
        total = m.boundary_mask()
        x, y = m.coords
        on_bdry = (
            np.isclose(x, 0) | np.isclose(x, 1) | np.isclose(y, 0) | np.isclose(y, 1)
        )
        assert np.array_equal(total, on_bdry)

    def test_boundary_mask_unknown_side_raises(self):
        m = box_mesh_2d(2, 2, 2)
        with pytest.raises(KeyError):
            m.boundary_mask(["zmin"])

    def test_breakpoints_grading(self):
        xb = np.array([0.0, 0.1, 0.3, 1.0])
        m = box_mesh_2d(3, 1, 2, x_breaks=xb)
        x = m.coords[0]
        assert x[0].min() == pytest.approx(0.0) and x[0].max() == pytest.approx(0.1)
        assert x[2].min() == pytest.approx(0.3) and x[2].max() == pytest.approx(1.0)

    def test_bad_breakpoints_raise(self):
        with pytest.raises(ValueError):
            box_mesh_2d(2, 1, 2, x_breaks=np.array([0.0, 0.5, 0.4]))
        with pytest.raises(ValueError):
            box_mesh_2d(2, 1, 2, x_breaks=np.array([0.0, 1.0]))

    def test_invalid_args_raise(self):
        with pytest.raises(ValueError):
            box_mesh_2d(0, 1, 3)
        with pytest.raises(ValueError):
            box_mesh_2d(1, 1, 0)
        with pytest.raises(ValueError):
            box_mesh_2d(1, 2, 3, periodic=(True, False))

    def test_eval_function(self):
        m = box_mesh_2d(2, 2, 3)
        f = m.eval_function(lambda x, y: x + 10 * y)
        assert np.allclose(f, m.coords[0] + 10 * m.coords[1])


class TestBoxMesh3D:
    def test_counts(self):
        m = box_mesh_3d(2, 3, 1, 3)
        assert m.K == 6
        assert m.local_shape == (6, 4, 4, 4)
        assert m.n_nodes == 7 * 10 * 4
        assert m.n_vertices == 3 * 4 * 2

    def test_shared_face_nodes_match(self):
        m = box_mesh_3d(2, 1, 1, 4)
        # Elements 0,1 share the x-face: right face of 0 == left face of 1.
        assert np.array_equal(m.global_ids[0, :, :, -1], m.global_ids[1, :, :, 0])
        x = m.coords[0]
        assert np.allclose(x[0, :, :, -1], x[1, :, :, 0])

    def test_periodic_z(self):
        m = box_mesh_3d(1, 1, 3, 2, periodic=(False, False, True))
        assert "zmin" not in m.boundary and "xmin" in m.boundary
        assert np.array_equal(m.global_ids[0, 0, :, :], m.global_ids[2, -1, :, :])

    def test_boundary_masks_match_coordinates(self):
        m = box_mesh_3d(2, 2, 2, 2)
        z = m.coords[2]
        assert np.array_equal(m.boundary["zmax"], np.isclose(z, 1.0))

    def test_multiplicity_at_interior_vertex(self):
        m = box_mesh_3d(2, 2, 2, 2)
        counts = np.bincount(m.global_ids.ravel())
        assert counts.max() == 8  # central vertex shared by all 8 elements


class TestMapAndRefine:
    def test_map_mesh_preserves_topology(self):
        m = box_mesh_2d(3, 3, 4)
        dm = map_mesh(m, lambda x, y: (x + 0.1 * np.sin(np.pi * y), y))
        assert np.array_equal(dm.global_ids, m.global_ids)
        assert not np.allclose(dm.coords[0], m.coords[0])
        assert np.allclose(dm.coords[1], m.coords[1])

    def test_map_mesh_keeps_shared_nodes_coincident(self):
        m = box_mesh_2d(2, 2, 5)
        dm = map_mesh(m, lambda x, y: (x * (1 + 0.3 * y), y + 0.2 * x * x))
        for c in dm.coords:
            g = np.zeros(dm.n_nodes)
            np.maximum.at(g, dm.global_ids.ravel(), c.ravel())
            h = np.full(dm.n_nodes, np.inf)
            np.minimum.at(h, dm.global_ids.ravel(), c.ravel())
            assert np.allclose(g, h, atol=1e-13)

    def test_map_wrong_arity_raises(self):
        m = box_mesh_2d(1, 1, 2)
        with pytest.raises(ValueError):
            map_mesh(m, lambda x, y: (x,))


class TestAdjacency:
    def test_2d_adjacency_counts(self):
        m = box_mesh_2d(3, 3, 2)
        adj = m.element_adjacency()
        assert adj.shape == (9, 9)
        assert np.array_equal(adj, adj.T)
        # Corner element touches 3 others (edge + edge + diagonal).
        assert adj[0].sum() == 3
        # Center element touches all 8 others.
        assert adj[4].sum() == 8

    def test_periodic_adjacency_wraps(self):
        m = box_mesh_2d(4, 1, 2, periodic=(True, False))
        adj = m.element_adjacency()
        assert adj[0, 3]  # wraps around

    def test_centroids(self):
        m = box_mesh_2d(2, 1, 3, x1=2.0)
        c = m.element_centroids()
        assert c.shape == (2, 2)
        assert c[0, 0] < c[1, 0]


@settings(max_examples=20, deadline=None)
@given(
    nex=st.integers(1, 4),
    ney=st.integers(1, 4),
    order=st.integers(1, 6),
)
def test_global_numbering_is_compressed_and_consistent(nex, ney, order):
    m = box_mesh_2d(nex, ney, order)
    ids = m.global_ids.ravel()
    assert ids.min() == 0
    assert np.array_equal(np.unique(ids), np.arange(ids.max() + 1))
    assert m.n_nodes == (nex * order + 1) * (ney * order + 1)
