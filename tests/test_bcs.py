"""Tests for velocity and scalar boundary-condition handling."""

import numpy as np
import pytest

from repro.core.mesh import box_mesh_2d, box_mesh_3d
from repro.ns.bcs import ScalarBC, VelocityBC


class TestVelocityBC:
    def test_no_slip_all_masks_full_boundary(self):
        m = box_mesh_2d(3, 3, 4)
        bc = VelocityBC.no_slip_all(m)
        assert np.array_equal(bc.mask.constrained, m.boundary_mask())
        lifts = bc.lift()
        assert all(np.all(f == 0) for f in lifts)

    def test_none_bc_unconstrained(self):
        m = box_mesh_2d(3, 3, 4, periodic=(True, True))
        bc = VelocityBC.none(m)
        assert bc.mask.n_constrained == 0

    def test_unknown_side_raises(self):
        m = box_mesh_2d(2, 2, 3)
        with pytest.raises(KeyError):
            VelocityBC(m, {"zmin": (0, 0)})

    def test_wrong_component_count(self):
        m = box_mesh_2d(2, 2, 3)
        with pytest.raises(ValueError):
            VelocityBC(m, {"xmin": (0, 0, 0)})

    def test_callable_components(self):
        m = box_mesh_2d(2, 2, 5)
        bc = VelocityBC(m, {"xmin": (lambda x, y: y * (1 - y), 0.0)})
        u, v = bc.lift()
        mask = m.boundary["xmin"]
        y = np.asarray(m.coords[1])
        assert np.allclose(u[mask], (y * (1 - y))[mask])
        assert np.all(v[mask] == 0)
        assert np.all(u[~mask] == 0)

    def test_time_dependent_data(self):
        m = box_mesh_2d(2, 2, 4)
        bc = VelocityBC(m, {"ymax": (lambda x, y, t: np.sin(t) * np.ones_like(x), 0.0)})
        assert bc.time_dependent
        u0 = bc.lift(0.0)[0]
        u1 = bc.lift(np.pi / 2)[0]
        mask = m.boundary["ymax"]
        assert np.allclose(u0[mask], 0.0)
        assert np.allclose(u1[mask], 1.0)

    def test_apply_to_overwrites_only_boundary(self):
        m = box_mesh_2d(2, 2, 4)
        bc = VelocityBC(m, {"xmin": (3.0, 0.0)})
        u = [np.ones(m.local_shape), np.ones(m.local_shape)]
        out = bc.apply_to(u)
        mask = m.boundary["xmin"]
        assert np.all(out[0][mask] == 3.0)
        assert np.all(out[0][~mask] == 1.0)

    def test_multiple_sides_union(self):
        m = box_mesh_2d(2, 2, 3)
        bc = VelocityBC(m, {"ymin": (0, 0), "ymax": (1.0, 0)})
        assert bc.mask.n_constrained == int(
            (m.boundary["ymin"] | m.boundary["ymax"]).sum()
        )

    def test_3d_components(self):
        m = box_mesh_3d(2, 1, 1, 3)
        bc = VelocityBC(m, {"zmin": (0, 0, 0), "zmax": (1.0, 0, 0)})
        lifts = bc.lift()
        assert len(lifts) == 3
        assert np.all(lifts[0][m.boundary["zmax"]] == 1.0)

    def test_lift_cache_constant_data(self):
        m = box_mesh_2d(2, 2, 3)
        bc = VelocityBC(m, {"xmin": (1.0, 0.0)})
        a = bc.lift(0.0)
        b = bc.lift(5.0)  # not time dependent: same data, fresh arrays
        assert np.array_equal(a[0], b[0])
        a[0][:] = 99.0  # caller-side mutation must not corrupt the cache
        assert np.all(bc.lift(0.0)[0] != 99.0)

    @pytest.mark.parametrize("time_dependent", [False, True])
    def test_written_results_never_reach_a_later_lift(self, time_dependent):
        """``apply_to`` reads the cached lift without copying it; neither its
        result nor ``lift``'s may alias that cache."""
        m = box_mesh_2d(2, 2, 3)
        inflow = (lambda x, y, t: 1.0 + t + 0 * y) if time_dependent else 1.0
        bc = VelocityBC(m, {"xmin": (inflow, 0.0)})
        expect = bc.lift(0.5)
        u = np.zeros((2,) + m.local_shape)
        bc.apply_to(u, 0.5)[:] = 99.0
        bc.lift(0.5)[:] = 98.0
        bc.apply_to(u, 0.5)[:] = 97.0
        assert np.array_equal(bc.lift(0.5), expect)
        assert np.array_equal(bc.apply_to(u, 0.5)[:, m.boundary["xmin"]],
                              expect[:, m.boundary["xmin"]])


class TestScalarBC:
    def test_lift_and_mask(self):
        m = box_mesh_2d(2, 2, 4)
        bc = ScalarBC(m, {"ymin": 1.0, "ymax": 0.0})
        T = bc.lift()
        assert np.all(T[m.boundary["ymin"]] == 1.0)
        assert np.all(T[m.boundary["ymax"]] == 0.0)
        assert bc.mask.n_constrained == int(
            (m.boundary["ymin"] | m.boundary["ymax"]).sum()
        )

    def test_callable_profile(self):
        m = box_mesh_2d(3, 1, 4)
        bc = ScalarBC(m, {"ymin": lambda x, y: np.sin(np.pi * x)})
        T = bc.lift()
        mask = m.boundary["ymin"]
        x = np.asarray(m.coords[0])
        assert np.allclose(T[mask], np.sin(np.pi * x)[mask])

    def test_adiabatic_default(self):
        m = box_mesh_2d(2, 2, 3)
        bc = ScalarBC(m)
        assert bc.mask.n_constrained == 0

    def test_unknown_side(self):
        m = box_mesh_2d(2, 2, 3)
        with pytest.raises(KeyError):
            ScalarBC(m, {"bogus": 1.0})

    def test_apply_to(self):
        m = box_mesh_2d(2, 2, 3)
        bc = ScalarBC(m, {"xmax": 7.0})
        s = np.zeros(m.local_shape)
        out = bc.apply_to(s)
        assert np.all(out[m.boundary["xmax"]] == 7.0)
        assert np.all(out[~m.boundary["xmax"]] == 0.0)
