"""Typed config API: SolverConfig/RunSpec semantics, config-only solver
constructors, and the facade constructors."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.api import RunSpec, SolverConfig, poisson_solver
from repro.workloads.cylinder_model import Table2Case


# ---------------------------------------------------------------------------
# SolverConfig
# ---------------------------------------------------------------------------
class TestSolverConfig:
    def test_defaults_match_historical_constructor_defaults(self):
        c = SolverConfig()
        assert c.pressure_variant == "fdm"
        assert c.overlap == 1
        assert c.use_coarse is True
        assert c.tol == 1e-5
        assert c.maxiter == 3000
        assert c.pressure_tol == 1e-8
        assert c.helmholtz_tol == 1e-10
        assert c.projection_window == 20
        assert c.pmg_smoother == "jacobi"
        assert c.pmg_coarse == "cg"

    def test_frozen(self):
        with pytest.raises(Exception):
            SolverConfig().tol = 1.0

    def test_replace_returns_modified_copy(self):
        base = SolverConfig()
        mod = base.replace(overlap=3, pressure_variant="fem")
        assert mod.overlap == 3 and mod.pressure_variant == "fem"
        assert base.overlap == 1  # original untouched

    def test_dict_roundtrip(self):
        c = SolverConfig(pressure_variant="condensed", tol=1e-7)
        assert SolverConfig.from_dict(c.as_dict()) == c

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown"):
            SolverConfig.from_dict({"tol": 1e-5, "typo_field": 1})

    @pytest.mark.parametrize("variant", ["jacobi", "fmd"])
    def test_unknown_pressure_variant_rejected_at_construction(self, variant):
        # The message names every accepted tier, "condensed" included.
        with pytest.raises(ValueError, match="'fdm', 'fem' or 'condensed'"):
            SolverConfig(pressure_variant=variant)
        with pytest.raises(ValueError, match="unknown pressure_variant"):
            SolverConfig().replace(pressure_variant=variant)

    @pytest.mark.parametrize("smoother", ["condensed", "bogus", "chebychev"])
    def test_unknown_pmg_smoother_rejected_at_construction(self, smoother):
        # "condensed" names a p-MG coarse solve, not a smoother.
        with pytest.raises(ValueError, match="'jacobi' or 'chebyshev'"):
            SolverConfig(pmg_smoother=smoother)

    @pytest.mark.parametrize("coarse", ["nope", "jacobi"])
    def test_unknown_pmg_coarse_rejected_at_construction(self, coarse):
        with pytest.raises(ValueError, match="'cg' or 'condensed'"):
            SolverConfig(pmg_coarse=coarse)


class TestRunSpec:
    def test_dict_roundtrip(self):
        spec = RunSpec(
            "table2",
            params={"level": 1},
            config=SolverConfig(pressure_variant="fem", overlap=0),
            seed=7,
            label="row3",
            tags=("sweep",),
            share_projection=True,
        )
        back = RunSpec.from_dict(spec.as_dict())
        assert back == spec

    def test_from_dict_minimal(self):
        spec = RunSpec.from_dict({"workload": "poisson"})
        assert spec.config == SolverConfig()
        assert spec.seed == 0 and spec.share_projection is False

    def test_from_dict_rejects_unknown_keys(self):
        # "parms" would otherwise silently run the default level; a stale
        # "batched" key from an old client must not be ignored either.
        with pytest.raises(ValueError, match=r"unknown.*batched.*parms"):
            RunSpec.from_dict({"workload": "table2", "parms": {"level": 1},
                               "batched": False})

    @pytest.mark.parametrize("variant", ["jacobi", "fmd"])
    def test_from_dict_rejects_unknown_pressure_variant(self, variant):
        with pytest.raises(ValueError, match=f"unknown pressure_variant '{variant}'"):
            RunSpec.from_dict({"workload": "table2",
                               "config": {"pressure_variant": variant}})

    @pytest.mark.parametrize("field,value", [
        ("share_projection", "false"),
        ("share_projection", 0),
        ("tags", "abc"),
        ("tags", ["ok", 3]),
        ("seed", "7"),
        ("seed", 7.0),
        ("seed", True),
    ])
    def test_from_dict_rejects_mistyped_values(self, field, value):
        # "false" is truthy: coercing it would opt the run into the shared
        # projection pool and break solo/session bitwise parity.
        with pytest.raises(ValueError, match=f"RunSpec {field}"):
            RunSpec.from_dict({"workload": "table2", field: value})

    def test_from_dict_accepts_wire_types(self):
        spec = RunSpec.from_dict({"workload": "table2", "seed": np.int64(3),
                                  "tags": ["a", "b"], "share_projection": True})
        assert spec.seed == 3 and type(spec.seed) is int
        assert spec.tags == ("a", "b") and spec.share_projection is True

    def test_from_dict_rejects_misspelt_pmg_tier(self):
        # A misspelt serve request must not silently run the default tier.
        with pytest.raises(ValueError, match="unknown pmg_smoother 'chebychev'"):
            RunSpec.from_dict({"workload": "poisson",
                               "config": {"pmg_smoother": "chebychev"}})


# ---------------------------------------------------------------------------
# config= is the only spelling of the solver-stack decisions
# ---------------------------------------------------------------------------
class TestResolveConfig:
    def test_old_keywords_are_type_errors(self):
        from repro import NavierStokesSolver, box_mesh_2d

        mesh = box_mesh_2d(2, 2, 4)
        with pytest.raises(TypeError, match="projection_window"):
            NavierStokesSolver(mesh, re=10.0, dt=0.1, projection_window=5)
        with pytest.raises(TypeError, match="variant"):
            Table2Case(level=0, order=3).run(variant="fdm")

    def test_config_path_emits_no_warning(self):
        from repro import NavierStokesSolver, VelocityBC, box_mesh_2d

        mesh = box_mesh_2d(2, 2, 4, periodic=(True, True))
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            NavierStokesSolver(mesh, re=10.0, dt=0.1,
                               bc=VelocityBC.none(mesh),
                               config=SolverConfig(projection_window=5))

    @pytest.mark.parametrize("cached", [False, True])
    def test_stepper_honours_overlap_and_use_coarse(self, cached):
        from repro import NavierStokesSolver, box_mesh_2d
        from repro.service import FactorCache

        def precond(config, cache):
            return NavierStokesSolver(mesh, re=10.0, dt=0.01, config=config,
                                      cache=cache).pressure_precond

        mesh = box_mesh_2d(4, 4, 6)
        cache = FactorCache() if cached else None
        cfg = SolverConfig(pressure_variant="fem", overlap=3, use_coarse=False)
        pc = precond(cfg, cache)
        assert pc.overlap == 3
        assert pc.coarse is None
        if cached:
            assert precond(cfg, cache) is pc
            other = precond(cfg.replace(overlap=1), cache)
            assert other is not pc and other.overlap == 1


# ---------------------------------------------------------------------------
# Facade constructors
# ---------------------------------------------------------------------------
class TestFacades:
    def test_poisson_solver_cache_shares_instance(self):
        from repro.core.mesh import box_mesh_2d
        from repro.service import FactorCache

        mesh = box_mesh_2d(2, 2, 5)
        cache = FactorCache()
        a = poisson_solver(mesh, cache=cache)
        b = poisson_solver(mesh, cache=cache)
        assert a is b
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_poisson_solver_without_cache_builds_fresh(self):
        from repro.core.mesh import box_mesh_2d

        mesh = box_mesh_2d(2, 2, 5)
        assert poisson_solver(mesh) is not poisson_solver(mesh)

    def test_table2_cache_shares_mesh_and_pop(self):
        from repro.service import FactorCache

        cache = FactorCache()
        a = Table2Case(level=0, order=3, cache=cache)
        b = Table2Case(level=0, order=3, cache=cache)
        assert a.mesh is b.mesh and a.pop is b.pop

    def test_pmg_preconditioner_routes_config_and_caches(self):
        from repro.api import pmg_preconditioner
        from repro.core.mesh import box_mesh_2d
        from repro.service import FactorCache

        mesh = box_mesh_2d(2, 2, 8)
        cfg = SolverConfig(pmg_smoother="chebyshev", pmg_coarse="condensed")
        cache = FactorCache()
        pmg, levels = pmg_preconditioner(mesh, config=cfg, cache=cache)
        # The condensed coarse solve floors the schedule so the coarsest
        # level keeps interior dofs.
        assert [l.order for l in levels] == [8, 4, 2]
        assert pmg.smoother == "chebyshev" and pmg.coarse == "condensed"
        again, _ = pmg_preconditioner(mesh, config=cfg, cache=cache)
        assert again is pmg
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        # A different tier selection is a different cache entry.
        other, olevels = pmg_preconditioner(mesh, config=SolverConfig(),
                                            cache=cache)
        assert other is not pmg
        assert [l.order for l in olevels] == [8, 4, 2, 1]

    def test_condensed_pressure_tier_is_zero_overlap_fdm(self):
        from repro.api import pressure_preconditioner
        from repro.core.mesh import box_mesh_2d
        from repro.core.pressure import PressureOperator
        from repro.service import FactorCache
        from repro.solvers.schwarz import SchwarzPreconditioner

        mesh = box_mesh_2d(3, 3, 5)
        pop = PressureOperator(mesh)
        cache = FactorCache()
        cond = pressure_preconditioner(
            mesh, pop, SolverConfig(pressure_variant="condensed", overlap=3),
            cache=cache,
        )
        assert isinstance(cond, SchwarzPreconditioner)
        assert cond.variant == "fdm" and cond.overlap == 0
        # One cache entry for both spellings of the same preconditioner.
        fdm0 = pressure_preconditioner(
            mesh, pop, SolverConfig(pressure_variant="fdm", overlap=0),
            cache=cache,
        )
        assert fdm0 is cond
        assert cache.stats.hits == 1 and cache.stats.misses == 1
