"""Service layer: FactorCache, Session, ProjectorPool.

The load-bearing guarantees under test:

* cache keys are content hashes — a deformed mesh never collides with the
  rectilinear mesh of the same element counts;
* concurrent misses on one key build exactly once; LRU eviction respects
  the byte cap;
* runs executed concurrently in a session are **bitwise identical** to
  the same runs executed solo, under a fixed backend and under ``auto``;
* per-run reports and the service summary validate against the report
  schema.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.api import RunSpec, SolverConfig
from repro.backends.dispatch import use_backend
from repro.core.mesh import box_mesh_2d, map_mesh
from repro.service import (
    FactorCache,
    ProjectorPool,
    Session,
    array_signature,
    estimate_nbytes,
    execute,
    mesh_signature,
    runner_names,
)


# ---------------------------------------------------------------------------
# FactorCache
# ---------------------------------------------------------------------------
class TestFactorCache:
    def test_build_once_then_hit(self):
        cache = FactorCache()
        calls = []
        val = cache.get("k", lambda: calls.append(1) or np.zeros(4))
        again = cache.get("k", lambda: calls.append(1) or np.zeros(4))
        assert val is again
        assert calls == [1]
        assert cache.stats.hits == 1 and cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_lru_eviction_under_byte_cap(self):
        kb = np.zeros(128).nbytes  # 1 KiB
        cache = FactorCache(max_bytes=3 * kb)
        for name in "abc":
            cache.get(name, lambda: np.zeros(128))
        assert cache.keys() == ("a", "b", "c")
        cache.get("a", lambda: np.zeros(128))  # touch: "b" is now LRU
        cache.get("d", lambda: np.zeros(128))  # over cap -> evict "b"
        assert "b" not in cache
        assert set(cache.keys()) == {"a", "c", "d"}
        assert cache.stats.evictions == 1
        assert cache.nbytes <= 3 * kb

    def test_single_over_cap_entry_served_not_retained(self):
        cache = FactorCache(max_bytes=100)
        big = cache.get("big", lambda: np.zeros(1000))
        assert big.shape == (1000,)
        assert len(cache) == 0
        assert cache.stats.evictions == 1

    def test_explicit_nbytes_overrides_estimate(self):
        cache = FactorCache(max_bytes=10_000)
        cache.get("tiny-looking", lambda: np.zeros(8), nbytes=1)
        assert cache.as_dict()["bytes"] == 1

    def test_concurrent_misses_build_once(self):
        cache = FactorCache()
        built = []
        gate = threading.Barrier(4)

        def builder():
            built.append(threading.get_ident())
            time.sleep(0.02)  # widen the race window
            return np.arange(10)

        results = [None] * 4

        def worker(i):
            gate.wait()
            results[i] = cache.get("shared", builder)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(built) == 1
        assert all(r is results[0] for r in results)
        assert cache.stats.misses == 1 and cache.stats.hits == 3

    def test_raising_builder_releases_build_lock(self):
        """A failed build must not leave its per-key lock resident — a
        long-running service with failing runs would grow ``_building``
        without bound, and a later successful build must proceed."""
        cache = FactorCache()

        def broken():
            raise RuntimeError("synthetic build failure")

        for _ in range(3):
            with pytest.raises(RuntimeError, match="synthetic"):
                cache.get("k", broken)
            assert cache._building == {}
        # The key is still buildable once the builder stops failing.
        assert np.array_equal(cache.get("k", lambda: np.arange(3)),
                              np.arange(3))
        assert "k" in cache

    def test_raising_builder_does_not_wedge_waiters(self):
        """Threads queued behind a failing build retry instead of
        inheriting the failure or deadlocking on a leaked lock."""
        cache = FactorCache()
        gate = threading.Barrier(3)
        outcomes = [None] * 3

        def builder():
            time.sleep(0.02)
            raise ValueError("flaky setup")

        def worker(i):
            gate.wait()
            try:
                outcomes[i] = cache.get("shared", builder)
            except ValueError:
                outcomes[i] = "raised"

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert outcomes == ["raised"] * 3
        assert cache._building == {}
        assert cache.get("shared", lambda: 42) == 42

    @pytest.mark.parametrize("variant", ["fdm", "condensed"])
    def test_stokes_and_navier_stokes_share_one_geometry(self, monkeypatch,
                                                          variant):
        """Both steppers key geometry, the pressure operator and the
        pressure preconditioner alike, so one mesh through one cache
        builds each of them once."""
        import repro.ns.navier_stokes as ns_mod
        import repro.ns.stokes as stokes_mod
        from repro.api import SolverConfig
        from repro.core.element import geometric_factors

        built = []

        def counting(mesh, **kw):
            built.append(mesh)
            return geometric_factors(mesh, **kw)

        monkeypatch.setattr(ns_mod, "geometric_factors", counting)
        mesh = box_mesh_2d(2, 2, 4)
        cache = FactorCache()
        config = SolverConfig(pressure_variant=variant)
        stokes = stokes_mod.StokesSolver(mesh, config=config, cache=cache)
        ns = ns_mod.NavierStokesSolver(mesh, re=10.0, dt=0.01, config=config,
                                       cache=cache)
        assert len(built) == 1
        assert ns.geom is stokes.geom and ns.pop is stokes.pop
        assert ns.pressure_precond is stokes.precond
        kinds = [k[0] for k in cache.keys()]
        assert kinds.count("geom") == 1
        assert kinds.count("pressure_operator") == 1
        assert kinds.count("pressure_precond") == 1

    def test_as_dict_shape(self):
        d = FactorCache().as_dict()
        assert set(d) == {"hits", "misses", "evictions", "hit_rate",
                          "entries", "bytes"}


class TestSignatures:
    def test_deformed_mesh_differs_from_rectilinear(self):
        rect = box_mesh_2d(3, 3, 5)
        warped = map_mesh(
            box_mesh_2d(3, 3, 5),
            lambda x, y: (x + 0.05 * np.sin(np.pi * y), y),
        )
        assert mesh_signature(rect) != mesh_signature(warped)

    def test_identical_rebuild_matches(self):
        assert mesh_signature(box_mesh_2d(3, 3, 5)) == mesh_signature(
            box_mesh_2d(3, 3, 5)
        )

    def test_order_changes_signature(self):
        assert mesh_signature(box_mesh_2d(3, 3, 5)) != mesh_signature(
            box_mesh_2d(3, 3, 6)
        )

    def test_signature_is_memoized(self):
        mesh = box_mesh_2d(2, 2, 4)
        sig = mesh_signature(mesh)
        assert mesh._repro_signature == sig
        assert mesh_signature(mesh) == sig

    def test_array_signature(self):
        a = np.arange(6.0)
        assert array_signature(a) == array_signature(a.copy())
        assert array_signature(a) != array_signature(a + 1)
        assert array_signature(None) == "none"

    def test_estimate_nbytes_walks_containers_and_attrs(self):
        arr = np.zeros(100)  # 800 bytes

        class Holder:
            def __init__(self):
                self.a = arr
                self.b = {"x": arr}  # shared: counted once

        assert estimate_nbytes(Holder()) == arr.nbytes
        assert estimate_nbytes([arr, np.zeros(10)]) == arr.nbytes + 80


# ---------------------------------------------------------------------------
# Session
# ---------------------------------------------------------------------------
def _poisson_specs(n_runs, *, n=3, order=5, deformed=False):
    return [
        RunSpec(
            "poisson",
            params={"n": n, "order": order, "deformed": deformed},
            config=SolverConfig(tol=1e-8),
            seed=100 + i,
            label=f"run{i}",
        )
        for i in range(n_runs)
    ]


class TestSession:
    def test_registered_runners(self):
        names = runner_names()
        for expected in ("table2", "poisson", "stokes", "shear_layer"):
            assert expected in names

    @pytest.mark.parametrize("backend", ["matmul", "auto"])
    def test_concurrent_runs_bitwise_match_solo(self, backend):
        """The determinism probe: 6 concurrent runs produce solutions
        bitwise identical to solo execution — a session run executes the
        very code ``execute`` does, so no backend needs pinning."""
        specs = _poisson_specs(6)
        with use_backend(backend):
            solo = [execute(s) for s in specs]
            with Session(workers=3) as sess:
                results = sess.run(specs)
        for r, s in zip(results, solo):
            assert r.ok, r.error
            np.testing.assert_array_equal(r.payload["x"], s["x"])
            assert r.payload["iterations"] == s["iterations"]
        assert results[0].payload["converged"]

    def test_cache_is_shared_across_runs(self):
        specs = _poisson_specs(5)
        with use_backend("matmul"), Session(workers=2) as sess:
            results = sess.run(specs)
            summary = sess.summary()
        assert all(r.ok for r in results)
        assert summary["cache"]["misses"] >= 1
        assert summary["cache"]["hits"] >= 4  # runs 2..5 reuse the solver
        assert summary["runs"] == 5 and summary["succeeded"] == 5
        assert summary["throughput_runs_per_s"] > 0

    def test_deformed_and_rectilinear_runs_use_distinct_entries(self):
        specs = _poisson_specs(1) + _poisson_specs(1, deformed=True)
        with use_backend("matmul"), Session(workers=1) as sess:
            results = sess.run(specs)
        sigs = {r.payload["mesh_signature"] for r in results}
        assert len(sigs) == 2
        solver_keys = [k for k in sess.cache.keys()
                       if k[0] == "condensed_poisson"]
        assert len(solver_keys) == 2

    def test_eviction_under_session_memory_cap(self):
        specs = _poisson_specs(1) + _poisson_specs(1, deformed=True)
        with use_backend("matmul"):
            with Session(workers=1, max_cache_bytes=50_000) as sess:
                results = sess.run(specs)
                summary = sess.summary()
        assert all(r.ok for r in results)
        assert summary["cache"]["evictions"] >= 1
        assert summary["cache"]["bytes"] <= 50_000

    def test_per_run_reports_validate(self):
        specs = _poisson_specs(2)
        with use_backend("matmul"), Session(workers=2) as sess:
            results = sess.run(specs)
            service_report = sess.report(meta={"suite": "test"})
        for r in results:
            assert r.report is not None
            obs.validate_report(r.report)
            meta = r.report["meta"]["service_run"]
            assert meta["workload"] == "poisson"
            assert meta["seed"] == r.spec.seed
            assert meta["ok"] is True
            assert "batched" not in meta
        obs.validate_report(service_report)
        svc = service_report["service"]
        assert svc["runs"] == 2
        # The service section validates without the six-key batching block
        # (and without any batching key at all) ...
        assert "enabled" not in svc["batching"]
        bare = {k: v for k, v in svc.items() if k != "batching"}
        obs.validate_report({**service_report, "service": bare})
        # ... and a document written before the batcher was deleted, which
        # carries that block, still validates.
        old = dict(bare, batching={
            "enabled": True, "submitted": 10, "backend_calls": 9,
            "fused_groups": 1, "mean_occupancy": 1.1, "max_occupancy": 2,
        })
        obs.validate_report({**service_report, "service": old})
        # Kernel tuning is per process and in memory: no tuning block, but a
        # document that still carries the old one validates.
        assert "tuning" not in svc
        with_tuning = dict(svc, tuning={
            "path": None, "persist": False, "table_key": "abc+matmul",
            "entries": 3, "loaded_from_disk": 0, "tuned_this_process": 3,
            "saves": 0,
        })
        obs.validate_report({**service_report, "service": with_tuning})

    def test_failed_run_is_contained(self):
        from repro.service import register

        @register("test-boom")
        def _boom(spec, ctx):
            raise RuntimeError("intentional test failure")

        bad = RunSpec("test-boom")
        good = _poisson_specs(1)[0]
        with use_backend("matmul"), Session(workers=2) as sess:
            results = sess.run([bad, good])
            summary = sess.summary()
        assert not results[0].ok
        assert isinstance(results[0].error, RuntimeError)
        assert results[1].ok
        assert summary["failed"] == 1 and summary["succeeded"] == 1
        with pytest.raises(RuntimeError, match="intentional"):
            with Session(workers=1) as sess2:
                sess2.map([bad])

    def test_unknown_workload_raises_helpfully(self):
        with Session(workers=1) as sess:
            res = sess.run([RunSpec("no-such-runner")])[0]
        assert isinstance(res.error, KeyError)
        assert "no-such-runner" in str(res.error)

    def test_submit_after_close_rejected(self):
        sess = Session(workers=1)
        sess.close()
        with pytest.raises(RuntimeError, match="closed"):
            sess.submit(RunSpec("poisson"))

    def test_shared_projection_accelerates_later_runs(self):
        """Cross-run projection reuse is opt-in: later table2 runs project
        onto earlier runs' solutions of the same operator and converge in
        far fewer iterations (it warm-starts, so iterate trajectories
        legitimately differ — hence opt-in, not default)."""
        specs = [
            RunSpec("table2", params={"level": 0, "order": 3},
                    config=SolverConfig(pressure_variant="fdm", maxiter=200),
                    seed=i, share_projection=True, label=f"p{i}")
            for i in range(3)
        ]
        with use_backend("matmul"), Session(workers=1) as sess:
            results = sess.run(specs)
        assert all(r.ok for r in results)
        assert all(r.payload["converged"] for r in results)
        # The RHS is identical across runs, so the projected residual is
        # ~zero for runs 2 and 3.
        assert results[1].payload["iterations"] < results[0].payload["iterations"]
        assert len(sess.projectors) == 1

    def test_table2_smoke_through_session(self):
        specs = [
            RunSpec("table2", params={"level": 0, "order": 3},
                    config=SolverConfig(pressure_variant="fdm", maxiter=200),
                    label=v, seed=i)
            for i, v in enumerate(["a", "b"])
        ]
        with use_backend("matmul"), Session(workers=2) as sess:
            results = sess.run(specs)
            summary = sess.summary()
        for r in results:
            assert r.ok, r.error
            assert r.payload["converged"]
        assert results[0].payload["iterations"] == results[1].payload["iterations"]
        assert summary["cache"]["hits"] >= 1  # mesh/pop/rhs shared


class TestProjectorPool:
    def test_same_key_shares_history(self):
        pool = ProjectorPool(max_vectors=5)
        matvec = lambda x: 2.0 * x
        dot = lambda a, b: float(np.dot(a, b))
        p1, l1 = pool.acquire("op-A", matvec, dot)
        p2, l2 = pool.acquire("op-A", matvec, dot)
        p3, _ = pool.acquire("op-B", matvec, dot)
        assert p1 is p2 and l1 is l2
        assert p3 is not p1
        assert len(pool) == 2
        assert p1.max_vectors == 5


class TestRunScopeIsolation:
    def test_two_threads_get_private_flop_tallies(self):
        from repro.perf.flops import add_flops

        tallies = {}
        gate = threading.Barrier(2)

        def worker(name, amount):
            with obs.run_scope() as scope:
                gate.wait()
                add_flops(amount, "mxm")
                gate.wait()
                tallies[name] = scope.counter.total()

        a = threading.Thread(target=worker, args=("a", 100.0))
        b = threading.Thread(target=worker, args=("b", 7.0))
        a.start(); b.start(); a.join(); b.join()
        assert tallies["a"] == 100.0
        assert tallies["b"] == 7.0
