"""Compiled/optional backend tier: parity matrix, capability flags, cache
semantics, and the persistent tuning table.

The whole file runs with or without the optional dependencies: the parity
matrix iterates *whatever registered* (numba/cupy join ``FIXED``
automatically when installed, and the optional-dependency CI job runs this
same file with numba present), and the dispatcher/persistence tests use a
throwaway toy backend so they never depend on an install.
"""

import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import backends
from repro.backends import dispatch
from repro.backends.base import KERNEL_POINTS, KernelBackend
from repro.core.tensor import apply_tensor as core_apply_tensor
from repro.perf.flops import counting

FIXED = [n for n in backends.available_backends() if n != "auto"]

#: parity bound of the per-kernel-point contract (see docs/BACKENDS.md):
#: every backend agrees with every other to 1e-13 *relative* on the
#: small-N SEM shapes, because all in-tree kernels use deterministic
#: ascending-index accumulation (numba runs with fastmath off).
PARITY_RTOL = 1e-13


def _ref_apply_1d(op, u, direction):
    axis = u.ndim - 1 - direction
    return np.moveaxis(np.tensordot(op, u, axes=([1], [axis])), 0, axis)


def _ref_apply_tensor(ops, u):
    cur = u
    for d, op in enumerate(ops):
        if op is not None:
            cur = _ref_apply_1d(op, cur, d)
    return cur


def _assert_parity(got, ref):
    scale = max(1.0, float(np.max(np.abs(ref))))
    assert np.max(np.abs(got - ref)) <= PARITY_RTOL * scale


@st.composite
def _apply_1d_cases(draw):
    ndim = draw(st.integers(min_value=2, max_value=3))
    K = draw(st.integers(min_value=1, max_value=5))
    extents = tuple(draw(st.integers(min_value=2, max_value=8)) for _ in range(ndim))
    direction = draw(st.integers(min_value=0, max_value=ndim - 1))
    m = draw(st.integers(min_value=1, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return K, extents, direction, m, seed


@st.composite
def _apply_tensor_cases(draw):
    ndim = draw(st.integers(min_value=2, max_value=3))
    K = draw(st.integers(min_value=1, max_value=4))
    extents = tuple(draw(st.integers(min_value=2, max_value=6)) for _ in range(ndim))
    # Per direction: None (identity), or a possibly-rectangular operator row
    # count; at least one real operator.
    rows = [
        draw(st.one_of(st.none(), st.integers(min_value=1, max_value=7)))
        for _ in range(ndim)
    ]
    if all(r is None for r in rows):
        rows[draw(st.integers(0, ndim - 1))] = draw(st.integers(1, 7))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return K, extents, tuple(rows), seed


class TestParityMatrix:
    """Every registered backend vs the dgemm reference, per kernel point."""

    @pytest.mark.parametrize("name", FIXED + ["auto"])
    @given(case=_apply_1d_cases())
    def test_apply_1d(self, name, case):
        K, extents, direction, m, seed = case
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((K,) + extents)
        n = extents[len(extents) - 1 - direction]
        op = rng.standard_normal((m, n))
        with backends.use_backend(name):
            got = dispatch.apply_1d(op, u, direction)
        _assert_parity(got, _ref_apply_1d(op, u, direction))

    @pytest.mark.parametrize("name", FIXED + ["auto"])
    @given(
        K=st.integers(min_value=1, max_value=40),
        m=st.integers(min_value=1, max_value=9),
        n=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_batched_matvec(self, name, K, m, n, seed):
        rng = np.random.default_rng(seed)
        mats = rng.standard_normal((K, m, n))
        vecs = rng.standard_normal((K, n))
        with backends.use_backend(name):
            got = dispatch.batched_matvec(mats, vecs)
        _assert_parity(got, np.einsum("kij,kj->ki", mats, vecs))

    @pytest.mark.parametrize("name", FIXED + ["auto"])
    @given(case=_apply_tensor_cases())
    def test_apply_tensor(self, name, case):
        K, extents, rows, seed = case
        rng = np.random.default_rng(seed)
        u = rng.standard_normal((K,) + extents)
        ops = tuple(
            None
            if r is None
            else rng.standard_normal((r, extents[len(extents) - 1 - d]))
            for d, r in enumerate(rows)
        )
        with backends.use_backend(name):
            got = dispatch.apply_tensor(ops, u)
        _assert_parity(got, _ref_apply_tensor(ops, u))


class TestFlopAccounting:
    """Exact analytic tallies, identical whichever backend runs the call."""

    def test_tallies_backend_independent(self):
        rng = np.random.default_rng(9)
        u = rng.standard_normal((6, 5, 4))
        op_r = rng.standard_normal((7, 4))
        op_s = rng.standard_normal((3, 5))
        mats = rng.standard_normal((10, 6, 5))
        vecs = rng.standard_normal((10, 5))
        expected = (
            2.0 * 7 * 4 * (u.size // 4)          # apply_1d, direction 0
            + 2.0 * 10 * 6 * 5                   # batched_matvec
            + 2.0 * 7 * 4 * (u.size // 4)        # apply_tensor stage r
            + 2.0 * 3 * 5 * ((6 * 5 * 7) // 5)   # apply_tensor stage s
        )
        totals = {}
        for name in FIXED + ["auto"]:
            with backends.use_backend(name), counting() as fc:
                dispatch.apply_1d(op_r, u, 0)
                dispatch.batched_matvec(mats, vecs)
                dispatch.apply_tensor((op_r, op_s), u)
            totals[name] = (fc.total(), dict(fc.snapshot()))
        ref_total, ref_cats = totals[FIXED[0]]
        assert ref_total == expected
        assert set(ref_cats) == {"mxm"}
        for name, (total, cats) in totals.items():
            assert total == ref_total, f"{name}: {total} != {ref_total}"
            assert cats == ref_cats


class TestCapabilities:
    def test_every_registered_backend_reports_all_points(self):
        for name in FIXED:
            caps = backends.get_backend(name).capabilities()
            assert set(caps) == set(KERNEL_POINTS)
            assert caps["apply_1d"] == "native"
            assert all(v in ("native", "composed", "unsupported") for v in caps.values())

    def test_unsupported_point_never_routed(self):
        class _NoBmv(KernelBackend):
            name = "nobmv"
            unsupported = frozenset({"batched_matvec"})
            calls = []

            def apply_1d(self, op, u, direction, out=None):
                return backends.MatmulBackend.apply_1d(self, op, u, direction, out=out)

            def batched_matvec(self, mats, vecs, out=None):  # pragma: no cover
                raise AssertionError("dispatcher routed an unsupported point")

        backends.register_backend(_NoBmv())
        try:
            assert not backends.get_backend("nobmv").supports("batched_matvec")
            assert (
                backends.get_backend("nobmv").capabilities()["batched_matvec"]
                == "unsupported"
            )
            disp = backends.AutoTuneDispatcher(persist=False)
            mats = np.random.default_rng(0).standard_normal((8, 4, 4))
            vecs = np.random.default_rng(1).standard_normal((8, 4))
            got = disp.batched_matvec(mats, vecs)
            _assert_parity(got, np.einsum("kij,kj->ki", mats, vecs))
            key = (mats.shape, vecs.shape, dispatch.BATCHED_MATVEC_DIR)
            assert "nobmv" not in disp.timings[key]
        finally:
            backends.unregister_backend("nobmv")


class _Toy(KernelBackend):
    """Delegates to matmul; exists to mutate the registry in tests."""

    name = "toy"

    def __init__(self):
        super().__init__()
        self._impl = backends.MatmulBackend()

    def apply_1d(self, op, u, direction, out=None):
        return self._impl.apply_1d(op, u, direction, out=out)


class TestCacheSemantics:
    def _tuned(self):
        disp = backends.AutoTuneDispatcher(persist=False)
        u = np.random.default_rng(2).standard_normal((4, 5, 5))
        op = np.eye(5)
        disp.apply_1d(op, u, 0)
        disp.apply_1d(op, u, 1)
        return disp, op, u

    def test_new_backend_invalidates_all_winners(self):
        disp, _, _ = self._tuned()
        assert len(disp.choices) == 2
        backends.register_backend(_Toy())
        try:
            assert disp.choices == {}  # every shape must re-tune vs the newcomer
        finally:
            backends.unregister_backend("toy")

    def test_reregister_invalidates_only_that_backends_winners(self):
        backends.register_backend(_Toy())
        try:
            disp, op, u = self._tuned()
            k0 = disp.signature(op, u, 0)
            k1 = disp.signature(op, u, 1)
            # Pin distinct winners so the targeted invalidation is observable.
            disp.choices[k0], disp.choices[k1] = "toy", "matmul"
            backends.register_backend(_Toy())  # same name -> replace instance
            assert k0 not in disp.choices, "the re-registered name's win survived"
            assert disp.choices.get(k1) == "matmul"
        finally:
            backends.unregister_backend("toy")

    def test_unregister_falls_back_cleanly(self):
        backends.register_backend(_Toy())
        unregistered = False
        try:
            disp, op, u = self._tuned()
            disp.choices[disp.signature(op, u, 0)] = "toy"
            backends.unregister_backend("toy")
            unregistered = True
            got = disp.apply_1d(op, u, 0)  # re-tunes among the survivors
            _assert_parity(got, u)
            assert disp.choices[disp.signature(op, u, 0)] != "toy"
        finally:
            if not unregistered:
                backends.unregister_backend("toy")

    def test_unregister_active_backend_resets_to_auto(self):
        backends.register_backend(_Toy())
        prev = backends.active_backend().name
        try:
            backends.set_backend("toy")
            backends.unregister_backend("toy")
            assert backends.active_backend().name == "auto"
        finally:
            if "toy" in backends.available_backends():
                backends.unregister_backend("toy")
            backends.set_backend(prev if prev != "toy" else "auto")

    def test_unregister_unknown_raises_with_available_list(self):
        with pytest.raises(ValueError, match="available"):
            backends.unregister_backend("no-such-kernel")


class TestPersistentTable:
    def _fresh_tune(self, seed=3):
        disp = backends.AutoTuneDispatcher()
        u = np.random.default_rng(seed).standard_normal((4, 6, 6))
        op = np.eye(6)
        disp.apply_1d(op, u, 0)
        return disp, disp.signature(op, u, 0)

    def test_roundtrip_same_fingerprint_and_backends(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TUNING_CACHE", str(tmp_path))
        d1, key = self._fresh_tune()
        path = dispatch.tuning_cache_path()
        assert path.exists()
        assert d1.persist_stats["saved"] >= 1
        doc = json.loads(path.read_text())
        assert doc["version"] == 1
        assert dispatch._table_key() in doc["tables"]
        d2 = backends.AutoTuneDispatcher()
        d2_u = np.random.default_rng(3).standard_normal((4, 6, 6))
        d2.apply_1d(np.eye(6), d2_u, 0)
        assert d2.choices[key] == d1.choices[key]
        assert key not in d2.timings, "winner came from disk, not a re-tune"
        assert d2.persist_stats["loaded"] >= 1
        assert d2.persist_stats["tuned"] == 0

    def test_ignored_on_fingerprint_change(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TUNING_CACHE", str(tmp_path))
        self._fresh_tune()
        path = dispatch.tuning_cache_path()
        doc = json.loads(path.read_text())
        # Rewrite the stored section as if another machine had written it.
        doc["tables"] = {
            "f" * 16 + "+" + dispatch._table_key().split("+", 1)[1]: section
            for section in doc["tables"].values()
        }
        path.write_text(json.dumps(doc))
        d2, key = self._fresh_tune(seed=3)
        assert d2.persist_stats["loaded"] == 0
        assert key in d2.timings, "mismatched fingerprint must force a re-tune"

    def test_ignored_on_backend_set_change(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TUNING_CACHE", str(tmp_path))
        self._fresh_tune()
        backends.register_backend(_Toy())
        try:
            d2, key = self._fresh_tune(seed=3)
            assert d2.persist_stats["loaded"] == 0
            assert key in d2.timings, "changed backend set must force a re-tune"
        finally:
            backends.unregister_backend("toy")

    def test_off_disables_reads_and_writes(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TUNING_CACHE", "off")
        d, _ = self._fresh_tune()
        assert dispatch.tuning_cache_path() is None
        assert d.persist_stats["saved"] == 0
        monkeypatch.setenv("REPRO_TUNING_CACHE", str(tmp_path / "t.json"))
        assert dispatch.tuning_cache_path() == tmp_path / "t.json"

    def test_persist_false_never_touches_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TUNING_CACHE", str(tmp_path))
        d = backends.AutoTuneDispatcher(persist=False)
        u = np.random.default_rng(4).standard_normal((3, 4, 4))
        d.apply_1d(np.eye(4), u, 0)
        assert not dispatch.tuning_cache_path().exists()

    def test_concurrent_saves_keep_file_valid(self, tmp_path, monkeypatch):
        """Racing writers must never corrupt the table on disk: each save
        goes through its own mkstemp file and an atomic replace, so a
        concurrent reader sees one writer's complete document or another's
        — never an interleaving — and no temp files survive."""
        import threading

        monkeypatch.setenv("REPRO_TUNING_CACHE", str(tmp_path))
        path = dispatch.tuning_cache_path()
        dispatchers = []
        for seed in range(4):
            d = backends.AutoTuneDispatcher()
            u = np.random.default_rng(seed).standard_normal((3, 5, 5))
            d.apply_1d(np.eye(5), u, 0)  # seed choices + first save
            dispatchers.append(d)

        stop = threading.Event()
        bad: list = []

        def writer(d):
            while not stop.is_set():
                with d._tune_lock:
                    d._save_locked()

        def reader():
            while not stop.is_set():
                try:
                    doc = json.loads(path.read_text())
                except ValueError as exc:  # torn write — the bug under test
                    bad.append(repr(exc))
                    return
                if doc.get("version") != 1:
                    bad.append(f"bad doc: {doc!r}")
                    return

        threads = [threading.Thread(target=writer, args=(d,))
                   for d in dispatchers]
        threads.append(threading.Thread(target=reader))
        for t in threads:
            t.start()
        import time

        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join()
        assert not bad, bad
        doc = json.loads(path.read_text())
        assert doc["version"] == 1 and dispatch._table_key() in doc["tables"]
        assert not list(tmp_path.glob("*.tmp")), "leaked temp files"

    def test_tuning_stats_shape(self):
        stats = dispatch.tuning_stats()
        assert set(stats) == {
            "path", "persist", "table_key", "entries",
            "loaded_from_disk", "tuned_this_process", "saves",
        }
        assert stats["table_key"].startswith(dispatch.machine_fingerprint())


class TestSelectionValidation:
    def test_env_var_unknown_backend_fails_with_available_list(self):
        code = "import repro.backends"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "REPRO_BACKEND": "no-such-kernel",
                 "REPRO_TUNING_CACHE": "off"},
            cwd=".",
        )
        assert out.returncode != 0
        assert "REPRO_BACKEND" in out.stderr
        assert "available" in out.stderr and "matmul" in out.stderr

    def test_cli_backend_unknown_fails_with_choices(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro", "--backend", "no-such-kernel", "info"],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "REPRO_TUNING_CACHE": "off"},
            cwd=".",
        )
        assert out.returncode != 0
        assert "matmul" in out.stderr  # argparse lists the registered choices


class TestApplyTensorDispatch:
    def test_all_identity_returns_input(self):
        u = np.random.default_rng(5).standard_normal((3, 4, 4))
        assert dispatch.apply_tensor((None, None), u) is u

    def test_workspace_owns_result(self):
        from repro.backends.base import Workspace

        rng = np.random.default_rng(6)
        ws = Workspace()
        u = rng.standard_normal((3, 4, 4))
        ops = (rng.standard_normal((4, 4)), rng.standard_normal((4, 4)))
        r1 = core_apply_tensor(ops, u, workspace=ws)
        r1_copy = r1.copy()
        r2 = core_apply_tensor(ops, rng.standard_normal((3, 4, 4)), workspace=ws)
        assert r2 is r1, "same workspace key must hand back the same buffer"
        assert not np.array_equal(r1_copy, r2)

    def test_out_and_aliasing_validation(self):
        rng = np.random.default_rng(7)
        u = rng.standard_normal((3, 4, 4))
        ops = (np.eye(4), np.eye(4))
        with pytest.raises(ValueError, match="alias"):
            dispatch.apply_tensor(ops, u, out=u)
        with pytest.raises(ValueError, match="shape"):
            dispatch.apply_tensor(ops, u, out=np.empty((3, 4, 5)))
        with pytest.raises(ValueError, match="operators"):
            dispatch.apply_tensor((np.eye(4),), u)

    def test_dispatcher_tunes_tensor_signature(self):
        disp = backends.AutoTuneDispatcher(persist=False)
        rng = np.random.default_rng(8)
        u = rng.standard_normal((4, 5, 5))
        ops = (rng.standard_normal((3, 5)), rng.standard_normal((2, 5)))
        got = disp.apply_tensor(ops, u)
        _assert_parity(got, _ref_apply_tensor(ops, u))
        key = (((3, 5), (2, 5)), (4, 5, 5), dispatch.APPLY_TENSOR_DIR)
        assert disp.choices[key] in FIXED
        assert disp.hits[key] == 1


@pytest.mark.skipif(not backends.HAVE_NUMBA, reason="numba not installed")
class TestNumbaBackend:
    """Run only under the optional-dependency CI job (numba installed)."""

    def test_registered_and_fully_native(self):
        assert "numba" in backends.available_backends()
        caps = backends.get_backend("numba").capabilities()
        assert all(v == "native" for v in caps.values())

    def test_warmup_idempotent(self):
        b = backends.get_backend("numba")
        b.warmup()
        b.warmup()
        u = np.random.default_rng(11).standard_normal((3, 4, 4))
        _assert_parity(b.apply_1d(np.eye(4), u, 0), u)
