"""Backend layer tests: parity of every registered kernel against the
reference, boundary sanitization, aliasing rejection, exact flop tallies,
selection machinery, and the auto-tuner's shape-aware choices (the Table 3
architecture)."""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import backends
from repro.backends import dispatch
from repro.core.element import geometric_factors
from repro.core.mesh import box_mesh_2d, box_mesh_3d, map_mesh
from repro.core.operators import LaplaceOperator, build_poisson_system
from repro.core.pressure import PressureOperator
from repro.backends.dispatch import apply_1d
from repro.backends.dispatch import apply_tensor as core_apply_tensor
from repro.perf.flops import counting
from repro.solvers.cg import pcg

FIXED = [n for n in backends.available_backends() if n != "auto"]

#: parity bound of the per-kernel-point contract (see docs/BACKENDS.md):
#: every backend agrees with every other to 1e-13 *relative* on the
#: small-N SEM shapes.
PARITY_RTOL = 1e-13


def deformed_2d(nelem=3, order=6):
    return map_mesh(
        box_mesh_2d(nelem, nelem, order),
        lambda x, y: (x + 0.07 * np.sin(np.pi * y), y + 0.05 * x * x),
    )


def deformed_3d(nelem=2, order=4):
    return map_mesh(
        box_mesh_3d(nelem, nelem, nelem, order),
        lambda x, y, z: (x + 0.05 * y * z, y + 0.04 * np.sin(np.pi * x), z),
    )


class TestRegistry:
    def test_at_least_three_fixed_backends(self):
        assert len(FIXED) >= 3
        assert "matmul" in FIXED and "einsum" in FIXED and "flat" in FIXED

    def test_get_backend_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown backend"):
            backends.get_backend("no-such-kernel")

    def test_set_and_restore(self):
        prev = backends.active_backend().name
        try:
            assert backends.set_backend("matmul").name == "matmul"
            assert backends.active_backend().name == "matmul"
        finally:
            backends.set_backend(prev)

    def test_use_backend_context_restores(self):
        prev = backends.active_backend()
        with backends.use_backend("einsum") as b:
            assert b.name == "einsum"
            assert backends.active_backend() is b
        assert backends.active_backend() is prev


class TestApply1dParity:
    """Every backend must agree with the einsum reference to near machine
    precision on every direction of 2-D and 3-D fields."""

    @pytest.mark.parametrize("name", FIXED + ["auto"])
    @pytest.mark.parametrize("ndim", [2, 3])
    def test_all_directions_match_reference(self, name, ndim):
        rng = np.random.default_rng(7)
        shape = (5, 4, 6, 7)[: ndim + 1]
        u = rng.standard_normal(shape)
        for direction in range(ndim):
            n = shape[len(shape) - 1 - direction]
            op = rng.standard_normal((n + 2, n))  # rectangular on purpose
            sub = {
                (2, 0): "ij,ksj->ksi",
                (2, 1): "ij,kjr->kir",
                (3, 0): "ij,ktsj->ktsi",
                (3, 1): "ij,ktjr->ktir",
                (3, 2): "ij,kjsr->kisr",
            }[(ndim, direction)]
            ref = np.einsum(sub, op, u)
            with backends.use_backend(name):
                got = apply_1d(op, u, direction)
            assert np.max(np.abs(got - ref)) < 1e-12

    @pytest.mark.parametrize("name", FIXED)
    def test_out_buffer_is_filled_and_returned(self, name):
        rng = np.random.default_rng(3)
        u = rng.standard_normal((4, 5, 5))
        op = rng.standard_normal((5, 5))
        out = np.empty_like(u)
        with backends.use_backend(name):
            res = apply_1d(op, u, 1, out=out)
        assert res is out
        assert np.allclose(out, np.einsum("ij,kjr->kir", op, u))


class TestSanitization:
    def test_fortran_order_input_matches_c_order(self):
        rng = np.random.default_rng(11)
        u = rng.standard_normal((6, 8, 8))
        op = rng.standard_normal((8, 8))
        uf = np.asfortranarray(u)
        assert not uf.flags["C_CONTIGUOUS"]
        for name in FIXED + ["auto"]:
            with backends.use_backend(name):
                assert np.array_equal(apply_1d(op, uf, 0), apply_1d(op, u, 0))
                assert np.array_equal(apply_1d(op, uf, 1), apply_1d(op, u, 1))

    def test_non_float64_input_upcast_once(self):
        u32 = np.arange(2 * 3 * 3, dtype=np.float32).reshape(2, 3, 3)
        op = np.eye(3, dtype=np.float32)
        got = apply_1d(op, u32, 0)
        assert got.dtype == np.float64
        assert np.allclose(got, u32.astype(np.float64))

    def test_aliasing_out_raises(self):
        u = np.ones((2, 4, 4))
        op = np.eye(4)
        with pytest.raises(ValueError, match="alias"):
            apply_1d(op, u, 0, out=u)
        with pytest.raises(ValueError, match="alias"):
            apply_1d(op, u, 1, out=u[:, :, :])

    def test_bad_out_shape_or_dtype_raises(self):
        u = np.ones((2, 4, 4))
        op = np.eye(4)
        with pytest.raises(ValueError, match="shape"):
            apply_1d(op, u, 0, out=np.empty((2, 4, 5)))
        with pytest.raises(ValueError, match="float64"):
            apply_1d(op, u, 0, out=np.empty((2, 4, 4), dtype=np.float32))

    def test_bad_direction_and_extent_raise(self):
        u = np.ones((2, 4, 4))
        with pytest.raises(ValueError, match="direction"):
            apply_1d(np.eye(4), u, 2)
        with pytest.raises(ValueError, match="extent"):
            apply_1d(np.eye(5), u, 0)


class TestOperatorParity:
    """Golden-case parity: the full Laplace/Helmholtz/E pipelines produce
    identical results whichever backend runs the kernels."""

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_laplace_apply_parity(self, ndim):
        mesh = deformed_2d() if ndim == 2 else deformed_3d()
        lap = LaplaceOperator(mesh, geometric_factors(mesh))
        u = np.random.default_rng(5).standard_normal(mesh.local_shape)
        with backends.use_backend("einsum"):
            ref = LaplaceOperator(mesh, geometric_factors(mesh)).apply(u)
        for name in FIXED + ["auto"]:
            with backends.use_backend(name):
                got = lap.apply(u)
            assert np.max(np.abs(got - ref)) < 1e-12

    def test_poisson_solve_parity_2d(self):
        mesh = deformed_2d()
        b_ref = None
        for name in FIXED + ["auto"]:
            with backends.use_backend(name):
                sys = build_poisson_system(mesh)
                b = sys.rhs(mesh.field(1.0))
                res = pcg(sys.matvec, b, dot=sys.dot, tol=1e-11, maxiter=500)
            assert res.converged
            if b_ref is None:
                b_ref = res.x
            else:
                assert np.max(np.abs(res.x - b_ref)) < 1e-9

    def test_pressure_e_apply_parity_2d(self):
        mesh = deformed_2d(order=5)
        p = np.random.default_rng(2).standard_normal(
            (mesh.K,) + (mesh.order - 1,) * 2
        )
        ref = None
        for name in FIXED + ["auto"]:
            with backends.use_backend(name):
                got = PressureOperator(mesh).apply_e(p)
            if ref is None:
                ref = got
            else:
                assert np.max(np.abs(got - ref)) < 1e-12


class TestAutoTuner:
    def test_tuner_picks_at_least_two_distinct_kernels(self):
        """Across the Table 3 shape sweep the winner must vary (the whole
        point of shape-aware dispatch)."""
        disp = backends.AutoTuneDispatcher()
        rng = np.random.default_rng(0)
        saved = dict(dispatch._REGISTRY)
        try:
            for n in (4, 8, 12, 16):
                for K in (8, 64):
                    u2 = rng.standard_normal((K, n, n))
                    u3 = rng.standard_normal((K, n, n, n))
                    op = rng.standard_normal((n, n))
                    for d in range(2):
                        disp.apply_1d(op, u2, d)
                    for d in range(3):
                        disp.apply_1d(op, u3, d)
        finally:
            dispatch._REGISTRY.clear()
            dispatch._REGISTRY.update(saved)
        assert len(set(disp.choices.values())) >= 2, disp.report()

    def test_tuning_happens_once_per_signature(self):
        disp = backends.AutoTuneDispatcher()
        u = np.random.default_rng(1).standard_normal((6, 5, 5))
        op = np.eye(5)
        for _ in range(4):
            disp.apply_1d(op, u, 0)
        key = disp.signature(op, u, 0)
        assert disp.hits[key] == 4
        assert len(disp.timings) == 1

    def test_report_mentions_choices(self):
        disp = backends.AutoTuneDispatcher()
        u = np.ones((2, 3, 3))
        disp.apply_1d(np.eye(3), u, 0)
        text = disp.report()
        assert "distinct kernels in use" in text

    def test_backend_report_global(self):
        u = np.ones((2, 3, 3))
        apply_1d(np.eye(3), u, 1)
        text = backends.backend_report()
        assert text.startswith("active backend:")

    def test_tuning_writes_nothing_to_disk(self, tmp_path):
        """Tuned winners live in memory only: a fresh process that tunes a
        shape leaves its home and cache directories untouched."""
        code = (
            "import numpy as np; from repro.backends import dispatch; "
            "dispatch.apply_1d(np.eye(4), np.ones((3, 4, 4)), 0)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "HOME": str(tmp_path),
                 "XDG_CACHE_HOME": str(tmp_path)},
            cwd=".",
        )
        assert out.returncode == 0, out.stderr
        assert list(tmp_path.iterdir()) == []


    def test_tuning_scratch_is_released(self):
        """Trial outputs live only while a shape is tuned: after several
        tunings the process holds none of them, and the winners are kept."""
        import tracemalloc

        rng = np.random.default_rng(10)
        # Direction 0 runs without any kernel's scratch pool, so whatever
        # memory survives the calls is the tuner's own.
        cases = []
        for n in (3, 5, 7):
            op = rng.standard_normal((n + 2, n))
            u = rng.standard_normal((4001, n, n))
            cases.append((op, u, np.empty((4001, n, n + 2))))
        scratch_bytes = min(out.nbytes for _, _, out in cases)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            with backends.use_backend("auto"):
                for op, u, out in cases:
                    apply_1d(op, u, 0, out=out)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        keys = [dispatch._DISPATCHER.signature(op, u, 0) for op, u, _ in cases]
        assert all(dispatch._DISPATCHER.choices[k] in FIXED for k in keys)
        assert retained < scratch_bytes // 4


class TestEnvSelection:
    def test_env_var_selects_backend(self):
        code = (
            "from repro import backends; "
            "print(backends.active_backend().name)"
        )
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "REPRO_BACKEND": "flat"},
            cwd=".",
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "flat"


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


class TestSelectionValidation:
    def test_env_var_unknown_backend_fails_with_available_list(self):
        code = "import repro.backends"
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "REPRO_BACKEND": "no-such-kernel"},
            cwd=".",
        )
        assert out.returncode != 0
        assert "REPRO_BACKEND" in out.stderr
        assert "available" in out.stderr and "matmul" in out.stderr

    def test_cli_backend_unknown_fails_with_choices(self):
        out = subprocess.run(
            [sys.executable, "-m", "repro", "--backend", "no-such-kernel", "info"],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src"},
            cwd=".",
        )
        assert out.returncode != 0
        assert "matmul" in out.stderr  # argparse lists the registered choices


class TestApplyTensorDispatch:
    def test_all_identity_places_a_copy(self):
        from repro.backends.base import Workspace

        u = np.random.default_rng(5).standard_normal((3, 4, 4))
        ws = Workspace()
        buf = np.zeros_like(u)
        with counting() as fc:
            fresh = dispatch.apply_tensor((None, None), u)
            into = dispatch.apply_tensor((None, None), u, out=buf)
            pooled = dispatch.apply_tensor((None, None), u, workspace=ws)
        assert fresh is not u and np.array_equal(fresh, u)
        assert into is buf and np.array_equal(buf, u)
        assert pooled is ws.get("apply_tensor_out", u.shape)
        assert np.array_equal(pooled, u)
        assert fc.total() == 0.0

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
        disp = backends.AutoTuneDispatcher()
        rng = np.random.default_rng(8)
        u = rng.standard_normal((4, 5, 5))
        ops = (rng.standard_normal((3, 5)), rng.standard_normal((2, 5)))
        got = disp.apply_tensor(ops, u)
        _assert_parity(got, _ref_apply_tensor(ops, u))
        key = (((3, 5), (2, 5)), (4, 5, 5), dispatch.APPLY_TENSOR_DIR)
        assert disp.choices[key] in FIXED
        assert disp.hits[key] == 1
