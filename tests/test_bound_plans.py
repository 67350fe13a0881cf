"""Bound stage plans of the hot operators (``repro.backends.dispatch.StagePlan``).

``PressureOperator.apply_div`` / ``apply_div_t`` (the E apply),
``LaplaceOperator.apply`` (and so ``HelmholtzOperator.apply``) and the
OIFS gradient of ``Convection`` resolve each ``apply_1d`` stage once and
then replay bare kernel calls.  The reference here is the per-call path
the plans replace: the same stage trees, one validated
``dispatch.apply_1d`` per stage.  Same kernels, same operands, same order,
so results must be bitwise equal, and the flop tally and the tuner's hit
counts must equal the per-call path's after every apply.
"""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.backends import (available_backends, dispatch, dispatch_choices,
                            get_backend, set_backend, use_backend)
from repro.core.assembly import Assembler
from repro.core.element import geometric_factors
from repro.core.operators import HelmholtzOperator, LaplaceOperator
from repro.core.pressure import PressureOperator
from repro.ns.convection import Convection
from repro.perf.flops import counting

from .test_pressure import EQUIVALENCE_MESHES


def _percall_div(pop, u):
    """D by the per-call path: the stage tree of ``apply_div``."""
    nd = pop.mesh.ndim
    out = np.zeros(pop.p_shape)
    g = np.empty((nd,) + pop.p_shape)
    for c in range(nd):
        part = u[c]
        for a in reversed(range(nd)):
            v = part
            for b in reversed(range(a + 1)):
                v = dispatch.apply_1d(pop.jd if b == a else pop.j_down, v, b,
                                      out=g[a] if b == 0 else None)
            if a > 0:
                part = dispatch.apply_1d(pop.j_down, part, a)
        for a in range(nd):
            g[a] *= pop.wcof[a, c]
            out += g[a]
    return out


def _percall_div_t(pop, p):
    """D^T by the per-call path: the stage tree of ``apply_div_t``."""
    nd = pop.mesh.ndim
    out = np.empty((nd,) + pop.mesh.local_shape)
    jt = np.ascontiguousarray(pop.j_down.T)
    jdt = np.ascontiguousarray(pop.jd.T)
    for c in range(nd):
        for a in range(nd):
            v = pop.wcof[a, c] * p
            for b in range(a + 1):
                v = dispatch.apply_1d(jdt if b == a else jt, v, b)
            if a == 0:
                acc = v
            else:
                acc += v  # in place: in 2-D acc is already out[c]
            if a + 1 < nd:
                acc = dispatch.apply_1d(jt, acc, a + 1,
                                        out=out[c] if a + 2 == nd else None)
    return out


def _percall_e(pop, p):
    w = _percall_div_t(pop, p)
    return _percall_div(pop, pop.assembler.dssum(w) * pop._inv_mass)


def _hits():
    return {
        (repr(r["op_shape"]), repr(r["field_shape"]), r["direction"]): r["hits"]
        for r in dispatch_choices()
    }


def _tally(fn, n):
    """(mxm flops, per-signature hit deltas) of ``n`` calls of ``fn``."""
    before = _hits()
    with counting() as fc:
        for _ in range(n):
            fn()
    after = _hits()
    delta = {k: h - before.get(k, 0) for k, h in after.items() if h != before.get(k, 0)}
    return fc.counts.get("mxm", 0.0), delta


def _fields(pop, seed=3):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((pop.mesh.ndim,) + pop.mesh.local_shape),
            rng.standard_normal(pop.p_shape))


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("kind", sorted(EQUIVALENCE_MESHES))
def test_bound_applies_bitwise_equal_per_call(kind, backend):
    with use_backend(backend):
        pop = PressureOperator(EQUIVALENCE_MESHES[kind]())
        u, p = _fields(pop)
        ref_d, ref_dt, ref_e = _percall_div(pop, u), _percall_div_t(pop, p), _percall_e(pop, p)
        # The operator's construction already bound the plans; a new
        # epoch makes the first apply below bind again, the second replay.
        with use_backend(backend):
            for _ in range(2):
                assert np.array_equal(pop.apply_div(u), ref_d)
                assert np.array_equal(pop.apply_div_t(p), ref_dt)
                assert np.array_equal(pop.apply_e(p), ref_e)


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("kind", ["periodic2d", "bump3d"])
def test_tallies_and_hits_match_per_call(kind, backend):
    with use_backend(backend):
        pop = PressureOperator(EQUIVALENCE_MESHES[kind]())
        u, p = _fields(pop)
        for bound, percall in [
            (lambda: pop.apply_div(u), lambda: _percall_div(pop, u)),
            (lambda: pop.apply_div_t(p), lambda: _percall_div_t(pop, p)),
        ]:
            with use_backend(backend):  # fresh epoch: apply 1 binds
                assert _tally(bound, 1) == _tally(percall, 1)
                assert _tally(bound, 4) == _tally(percall, 4)


def _spy(monkeypatch, name):
    """Count the ``apply_1d`` calls the fixed backend ``name`` serves."""
    backend = get_backend(name)
    calls = []
    kernel = backend.apply_1d

    def counted(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(backend, "apply_1d", counted)
    return calls


def _e_stages(pop):
    return 16 if pop.mesh.ndim == 2 else 48


def test_use_backend_rebinds_on_enter_and_exit(monkeypatch):
    pop = PressureOperator(EQUIVALENCE_MESHES["rect2d"]())
    _, p = _fields(pop)
    einsum_calls = _spy(monkeypatch, "einsum")
    with use_backend("auto"):
        pop.apply_e(p)
        with use_backend("einsum"):
            n = len(einsum_calls)
            _, hits = _tally(lambda: pop.apply_e(p), 1)
            assert hits == {}
            assert len(einsum_calls) - n == _e_stages(pop)
            assert np.array_equal(pop.apply_e(p), _percall_e(pop, p))
        _, hits = _tally(lambda: pop.apply_e(p), 1)
        assert sum(hits.values()) == _e_stages(pop)


def test_set_backend_rebinds(monkeypatch):
    pop = PressureOperator(EQUIVALENCE_MESHES["box3d"]())
    _, p = _fields(pop)
    flat_calls = _spy(monkeypatch, "flat")
    prev = dispatch.active_backend().name
    try:
        set_backend("auto")
        pop.apply_e(p)
        set_backend("flat")
        n = len(flat_calls)
        _, hits = _tally(lambda: pop.apply_e(p), 1)
        assert hits == {} and len(flat_calls) - n == _e_stages(pop)
        set_backend("auto")
        _, hits = _tally(lambda: pop.apply_e(p), 1)
        assert sum(hits.values()) == _e_stages(pop)
    finally:
        set_backend(prev)


def test_tuner_reset_rebinds():
    pop = PressureOperator(EQUIVALENCE_MESHES["bilinear2d"]())
    _, p = _fields(pop)
    with use_backend("auto"):
        pop.apply_e(p)
        get_backend("auto").reset()
        assert dispatch_choices() == []
        got = pop.apply_e(p)  # re-tunes every stage signature, no KeyError
        rows = dispatch_choices()
        assert sum(r["hits"] for r in rows) == _e_stages(pop)
        assert np.array_equal(got, _percall_e(pop, p))


def test_two_threads_share_one_operator():
    pop = PressureOperator(EQUIVALENCE_MESHES["bump3d"]())
    rng = np.random.default_rng(9)
    ps = [rng.standard_normal(pop.p_shape) for _ in range(2)]
    serial = [pop.apply_e(p) for p in ps]
    bad = []

    def worker(i):
        try:
            for _ in range(20):
                if not np.array_equal(pop.apply_e(ps[i]), serial[i]):
                    bad.append(i)
        except Exception as exc:  # a raise in a thread must fail the test too
            bad.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


def test_dropped_operator_frees_its_workspace_at_once():
    """A bound plan keeps no reference back to the workspace holding it."""
    pop = PressureOperator(EQUIVALENCE_MESHES["rect2d"]())
    pop.apply_e(_fields(pop)[1])
    ws = weakref.ref(pop._ws)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del pop
        assert ws() is None
    finally:
        if enabled:
            gc.enable()


def test_caller_arrays_checked_once_per_apply():
    pop = PressureOperator(EQUIVALENCE_MESHES["rect2d"]())
    u, p = _fields(pop)
    for _ in range(2):  # the binding apply, then a replay
        assert np.array_equal(pop.apply_div(np.asfortranarray(u)), pop.apply_div(u))
    with pytest.raises(ValueError, match="C-contiguous float64"):
        pop.apply_div_t(p, out=np.asfortranarray(np.empty(u.shape)))


# ---------------------------------------------------------------------------
# Laplace / Helmholtz and the OIFS gradient
# ---------------------------------------------------------------------------
def _percall_laplace(lap, u):
    """A u by the per-call path: the stage tree of ``LaplaceOperator.apply``."""
    nd, g = lap.mesh.ndim, lap.geom.g
    du = [dispatch.apply_1d(lap.d, u, a) for a in range(nd)]
    if nd == 2:
        f = [g[1] * du[1], g[1] * du[0]]
        f[0] += g[0] * du[0]
        f[1] += g[2] * du[1]
    else:
        rows = ((0, 1, 2), (1, 3, 4), (2, 4, 5))
        f = []
        for row in rows:
            fa = g[row[0]] * du[0]
            fa += g[row[1]] * du[1]
            fa += g[row[2]] * du[2]
            f.append(fa)
    out = dispatch.apply_1d(lap.dt, f[0], 0)
    for a in range(1, nd):
        out += dispatch.apply_1d(lap.dt, f[a], a)
    return out


def _percall_helmholtz(helm, u):
    bu = helm.geom.bm * u
    bu *= helm.h0
    out = _percall_laplace(helm.laplace, u)
    out *= helm.h1
    out += bu
    return out


def _percall_advect_ref(conv, wr, v, out):
    """``sum_a W_a dv/dxi_a`` by the per-call path, one field at a time."""
    nd, shape = conv.mesh.ndim, (-1,) + conv.mesh.local_shape
    for f, o in zip(v.reshape(shape), out.reshape(shape)):
        g = [dispatch.apply_1d(conv.d, f, a) for a in range(nd)]
        np.multiply(wr[0], g[0], out=o)
        for a in range(1, nd):
            np.multiply(wr[a], g[a], out=g[a])
            o += g[a]
    return out


def _convection(mesh):
    return Convection(mesh, geometric_factors(mesh), Assembler.for_mesh(mesh))


def _percall_convection(mesh):
    """A Convection whose OIFS gradient takes the per-call path."""
    conv = _convection(mesh)
    conv._advect_ref = lambda wr, v, out: _percall_advect_ref(conv, wr, v, out)
    return conv


class _Case:
    """One bound operator apply, its per-call reference and its input."""

    def __init__(self, op, kind):
        mesh = EQUIVALENCE_MESHES[kind]()
        rng = np.random.default_rng(5)
        nd = mesh.ndim
        if op == "laplace":
            lap = LaplaceOperator(mesh)
            self.u = rng.standard_normal(mesh.local_shape)
            self.bound = lambda u, out=None: lap.apply(u, out=out)
            self.percall = lambda u: _percall_laplace(lap, u)
            self.stages = 2 * nd
        elif op == "helmholtz":
            helm = HelmholtzOperator(mesh, h1=0.05, h0=1.5)
            self.u = rng.standard_normal(mesh.local_shape)
            self.bound = lambda u, out=None: helm.apply(u, out=out)
            self.percall = lambda u: _percall_helmholtz(helm, u)
            self.stages = 2 * nd
        else:
            conv, ref = _convection(mesh), _percall_convection(mesh)
            w = rng.standard_normal((nd,) + mesh.local_shape)
            wr = conv.contravariant(w)
            self.u = rng.standard_normal((nd,) + mesh.local_shape)
            if op == "advect":
                self.bound = lambda v: conv.advect(w, v)
                self.percall = lambda v: ref.advect(w, v)
                self.stages = nd * nd
            else:  # two RK4 substeps, four gradients each
                def run(c, v):
                    return c.oifs_integrate(v, lambda s: wr, 0.0, 0.02, n_steps=2)

                self.bound = lambda v: run(conv, v)
                self.percall = lambda v: run(ref, v)
                self.stages = 8 * nd * nd
        self.op = op


OPERATORS = ["laplace", "helmholtz", "advect", "oifs"]


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("kind", sorted(EQUIVALENCE_MESHES))
@pytest.mark.parametrize("op", OPERATORS)
def test_bound_operator_bitwise_equal_per_call(op, kind, backend):
    with use_backend(backend):
        case = _Case(op, kind)
        ref = case.percall(case.u)
        for _ in range(2):  # the binding apply, then a replay
            assert np.array_equal(case.bound(case.u), ref)


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("kind", ["periodic2d", "bump3d"])
@pytest.mark.parametrize("op", OPERATORS)
def test_operator_tallies_and_hits_match_per_call(op, kind, backend):
    with use_backend(backend):
        case = _Case(op, kind)
        with use_backend(backend):  # fresh epoch: apply 1 binds
            bound = lambda: case.bound(case.u)  # noqa: E731
            percall = lambda: case.percall(case.u)  # noqa: E731
            assert _tally(bound, 1) == _tally(percall, 1)
            assert _tally(bound, 5) == _tally(percall, 5)


@pytest.mark.parametrize("op", OPERATORS)
def test_operator_rebinds_on_use_backend_and_reset(monkeypatch, op):
    case = _Case(op, "bilinear2d")
    einsum_calls = _spy(monkeypatch, "einsum")
    with use_backend("auto"):
        case.bound(case.u)
        with use_backend("einsum"):
            n = len(einsum_calls)
            _, hits = _tally(lambda: case.bound(case.u), 1)
            assert hits == {} and len(einsum_calls) - n == case.stages
            assert np.array_equal(case.bound(case.u), case.percall(case.u))
        _, hits = _tally(lambda: case.bound(case.u), 1)
        assert sum(hits.values()) == case.stages
        get_backend("auto").reset()
        got = case.bound(case.u)  # re-tunes every stage signature
        assert sum(r["hits"] for r in dispatch_choices()) == case.stages
        assert np.array_equal(got, case.percall(case.u))


@pytest.mark.parametrize("op", OPERATORS)
def test_two_threads_share_one_bound_operator(op):
    case = _Case(op, "bump3d")
    rng = np.random.default_rng(9)
    us = [rng.standard_normal(case.u.shape) for _ in range(2)]
    serial = [case.bound(u) for u in us]
    bad = []

    def worker(i):
        try:
            for _ in range(10):
                if not np.array_equal(case.bound(us[i]), serial[i]):
                    bad.append(i)
        except Exception as exc:
            bad.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert bad == []


@pytest.mark.parametrize("op", OPERATORS)
def test_apply_without_out_returns_a_fresh_array(op):
    case = _Case(op, "rect2d")
    first = case.bound(case.u)
    keep = first.copy()
    second = case.bound(2.0 * case.u)
    assert second is not first and not np.shares_memory(first, second)
    assert np.array_equal(first, keep)


@pytest.mark.parametrize("op", ["laplace", "helmholtz"])
def test_laplace_out_placement(op):
    case = _Case(op, "box3d")
    ref = case.percall(case.u)
    out = np.empty_like(case.u)
    for _ in range(2):
        assert case.bound(case.u, out=out) is out and np.array_equal(out, ref)
    u = case.u.copy()
    assert np.array_equal(case.bound(u, out=u), ref)  # out may be u
    with pytest.raises(ValueError, match="C-contiguous float64"):
        case.bound(case.u, out=np.asfortranarray(out))
    with pytest.raises(ValueError, match="out has shape"):
        case.bound(case.u, out=out[:1])


@pytest.mark.parametrize("op", OPERATORS)
def test_wrong_shape_field_raises(op):
    case = _Case(op, "rect2d")
    case.bound(case.u)  # bind first: a replay must check too
    with pytest.raises(ValueError):
        case.bound(case.u[..., :-1])
    *lead, k, n_s, n_r = case.u.shape
    with pytest.raises(ValueError):  # same size, wrong shape
        case.bound(case.u.reshape(tuple(lead) + (k // 2, 2 * n_s, n_r)))
