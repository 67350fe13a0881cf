"""Bound stage plans of the E apply (``repro.backends.dispatch.StagePlan``).

``PressureOperator.apply_div`` / ``apply_div_t`` resolve each ``apply_1d``
stage once and then replay bare kernel calls.  The reference here is the
per-call path the plans replace: the same stage trees, one validated
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
from repro.core.pressure import PressureOperator
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
