"""Observability-layer verification pass.

Four families of guarantees:

* **Trace/telemetry semantics** — region nesting, call counts, flop deltas,
  telemetry tagging, and the disabled no-op fast path (shared null span,
  empty sink).
* **Report schema** — ``report_json`` output validates against the stable
  schema, round-trips through JSON, and carries the acceptance region tree
  ``step -> {helmholtz, pressure -> {schwarz -> {fdm, coarse}}, filter}``.
* **Flop-accounting parity** — per registered backend, the ``mxm`` totals
  tallied at the dispatch boundary for Laplace/Helmholtz/E applies equal
  the analytic ``2 m n (size / n)``-per-contraction counts (the Section 7
  software-counter-vs-perfmon check).
* **Cost pins** — Fig. 4 regression (projection lowers pressure iteration
  counts), disabled-tracing overhead < 5% of an operator apply, and
  bit-for-bit identical numerics with tracing enabled.
"""

import json
import time

import numpy as np
import pytest

from repro import obs
from repro.backends import available_backends, use_backend
from repro.core.element import geometric_factors
from repro.core.mesh import box_mesh_2d, box_mesh_3d
from repro.core.operators import HelmholtzOperator, LaplaceOperator
from repro.core.pressure import PressureOperator
from repro.ns.bcs import VelocityBC
from repro.ns.navier_stokes import NavierStokesSolver
from repro.obs.trace import _NULL as NULL_SPAN
from repro.perf.flops import add_flops, global_counter, reset_flops
from repro.workloads.shear_layer import ShearLayerCase


def _taylor_green(n_el=2, order=5, dt=0.01, re=100.0):
    mesh = box_mesh_2d(
        n_el, n_el, order, x1=2 * np.pi, y1=2 * np.pi, periodic=(True, True)
    )
    sol = NavierStokesSolver(
        mesh, re=re, dt=dt, bc=VelocityBC.none(mesh), filter_alpha=0.1
    )
    sol.set_initial_condition(
        [
            lambda x, y: -np.cos(x) * np.sin(y),
            lambda x, y: np.sin(x) * np.cos(y),
        ]
    )
    return sol


# --------------------------------------------------------------------------
# trace semantics
# --------------------------------------------------------------------------


def test_disabled_trace_returns_shared_null_span():
    assert not obs.enabled()
    span_a = obs.trace("step")
    span_b = obs.trace("pressure/schwarz")
    assert span_a is span_b is NULL_SPAN
    with span_a:
        pass  # no-op context manager
    root = obs.get_tracer().root
    assert root.children == {} and root.calls == 0


def test_disabled_telemetry_is_noop():
    assert not obs.enabled()
    obs.record_solve("cg", "pressure", 7, True)
    obs.record_projection("pressure", 3, 1.0, 0.1)
    obs.record_comm("gs", "+", 4, 128.0)
    obs.record_value("xxt_nnz", 42.0)
    t = obs.telemetry
    assert t.solves == [] and t.projections == [] and t.comms == [] and t.values == []
    assert t.comm_totals() == {"messages": 0, "words": 0.0, "bytes": 0.0}


def test_region_tree_nesting_and_call_counts():
    obs.enable()
    for _ in range(3):
        with obs.trace("step"):
            with obs.trace("pressure"):
                with obs.trace("schwarz"):
                    pass
                with obs.trace("schwarz"):
                    pass
    step = obs.find_region("step")
    pressure = obs.find_region("step/pressure")
    schwarz = obs.find_region("step/pressure/schwarz")
    assert step.calls == 3 and pressure.calls == 3 and schwarz.calls == 6
    assert set(step.children) == {"pressure"}
    assert set(pressure.children) == {"schwarz"}
    # times accumulate outward: a child never exceeds its parent
    assert 0.0 <= schwarz.seconds <= pressure.seconds <= step.seconds
    assert pressure.self_seconds() >= 0.0


def test_multisegment_name_opens_nested_levels():
    obs.enable()
    with obs.trace("step/pressure/coarse"):
        assert obs.get_tracer().current_path == "step/pressure/coarse"
    assert obs.get_tracer().current_path == ""
    assert obs.find_region("step/pressure/coarse").calls == 1
    # only the leaf gets the call; intermediate nodes exist but count 0 entries
    assert obs.find_region("step").calls == 0
    assert obs.find_region("missing/path") is None


def test_traced_decorator_default_and_explicit_name():
    @obs.traced()
    def inner():
        return 41

    @obs.traced("outer_region")
    def outer():
        return inner() + 1

    assert outer() == 42  # disabled: plain passthrough, no regions
    assert obs.get_tracer().root.children == {}
    obs.enable()
    assert outer() == 42
    assert obs.find_region("outer_region").calls == 1
    assert obs.find_region("outer_region/inner").calls == 1


def test_region_flops_match_counter_deltas():
    obs.enable()
    with obs.trace("work"):
        add_flops(100.0, "mxm")
        with obs.trace("child"):
            add_flops(30.0, "pointwise")
    work = obs.find_region("work")
    child = obs.find_region("work/child")
    # parent totals include the child's (entry/exit snapshot deltas)
    assert work.flops == {"mxm": 100.0, "pointwise": 30.0}
    assert child.flops == {"pointwise": 30.0}
    assert work.total_flops() == pytest.approx(130.0)
    d = work.as_dict()
    assert d["total_flops"] == pytest.approx(130.0)
    assert [c["name"] for c in d["children"]] == ["child"]


def test_reset_clears_tree_but_keeps_enabled_state():
    obs.enable()
    with obs.trace("step"):
        pass
    assert obs.find_region("step") is not None
    obs.reset()
    assert obs.enabled()
    assert obs.find_region("step") is None
    assert obs.region_tree()["children"] == []


# --------------------------------------------------------------------------
# telemetry semantics
# --------------------------------------------------------------------------


def test_solve_records_carry_open_region_path():
    obs.enable()
    with obs.trace("step/pressure"):
        obs.record_solve(
            "cg", "pressure", 9, True,
            initial_residual=1.0, final_residual=1e-9,
            residual_history=[1.0, 0.1, 1e-9],
        )
    (rec,) = obs.telemetry.solves_for("pressure")
    assert rec.solver == "cg" and rec.region == "step/pressure"
    assert rec.iterations == 9 and rec.converged
    assert rec.residual_history == [1.0, 0.1, 1e-9]
    assert obs.telemetry.solves_for("nope") == []


def test_comm_totals_aggregate_words_and_bytes():
    obs.enable()
    obs.record_comm("gs", "+", 4, 100.0, ranks=4)
    obs.record_comm("spmd_cg", "p8", 24, 50.0)
    totals = obs.telemetry.comm_totals()
    assert totals == {"messages": 28, "words": 150.0, "bytes": 1200.0}
    rec = obs.telemetry.comms[0]
    assert rec.bytes == 800.0 and rec.extra == {"ranks": 4}
    d = obs.telemetry.as_dict()
    assert d["comm"]["totals"]["bytes"] == 1200.0
    assert len(d["comm"]["records"]) == 2


# --------------------------------------------------------------------------
# report schema
# --------------------------------------------------------------------------


def _traced_run(steps=2):
    obs.enable()
    obs.reset_all()
    reset_flops()
    sol = _taylor_green()
    for _ in range(steps):
        sol.step()
    return sol


def test_report_json_validates_and_roundtrips(tmp_path):
    _traced_run()
    doc = obs.report_json(meta={"workload": "taylor-green", "steps": 2})
    obs.validate_report(doc)  # must not raise
    assert doc["schema"] == obs.SCHEMA_VERSION
    assert doc["enabled"] is True
    assert doc["meta"]["steps"] == 2
    # survives a JSON round-trip (and a save_report to disk)
    obs.validate_report(json.loads(json.dumps(doc)))
    path = tmp_path / "report.json"
    obs.save_report(path, meta={"workload": "taylor-green"})
    obs.validate_report(json.loads(path.read_text()))


def test_report_region_tree_matches_acceptance_shape():
    _traced_run()
    doc = obs.report_json()
    (step,) = [c for c in doc["regions"]["children"] if c["name"] == "step"]
    names = {c["name"] for c in step["children"]}
    assert {"convection", "helmholtz", "pressure", "filter"} <= names
    (pressure,) = [c for c in step["children"] if c["name"] == "pressure"]
    pnames = {c["name"] for c in pressure["children"]}
    assert {"e_apply", "schwarz"} <= pnames
    (schwarz,) = [c for c in pressure["children"] if c["name"] == "schwarz"]
    assert {"fdm", "coarse"} <= {c["name"] for c in schwarz["children"]}
    # per-solve histories landed, tagged with their region
    labels = {s["label"] for s in doc["solves"]}
    assert "pressure" in labels and "helmholtz_u0" in labels
    pres = [s for s in doc["solves"] if s["label"] == "pressure"]
    assert all(s["region"] == "step/pressure" for s in pres)
    assert all(len(s["residual_history"]) >= 1 for s in pres)
    # backend section reports the dispatch choices actually exercised
    assert doc["backend"]["active"] in available_backends()
    assert isinstance(doc["backend"]["choices"], list)


def test_validate_report_rejects_malformed_documents():
    _traced_run(steps=1)
    good = obs.report_json()

    def corrupt(mutate):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(ValueError):
            obs.validate_report(doc)

    corrupt(lambda d: d.pop("regions"))
    corrupt(lambda d: d.__setitem__("schema", "bogus/999"))
    corrupt(lambda d: d["regions"].pop("calls"))
    corrupt(lambda d: d["regions"].__setitem__("children", {}))
    corrupt(lambda d: d["solves"][0].pop("iterations"))
    corrupt(lambda d: d["comm"]["totals"].pop("bytes"))
    corrupt(lambda d: d["flops"].__setitem__("total", "lots"))


def test_report_text_renders_regions_solves_and_comm():
    obs.enable()
    reset_flops()
    with obs.trace("step"):
        with obs.trace("pressure"):
            add_flops(1e6, "mxm")
            obs.record_solve("cg", "pressure", 12, True, final_residual=1e-8)
    obs.record_comm("gs", "+", 6, 300.0)
    text = obs.report_text()
    assert "step" in text and "pressure" in text
    assert "cg" in text and "12" in text
    assert "messages" in text
    # the renderer indents children under parents
    step_line = next(l for l in text.splitlines() if l.lstrip().startswith("step"))
    pres_line = next(l for l in text.splitlines() if l.lstrip().startswith("pressure"))
    indent = lambda l: len(l) - len(l.lstrip())  # noqa: E731
    assert indent(pres_line) > indent(step_line)


# --------------------------------------------------------------------------
# flop-accounting parity (per backend)
# --------------------------------------------------------------------------


def _mxm_contract(op_shape, field_shape):
    """Analytic flops of one ``apply_1d``: 2 m n (size / n)."""
    m, n = op_shape
    size = int(np.prod(field_shape))
    return 2.0 * m * n * (size // n)


def _measured_mxm(apply_fn, u):
    reset_flops()
    apply_fn(u)
    return global_counter.snapshot().get("mxm", 0.0)


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("ndim", [2, 3])
def test_flop_parity_laplace(backend, ndim):
    mesh = box_mesh_2d(3, 2, 5) if ndim == 2 else box_mesh_3d(2, 2, 2, 4)
    op = LaplaceOperator(mesh)
    u = np.random.rand(*mesh.local_shape)
    n1 = mesh.order + 1
    # ndim gradient applies + ndim adjoint applies, each (n1, n1) full-size
    expected = 2 * ndim * _mxm_contract((n1, n1), mesh.local_shape)
    with use_backend(backend):
        measured = _measured_mxm(op.apply, u)
    assert measured == pytest.approx(expected, rel=0, abs=0.5)


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("ndim", [2, 3])
def test_flop_parity_helmholtz(backend, ndim):
    mesh = box_mesh_2d(3, 2, 5) if ndim == 2 else box_mesh_3d(2, 2, 2, 4)
    op = HelmholtzOperator(mesh, h1=0.01, h0=150.0)
    u = np.random.rand(*mesh.local_shape)
    n1 = mesh.order + 1
    # the mass term is pointwise: Helmholtz mxm work == Laplace mxm work
    expected = 2 * ndim * _mxm_contract((n1, n1), mesh.local_shape)
    with use_backend(backend):
        measured = _measured_mxm(op.apply, u)
    assert measured == pytest.approx(expected, rel=0, abs=0.5)


@pytest.mark.parametrize("backend", available_backends())
@pytest.mark.parametrize("ndim", [2, 3])
def test_flop_parity_consistent_poisson(backend, ndim):
    mesh = box_mesh_2d(3, 2, 5) if ndim == 2 else box_mesh_3d(2, 2, 2, 4)
    pop = PressureOperator(mesh)
    p = np.random.rand(*pop.p_shape)
    n, m, K = mesh.order + 1, mesh.order - 1, mesh.K
    # E = D B^{-1} D^T.  D is one factored stage tree per velocity
    # component (the fused J.D along each term's own direction, the GLL->GL
    # interpolants along slower directions shared), D^T its mirror; B^{-1}
    # is pointwise.  Per component and operator: 2 m n K (2 n^2 + 3 m n +
    # 3 m^2) in 3-D, 2 m n K (2 n + 2 m) in 2-D.
    tree = 2 * n * n + 3 * m * n + 3 * m * m if ndim == 3 else 2 * n + 2 * m
    expected = 2 * ndim * 2 * m * n * K * tree
    with use_backend(backend):
        measured = _measured_mxm(pop.apply_e, p)
    assert measured == pytest.approx(expected, rel=0, abs=0.5)


# --------------------------------------------------------------------------
# Fig. 4 regression pin: successive-RHS projection lowers iteration counts
# --------------------------------------------------------------------------


def test_fig4_projection_reduces_pressure_iterations():
    def run(window):
        case = ShearLayerCase(
            n_elements=6, order=6, projection_window=window, dt=0.005
        )
        return [case.solver.step().pressure_iterations for _ in range(20)]

    with_proj = run(10)
    without = run(0)
    # projection never costs iterations...
    assert all(w <= wo for w, wo in zip(with_proj, without))
    # ...and once the basis warms up (tail = steps 10-20) it wins outright,
    # the paper's 2.5-5x Fig. 4 story (scaled down to CI size).
    tail_with = np.mean(with_proj[10:])
    tail_without = np.mean(without[10:])
    assert tail_without / tail_with > 1.0


# --------------------------------------------------------------------------
# overhead + numerics neutrality
# --------------------------------------------------------------------------


def test_disabled_tracing_overhead_under_five_percent():
    assert not obs.enabled()
    mesh = box_mesh_2d(4, 4, 9)
    op = LaplaceOperator(mesh)
    u = np.random.rand(*mesh.local_shape)
    out = np.empty_like(u)

    for _ in range(40):  # warm caches / workspace pools before timing
        op.apply(u, out=out)
    # Alternate bare and traced applies one by one, so drift in machine load
    # lands on both sides, and compare medians: on a shared machine a
    # minimum picks up one side's rare fast outlier.
    bare, traced = [], []
    clock = time.perf_counter
    for _ in range(7 * 40):
        t0 = clock()
        op.apply(u, out=out)
        t1 = clock()
        with obs.trace("apply"):
            op.apply(u, out=out)
        traced.append(clock() - t1)
        bare.append(t1 - t0)
    ratio = float(np.median(traced) / np.median(bare))
    assert ratio < 1.05, f"disabled tracing overhead {100 * (ratio - 1):.1f}%"


def test_enabled_tracing_is_bit_for_bit_neutral():
    # pin the kernel so the auto-tuner's timing race can't pick different
    # (bitwise-different) kernels between the two runs
    with use_backend("matmul"):
        sol_off = _taylor_green()
        for _ in range(3):
            sol_off.step()

        obs.enable()
        sol_on = _taylor_green()
        for _ in range(3):
            sol_on.step()

    assert obs.find_region("step").calls == 3  # tracing actually ran
    for a, b in zip(sol_off.u, sol_on.u):
        assert np.array_equal(a, b)
    assert np.array_equal(sol_off.p, sol_on.p)
