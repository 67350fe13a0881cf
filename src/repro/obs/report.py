"""Structured run reports: stable-schema JSON and Table-2-style text.

One call — :func:`report_json` — collects everything the observability
layer knows into a single JSON-ready document:

* the hierarchical region tree (wall time / calls / flop deltas per phase),
* the telemetry sink (per-solve iteration+residual histories, projection
  basis sizes, communication message/byte volume, named scalar facts),
* the global flop counter breakdown,
* the kernel-backend dispatch choices (which mxm kernel ran each shape).

The schema is versioned (:data:`SCHEMA_VERSION`) and *stable*: keys are
never renamed within a major version, only added, so the BENCH_*.json
trajectory and CI artifacts stay comparable across PRs.
:func:`validate_report` is a dependency-free structural validator (we do
not ship ``jsonschema``) used by the CLI and the test suite.

:func:`report_text` renders the region tree in the style of the paper's
Table 2 — one row per phase with times, call counts, percentages, and
MFLOPS — for terminal consumption.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional

from ..perf.flops import global_counter
from . import trace as _trace
from .telemetry import telemetry

__all__ = [
    "SCHEMA_VERSION",
    "report_json",
    "report_text",
    "validate_report",
    "save_report",
]

#: bump the major number on any breaking key change.
SCHEMA_VERSION = "repro-obs-report/1"


def _backend_section() -> dict:
    """Active backend + per-shape dispatch decisions (import-light).

    ``tallies`` aggregates the choices per winning backend and kernel
    point (how many dispatches each registered backend actually served) —
    the per-backend view of which kernels won which shapes.  Additive key;
    ``choices`` is unchanged.
    """
    from ..backends import dispatch as _dispatch

    return {
        "active": _dispatch.active_backend().name,
        "choices": _dispatch.dispatch_choices(),
        "tallies": _dispatch.backend_tallies(),
    }


def report_json(
    meta: Optional[Dict[str, Any]] = None,
    spmd: Optional[Dict[str, Any]] = None,
    service: Optional[Dict[str, Any]] = None,
    *,
    tracer=None,
    sink=None,
    counter=None,
) -> dict:
    """The full observability document (JSON-ready, schema-stable).

    ``meta`` lets callers attach run identification (workload name, mesh
    size, steps...) without touching the schema's reserved keys.
    ``spmd`` attaches an optional SPMD-run section — typically
    :meth:`repro.parallel.exec.SPMDRunResult.report_section`, which merges
    every rank's trace regions and comm phases into one measured-vs-model
    table (additive schema: absent unless provided).  ``service`` attaches
    the optional many-run service summary
    (:meth:`repro.service.Session.summary`: throughput, cache hit
    rates) — also additive.

    ``tracer``/``sink``/``counter`` override the sources the document is
    built from; the service layer passes a run scope's private state here
    (:meth:`repro.obs.scope.RunScope.report`) so per-run reports stay
    disjoint under concurrency.  Defaults: the calling thread's current
    tracer/sink and the global flop counter.
    """
    from .. import __version__
    from .telemetry import current_sink

    tracer = tracer if tracer is not None else _trace.get_tracer()
    sink = sink if sink is not None else current_sink()
    counter = counter if counter is not None else global_counter
    doc = {
        "schema": SCHEMA_VERSION,
        "generator": f"repro {__version__}",
        "enabled": _trace.enabled(),
        "meta": dict(meta or {}),
        "regions": tracer.root.as_dict(),
        "flops": {
            "total": counter.total(),
            "by_category": counter.snapshot(),
        },
        "backend": _backend_section(),
    }
    if spmd is not None:
        doc["spmd"] = dict(spmd)
    if service is not None:
        doc["service"] = dict(service)
    doc.update(sink.as_dict())
    return doc


def save_report(path: str, meta: Optional[Dict[str, Any]] = None) -> dict:
    """Write :func:`report_json` to ``path``; returns the document."""
    doc = report_json(meta)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    return doc


# ---------------------------------------------------------------------------
# Structural validation (dependency-free stand-in for jsonschema).
# ---------------------------------------------------------------------------
def _fail(path: str, msg: str) -> None:
    raise ValueError(f"report schema violation at {path or '$'}: {msg}")


def _check_type(obj: Any, types, path: str) -> None:
    if not isinstance(obj, types):
        names = (
            "/".join(t.__name__ for t in types)
            if isinstance(types, tuple)
            else types.__name__
        )
        _fail(path, f"expected {names}, got {type(obj).__name__}")


def _check_keys(obj: dict, required: List[str], path: str) -> None:
    missing = [k for k in required if k not in obj]
    if missing:
        _fail(path, f"missing keys {missing}")


_NUM = (int, float)


def _validate_region(node: Any, path: str) -> None:
    _check_type(node, dict, path)
    _check_keys(node, ["name", "calls", "seconds", "flops", "total_flops", "children"], path)
    _check_type(node["name"], str, path + ".name")
    _check_type(node["calls"], int, path + ".calls")
    _check_type(node["seconds"], _NUM, path + ".seconds")
    _check_type(node["flops"], dict, path + ".flops")
    for cat, v in node["flops"].items():
        _check_type(v, _NUM, f"{path}.flops[{cat!r}]")
    _check_type(node["children"], list, path + ".children")
    if node["seconds"] < 0:
        _fail(path + ".seconds", "negative wall time")
    for i, c in enumerate(node["children"]):
        _validate_region(c, f"{path}.children[{i}]")


def _validate_solve(s: Any, path: str) -> None:
    _check_type(s, dict, path)
    _check_keys(
        s,
        ["solver", "label", "region", "iterations", "converged", "residual_history"],
        path,
    )
    _check_type(s["solver"], str, path + ".solver")
    _check_type(s["label"], str, path + ".label")
    _check_type(s["region"], str, path + ".region")
    _check_type(s["iterations"], int, path + ".iterations")
    _check_type(s["converged"], bool, path + ".converged")
    _check_type(s["residual_history"], list, path + ".residual_history")
    for k in ("initial_residual", "final_residual"):
        if s.get(k) is not None:
            _check_type(s[k], _NUM, f"{path}.{k}")
    for i, r in enumerate(s["residual_history"]):
        _check_type(r, _NUM, f"{path}.residual_history[{i}]")


def _validate_comm(c: Any, path: str) -> None:
    _check_type(c, dict, path)
    _check_keys(c, ["kind", "label", "messages", "words", "bytes", "extra"], path)
    _check_type(c["messages"], int, path + ".messages")
    _check_type(c["words"], _NUM, path + ".words")
    _check_type(c["bytes"], _NUM, path + ".bytes")
    _check_type(c["extra"], dict, path + ".extra")


def _validate_choice(c: Any, path: str) -> None:
    _check_type(c, dict, path)
    _check_keys(c, ["op_shape", "field_shape", "direction", "kernel", "hits"], path)
    _check_type(c["op_shape"], list, path + ".op_shape")
    _check_type(c["field_shape"], list, path + ".field_shape")
    _check_type(c["direction"], int, path + ".direction")
    _check_type(c["kernel"], str, path + ".kernel")
    _check_type(c["hits"], int, path + ".hits")
    if "point" in c:  # additive: the kernel point the direction encodes
        _check_type(c["point"], str, path + ".point")


def validate_report(doc: Any) -> None:
    """Raise ``ValueError`` unless ``doc`` conforms to the report schema."""
    _check_type(doc, dict, "")
    _check_keys(
        doc,
        [
            "schema",
            "generator",
            "enabled",
            "meta",
            "regions",
            "flops",
            "backend",
            "solves",
            "projections",
            "comm",
            "values",
        ],
        "",
    )
    if doc["schema"] != SCHEMA_VERSION:
        _fail("schema", f"unknown schema {doc['schema']!r} (want {SCHEMA_VERSION!r})")
    _check_type(doc["enabled"], bool, "enabled")
    _check_type(doc["meta"], dict, "meta")
    _validate_region(doc["regions"], "regions")
    _check_type(doc["flops"], dict, "flops")
    _check_keys(doc["flops"], ["total", "by_category"], "flops")
    _check_type(doc["flops"]["total"], _NUM, "flops.total")
    _check_type(doc["flops"]["by_category"], dict, "flops.by_category")
    _check_type(doc["backend"], dict, "backend")
    _check_keys(doc["backend"], ["active", "choices"], "backend")
    _check_type(doc["backend"]["active"], str, "backend.active")
    _check_type(doc["backend"]["choices"], list, "backend.choices")
    for i, c in enumerate(doc["backend"]["choices"]):
        _validate_choice(c, f"backend.choices[{i}]")
    # additive (schema /1 stays valid without them): per-backend tallies.
    if "tallies" in doc["backend"]:
        tallies = doc["backend"]["tallies"]
        _check_type(tallies, dict, "backend.tallies")
        for name, row in tallies.items():
            _check_type(row, dict, f"backend.tallies[{name!r}]")
            _check_keys(
                row,
                ["apply_1d", "batched_matvec", "apply_tensor", "shapes"],
                f"backend.tallies[{name!r}]",
            )
            for k, v in row.items():
                _check_type(v, int, f"backend.tallies[{name!r}].{k}")
    _check_type(doc["solves"], list, "solves")
    for i, s in enumerate(doc["solves"]):
        _validate_solve(s, f"solves[{i}]")
    _check_type(doc["projections"], list, "projections")
    for i, p in enumerate(doc["projections"]):
        _check_type(p, dict, f"projections[{i}]")
        _check_keys(p, ["label", "basis_size", "rhs_norm", "reduced_norm"], f"projections[{i}]")
    _check_type(doc["comm"], dict, "comm")
    _check_keys(doc["comm"], ["records", "totals"], "comm")
    for i, c in enumerate(doc["comm"]["records"]):
        _validate_comm(c, f"comm.records[{i}]")
    totals = doc["comm"]["totals"]
    _check_type(totals, dict, "comm.totals")
    _check_keys(totals, ["messages", "words", "bytes"], "comm.totals")
    _check_type(doc["values"], list, "values")
    for i, v in enumerate(doc["values"]):
        _check_type(v, dict, f"values[{i}]")
        _check_keys(v, ["name", "value", "label"], f"values[{i}]")
    if "spmd" in doc:
        _validate_spmd(doc["spmd"], "spmd")
    if "service" in doc:
        _validate_service(doc["service"], "service")


def _validate_spmd(s: Any, path: str) -> None:
    """Optional SPMD section: merged measured-vs-modeled comm phases."""
    _check_type(s, dict, path)
    _check_keys(
        s, ["executor", "ranks", "wall_seconds", "modeled_seconds", "phases"], path
    )
    _check_type(s["executor"], str, path + ".executor")
    _check_type(s["ranks"], int, path + ".ranks")
    _check_type(s["wall_seconds"], _NUM, path + ".wall_seconds")
    _check_type(s["modeled_seconds"], _NUM, path + ".modeled_seconds")
    _check_type(s["phases"], dict, path + ".phases")
    for kind, row in s["phases"].items():
        _check_type(row, dict, f"{path}.phases[{kind!r}]")
        _check_keys(
            row,
            ["calls", "messages", "words", "measured_seconds_max",
             "modeled_seconds_max"],
            f"{path}.phases[{kind!r}]",
        )
        for k, v in row.items():
            _check_type(v, _NUM, f"{path}.phases[{kind!r}].{k}")


def _validate_service(s: Any, path: str) -> None:
    """Optional service section: many-run Session summary."""
    _check_type(s, dict, path)
    _check_keys(
        s,
        ["workers", "runs", "succeeded", "failed", "wall_seconds",
         "throughput_runs_per_s", "cache"],
        path,
    )
    _check_type(s["workers"], int, path + ".workers")
    _check_type(s["runs"], int, path + ".runs")
    _check_type(s["succeeded"], int, path + ".succeeded")
    _check_type(s["failed"], int, path + ".failed")
    _check_type(s["wall_seconds"], _NUM, path + ".wall_seconds")
    _check_type(s["throughput_runs_per_s"], _NUM, path + ".throughput_runs_per_s")
    cache = s["cache"]
    _check_type(cache, dict, path + ".cache")
    _check_keys(
        cache, ["hits", "misses", "evictions", "hit_rate", "entries", "bytes"],
        path + ".cache",
    )
    for k in ("hits", "misses", "evictions", "entries"):
        _check_type(cache[k], int, f"{path}.cache.{k}")
    _check_type(cache["hit_rate"], _NUM, path + ".cache.hit_rate")
    _check_type(cache["bytes"], _NUM, path + ".cache.bytes")


# ---------------------------------------------------------------------------
# Table-2-style text rendering.
# ---------------------------------------------------------------------------
def report_text(max_depth: int = 6) -> str:
    """Per-region breakdown in the spirit of the paper's Table 2.

    One row per region (indented by depth): calls, total seconds, percent
    of the root's traced wall time, seconds per call, and MFLOPS inside
    the region.
    """
    root = _trace.get_tracer().root
    total = sum(c.seconds for c in root.children.values())
    lines = [
        f"{'region':<34} {'calls':>7} {'seconds':>10} {'%':>6} "
        f"{'s/call':>10} {'MFLOPS':>9}",
        "-" * 80,
    ]

    def render(node, depth):
        if depth > max_depth:
            return
        indent = "  " * depth
        pct = 100.0 * node.seconds / total if total > 0 else 0.0
        per = node.seconds / node.calls if node.calls else 0.0
        mflops = node.total_flops() / node.seconds / 1e6 if node.seconds > 0 else 0.0
        lines.append(
            f"{indent + node.name:<34} {node.calls:>7d} {node.seconds:>10.4f} "
            f"{pct:>6.1f} {per:>10.2e} {mflops:>9.1f}"
        )
        for c in sorted(node.children.values(), key=lambda n: -n.seconds):
            render(c, depth + 1)

    if not root.children:
        lines.append("(no regions recorded — is tracing enabled?)")
    for c in sorted(root.children.values(), key=lambda n: -n.seconds):
        render(c, 0)

    t = telemetry
    if t.solves:
        lines.append("")
        lines.append(f"{'solver':<14} {'label':<16} {'solves':>7} {'iters(mean)':>12}")
        seen = {}
        for s in t.solves:
            seen.setdefault((s.solver, s.label), []).append(s.iterations)
        for (solver, label), its in sorted(seen.items()):
            lines.append(
                f"{solver:<14} {label:<16} {len(its):>7d} "
                f"{sum(its) / len(its):>12.1f}"
            )
    totals = t.comm_totals()
    if totals["messages"]:
        lines.append("")
        lines.append(
            f"comm: {totals['messages']} messages, {totals['words']:.0f} words "
            f"({totals['bytes'] / 1e6:.2f} MB)"
        )
    return "\n".join(lines)
