"""Spans recorded from outside the program: the traced run's timer.

A traced run replaces public bound methods of the constructed solver
objects by timing closures (``Tracer.wrap`` sets an attribute on the
*object*, or on a class where the object is built lazily inside the
program); nothing under ``src/`` is edited.  Every call becomes one span
``[name, start, end, parent]`` kept in memory; spans nest through a stack,
so a span's parent is the wrapped call that was open when it started.

Self time of a span = its duration minus the durations of its direct
children.  ``totals()`` sums calls, seconds, self seconds and (for spans
wrapped with ``flops=True``) the exact flop-counter delta per span name.

A disabled tracer wraps nothing: ``wrap``/``timed`` hand the original
callable back, so the untraced run executes the program's own methods.
Single-threaded by design — only the workload's main thread is wrapped.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        #: one row per span: [name id, start, end, parent row (-1 = none), flops]
        self.spans: List[list] = []
        self._stack: List[int] = []
        self._flop_total: Optional[Callable[[], float]] = None

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def timed(
        self,
        fn: Callable,
        name: str,
        flops: bool = False,
        after: Optional[Callable[[Any, tuple, dict], None]] = None,
    ) -> Callable:
        """``fn`` wrapped in a span; ``after(result, args, kwargs)`` runs
        outside the span (for exact counts taken at the same boundary)."""
        if not self.enabled:
            return fn
        if flops and self._flop_total is None:
            from repro.perf.flops import global_counter

            self._flop_total = global_counter.total
        nid = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        total = self._flop_total if flops else None

        def wrapper(*args, **kwargs):
            row = [nid, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(row)
            f0 = total() if total else 0.0
            row[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                row[2] = clock()
                stack.pop()
                if total:
                    row[4] = total() - f0
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str, **kw) -> None:
        """Replace ``owner.attr`` (an instance's bound method, or a class's
        function) by its timed version."""
        if self.enabled:
            setattr(owner, attr, self.timed(getattr(owner, attr), name, **kw))

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, seconds, self_seconds, flops."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for i, (nid, start, end, _, flops) in enumerate(self.spans):
            row = out.setdefault(
                self.names[nid],
                {"calls": 0, "seconds": 0.0, "self_seconds": 0.0, "flops": 0.0},
            )
            row["calls"] += 1
            row["seconds"] += end - start
            row["self_seconds"] += end - start - child[i]
            row["flops"] += flops
        return out

    def seconds_under(self, parent_name: str, names: set) -> float:
        """Seconds of spans named in ``names`` whose *direct* parent is a
        ``parent_name`` span (no double counting of nested calls)."""
        pid = self._name_ids.get(parent_name)
        ids = {self._name_ids[n] for n in names if n in self._name_ids}
        total = 0.0
        for nid, start, end, parent, _ in self.spans:
            if nid in ids and parent >= 0 and self.spans[parent][0] == pid:
                total += end - start
        return total

    def dump(self, path: str, extra: dict) -> None:
        doc = {
            "workload": self.workload,
            "columns": ["name", "start", "end", "parent", "flops"],
            "names": self.names,
            "spans": self.spans,
            "totals": self.totals(),
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)
