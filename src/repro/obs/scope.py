"""Per-run observability scopes for concurrent execution.

The trace/telemetry/flop layers default to process-global state — the
right thing for one run per process, and the reason a single ``enable()``
lights up the whole library.  The service layer (:mod:`repro.service`)
runs *many* solver runs in one process (inline, or one after another in
each worker process), and their instrumentation must not interleave:
each run wants its own region tree, its own telemetry sink, and an exact
per-run flop tally — and any thread may run its own scope.

:func:`run_scope` is that isolation boundary.  Entering it installs, for
the **calling thread only**:

* a fresh :class:`~repro.obs.trace.Tracer` whose regions diff a private
  :class:`~repro.perf.flops.FlopCounter` (so per-region flops are the
  run's own, not the process total),
* a fresh :class:`~repro.obs.telemetry.Telemetry` sink,
* a thread-local flop attribution (:func:`repro.perf.flops.attributing`)
  so ``scope.counter`` tallies exactly the flops this thread performed.

The global enable switch is untouched — scopes record only while the
layer is enabled, exactly like the global state.  On exit the previous
thread state is restored, so scopes nest and the main thread's global
view is never disturbed.

:meth:`RunScope.report` renders the scope as a schema-valid run report —
the per-run JSON document the service streams as its telemetry.
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, Iterator, Optional

from ..perf import flops as _flops
from . import telemetry as _telemetry
from . import trace as _trace

__all__ = ["RunScope", "run_scope"]


class RunScope:
    """Handle to one run's isolated observability state."""

    def __init__(self):
        self.counter = _flops.FlopCounter()
        self.tracer = _trace.Tracer(counter=self.counter)
        self.telemetry = _telemetry.Telemetry()

    def report(
        self,
        meta: Optional[Dict[str, Any]] = None,
        service: Optional[Dict[str, Any]] = None,
    ) -> dict:
        """Schema-valid run report built from this scope's state only."""
        from .report import report_json

        return report_json(
            meta=meta,
            service=service,
            tracer=self.tracer,
            sink=self.telemetry,
            counter=self.counter,
        )


@contextlib.contextmanager
def run_scope() -> Iterator[RunScope]:
    """Isolate this thread's tracing/telemetry/flop state for one run."""
    scope = RunScope()
    prev_tracer = _trace._set_thread_tracer(scope.tracer)
    prev_sink = _telemetry._set_thread_sink(scope.telemetry)
    try:
        with _flops.attributing(scope.counter):
            yield scope
    finally:
        _trace._set_thread_tracer(prev_tracer)
        _telemetry._set_thread_sink(prev_sink)
