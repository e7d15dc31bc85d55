"""repro.obs — observability for the checkpoint-restart lifecycle.

Structured tracing (:mod:`.trace`), metrics (:mod:`.metrics`), trace
invariants (:mod:`.invariants`), and the Table 2-style per-phase report
(:mod:`.report` / ``python -m repro.obs report``).

A :class:`Tracer` reaches the simulation through the ``tracer`` slot of
:mod:`repro.instrument` (``installed(tracer=...)`` or :func:`traced`) —
the instrumented packages never import this one.
"""

from .invariants import (
    TraceInvariantViolation,
    assert_trace_invariants,
    check_trace_invariants,
    split_segments,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .report import (decompose, migration_summary, render,
                     render_migration, render_store, store_summary,
                     trace_scenario)
from .trace import (
    TraceFormatError,
    Tracer,
    canonicalize,
    load_trace,
    traced,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TraceFormatError",
    "Tracer",
    "TraceInvariantViolation",
    "assert_trace_invariants",
    "canonicalize",
    "check_trace_invariants",
    "decompose",
    "load_trace",
    "migration_summary",
    "render",
    "render_migration",
    "render_store",
    "split_segments",
    "store_summary",
    "trace_scenario",
    "traced",
]
