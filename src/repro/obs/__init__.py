"""Observability layer: structured tracing, unified metrics, profiling.

``repro.obs`` is the zero-dependency cross-cutting layer the synthesis
engine reports itself through:

- :mod:`repro.obs.trace` -- a span-based tracer (monotonic timestamps,
  span/parent ids, JSONL sink) instrumented through the whole pipeline.
  Default-off: every instrumentation site guards on a single attribute
  check against a no-op tracer, so the disabled path costs one branch.
- :mod:`repro.obs.metrics` -- the engine's one counter namespace
  (:class:`~repro.obs.metrics.Counters`, keyed ``layer.name``) and the
  per-phase wall-time histograms, behind one ``snapshot()`` export path.
- :mod:`repro.obs.tool` -- trace analysis (per-phase breakdowns, slowest
  specs, hit-ratio timelines) and Chrome trace-event export, fronted by
  ``scripts/trace_tool.py``.
"""

from repro.obs import metrics, tool, trace

__all__ = ["metrics", "tool", "trace"]
