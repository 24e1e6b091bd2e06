"""Observability layer: wrap-site tracing, the counter namespace, profiling.

``repro.obs`` is the zero-dependency layer the synthesis engine is observed
through; the engine itself holds no tracing code:

- :mod:`repro.obs.trace` -- one table of wrap sites per engine layer.  A
  live tracer wraps them and writes one span per run, search and merge,
  each holding the self time and call count of every layer beneath it;
  while tracing is off nothing is wrapped, so it costs nothing.
- :mod:`repro.obs.metrics` -- the engine's one counter namespace
  (:class:`~repro.obs.metrics.Counters`, keyed ``layer.name``).
- :mod:`repro.obs.tool` -- trace analysis (per-layer self time, slowest
  searches, per-layer efficacy lines) and Chrome trace-event export,
  fronted by ``scripts/trace_tool.py``.
"""

from repro.obs import metrics, tool, trace

__all__ = ["metrics", "tool", "trace"]
