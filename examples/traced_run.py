"""Observability: trace a synthesis run and profile where its time went.

Building the session with a ``trace_path`` (or setting the ``REPRO_TRACE``
environment variable) makes it trace its runs through
:mod:`repro.obs.trace`: while the session is open, the engine's wrap sites
are wrapped, and the JSONL trace gets one span per run, spec or guard
search and merge.  Each
span holds the self time and call count of every layer beneath it
(enumeration, type checking, spec evaluation, the interpreter, snapshot
restores, queries, static pruning).  Every run also carries its counters
(``result.counters``, and ``result.metrics["stats"]``), and
:mod:`repro.obs.tool` turns the trace into a per-layer profile with one
efficacy line per layer that answers work without doing it, or into a
Chrome trace-event file.

Run with::

    python examples/traced_run.py

or trace any other entry point without touching code::

    REPRO_TRACE=run.trace.jsonl python examples/quickstart.py
    python scripts/trace_tool.py summarize run.trace.jsonl
"""

from __future__ import annotations

import json
import os
import tempfile

from repro.obs.tool import format_efficacy, summarize, to_chrome
from repro.synth import SynthConfig, SynthesisSession


def main() -> None:
    trace_path = os.path.join(tempfile.mkdtemp(), "run.trace.jsonl")

    # The session owns the tracer: the wrap sites are wrapped on entry and
    # unwrapped on exit, so untraced runs execute no tracing code.  A
    # parallel sweep merges its cells' worker-side spans into the same file.
    with SynthesisSession(SynthConfig(timeout_s=60), trace_path=trace_path) as session:
        result = session.run("A1")
    print(f"synthesized {result.problem.name}:")
    print(result.pretty())
    print()

    summary = summarize(trace_path)
    print(f"{summary['spans']} spans; per-layer self time (from the trace):")
    for layer, entry in summary["layers"].items():
        print(f"  {layer:<13} {entry['self_s']:.3f}s x{entry['calls']}")
    print()

    # Did each layer earn its cost? Hits against misses, from the run's
    # counters recorded on its span.
    for line in summary["efficacy"]:
        print(format_efficacy(line))

    # And export to Chrome trace-event JSON for chrome://tracing/Perfetto.
    chrome_path = trace_path.replace(".jsonl", ".chrome.json")
    with open(chrome_path, "w") as fh:
        json.dump(to_chrome(trace_path), fh)
    print(f"\nchrome trace written to {chrome_path}")


if __name__ == "__main__":
    main()
