#!/usr/bin/env python3
"""Print the engine counters of one cold run of every end-to-end benchmark.

Each of the 19 paper benchmarks and the SC1/SC2 scale cells is synthesized
once, cold: a freshly built problem in a fresh ``SynthesisSession`` with
``SynthConfig(timeout_s=120)`` plus the benchmark's own overrides (the
configuration of ``perfbench/child.py --golden``).  The nonzero counters of
each run's ``result.metrics["stats"]`` are printed as one JSON object, keyed
by benchmark id and then by ``layer.name``.

The counters measure the work the engine does, so a change that keeps the
search and its layers doing the same work keeps this output byte for byte.
CI compares it with the committed ``scripts/counter_golden.json`` under two
hash seeds::

    PYTHONHASHSEED=0 PYTHONPATH=src python3 scripts/counter_golden.py \\
        | cmp - scripts/counter_golden.json

Regenerate the golden only for a change that means to alter engine work.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.benchmarks import all_benchmarks, get_benchmark  # noqa: E402
from repro.synth import SynthConfig, SynthesisSession  # noqa: E402

BENCHMARK_IDS = [b.id for b in all_benchmarks()] + ["SC1", "SC2"]


def counters(benchmark_id: str) -> Dict[str, int]:
    """Nonzero ``layer.name`` counters of one cold run of ``benchmark_id``."""

    bench = get_benchmark(benchmark_id)
    with SynthesisSession(bench.make_config(SynthConfig(timeout_s=120))) as session:
        stats = session.run(bench.build()).metrics["stats"]
    return {
        f"{layer}.{name}": value
        for layer, names in stats.items()
        for name, value in names.items()
        if value
    }


def main() -> None:
    report = {bid: counters(bid) for bid in sorted(BENCHMARK_IDS)}
    print(json.dumps(report, indent=2, sort_keys=True))


if __name__ == "__main__":
    main()
