#!/usr/bin/env python3
"""Check that every layer arm synthesizes the golden program of every benchmark.

An arm is one way to run the engine that must not change what it
synthesizes: a layer turned off, tracing turned on, or the cells spread
over worker processes.  For each arm in :data:`ARMS` the 19 paper
benchmarks and the SC1/SC2 scale cells are synthesized once, cold: a
freshly built problem in a fresh ``SynthesisSession`` with
``SynthConfig(timeout_s=120)`` plus the benchmark's own overrides (the
configuration of ``perfbench/child.py --golden``), and then the arm's own
change.  Every program text is compared byte for byte with
``perfbench/golden.json``.  Tracing must not change engine work either: the
``traced`` arm's nonzero counters of every run are also compared with
``scripts/counter_golden.json``.

The script prints one line per arm, and one for the traced counters, and
exits 1 if any program or traced counter set differs, naming each (arm,
benchmark) pair.  CI runs it under two hash seeds::

    PYTHONHASHSEED=0 PYTHONPATH=src python3 scripts/arm_identity.py
"""

from __future__ import annotations

import functools
import json
import os
import sys
import tempfile
import traceback
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.activerecord import set_default_indexing  # noqa: E402
from repro.benchmarks import get_benchmark  # noqa: E402
from repro.synth import SynthConfig, SynthesisSession  # noqa: E402

GOLDEN = os.path.join(_ROOT, "perfbench", "golden.json")
COUNTER_GOLDEN = os.path.join(_HERE, "counter_golden.json")

BASE_CONFIG = SynthConfig(timeout_s=120)

#: Benchmark ids -> program text, as one arm synthesized them.
Programs = Dict[str, str]
#: Benchmark ids -> the nonzero ``layer.name`` counters of that run.
Counts = Dict[str, Dict[str, int]]


def nonzero(counters: Dict[str, int]) -> Dict[str, int]:
    return {key: value for key, value in counters.items() if value}


def serial(
    ids: List[str], trace_path: Optional[str] = None, **overrides: object
) -> Tuple[Programs, Counts]:
    """One cold run per benchmark, with ``overrides`` on its config, each
    in a session tracing to ``trace_path`` when one is given."""

    texts, counts = {}, {}
    for bid in ids:
        bench = get_benchmark(bid)
        config = replace(bench.make_config(BASE_CONFIG), **overrides)
        try:
            with SynthesisSession(config, trace_path=trace_path) as session:
                result = session.run(bench.build())
            texts[bid], counts[bid] = result.pretty(), nonzero(result.counters)
        except Exception as error:  # a raising run differs from its golden
            traceback.print_exc()
            texts[bid] = f"<raised {error!r}>"
    return texts, counts


def no_index(ids: List[str]) -> Tuple[Programs, Counts]:
    previous = set_default_indexing(False)
    try:
        return serial(ids)
    finally:
        set_default_indexing(previous)


def traced(ids: List[str]) -> Tuple[Programs, Counts]:
    with tempfile.TemporaryDirectory() as tmp:
        return serial(ids, trace_path=os.path.join(tmp, "arm.trace.jsonl"))


def parallel(ids: List[str]) -> Tuple[Programs, Counts]:
    with SynthesisSession(BASE_CONFIG) as session:
        entries = session.sweep(ids, warm=False, parallel=2)
    return (
        {entry.label: entry.result.pretty() for entry in entries},
        {entry.label: nonzero(entry.result.counters) for entry in entries},
    )


ARMS: Dict[str, Callable[[List[str]], Tuple[Programs, Counts]]] = {
    "no_snapshot": functools.partial(serial, snapshot_state=False),
    "no_pruning": functools.partial(serial, static_pruning=False),
    "no_index": no_index,
    "traced": traced,
    "parallel": parallel,
}


def report(label: str, ids: List[str], differ: List[str]) -> bool:
    """Print one arm's line and its DIFF lines; whether any differ."""

    print(f"{label}: {len(ids) - len(differ)}/{len(ids)} identical")
    for bid in differ:
        print(f"DIFF {label} {bid}", file=sys.stderr)
    return bool(differ)


def main() -> int:
    with open(GOLDEN) as fh:
        golden: Programs = json.load(fh)
    with open(COUNTER_GOLDEN) as fh:
        counter_golden: Counts = json.load(fh)
    ids = sorted(golden)
    failed = False
    for arm, run in ARMS.items():
        texts, counts = run(ids)
        failed |= report(arm, ids, [bid for bid in ids if texts.get(bid) != golden[bid]])
        if arm == "traced":  # tracing must not change engine work either
            failed |= report(
                f"{arm}-counters", ids,
                [bid for bid in ids if counts.get(bid) != counter_golden[bid]],
            )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
