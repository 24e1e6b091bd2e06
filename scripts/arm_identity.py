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
``perfbench/golden.json``.

The script prints one line per arm and exits 1 if any program differs,
naming each (arm, benchmark) pair.  CI runs it under two hash seeds::

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
from typing import Callable, Dict, List

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
_SRC = os.path.join(_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.activerecord import set_default_indexing  # noqa: E402
from repro.benchmarks import get_benchmark  # noqa: E402
from repro.synth import SynthConfig, SynthesisSession  # noqa: E402

GOLDEN = os.path.join(_ROOT, "perfbench", "golden.json")

BASE_CONFIG = SynthConfig(timeout_s=120)

#: Benchmark ids -> program text, as one arm synthesized them.
Programs = Dict[str, str]


def serial(ids: List[str], **overrides: object) -> Programs:
    """One cold run per benchmark, with ``overrides`` on its config."""

    texts = {}
    for bid in ids:
        bench = get_benchmark(bid)
        config = replace(bench.make_config(BASE_CONFIG), **overrides)
        try:
            with SynthesisSession(config) as session:
                texts[bid] = session.run(bench.build()).pretty()
        except Exception as error:  # a raising run differs from its golden
            traceback.print_exc()
            texts[bid] = f"<raised {error!r}>"
    return texts


def no_index(ids: List[str]) -> Programs:
    previous = set_default_indexing(False)
    try:
        return serial(ids)
    finally:
        set_default_indexing(previous)


def traced(ids: List[str]) -> Programs:
    with tempfile.TemporaryDirectory() as tmp:
        return serial(ids, trace_path=os.path.join(tmp, "arm.trace.jsonl"))


def parallel(ids: List[str]) -> Programs:
    with SynthesisSession(BASE_CONFIG) as session:
        entries = session.sweep(ids, warm=False, parallel=2)
    return {entry.label: entry.result.pretty() for entry in entries}


ARMS: Dict[str, Callable[[List[str]], Programs]] = {
    "no_memo": functools.partial(serial, cache_spec_outcomes=False),
    "no_snapshot": functools.partial(serial, snapshot_state=False),
    "no_pruning": functools.partial(serial, static_pruning=False),
    "no_index": no_index,
    "traced": traced,
    "parallel": parallel,
}


def main() -> int:
    with open(GOLDEN) as fh:
        golden: Programs = json.load(fh)
    ids = sorted(golden)
    failed = False
    for arm, run in ARMS.items():
        texts = run(ids)
        differ = [bid for bid in ids if texts.get(bid) != golden[bid]]
        print(f"{arm}: {len(ids) - len(differ)}/{len(ids)} identical")
        for bid in differ:
            print(f"DIFF {arm} {bid}", file=sys.stderr)
        failed = failed or bool(differ)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
