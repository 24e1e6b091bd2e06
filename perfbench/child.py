"""One measuring process of the end-to-end benchmark (started by run.py).

It imports the engine, builds every problem of the workload once, and runs
timed synthesis passes -- every benchmark of the workload once per pass, in
a seeded shuffled order, each on a freshly built problem in a fresh session,
with a full ``gc.collect()`` and a host-speed canary (``canary.py``) before
each timed run -- until its seconds are spent.  It prints one JSON object:
its set-up time and the canary time after set-up, peak RSS, and one record
per timed run (wall time, canary time, success, program text, the engine's
own counters, and the verdict of the independent re-check).  In traced
passes the layer wrappers of ``spans.py`` are installed around each timed
run only, and the pass's span aggregates are reported too.

Usage (normally via run.py)::

    PYTHONPATH=src python3 perfbench/child.py --workload paper-cold \\
        --seed 1 --seconds 10 --trace 0 --t0 <monotonic start>
    PYTHONPATH=src python3 perfbench/child.py --golden   # print program texts
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import resource
import statistics
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.benchmarks import all_benchmarks, get_benchmark
from repro.lang import ast as A
from repro.synth import SynthConfig, SynthesisSession
from repro.synth.goal import evaluate_spec

from canary import canary
from spans import LayerSpans

HERE = Path(__file__).resolve().parent

#: workload -> benchmark ids.
WORKLOADS: Dict[str, List[str]] = {
    "paper-cold": [b.id for b in all_benchmarks()],
    "scale-cold": ["SC1", "SC2"],
}

#: A run measures at least this many passes, whatever ``--seconds`` says,
#: so every benchmark has a median of two or more samples and a traced run
#: has a traced pass.
MIN_PASSES = 2

#: The engine counters (``result.metrics["stats"]``) the report reads.
COUNTERS = {
    "search": ("expansions", "pushed", "evaluated"),
    "cache": (
        "spec_hits", "spec_misses", "guard_hits", "guard_misses",
        "intern_hits", "intern_misses",
    ),
    "state": ("restores", "rebuilds"),
    "query": ("index_hits", "scans"),
}

BASE_CONFIG = SynthConfig(timeout_s=120)


def recheck(benchmark_id: str, program: A.MethodDef) -> bool:
    """Re-run ``program`` on a freshly built problem, on the definitional
    tree backend, with no memo and no snapshots: every spec must pass."""

    problem = get_benchmark(benchmark_id).build()
    try:
        return all(
            evaluate_spec(problem, program, spec, backend="tree").ok
            for spec in problem.specs
        )
    except Exception:  # a crash in the re-check is a failed program
        return False


class Runner:
    """Timed synthesis runs for one workload in this process."""

    def __init__(self, ids: List[str], spans: Optional[LayerSpans]) -> None:
        self.benchmarks = {bid: get_benchmark(bid) for bid in ids}
        self.configs = {bid: b.make_config(BASE_CONFIG) for bid, b in self.benchmarks.items()}
        # Every problem is built once here, so that set-up time covers the
        # builds (app and class-table construction); the timed runs build
        # their own fresh instances outside the timed window.  The scale
        # tier's rows are seeded by its specs, inside the timed runs.
        for bench in self.benchmarks.values():
            bench.build()
        self.spans = spans
        #: (benchmark id, program text) -> program, re-checked at the end.
        self.programs: Dict[Tuple[str, str], Optional[A.MethodDef]] = {}

    def run(self, bid: str, traced: bool) -> Dict[str, Any]:
        problem = self.benchmarks[bid].build()
        record: Dict[str, Any] = {"id": bid, "traced": traced}
        with SynthesisSession(self.configs[bid]) as session:
            gc.collect()
            record["canary_s"] = canary()
            if traced:
                self.spans.install()
            start = time.perf_counter()
            try:
                result = session.run(problem)
            except Exception as exc:  # a raising run is a failed run
                record.update(wall_s=time.perf_counter() - start, ok=False,
                              error=repr(exc), text="")
                return record
            finally:
                if traced:
                    self.spans.uninstall()
            record["wall_s"] = time.perf_counter() - start
        record["ok"] = result.success
        record["error"] = "timeout" if result.timed_out else ""
        record["text"] = result.pretty()
        stats = (result.metrics or {}).get("stats", {})
        record["counters"] = {
            f"{group}.{name}": stats.get(group, {}).get(name, 0)
            for group, names in COUNTERS.items()
            for name in names
        }
        self.programs.setdefault((bid, record["text"]), result.program)
        return record


def measure(args: argparse.Namespace) -> Dict[str, Any]:
    ids = WORKLOADS[args.workload]
    spans = None
    if args.trace:
        layers = json.loads((HERE / "rationale.json").read_text())["layers"]
        spans = LayerSpans({name: layer["wraps"] for name, layer in layers.items()})
    rng = random.Random(args.seed)
    runner = Runner(ids, spans)
    setup_s = time.monotonic() - args.t0
    setup_canary_s = statistics.median(canary() for _ in range(3))
    records: List[Dict[str, Any]] = []
    passes: List[Dict[str, Any]] = []
    started = time.perf_counter()
    pass_no = 0
    while args.seconds > 0:
        order = list(ids)
        rng.shuffle(order)
        # Traced and untraced passes alternate, so the tracing overhead
        # is measured under the same conditions as the untraced time.
        traced = bool(args.trace) and pass_no % 2 == 1
        if traced:
            spans.reset()
        pass_records = [runner.run(bid, traced) for bid in order]
        for record in pass_records:
            record["pass"] = pass_no
        records.extend(pass_records)
        if traced:
            passes.append(spans.summary())
        pass_no += 1
        # Stop before a pass that would end past the run's seconds.
        elapsed = time.perf_counter() - started
        if pass_no >= MIN_PASSES and elapsed + elapsed / pass_no > args.seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    verdicts = {
        key: program is not None and recheck(key[0], program)
        for key, program in runner.programs.items()
    }
    for record in records:
        record["recheck"] = verdicts.get((record["id"], record["text"]), False)
    return {
        "setup_s": setup_s, "setup_canary_s": setup_canary_s, "rss_mb": rss_mb,
        "records": records, "traced_passes": passes,
        "sites": spans.sites if spans else [], "missing_sites": spans.missing if spans else [],
    }


def golden() -> Dict[str, str]:
    """Program text of one cold run of every workload benchmark."""

    texts = {}
    for bid in sorted({bid for ids in WORKLOADS.values() for bid in ids}):
        bench = get_benchmark(bid)
        with SynthesisSession(bench.make_config(BASE_CONFIG)) as session:
            texts[bid] = session.run(bench.build()).pretty()
    return texts


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None,
                        help="time.monotonic() at which the parent started this process")
    parser.add_argument("--golden", action="store_true")
    args = parser.parse_args()
    if args.golden:
        print(json.dumps(golden(), indent=2, sort_keys=True))
        return
    if args.workload is None or args.t0 is None:
        parser.error("--workload and --t0 are required")
    print(json.dumps(measure(args)))


if __name__ == "__main__":
    main()
