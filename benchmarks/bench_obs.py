"""Observability overhead gate plus trace well-formedness check (repro.obs).

Two claims keep the ``repro.obs`` instrumentation honest:

1. **Disabled tracing is free.**  For each selected registry benchmark the
   harness synthesizes a program, captures its spec recordings, then times
   full spec evaluations two ways -- ``off`` calls the pre-instrumentation
   body (``goal._evaluate_spec_impl``) directly, ``on`` calls the shipping
   ``goal.evaluate_spec`` wrapper with tracing disabled (the production
   default).  The gate requires the wrapper to cost at most
   2% of evaluation throughput, with both arms synthesizing
   byte-identical programs (they run the identical engine; any difference
   is a harness bug).  The two arms' timed bursts run interleaved
   back-to-back so machine-speed drift cancels out of each ratio, and the
   reported overhead is the minimum of several trials' medians (see
   :data:`_TRIALS` for why min is the honest statistic here).

2. **Enabled tracing is well-formed.**  The ``on`` arm additionally runs a
   full traced ``session.run`` (fresh session, ``trace_path`` set) and
   validates the result through :mod:`repro.obs.tool`: schema-versioned
   header, parseable span/instant events, a per-phase breakdown covering
   >= 95% of the root ``session.run`` wall time, and a Chrome trace-event
   export that is valid JSON with a non-empty ``traceEvents`` list.

Both claims fold into ``meets_target``; ``--check`` (used by
``scripts/ci.sh``) exits non-zero unless every selected benchmark passes.
The report/CLI plumbing shared with the other gates lives in
:mod:`ab_harness`.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs.py --out BENCH_obs.json
    PYTHONPATH=src python benchmarks/bench_obs.py --check   # CI gate
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import sys
import tempfile
import time
from typing import Dict, List, Optional, Sequence

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
for _path in (_SRC, _HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from ab_harness import ABHarness, SCHEMA_VERSION  # noqa: E402,F401
from repro.benchmarks import get_benchmark  # noqa: E402
from repro.obs import tool as trace_tool  # noqa: E402
from repro.synth.config import SynthConfig  # noqa: E402
from repro.synth.goal import _evaluate_spec_impl, evaluate_spec  # noqa: E402
from repro.synth.session import SynthesisSession  # noqa: E402

#: Benchmarks whose spec evaluations are among the registry's heaviest
#: (145-220us per call): the ~250ns dispatch cost being measured is well
#: under 0.2% of every timed call, so the 2% gate has a wide noise margin.
#: (The cheapest-eval benchmarks -- S1/S2/S4/S7 at 16-40us -- would spend
#: most of the budget measuring scheduler noise instead.)
DEFAULT_BENCHMARKS = ("S6", "A9", "A4")

#: Timed burst pairs per spec per trial.  Each pair times a burst of
#: off-calls immediately followed by an equal burst of on-calls; the
#: ratio of the two ~10ms windows is one sample.  Bursts this long
#: *average over* the host's frequent small stalls (container CPU
#: contention shows up as clumps of 1.5-2x evaluations, far too common
#: for burst-level min estimators to dodge), adjacent windows see the
#: same machine speed so drift cancels, and the median across a trial's
#: pairs discards the windows a larger stall skewed.
_PAIRS_PER_SPEC = 15

#: Independent measurement trials; the reported overhead is the *minimum
#: of the trial medians* -- the ``timeit`` doctrine, because the noise
#: left after pairing (stall epochs, scheduling phase, per-process memory
#: layout luck) overwhelmingly *inflates* a trial's on/off ratio, while a
#: genuine disabled-path regression is systematic and inflates every
#: trial, so the minimum still catches it.  (Single-trial medians proved
#: unstable at this resolution: repeated runs of the same measurement
#: shift by 2-4% -- an order of magnitude above the ~0.2% dispatch cost
#: actually being measured.)
_TRIALS = 4

#: Evaluations per timed burst; ~60 of the 145-220us evaluations make a
#: ~10ms window, far above timer resolution and long enough for stall
#: averaging.
_BURST = 60

#: Phase coverage the traced run must reach (the acceptance floor).
_MIN_COVERAGE = 0.95

#: Default overhead ceiling (percent of evaluation throughput).
_MAX_OVERHEAD_PCT = 2.0

_RUN_KEYS = frozenset(
    {
        "success",
        "elapsed_s",
        "instrumented",
        "evaluations",
        "evals_per_s",
    }
)


def _validate_trace(benchmark_id: str, config: SynthConfig) -> Dict[str, object]:
    """One traced ``session.run``; returns the trace well-formedness fields."""

    fd, path = tempfile.mkstemp(prefix=f"obs_{benchmark_id}_", suffix=".jsonl")
    os.close(fd)
    try:
        from dataclasses import replace

        with SynthesisSession(replace(config, trace_path=path)) as session:
            traced = session.run(benchmark_id)
        summary = trace_tool.summarize(path)
        breakdown = summary["breakdown"]
        chrome = trace_tool.to_chrome(path)
        chrome_ok = bool(
            isinstance(json.loads(json.dumps(chrome)), dict)
            and chrome.get("traceEvents")
        )
        coverage = float(breakdown["coverage"])
        root = breakdown["root"]
        return {
            "trace_valid": bool(
                traced.success
                and root is not None
                and root["name"] == "session.run"
                and coverage >= _MIN_COVERAGE
                and chrome_ok
            ),
            "trace_events": int(summary["events"]),
            "trace_coverage": round(coverage, 4),
        }
    except trace_tool.TraceError as error:
        return {
            "trace_valid": False,
            "trace_events": 0,
            "trace_coverage": 0.0,
            "trace_error": str(error),
        }
    finally:
        if os.path.exists(path):
            os.unlink(path)


def _run(benchmark_id: str, timeout_s: float, enabled: bool) -> Dict[str, object]:
    benchmark = get_benchmark(benchmark_id)
    problem = benchmark.build()
    config = benchmark.make_config(SynthConfig(timeout_s=timeout_s))
    started = time.perf_counter()
    with SynthesisSession(config) as session:
        result = session.run(problem)
    elapsed_s = time.perf_counter() - started
    section: Dict[str, object] = {
        "success": bool(result.success),
        "elapsed_s": round(elapsed_s, 4),
        "instrumented": enabled,
        "evaluations": 0,
        "evals_per_s": 0.0,
        "_program": result.program,
        "_text": result.pretty() if result.program is not None else None,
        "_metrics": result.metrics,
        "_measure": None,
    }
    if not result.success or result.program is None:
        return section
    program = result.program

    # Fixture for the paired throughput measurement (driven from the
    # harness's measure hook once both arms have synthesized).  Only the
    # enabled arm's fixture is timed -- overhead compares two *call paths*
    # (the pre-obs body vs the shipping wrapper) and must not be diluted by
    # fixture-to-fixture variation (fresh problem builds differ by a few
    # percent in memory layout alone, dwarfing a ~100ns wrapper).
    manager = problem.state_manager()
    for spec in problem.specs:  # warm recordings
        evaluate_spec(problem, program, spec, state=manager)
    section["_fixture"] = (problem, program, manager)
    if enabled:
        section.update(_validate_trace(benchmark_id, config))
    return section


def _measure_pair(off: Dict[str, object], on: Dict[str, object]) -> None:
    """Paired throughput bursts on one shared fixture.

    :data:`_TRIALS` independent trials; in each, every spec runs
    :data:`_PAIRS_PER_SPEC` pairs of back-to-back timed bursts -- direct
    ``_evaluate_spec_impl`` calls ("off"), then ``evaluate_spec`` wrapper
    calls with tracing disabled ("on") -- each pair yielding one on/off
    ratio sample.  The reported overhead is the minimum of the trial
    medians (see :data:`_TRIALS`).  Cache-less calls, so every call is a
    full evaluation: the workload whose throughput the instrumentation
    must not dent.
    """

    off.pop("_fixture", None)
    fixture = on.pop("_fixture", None)
    if fixture is None:
        return
    problem, program, manager = fixture
    evaluators = (_evaluate_spec_impl, evaluate_spec)

    trial_medians: List[float] = []
    arm_time = [0.0, 0.0]
    arm_count = [0, 0]
    gc_was_enabled = gc.isenabled()
    try:
        gc.disable()
        for _ in range(_TRIALS):
            ratios: List[float] = []
            for spec in problem.specs:
                gc.collect()
                for evaluator in evaluators:  # untimed warmup per spec
                    for _ in range(10):
                        evaluator(problem, program, spec, state=manager)
                for _ in range(_PAIRS_PER_SPEC):
                    pair = [0.0, 0.0]
                    for i, evaluator in enumerate(evaluators):
                        t0 = time.perf_counter()
                        for _ in range(_BURST):
                            evaluator(problem, program, spec, state=manager)
                        pair[i] = time.perf_counter() - t0
                        arm_time[i] += pair[i]
                        arm_count[i] += _BURST
                    if pair[0] > 0:
                        ratios.append(pair[1] / pair[0])
            if ratios:
                trial_medians.append(statistics.median(ratios))
    finally:
        if gc_was_enabled:
            gc.enable()
    median_ratio = min(trial_medians) if trial_medians else 0.0
    for i, section in enumerate((off, on)):
        section["evaluations"] = arm_count[i]
        section["evals_per_s"] = (
            round(arm_count[i] / arm_time[i], 2) if arm_time[i] > 0 else 0.0
        )
    on["paired_overhead_ratio"] = round(median_ratio, 6)


def _diff(
    off: Dict[str, object], on: Dict[str, object], identical: bool
) -> Dict[str, object]:
    ratio = float(on.get("paired_overhead_ratio", 0.0))
    overhead_pct = (ratio - 1.0) * 100.0 if ratio > 0 else 100.0
    trace_valid = bool(on.get("trace_valid", False))
    meets = (
        identical
        and bool(off["success"])
        and bool(on["success"])
        and overhead_pct <= _MAX_OVERHEAD_PCT
        and trace_valid
    )
    return {
        "overhead_pct": round(overhead_pct, 4),
        "trace_valid": trace_valid,
        "trace_coverage": on.get("trace_coverage", 0.0),
        "meets_target": meets,
    }


HARNESS = ABHarness(
    generated_by="benchmarks/bench_obs.py",
    section_prefix="obs",
    target=(
        f"<= {_MAX_OVERHEAD_PCT}% tracing-disabled evaluation overhead, "
        f"identical programs, traced run >= {_MIN_COVERAGE:.0%} phase coverage"
    ),
    run_keys=_RUN_KEYS,
    extra_entry_keys=frozenset({"overhead_pct", "trace_valid", "trace_coverage"}),
    run=_run,
    diff=_diff,
    fail_identical="the observability arms synthesized different programs",
    ok_noun="overhead + trace-validity target",
    measure=_measure_pair,
)


def compare_benchmark(benchmark_id: str, timeout_s: float) -> Dict[str, object]:
    return HARNESS.compare_benchmark(benchmark_id, timeout_s)


def build_report(benchmark_ids: Sequence[str], timeout_s: float) -> Dict[str, object]:
    return HARNESS.build_report(benchmark_ids, timeout_s)


def validate_report(report: Dict[str, object]) -> List[str]:
    return HARNESS.validate_report(report)


def main(argv: Optional[Sequence[str]] = None) -> int:
    return HARNESS.main(argv, __doc__, DEFAULT_BENCHMARKS)


if __name__ == "__main__":
    raise SystemExit(main())
