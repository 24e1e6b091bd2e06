"""Before/after comparison of the spec-evaluation cache (repro.synth.cache).

For each selected registry benchmark the harness synthesizes twice with the
same configuration -- once with ``cache_spec_outcomes=False`` and once with
the cache enabled -- and emits a JSON report comparing the two runs:

* ``executions`` -- spec/guard executions actually performed (the memo's
  miss counter; a disabled cache executes every lookup);
* ``redundant_executions`` -- executions whose ``(program, spec)`` pair had
  already been run.  A disabled cache counts them (and runs them anyway);
  an enabled cache answers them from the memo, so the executed count drops
  to zero and shows up as ``cache_hits`` instead;
* ``programs_identical`` -- whether both runs synthesized the same program
  (the cache must never change synthesis results);
* ``redundant_executions_eliminated`` -- the absolute number of re-runs the
  memo removed (``redundant_off - redundant_on``); ``execution_reduction``
  is the honest ratio of total executions (off / on).

The acceptance target (checked by ``--check``, used by ``scripts/ci.sh``)
is a >= 2x reduction in redundant spec executions on at least
``--min-benchmarks`` benchmarks, with identical programs everywhere.
The report/CLI plumbing shared with ``bench_state.py`` lives in
:mod:`ab_harness`.

Usage::

    PYTHONPATH=src python benchmarks/bench_cache.py --out cache_report.json
    PYTHONPATH=src python benchmarks/bench_cache.py --check   # CI smoke
"""

from __future__ import annotations

import os
import sys
from typing import Dict, List, Optional, Sequence

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
for _path in (_SRC, _HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from ab_harness import ABHarness, SCHEMA_VERSION  # noqa: E402,F401
from repro.benchmarks import get_benchmark, run_benchmark  # noqa: E402
from repro.synth.config import SynthConfig  # noqa: E402

#: Fast multi-spec registry benchmarks: enough reuse/merge activity to show
#: redundancy, cheap enough for a CI smoke run.
DEFAULT_BENCHMARKS = ("S1", "S4", "S5", "S7")

#: Required keys per section, checked by validate_report (and CI).
_RUN_KEYS = frozenset(
    {
        "success",
        "elapsed_s",
        "executions",
        "redundant_executions",
        "cache_hits",
    }
)


def _run(benchmark_id: str, timeout_s: float, cached: bool) -> Dict[str, object]:
    benchmark = get_benchmark(benchmark_id)
    config = SynthConfig.full(timeout_s=timeout_s, cache_spec_outcomes=cached)
    result = run_benchmark(benchmark, config, runs=1)
    # A disabled cache executes every lookup (misses AND redundant ones);
    # an enabled cache executes only the misses.
    c = result.counters
    misses = c["cache.spec_misses"] + c["cache.guard_misses"]
    redundant = c["cache.spec_redundant"] + c["cache.guard_redundant"]
    return {
        "success": result.success,
        "elapsed_s": round(result.last_result.elapsed_s, 4),
        "executions": misses + (0 if cached else redundant),
        "redundant_executions": redundant if not cached else 0,
        "cache_hits": c["cache.spec_hits"] + c["cache.guard_hits"],
        "_program": result.last_result.program,
        "_text": result.program_text,
    }


def _diff(
    off: Dict[str, object], on: Dict[str, object], identical: bool
) -> Dict[str, object]:
    redundant_off = int(off["redundant_executions"])
    redundant_on = int(on["redundant_executions"])  # 0 by construction: hits don't execute
    execution_reduction = int(off["executions"]) / max(int(on["executions"]), 1)
    # The ">=2x reduction in redundant executions" target: the enabled cache
    # must execute at most half the redundant pairs the disabled run did
    # (in practice it executes none of them, reported as cache hits), there
    # must be real redundancy to remove, and the programs must be identical.
    meets = (
        identical
        and bool(off["success"])
        and bool(on["success"])
        and redundant_off >= 2
        and 2 * redundant_on <= redundant_off
        and int(on["cache_hits"]) > 0
    )
    return {
        "redundant_executions_eliminated": redundant_off - redundant_on,
        "execution_reduction": round(execution_reduction, 4),
        "meets_target": meets,
    }


HARNESS = ABHarness(
    generated_by="benchmarks/bench_cache.py",
    section_prefix="cache",
    target=">=2x reduction in redundant spec executions, identical programs",
    run_keys=_RUN_KEYS,
    extra_entry_keys=frozenset(
        {"redundant_executions_eliminated", "execution_reduction"}
    ),
    run=_run,
    diff=_diff,
    fail_identical="cache changed a synthesized program",
    ok_noun="2x redundancy-reduction target",
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
