"""Before/after comparison of the state-snapshot subsystem (repro.synth.state).

For each selected registry benchmark the harness synthesizes twice with the
same configuration -- once with ``snapshot_state=False`` (the reset closure
and each spec's seed inserts replay before every candidate evaluation) and
once with copy-on-write snapshots enabled -- and emits a JSON report
comparing the two runs:

* ``reset_replays`` -- invocations of the problem's reset closure.  Without
  snapshots every spec/guard execution pays one; with snapshots the closure
  runs once to capture the baseline;
* ``state_rebuilds`` / ``state_restores`` -- full reset+setup replays vs.
  cheap snapshot restores.  A snapshot-off run rebuilds on every execution
  (reported as its ``reset_replays``); a snapshot-on run rebuilds only to
  record each spec (plus any unreplayable fallbacks);
* ``programs_identical`` -- whether both runs synthesized the same program
  (snapshots must never change synthesis results);
* ``rebuild_reduction`` -- the ratio of state-rebuild work removed
  (``reset_replays_off / max(rebuilds_on, 1)``).

The acceptance target (checked by ``--check``, used by ``scripts/ci.sh``)
is a >= 2x reduction in reset-closure replays on at least
``--min-benchmarks`` benchmarks, with identical programs everywhere.
The report/CLI plumbing shared with ``bench_cache.py`` lives in
:mod:`ab_harness`.

Usage::

    PYTHONPATH=src python benchmarks/bench_state.py --out state_report.json
    PYTHONPATH=src python benchmarks/bench_state.py --check   # CI smoke
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

#: Fast multi-spec registry benchmarks with real seed work in their setups
#: (the same CI subset bench_cache uses, so the two gates stay comparable).
DEFAULT_BENCHMARKS = ("S1", "S4", "S5", "S7")

#: Required keys per section, checked by validate_report (and CI).
_RUN_KEYS = frozenset(
    {
        "success",
        "elapsed_s",
        "reset_replays",
        "state_rebuilds",
        "state_restores",
        "unreplayable_specs",
    }
)


def _run(benchmark_id: str, timeout_s: float, snapshots: bool) -> Dict[str, object]:
    benchmark = get_benchmark(benchmark_id)
    config = SynthConfig.full(timeout_s=timeout_s, snapshot_state=snapshots)
    result = run_benchmark(benchmark, config, runs=1)
    outcome = result.last_result
    c = result.counters
    return {
        "success": result.success,
        "elapsed_s": round(outcome.elapsed_s, 4) if outcome is not None else None,
        "reset_replays": c["search.reset_replays"],
        "state_rebuilds": c["state.rebuilds"],
        "state_restores": c["state.restores"],
        "unreplayable_specs": c["state.unreplayable"],
        "_program": outcome.program if outcome is not None else None,
        "_text": result.program_text,
    }


def _diff(
    off: Dict[str, object], on: Dict[str, object], identical: bool
) -> Dict[str, object]:
    resets_off = int(off["reset_replays"])
    resets_on = int(on["reset_replays"])
    # A snapshot-off run rebuilds state on every execution; snapshot-on pays
    # a rebuild per recorded spec plus one per unreplayable-spec execution.
    rebuilds_on = int(on["state_rebuilds"])
    rebuild_reduction = resets_off / max(rebuilds_on, 1)
    # The ">=2x reduction in reset-closure replays" target: with snapshots
    # the closure runs at most half as often (in practice once), there must
    # be real rebuild work to remove, restores must actually happen, and the
    # programs must be identical.
    meets = (
        identical
        and bool(off["success"])
        and bool(on["success"])
        and resets_off >= 2
        and 2 * resets_on <= resets_off
        and 2 * rebuilds_on <= resets_off
        and int(on["state_restores"]) > 0
    )
    return {
        "reset_replays_eliminated": resets_off - resets_on,
        "rebuild_reduction": round(rebuild_reduction, 4),
        "meets_target": meets,
    }


HARNESS = ABHarness(
    generated_by="benchmarks/bench_state.py",
    section_prefix="snapshot",
    target=">=2x reduction in reset-closure replays, identical programs",
    run_keys=_RUN_KEYS,
    extra_entry_keys=frozenset({"reset_replays_eliminated", "rebuild_reduction"}),
    run=_run,
    diff=_diff,
    fail_identical="snapshots changed a synthesized program",
    ok_noun="2x rebuild-reduction target",
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
