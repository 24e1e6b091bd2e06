"""Before/after comparison of the data layer's indexed query engine.

For each selected registry benchmark the harness synthesizes twice with the
same configuration -- once with secondary indexes disabled (every planned
query falls back to a full-table scan) and once enabled (the default) -- and
emits a JSON report comparing the two runs:

* ``lookups_per_s`` -- data-layer lookup throughput: a deterministic battery
  of planned queries (``query``/``exists``/``count``/``pluck`` with order,
  limit and multi-column conditions) against a fresh database seeded with
  ``--rows`` rows from :func:`repro.benchmarks.scale.scale_user_rows`
  (index builds happen in warmup, outside the timed window);
* ``results_sha256`` -- checksum over the battery's full result rows:
  indexed and scan execution must be byte-identical;
* ``effects_sha256`` -- checksum over the per-spec effect logs of the
  synthesized program: the planner must never change what a candidate
  reads or writes (effect-guided pruning depends on it);
* ``programs_identical`` -- indexing off and on synthesized the same
  program (the planner is an execution strategy, never a semantics change).

The acceptance target (checked by ``--check``, used by ``scripts/ci.sh``)
is >= 5x lookup throughput at 10^5 rows on at least ``--min-benchmarks``
benchmarks with identical results, effects and programs everywhere, plus a
seeded scale-tier synthesis smoke (``--scale-rows``, default 20000): the
S3/S4 query shapes must synthesize against a production-sized table with
``index_hits > 0``.  The report/CLI plumbing is shared with the other
gates via :mod:`ab_harness`; the persistent-store options are accepted but
unused here, and ``--jobs`` is ignored (throughput is single-process).

Usage::

    PYTHONPATH=src python benchmarks/bench_orm.py --out orm_report.json
    PYTHONPATH=src python benchmarks/bench_orm.py --check   # CI gate
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
for _path in (_SRC, _HERE):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from ab_harness import ABHarness, SCHEMA_VERSION  # noqa: E402,F401
from repro.activerecord import (  # noqa: E402
    Database,
    default_indexing,
    set_default_indexing,
)
from repro.benchmarks import get_benchmark  # noqa: E402
from repro.benchmarks.scale import (  # noqa: E402
    build_scale_find_user,
    build_scale_user_exists,
    scale_user_rows,
)
from repro.interp.effect_log import effect_capture  # noqa: E402
from repro.lang.pretty import pretty  # noqa: E402
from repro.synth.config import SynthConfig  # noqa: E402
from repro.synth.goal import evaluate_spec  # noqa: E402
from repro.synth.session import SynthesisSession  # noqa: E402

#: Registry benchmarks whose synthesized programs query through the planner
#: (all record index hits when indexing is on); all synthesize in well under
#: a second.
DEFAULT_BENCHMARKS = ("S3", "S4", "A8")

#: Rows seeded into the lookup-throughput battery's database; overridable
#: with ``--rows``.  The >= 5x acceptance target is calibrated at 10^5.
_ROWS = 100_000

#: Equality lookups per timed round.  Scans cost ~10 ms each at 10^5 rows,
#: so the scan side of a round stays around a second.
_LOOKUPS = 100

#: Timing rounds per side; the best round is reported (noise only ever
#: deflates a round's rate, so the max is the robust estimator).
_ROUNDS = 3

#: Required keys per section, checked by validate_report (and CI).
_RUN_KEYS = frozenset(
    {
        "success",
        "elapsed_s",
        "indexing",
        "index_hits",
        "index_scans",
        "lookups",
        "lookups_per_s",
        "results_sha256",
        "effects_sha256",
    }
)


def _battery_indices(rows: int, count: int) -> List[int]:
    """``count`` deterministic, well-spread row indices in ``[0, rows)``."""

    return [(i * 7919 + 13) % rows for i in range(count)]


def _checksum_battery(db: Database, rows: int) -> str:
    """Run a broad deterministic query battery and hash its full results.

    Covers the planner's whole surface -- multi-column conditions, order,
    limit, descending, misses, ``None`` handling, count/exists shortcuts and
    pluck -- so a single checksum certifies indexed and scan execution
    byte-identical.
    """

    results: List[object] = []
    for i in _battery_indices(rows, 12):
        username = f"user_{i}"
        results.append(db.query("users", {"username": username}))
        results.append(db.exists("users", {"username": username}))
        results.append(db.count("users", {"name": f"Ada {i}"}))
        results.append(db.pluck("users", "name", {"username": username}))
    results.append(db.query("users", {"username": "nobody"}))
    results.append(db.exists("users", {"username": "nobody"}))
    results.append(db.count("users"))
    results.append(db.query("users", {"name": "Grace 1"}, order="username"))
    results.append(
        db.query("users", {"name": "Alan 2"}, order="id", descending=True, limit=3)
    )
    results.append(db.query("users", {"username": None}))
    payload = json.dumps(results, sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


def _measure_lookups(enabled: bool, rows: int) -> Dict[str, object]:
    """Seed a fresh database and measure planned-lookup throughput.

    The warmup pass triggers the lazy index builds (when enabled), keeping
    them outside the timed windows; the timed battery is pure equality
    lookups through :meth:`Database.query`.
    """

    db = Database(indexing=enabled)
    db.bulk_insert("users", scale_user_rows(rows))
    checksum = _checksum_battery(db, rows)
    targets = [f"user_{i}" for i in _battery_indices(rows, _LOOKUPS)]
    for username in targets[:4]:  # warmup: lazy index build, warm caches
        db.query("users", {"username": username})
    best_rate, lookups = 0.0, 0
    gc_was_enabled = gc.isenabled()
    try:
        for _ in range(_ROUNDS):
            gc.collect()
            gc.disable()
            t0 = time.perf_counter()
            for username in targets:
                db.query("users", {"username": username})
            total = time.perf_counter() - t0
            if gc_was_enabled:
                gc.enable()
            lookups = len(targets)
            if total > 0:
                best_rate = max(best_rate, lookups / total)
    finally:
        if gc_was_enabled:
            gc.enable()
    return {
        "lookups": lookups,
        "lookups_per_s": round(best_rate, 2),
        "results_sha256": checksum,
    }


def _effect_signature(problem, program) -> str:
    """Hash of the per-spec effect logs of running ``program``.

    The planner must be invisible to effect capture: indexed and scan
    execution log the same read/write regions for every spec.
    """

    manager = problem.state_manager()
    lines = []
    for spec in problem.specs:
        with effect_capture() as log:
            evaluate_spec(problem, program, spec, state=manager)
        lines.append(f"{spec.name}: <read: {log.read}, write: {log.write}>")
    payload = "\n".join(lines)
    return hashlib.sha256(payload.encode()).hexdigest()


def _run(
    benchmark_id: str,
    timeout_s: float,
    enabled: bool,
    store_path: Optional[str] = None,
    jobs: int = 1,
) -> Dict[str, object]:
    previous = default_indexing()
    set_default_indexing(enabled)
    try:
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
            "indexing": enabled,
            "index_hits": result.stats.index_hits,
            "index_scans": result.stats.index_scans,
            "lookups": 0,
            "lookups_per_s": 0.0,
            "results_sha256": "",
            "effects_sha256": "",
            "_program": result.program,
            "_text": pretty(result.program) if result.program else None,
        }
        if not result.success or result.program is None:
            return section
        section["effects_sha256"] = _effect_signature(problem, result.program)
        section.update(_measure_lookups(enabled, _ROWS))
        return section
    finally:
        set_default_indexing(previous)


def _diff(
    off: Dict[str, object], on: Dict[str, object], identical: bool
) -> Dict[str, object]:
    scan_rate = float(off["lookups_per_s"])
    indexed_rate = float(on["lookups_per_s"])
    speedup = indexed_rate / scan_rate if scan_rate > 0 else 0.0
    results_identical = bool(
        off["results_sha256"] and off["results_sha256"] == on["results_sha256"]
    )
    effects_identical = bool(
        off["effects_sha256"] and off["effects_sha256"] == on["effects_sha256"]
    )
    # The ">=5x indexed lookup throughput" target: planned equality lookups
    # must run at least five times faster through the hash indexes than as
    # scans, with byte-identical query results and effect logs, identical
    # synthesized programs with indexing off and on, and the indexed run
    # actually answering spec queries through an index.
    meets = (
        identical
        and bool(off["success"])
        and bool(on["success"])
        and results_identical
        and effects_identical
        and int(on["index_hits"]) > 0
        and speedup >= 5.0
    )
    return {
        "lookup_speedup": round(speedup, 4),
        "results_identical": results_identical,
        "effects_identical": effects_identical,
        "meets_target": meets,
    }


HARNESS = ABHarness(
    generated_by="benchmarks/bench_orm.py",
    section_prefix="orm",
    target=">=5x indexed lookup throughput at 1e5 rows, identical "
    "results/effects/programs",
    run_keys=_RUN_KEYS,
    extra_entry_keys=frozenset(
        {"lookup_speedup", "results_identical", "effects_identical"}
    ),
    run=_run,
    diff=_diff,
    fail_identical="indexing changed a synthesized program",
    ok_noun="5x lookup-throughput target",
)


def compare_benchmark(
    benchmark_id: str,
    timeout_s: float,
    store_path: Optional[str] = None,
    jobs: int = 1,
) -> Dict[str, object]:
    return HARNESS.compare_benchmark(benchmark_id, timeout_s, store_path, jobs)


def build_report(
    benchmark_ids: Sequence[str],
    timeout_s: float,
    store_path: Optional[str] = None,
    jobs: int = 1,
) -> Dict[str, object]:
    return HARNESS.build_report(benchmark_ids, timeout_s, store_path, jobs)


def validate_report(report: Dict[str, object]) -> List[str]:
    return HARNESS.validate_report(report)


def run_scale_smoke(rows: int, timeout_s: float) -> Dict[str, object]:
    """Synthesize the scale-tier S3/S4 shapes against ``rows`` seeded rows.

    Indexing is forced on (it is what makes production-sized synthesis
    tractable); the smoke passes when both shapes synthesize and answer
    spec queries through an index.
    """

    previous = default_indexing()
    set_default_indexing(True)
    try:
        entries = []
        for build in (build_scale_find_user, build_scale_user_exists):
            problem = build(rows)
            started = time.perf_counter()
            with SynthesisSession(SynthConfig(timeout_s=timeout_s)) as session:
                result = session.run(problem)
            elapsed_s = time.perf_counter() - started
            entries.append(
                {
                    "benchmark": problem.name,
                    "rows": rows,
                    "success": bool(result.success),
                    "elapsed_s": round(elapsed_s, 3),
                    "index_hits": result.stats.index_hits,
                    "index_scans": result.stats.index_scans,
                    "program": " ".join(pretty(result.program).split())
                    if result.program
                    else None,
                }
            )
    finally:
        set_default_indexing(previous)
    return {
        "rows": rows,
        "entries": entries,
        "ok": all(e["success"] and e["index_hits"] > 0 for e in entries),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    # Custom CLI (rather than HARNESS.main): adds --rows for the throughput
    # battery and the seeded scale-tier synthesis smoke to the report/gate.
    global _ROWS
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--benchmarks",
        nargs="*",
        default=list(DEFAULT_BENCHMARKS),
        help="registry benchmark ids to compare",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=float(os.environ.get("REPRO_BENCH_TIMEOUT", 60.0)),
    )
    parser.add_argument("--out", help="write the JSON report to this path")
    parser.add_argument(
        "--min-benchmarks",
        type=int,
        default=3,
        help="benchmarks that must meet the 5x lookup-throughput target",
    )
    parser.add_argument(
        "--rows",
        type=int,
        default=_ROWS,
        help="rows seeded into the lookup-throughput battery (default 100000)",
    )
    parser.add_argument(
        "--scale-rows",
        type=int,
        default=20_000,
        help="rows for the scale-tier synthesis smoke (0 skips it)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero unless the schema validates and the targets are met",
    )
    args = parser.parse_args(argv)
    _ROWS = args.rows

    try:
        report = HARNESS.build_report(args.benchmarks, args.timeout)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    report["rows"] = args.rows
    if args.scale_rows > 0:
        report["scale_smoke"] = run_scale_smoke(args.scale_rows, args.timeout)
    payload = json.dumps(report, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)

    if args.check:
        errors = HARNESS.validate_report(report)
        for error in errors:
            print(f"schema error: {error}", file=sys.stderr)
        meeting = report["summary"]["benchmarks_meeting_target"]
        if not report["summary"]["all_programs_identical"]:
            print("FAIL: indexing changed a synthesized program", file=sys.stderr)
            return 1
        if meeting < args.min_benchmarks:
            print(
                f"FAIL: only {meeting} benchmarks met the 5x lookup-throughput "
                f"target (need {args.min_benchmarks})",
                file=sys.stderr,
            )
            return 1
        smoke = report.get("scale_smoke")
        if smoke is not None and not smoke["ok"]:
            print(
                f"FAIL: scale smoke at {smoke['rows']} rows did not synthesize "
                "through the indexes",
                file=sys.stderr,
            )
            return 1
        if errors:
            return 1
        smoke_note = (
            f"; scale smoke ok at {smoke['rows']} rows" if smoke is not None else ""
        )
        print(
            f"OK: {meeting}/{report['summary']['benchmarks_run']} benchmarks met "
            f"the 5x lookup-throughput target; programs identical{smoke_note}",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
