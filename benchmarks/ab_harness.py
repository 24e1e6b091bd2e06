"""Shared before/after comparison harness for the subsystem bench gates.

``bench_cache.py`` and ``bench_state.py`` both synthesize each selected
registry benchmark twice -- once with their subsystem disabled and once
enabled -- and gate CI on "identical synthesized programs plus a >= 2x
reduction in the work the subsystem removes".  Everything that is not
subsystem-specific lives here: running the off/on pair, report assembly,
schema validation and the CLI (``--benchmarks``/``--timeout``/``--out``/
``--min-benchmarks``/``--check``), so a fix to the gate logic lands in one
place.  Each gate supplies its ``run`` (one synthesis run, returning its
counter section plus the ``_program``/``_text`` carriers) and ``diff``
(the subsystem-specific comparison fields, including ``meets_target``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence

SCHEMA_VERSION = 2

#: Entry keys every gate's report shares (the section keys and any
#: subsystem-specific fields are added per harness).
_BASE_ENTRY_KEYS = frozenset({"id", "programs_identical", "program", "meets_target"})

#: (benchmark_id, timeout_s, enabled) -> run section, carrying the
#: synthesized program under ``_program`` and its text under ``_text``.
RunFn = Callable[[str, float, bool], Dict[str, object]]

#: (off_section, on_section, programs_identical) -> extra entry fields,
#: which must include ``meets_target``.
DiffFn = Callable[[Dict[str, object], Dict[str, object], bool], Dict[str, object]]

#: Optional paired-measurement hook: (off_section, on_section) -> None,
#: called after both runs complete and before ``diff``.  Gates whose metric
#: is a *timing ratio* use it to interleave the two sides' timed rounds
#: back-to-back (popping private ``_measure`` closures from the sections),
#: so slow drift in machine speed -- CPU frequency scaling, noisy
#: neighbours -- hits both sides equally instead of biasing whichever side
#: happened to run minutes later.
MeasureFn = Callable[[Dict[str, object], Dict[str, object]], None]


@dataclass(frozen=True)
class ABHarness:
    """One off/on bench gate: counters to extract and the target to check."""

    generated_by: str
    #: Report sections are named ``<section_prefix>_off`` / ``_on``.
    section_prefix: str
    #: Human-readable target line for the report summary.
    target: str
    #: Required keys of each run section (schema validation).
    run_keys: FrozenSet[str]
    #: Required subsystem-specific entry keys (schema validation).
    extra_entry_keys: FrozenSet[str]
    run: RunFn
    diff: DiffFn
    #: ``--check`` failure line when the subsystem changed a program.
    fail_identical: str
    #: Target noun for the ``--check`` OK line.
    ok_noun: str
    #: Optional paired-measurement hook (see :data:`MeasureFn`).
    measure: Optional[MeasureFn] = None

    @property
    def entry_keys(self) -> FrozenSet[str]:
        return (
            _BASE_ENTRY_KEYS
            | {f"{self.section_prefix}_off", f"{self.section_prefix}_on"}
            | self.extra_entry_keys
        )

    # ------------------------------------------------------------------ report

    def compare_benchmark(
        self, benchmark_id: str, timeout_s: float
    ) -> Dict[str, object]:
        """Run one benchmark subsystem-off then -on and diff the counters."""

        off = self.run(benchmark_id, timeout_s, False)
        on = self.run(benchmark_id, timeout_s, True)
        program_off = off.pop("_program")
        text_off = off.pop("_text")
        program_on = on.pop("_program")
        on.pop("_text")
        # Optional unified-metrics carriers (repro.obs.metrics snapshots):
        # surfaced verbatim on the entry when a gate's run provides them.
        metrics_off = off.pop("_metrics", None)
        metrics_on = on.pop("_metrics", None)

        if self.measure is not None:
            self.measure(off, on)
        identical = program_off == program_on
        entry: Dict[str, object] = {
            "id": benchmark_id,
            f"{self.section_prefix}_off": off,
            f"{self.section_prefix}_on": on,
            "programs_identical": identical,
            "program": text_off,
        }
        if metrics_off is not None:
            entry["metrics_off"] = metrics_off
        if metrics_on is not None:
            entry["metrics_on"] = metrics_on
        entry.update(self.diff(off, on, identical))
        return entry

    def build_report(
        self, benchmark_ids: Sequence[str], timeout_s: float
    ) -> Dict[str, object]:
        entries = [self.compare_benchmark(bid, timeout_s) for bid in benchmark_ids]
        meeting = sum(1 for e in entries if e["meets_target"])
        return {
            "schema_version": SCHEMA_VERSION,
            "generated_by": self.generated_by,
            "timeout_s": timeout_s,
            "benchmarks": entries,
            "summary": {
                "benchmarks_run": len(entries),
                "benchmarks_meeting_target": meeting,
                "all_programs_identical": all(e["programs_identical"] for e in entries),
                "target": self.target,
            },
        }

    def validate_report(self, report: Dict[str, object]) -> List[str]:
        """Schema errors in ``report`` (empty when well-formed)."""

        errors: List[str] = []
        if report.get("schema_version") != SCHEMA_VERSION:
            errors.append(f"schema_version != {SCHEMA_VERSION}")
        benchmarks = report.get("benchmarks")
        if not isinstance(benchmarks, list) or not benchmarks:
            return errors + ["benchmarks must be a non-empty list"]
        for entry in benchmarks:
            missing = self.entry_keys - set(entry)
            if missing:
                errors.append(f"{entry.get('id', '?')}: missing keys {sorted(missing)}")
                continue
            for section in (f"{self.section_prefix}_off", f"{self.section_prefix}_on"):
                run_missing = self.run_keys - set(entry[section])
                if run_missing:
                    errors.append(
                        f"{entry['id']}.{section}: missing keys {sorted(run_missing)}"
                    )
        summary = report.get("summary")
        if not isinstance(summary, dict) or "benchmarks_meeting_target" not in summary:
            errors.append("summary.benchmarks_meeting_target missing")
        return errors

    # ------------------------------------------------------------------ CLI

    def main(
        self,
        argv: Optional[Sequence[str]],
        doc: Optional[str],
        default_benchmarks: Sequence[str],
    ) -> int:
        parser = argparse.ArgumentParser(description=doc)
        parser.add_argument(
            "--benchmarks",
            nargs="*",
            default=list(default_benchmarks),
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
            help=f"benchmarks that must meet the {self.ok_noun}",
        )
        parser.add_argument(
            "--check",
            action="store_true",
            help="exit non-zero unless the schema validates and the target is met",
        )
        args = parser.parse_args(argv)

        try:
            report = self.build_report(args.benchmarks, args.timeout)
        except KeyError as error:
            print(f"error: {error.args[0]}", file=sys.stderr)
            return 2
        payload = json.dumps(report, indent=2)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(payload + "\n")
        else:
            print(payload)

        if args.check:
            errors = self.validate_report(report)
            for error in errors:
                print(f"schema error: {error}", file=sys.stderr)
            meeting = report["summary"]["benchmarks_meeting_target"]
            identical = report["summary"]["all_programs_identical"]
            if not identical:
                print(f"FAIL: {self.fail_identical}", file=sys.stderr)
                return 1
            if meeting < args.min_benchmarks:
                print(
                    f"FAIL: only {meeting} benchmarks met the {self.ok_noun} "
                    f"(need {args.min_benchmarks})",
                    file=sys.stderr,
                )
                return 1
            if errors:
                return 1
            print(
                f"OK: {meeting}/{report['summary']['benchmarks_run']} benchmarks met "
                f"the {self.ok_noun}; programs identical",
                file=sys.stderr,
            )
        return 0
