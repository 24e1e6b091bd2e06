#!/usr/bin/env python3
"""Run the annotation linter (repro.analysis.lint) over benchmark problems.

For every selected benchmark the problem is built (app substrate, class
table, specs) and checked against the full rule set: unknown effect
classes/regions, mutator-named methods annotated write-pure, read regions
no method writes, implementation arity mismatches, and specs whose
assertions read regions no library method's write effect covers.

Usage::

    PYTHONPATH=src python scripts/lint_annotations.py              # all paper benchmarks
    PYTHONPATH=src python scripts/lint_annotations.py S6 A3        # a subset
    PYTHONPATH=src python scripts/lint_annotations.py --check      # exit 1 on findings (CI)
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.analysis.lint import lint_problem  # noqa: E402
from repro.benchmarks.registry import all_benchmarks, get_benchmark  # noqa: E402


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "benchmarks",
        nargs="*",
        help="benchmark ids to lint (default: all paper-tier benchmarks)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when any finding is reported (CI gate)",
    )
    args = parser.parse_args(argv)

    ids = args.benchmarks or [spec.id for spec in all_benchmarks(tier="paper")]
    total = 0
    for benchmark_id in ids:
        problem = get_benchmark(benchmark_id).build()
        findings = lint_problem(problem)
        total += len(findings)
        status = "ok" if not findings else f"{len(findings)} finding(s)"
        print(f"{benchmark_id:6s} {status}")
        for finding in findings:
            print(f"       {finding}")
    print(f"lint: {len(ids)} benchmark(s), {total} finding(s)")
    if args.check and total:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
