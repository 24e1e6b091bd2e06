#!/usr/bin/env python3
"""Run the dynamic-vs-static soundness gate (repro.analysis.soundness).

For every selected benchmark, replays the enumerator's candidate stream
plus seeded random compositions, executing each expression under every
spec with invoke-effect capture on, and reports any dynamically observed
read or write the static footprint fails to subsume.  A sound footprint
pass reports nothing; any violation is a bug in the footprint rules or in
a library effect annotation.

Usage::

    PYTHONPATH=src python scripts/soundness_sweep.py                 # all paper benchmarks
    PYTHONPATH=src python scripts/soundness_sweep.py S6 A3           # a subset
    PYTHONPATH=src python scripts/soundness_sweep.py --check         # exit 1 on violations (CI)
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Optional, Sequence

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.analysis.soundness import check_benchmark  # noqa: E402
from repro.benchmarks.registry import all_benchmarks  # noqa: E402


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "benchmarks",
        nargs="*",
        help="benchmark ids to check (default: all paper-tier benchmarks)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit non-zero when any violation is found (CI gate)",
    )
    parser.add_argument(
        "--samples",
        type=int,
        default=40,
        help="seeded generated expressions per benchmark (default 40)",
    )
    parser.add_argument(
        "--search-limit",
        type=int,
        default=120,
        help="enumerator candidates per benchmark (default 120)",
    )
    parser.add_argument("--seed", type=int, default=0, help="generator seed")
    args = parser.parse_args(argv)

    ids = args.benchmarks or [spec.id for spec in all_benchmarks(tier="paper")]
    total = 0
    start = time.perf_counter()
    for benchmark_id in ids:
        violations = check_benchmark(
            benchmark_id,
            samples=args.samples,
            seed=args.seed,
            search_limit=args.search_limit,
        )
        total += len(violations)
        status = "sound" if not violations else f"{len(violations)} VIOLATION(S)"
        print(f"{benchmark_id:6s} {status}")
        for violation in violations:
            print(f"       {violation.describe()}")
    elapsed = time.perf_counter() - start
    print(f"soundness: {len(ids)} benchmark(s), {total} violation(s), {elapsed:.1f}s")
    if args.check and total:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
