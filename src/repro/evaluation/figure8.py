"""Figure 8: effect annotation precision versus synthesis performance.

The figure plots the synthesis time of every benchmark under three effect
annotation precisions: the precise region annotations used everywhere else,
class-only annotations (region labels dropped), and purity annotations (every
impure method annotated simply as impure).  The expected reproduction shape:
coarser annotations are never faster by much and cause additional timeouts,
because effect-guided synthesis has to consider many more candidate writers
for every failed assertion.

The sweep runs through one :class:`SynthesisSession`: a benchmark's three
precision variants run back to back against *one* problem whose snapshot
recordings are shared (every variant searches and executes its own
candidates, but the candidate-independent setup recordings are replayed
instead of rebuilt -- the session's warm precision variants).  Pass
``--cold`` (or ``warm=False``) for the legacy fully isolated cells.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.benchmarks import BenchmarkSpec, all_benchmarks
from repro.evaluation.report import format_table
from repro.lang.effects import PRECISIONS
from repro.synth.config import SynthConfig
from repro.synth.session import SynthesisSession


@dataclass
class Figure8Row:
    """Per-benchmark synthesis times at each effect precision."""

    benchmark: BenchmarkSpec
    times_s: Dict[str, Optional[float]] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {"id": self.benchmark.id, "name": self.benchmark.name}
        for precision in PRECISIONS:
            value = self.times_s.get(precision)
            row[precision] = f"{value:.2f}" if value is not None else "timeout"
        return row


def run_figure8(
    benchmarks: Optional[Sequence[BenchmarkSpec]] = None,
    timeout_s: float = 20.0,
    precisions: Sequence[str] = PRECISIONS,
    warm: bool = True,
    session: Optional[SynthesisSession] = None,
    jobs: int = 1,
) -> List[Figure8Row]:
    """Run every benchmark at every effect annotation precision.

    With ``warm`` (the default) one session's snapshot recordings are shared
    across a benchmark's precision variants; pass an external ``session`` to
    extend that sharing across calls.  ``jobs``
    distributes the cells over the session's worker pool (warm cells are
    then warm per worker; see :meth:`SynthesisSession.sweep`).
    """

    benchmarks = list(benchmarks) if benchmarks is not None else all_benchmarks()
    # timeout_s rides in each variant so it is honored even when an external
    # session (with a different base config) drives the sweep.
    variants = [
        (precision, {"effect_precision": precision, "timeout_s": timeout_s})
        for precision in precisions
    ]
    rows: Dict[str, Figure8Row] = {
        benchmark.id: Figure8Row(benchmark=benchmark) for benchmark in benchmarks
    }
    owns_session = session is None
    active = session if session is not None else SynthesisSession(
        SynthConfig.full(timeout_s=timeout_s)
    )
    try:
        for entry in active.sweep(benchmarks, variants, warm=warm, parallel=jobs):
            rows[entry.label].times_s[entry.variant] = (
                entry.elapsed_s if entry.success else None
            )
    finally:
        if owns_session:
            active.close()
    return [rows[benchmark.id] for benchmark in benchmarks]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timeout", type=float, default=20.0)
    parser.add_argument("--only", nargs="*", help="benchmark ids to run")
    parser.add_argument(
        "--cold",
        action="store_true",
        help="isolate every (benchmark, precision) cell instead of sharing "
        "one warm session per benchmark",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the (benchmark, precision) cells",
    )
    args = parser.parse_args(argv)

    benchmarks = all_benchmarks()
    if args.only:
        benchmarks = [b for b in benchmarks if b.id in set(args.only)]
    with SynthesisSession(SynthConfig.full(timeout_s=args.timeout)) as session:
        rows = run_figure8(
            benchmarks,
            timeout_s=args.timeout,
            warm=not args.cold,
            session=session,
            jobs=args.jobs,
        )
    print(format_table([row.as_dict() for row in rows], ["id", "name", *PRECISIONS]))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
