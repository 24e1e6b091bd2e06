"""Figure 7: benefit of type- and effect-guidance.

The figure plots, for each of the four guidance modes (TE enabled, T only,
E only, TE disabled), the cumulative number of benchmarks whose synthesis
completes within *t* seconds.  The expected reproduction shape: full guidance
solves every benchmark quickly; with both guidances disabled only a few small
benchmarks finish before the timeout; single-guidance modes fall in between,
with type-only ahead of effect-only on the synthetic (pure) benchmarks.

The sweep runs through :meth:`SynthesisSession.sweep` with ``warm=False``:
every (benchmark, mode) cell gets a freshly built problem in a throwaway
session, because sharing snapshot recordings across guidance modes would
let a later mode skip the setup work an earlier one paid for and flatten
exactly the timing differences the figure exists to show.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.benchmarks import BenchmarkSpec, all_benchmarks
from repro.evaluation.report import cumulative_counts, format_table
from repro.evaluation.table1 import MODE_FACTORIES, MODES
from repro.synth.session import SynthesisSession


@dataclass
class Figure7Series:
    """Per-mode timings plus the cumulative curve of Figure 7."""

    mode: str
    times_s: Dict[str, Optional[float]] = field(default_factory=dict)

    @property
    def solved(self) -> int:
        return sum(1 for t in self.times_s.values() if t is not None)

    def curve(self, grid: Sequence[float]) -> List[int]:
        return cumulative_counts(list(self.times_s.values()), grid)


def run_figure7(
    benchmarks: Optional[Sequence[BenchmarkSpec]] = None,
    timeout_s: float = 20.0,
    modes: Sequence[str] = MODES,
    jobs: int = 1,
) -> List[Figure7Series]:
    """Run every benchmark under every guidance mode.

    ``jobs`` distributes the (benchmark, mode) cells over a worker pool
    (:mod:`repro.synth.parallel`); every cell stays a fully isolated cold
    run exactly as in the serial sweep.
    """

    benchmarks = list(benchmarks) if benchmarks is not None else all_benchmarks()
    variants = [
        (mode, MODE_FACTORIES[mode](timeout_s=timeout_s)) for mode in modes
    ]
    series = {mode: Figure7Series(mode=mode) for mode in modes}
    with SynthesisSession(parallel=jobs) as session:
        for entry in session.sweep(benchmarks, variants, warm=False):
            series[entry.variant].times_s[entry.label] = (
                entry.elapsed_s if entry.success else None
            )
    return [series[mode] for mode in modes]


def render(series: Sequence[Figure7Series], timeout_s: float) -> str:
    grid = [timeout_s * i / 10 for i in range(1, 11)]
    rows = []
    for entry in series:
        row: Dict[str, object] = {"mode": entry.mode, "solved": entry.solved}
        for point, count in zip(grid, entry.curve(grid)):
            row[f"<= {point:.0f}s"] = count
        rows.append(row)
    columns = ["mode", "solved"] + [f"<= {p:.0f}s" for p in grid]
    return format_table(rows, columns)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--timeout", type=float, default=20.0)
    parser.add_argument("--only", nargs="*", help="benchmark ids to run")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the (benchmark, mode) cells",
    )
    args = parser.parse_args(argv)

    benchmarks = all_benchmarks()
    if args.only:
        benchmarks = [b for b in benchmarks if b.id in set(args.only)]
    series = run_figure7(benchmarks, timeout_s=args.timeout, jobs=args.jobs)
    print(render(series, args.timeout))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
