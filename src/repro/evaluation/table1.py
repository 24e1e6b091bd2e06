"""Table 1: synthesis benchmarks and results.

For every benchmark the harness reports the columns of the paper's Table 1:
number of specs, min/max assertions, number of library methods, the median ±
SIQR synthesis time with full type-and-effect guidance, the median times with
only type guidance, only effect guidance and neither, and the synthesized
method's size (AST nodes) and path count.  The ``state`` column reads the
full-guidance runs' counters (``state.restores`` / ``state.rebuilds``):
how many reset+setup replays the snapshot manager of
:mod:`repro.synth.state` turned into copy-on-write database restores.

The paper uses 11 runs and a 300 s timeout on a 2016 MacBook Pro; the
defaults here are smaller (3 runs, 30 s timeout) so a full sweep stays cheap,
and both knobs are exposed on the command line (``--runs``, ``--timeout``,
``--mode-timeout``).
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.benchmarks import BenchmarkSpec, all_benchmarks, run_benchmark
from repro.evaluation.report import format_table, format_time
from repro.obs.metrics import Counters
from repro.synth.config import SynthConfig
from repro.synth.session import SynthesisSession

#: The four guidance modes of the evaluation, in the order Table 1 lists them.
MODES = ("full", "types_only", "effects_only", "unguided")

MODE_FACTORIES = {
    "full": SynthConfig.full,
    "types_only": SynthConfig.types_only,
    "effects_only": SynthConfig.effects_only,
    "unguided": SynthConfig.unguided,
}


@dataclass
class Table1Row:
    """One row of Table 1: a benchmark and its measurements."""

    benchmark: BenchmarkSpec
    specs: int = 0
    asserts_min: int = 0
    asserts_max: int = 0
    lib_methods: int = 0
    median_s: Optional[float] = None
    siqr_s: Optional[float] = None
    mode_medians: Dict[str, Optional[float]] = None  # type: ignore[assignment]
    meth_size: Optional[int] = None
    syn_paths: Optional[int] = None
    success: bool = False
    #: The full-guidance runs' summed counters (``BenchmarkResult.counters``).
    counters: Counters = field(default_factory=Counters)

    def as_dict(self) -> Dict[str, object]:
        c = self.counters
        row: Dict[str, object] = {
            "id": self.benchmark.id,
            "name": self.benchmark.name,
            "specs": self.specs,
            "asserts": f"{self.asserts_min}-{self.asserts_max}",
            "lib_meth": self.lib_methods,
            "time": format_time(self.median_s, self.siqr_s, self.success),
            "size": self.meth_size if self.meth_size is not None else "-",
            "paths": self.syn_paths if self.syn_paths is not None else "-",
            "state": f"{c['state.restores']}/{c['state.rebuilds']}",
            "paper_time": f"{self.benchmark.paper.time_s:.2f}",
            "paper_size": self.benchmark.paper.meth_size,
            "paper_paths": self.benchmark.paper.syn_paths,
        }
        for mode in MODES[1:]:
            value = (self.mode_medians or {}).get(mode)
            row[mode] = format_time(value, None, value is not None)
        return row


def count_assertions(benchmark: BenchmarkSpec) -> tuple[int, int]:
    """Count assertions per spec by running the benchmark's own solution?

    We cannot know the assertion count without executing the postcondition,
    so the registry's paper numbers are used as the reference and the
    measured column simply reports the number of specs; the assertion range
    shown in the output is taken from the spec definitions via a dry counting
    run in :func:`measure_assertions`.
    """

    return measure_assertions(benchmark)


def measure_assertions(benchmark: BenchmarkSpec) -> tuple[int, int]:
    """Count assertions per spec by running them against the true solution.

    Rather than requiring a hand-written reference solution, we count how
    many assertions each postcondition *attempts*: the counting context
    records every ``assert_`` call and never fails.
    """

    from repro.synth.goal import SpecContext
    from repro.interp.interpreter import Interpreter
    from repro.lang import ast as A

    problem = benchmark.build()
    counts: List[int] = []
    for spec in problem.specs:
        problem.reset()
        program = problem.make_program(A.NIL)
        ctx = SpecContext(problem, program, Interpreter(problem.class_table))
        attempted = 0

        original_assert = ctx.assert_

        def counting_assert(condition, message=None):
            nonlocal attempted
            attempted += 1
            try:
                condition() if callable(condition) else condition
            except Exception:
                pass
            ctx.passed_asserts += 1
            return True

        ctx.assert_ = counting_assert  # type: ignore[method-assign]
        try:
            spec.setup(ctx)
        except Exception:
            pass
        try:
            spec.postcond(ctx, ctx.result)
        except Exception:
            pass
        counts.append(attempted)
    if not counts:
        return (0, 0)
    return (min(counts), max(counts))


def run_table1(
    benchmarks: Optional[Sequence[BenchmarkSpec]] = None,
    runs: int = 1,
    timeout_s: float = 30.0,
    mode_timeout_s: Optional[float] = None,
    modes: Sequence[str] = ("full",),
    jobs: int = 1,
) -> List[Table1Row]:
    """Run the Table 1 experiment and return one row per benchmark.

    ``jobs`` enables the worker pool of :mod:`repro.synth.parallel`: the
    cold timing repetitions of each benchmark are distributed over the pool
    (every repetition stays a fully isolated cell, but concurrent
    repetitions contend for cores, so keep ``jobs=1`` when medians must be
    directly comparable to the paper's isolated serial runs), as are the
    guidance-mode sweep cells.
    """

    benchmarks = list(benchmarks) if benchmarks is not None else all_benchmarks()
    mode_timeout_s = mode_timeout_s if mode_timeout_s is not None else timeout_s
    rows: List[Table1Row] = []

    for benchmark in benchmarks:
        row = Table1Row(benchmark=benchmark, mode_medians={})
        row.asserts_min, row.asserts_max = measure_assertions(benchmark)

        full_config = SynthConfig.full(timeout_s=timeout_s)
        # Timing runs stay cold (warm_state=False: each one a cold sweep
        # cell in a throwaway session): sharing the built problem and its
        # snapshot recordings across runs would let runs 2..n skip the
        # problem build and the setup replays run 1 paid for, deflating the
        # median the table compares against the paper's isolated-run
        # numbers.  Warm sharing still applies within each run.
        result = run_benchmark(
            benchmark, full_config, runs=runs, warm_state=False, parallel=jobs
        )
        row.specs = result.specs
        row.lib_methods = result.lib_methods
        row.success = result.success
        row.median_s = result.median_s
        row.siqr_s = result.siqr_s
        row.meth_size = result.meth_size
        row.syn_paths = result.syn_paths
        row.counters = result.counters

        # The guidance-mode columns compare modes against each other, so
        # like Figure 7 the sweep is cold per cell (a session per cell via
        # sweep(warm=False)); only the session API drives it.
        mode_variants = [
            (mode, MODE_FACTORIES[mode](timeout_s=mode_timeout_s))
            for mode in modes
            if mode != "full"
        ]
        if mode_variants:
            with SynthesisSession() as session:
                for entry in session.sweep(
                    [benchmark], mode_variants, warm=False, parallel=jobs
                ):
                    row.mode_medians[entry.variant] = (
                        entry.elapsed_s if entry.success else None
                    )
        rows.append(row)
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--timeout", type=float, default=30.0)
    parser.add_argument("--mode-timeout", type=float, default=20.0)
    parser.add_argument(
        "--all-modes",
        action="store_true",
        help="also run the T-only / E-only / unguided columns",
    )
    parser.add_argument("--only", nargs="*", help="benchmark ids to run")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the timing repetitions and mode sweeps",
    )
    args = parser.parse_args(argv)

    benchmarks = all_benchmarks()
    if args.only:
        benchmarks = [b for b in benchmarks if b.id in set(args.only)]
    modes: Sequence[str] = MODES if args.all_modes else ("full",)

    rows = run_table1(
        benchmarks,
        runs=args.runs,
        timeout_s=args.timeout,
        mode_timeout_s=args.mode_timeout,
        modes=modes,
        jobs=args.jobs,
    )

    columns = ["id", "name", "specs", "asserts", "lib_meth", "time", "size", "paths",
               "state", "paper_time", "paper_size", "paper_paths"]
    if args.all_modes:
        columns[6:6] = ["types_only", "effects_only", "unguided"]
    print(format_table([row.as_dict() for row in rows], columns))
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
