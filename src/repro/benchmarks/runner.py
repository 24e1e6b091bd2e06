"""Running benchmarks and collecting the metrics Table 1 reports.

Built on :class:`repro.synth.session.SynthesisSession`: a warm
``run_benchmark`` shares one session (snapshot recordings and solution
hints) across its runs, while ``warm_state=False`` gives every run a
freshly built problem inside a throwaway session for fully isolated (cold)
timing measurements.  A :class:`BenchmarkResult` sums its
runs' counters (``result.counters``, keyed ``layer.name``) with
:meth:`~repro.obs.metrics.Counters.merge`.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.benchmarks.registry import BenchmarkSpec
from repro.obs.metrics import Counters
from repro.synth.config import SynthConfig
from repro.synth.session import SynthesisSession
from repro.synth.synthesizer import SynthesisResult


@dataclass
class BenchmarkResult:
    """Measurements for one benchmark under one configuration."""

    benchmark: BenchmarkSpec
    config: SynthConfig
    times_s: List[float] = field(default_factory=list)
    success: bool = False
    timed_out: bool = False
    meth_size: Optional[int] = None
    syn_paths: Optional[int] = None
    specs: int = 0
    lib_methods: int = 0
    program_text: str = ""
    last_result: Optional[SynthesisResult] = None
    #: The runs' counters summed (``SynthesisResult.counters``).
    counters: Counters = field(default_factory=Counters)

    @property
    def median_s(self) -> Optional[float]:
        return statistics.median(self.times_s) if self.times_s else None

    @property
    def siqr_s(self) -> Optional[float]:
        """Semi-interquartile range, the spread statistic Table 1 reports."""

        if len(self.times_s) < 2:
            return 0.0 if self.times_s else None
        ordered = sorted(self.times_s)
        q1, _, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
        return (q3 - q1) / 2

    def display_time(self) -> str:
        if not self.success:
            return "timeout" if self.timed_out else "fail"
        return f"{self.median_s:.2f} ± {self.siqr_s:.2f}"

    def record(self, outcome: SynthesisResult, elapsed: float) -> None:
        """Fold one run's outcome into this result."""

        self.last_result = outcome
        self.timed_out = outcome.timed_out
        self.success = outcome.success
        self.counters.merge(outcome.counters)
        if outcome.success:
            self.times_s.append(elapsed)
            self.meth_size = outcome.method_size
            self.syn_paths = outcome.paths
            self.program_text = outcome.pretty()


def run_benchmark(
    benchmark: BenchmarkSpec,
    config: Optional[SynthConfig] = None,
    runs: int = 1,
    warm_state: bool = True,
    session: Optional[SynthesisSession] = None,
    parallel: int = 1,
) -> BenchmarkResult:
    """Run one benchmark ``runs`` times and collect Table 1 metrics.

    With ``warm_state`` (the default) the benchmark's problem (app substrate,
    class table, specs) is built once per session and the session's
    database snapshot manager and solution hints are shared across the
    runs.  Passing an external ``session`` extends that sharing across
    *calls*.  ``warm_state=False`` rebuilds everything per run inside a
    throwaway session for fully isolated (cold) measurements; an external
    session is then ignored.
    Per-benchmark config overrides (e.g. a larger size bound) are applied on
    top of ``config`` either way.

    ``parallel`` distributes cold repetitions over a throwaway pool of
    :mod:`repro.synth.parallel` workers, one cell per repetition; each
    times only its ``run`` call, as the serial loop does.  Each repetition
    stays a fully cold cell, but repetitions then run *concurrently*, so
    their wall-clock includes co-scheduling contention: use ``parallel=1``
    (the default) when medians must be comparable to isolated serial runs
    (the paper's Table 1 numbers); parallel cold runs trade that
    comparability for throughput on multi-core hosts.  Warm runs share one
    session, so they are serial: ``warm_state=True`` with ``parallel > 1``
    raises :class:`ValueError`.
    """

    effective = benchmark.make_config(config)
    result = BenchmarkResult(benchmark=benchmark, config=effective)
    jobs = max(int(parallel), 1)
    if warm_state and jobs > 1:
        raise ValueError(
            "warm runs share one session and are serial; "
            "use warm_state=False to distribute runs over workers"
        )

    if not warm_state:
        if jobs > 1 and runs > 1:
            return _run_cold_parallel(benchmark, effective, runs, jobs, result)
        for _ in range(max(runs, 1)):
            problem = benchmark.build()
            result.specs = len(problem.specs)
            result.lib_methods = problem.library_method_count()
            with SynthesisSession(effective) as cold:
                start = time.perf_counter()
                outcome = cold.run(problem, config=effective)
                elapsed = time.perf_counter() - start
            result.record(outcome, elapsed)
            if not outcome.success:
                break
        return result

    owns_session = session is None
    active = session if session is not None else SynthesisSession(effective)
    try:
        problem = active.problem_for(benchmark)
        result.specs = len(problem.specs)
        result.lib_methods = problem.library_method_count()
        for _ in range(max(runs, 1)):
            start = time.perf_counter()
            outcome = active.run(problem, config=effective)
            elapsed = time.perf_counter() - start
            result.record(outcome, elapsed)
            if not outcome.success:
                break
    finally:
        if owns_session:
            active.close()
    return result


def _run_cold_parallel(
    benchmark: BenchmarkSpec,
    effective: SynthConfig,
    runs: int,
    jobs: int,
    result: BenchmarkResult,
) -> BenchmarkResult:
    """Distribute a cold benchmark's isolated repetitions over a pool."""

    from repro.synth.parallel import ParallelExecutor

    problem = benchmark.build()
    result.specs = len(problem.specs)
    result.lib_methods = problem.library_method_count()
    with ParallelExecutor(jobs, base_config=effective) as executor:
        futures = [
            executor.submit_cell(benchmark.id, effective, fresh=True)
            for _ in range(max(runs, 1))
        ]
        for future in futures:
            payload = future.get()
            result.record(payload.to_result(problem), payload.elapsed_s)
            if not payload.success:
                break
    return result
