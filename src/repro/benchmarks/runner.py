"""Running benchmarks and collecting the metrics Table 1 reports.

``run_benchmark`` runs every repetition through one
:class:`repro.synth.session.SynthesisSession`: warm repetitions share its
built problem and snapshot recordings, while ``warm_state=False`` makes
each repetition a cold sweep cell (a freshly built problem inside a
throwaway session) for fully isolated timing measurements.  A
:class:`BenchmarkResult` keeps each run's ``SynthesisResult.elapsed_s`` and
sums the runs' counters (``result.counters``, keyed ``layer.name``) with
:meth:`~repro.obs.metrics.Counters.merge`.
"""

from __future__ import annotations

import statistics
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

    def record(self, outcome: SynthesisResult) -> None:
        """Fold one run's outcome into this result; a successful run's time
        is its ``elapsed_s``."""

        self.specs = len(outcome.problem.specs)
        self.lib_methods = outcome.problem.library_method_count()
        self.last_result = outcome
        self.timed_out = outcome.timed_out
        self.success = outcome.success
        self.counters.merge(outcome.counters)
        if outcome.success:
            self.times_s.append(outcome.elapsed_s)
            self.meth_size = outcome.method_size
            self.syn_paths = outcome.paths
            self.program_text = outcome.pretty()


def run_benchmark(
    benchmark: BenchmarkSpec,
    config: Optional[SynthConfig] = None,
    runs: int = 1,
    warm_state: bool = True,
    parallel: int = 1,
) -> BenchmarkResult:
    """Run one benchmark ``runs`` times and collect Table 1 metrics.

    Every repetition runs through one session, and the first failed
    repetition ends the loop.  With ``warm_state`` (the default) the
    benchmark's problem (app substrate, class table, specs) is built once
    and its snapshot recordings are shared across the runs.
    ``warm_state=False`` makes each repetition a cold ``sweep`` cell that
    rebuilds everything inside a throwaway session, for fully isolated
    measurements.  Per-benchmark config overrides (e.g. a larger size
    bound) are applied on top of ``config`` either way.

    ``parallel`` gives the session a worker pool (:mod:`repro.synth.parallel`)
    and submits all cold repetitions as one sweep.  Each repetition stays a
    fully cold cell, but repetitions then run *concurrently*, so their
    wall-clock includes co-scheduling contention: use ``parallel=1`` (the
    default) when medians must be comparable to isolated serial runs (the
    paper's Table 1 numbers); parallel cold runs trade that comparability
    for throughput on multi-core hosts.  Warm runs share one session's
    problem, so they are serial: ``warm_state=True`` with ``parallel > 1``
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
    runs = max(runs, 1)
    with SynthesisSession(effective, parallel=jobs) as session:
        if warm_state:
            problem = session.problem_for(benchmark)
            outcomes = (session.run(problem, config=effective) for _ in range(runs))
        else:
            # Serially each repetition is its own one-cell sweep, so none is
            # built after a failed one; a pool takes them all at once.
            cells = runs if jobs > 1 else 1
            outcomes = (
                entry.result
                for _ in range(runs // cells)
                for entry in session.sweep([benchmark] * cells, [effective], warm=False)
            )
        for outcome in outcomes:
            result.record(outcome)
            if not outcome.success:
                break
    return result
