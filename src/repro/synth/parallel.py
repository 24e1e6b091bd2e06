"""The multi-process synthesis execution layer.

Table 1 medians, the Figure 7 guidance-mode sweep and the Figure 8
precision sweep are many independent synthesis runs.  This module spreads
those runs over a worker pool owned by
:class:`~repro.synth.session.SynthesisSession`.  There is one task shape,
the **cell**: a whole ``(problem, variant)`` run of
:meth:`SynthesisSession.sweep`, or one cold repetition of
:func:`~repro.benchmarks.runner.run_benchmark`.  Each cell is a serial
:meth:`SynthesisSession.run` inside a worker, so it keeps every serial
contract: its own ``timeout_s`` budget bounds it end to end, and it
synthesizes the program a serial run does (the ``parallel`` arm of
``scripts/arm_identity.py`` checks this on every end-to-end benchmark).

Workers are forked from the parent (same interpreter state, same
string-hash seed), so a worker's search finds exactly the expression the
serial search would.  Each worker holds one long-lived session: warm cells
share that worker's snapshot recordings and solution hints, and cold cells
build a fresh problem in a throwaway session, exactly as they do serially.

Nothing mutable crosses the process boundary: a cell task carries a
benchmark id and a config in, and its :class:`CellTaskResult` out.  Workers
share no state with each other or with the parent.

Tracing crosses the boundary as data.  A forked worker first puts back the
original functions its parent's tracer had wrapped
(:func:`repro.obs.trace.reset_after_fork`) and drops ``REPRO_TRACE`` from
its environment, so no worker session opens a trace file and an untraced
cell runs the functions unwrapped.  A cell submitted while the parent
traces installs the same wrappers around a collecting tracer and ships its
spans back on its result.

Problems must be *reconstructable in the worker*, which is true exactly for
registry benchmarks (workers rebuild them by id).  Ad-hoc
:class:`~repro.synth.goal.SynthesisProblem` objects carry arbitrary
closures; a sweep runs their cells in the parent.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional

from repro.lang import ast as A
from repro.obs import trace
from repro.obs.metrics import Counters
from repro.synth.config import SynthConfig
from repro.synth.synthesizer import SynthesisResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.synth.goal import SynthesisProblem
    from repro.synth.session import SynthesisSession


@dataclass
class CellTaskResult:
    """A worker's answer to one sweep/benchmark cell."""

    success: bool
    timed_out: bool
    program: Optional[A.MethodDef]
    #: Wall time of the cell's ``run`` call (problem build excluded).
    elapsed_s: float
    counters: Counters
    #: Spans collected in the worker (empty unless the parent traces).
    trace_events: List[dict] = field(default_factory=list)

    def to_result(self, problem: "SynthesisProblem") -> SynthesisResult:
        """Rebuild a :class:`SynthesisResult` around the parent's problem."""

        return SynthesisResult(
            problem=problem,
            success=self.success,
            program=self.program,
            elapsed_s=self.elapsed_s,
            timed_out=self.timed_out,
            counters=self.counters,
        )


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: The worker's long-lived session (warm cells run in it).
_WORKER: Optional["SynthesisSession"] = None


def _worker_init(base_config: SynthConfig) -> None:
    from repro.synth.session import SynthesisSession

    global _WORKER
    # A forked worker inherits the parent's live tracer, with its open file
    # handle and its wrappers around every site: put the original functions
    # back and drop the tracer (without closing the parent's file).
    trace.reset_after_fork()
    # Workers never write a trace file themselves (``trace.enable`` would
    # truncate the parent's): no session in this process may pick the file
    # up from the inherited environment.
    os.environ.pop("REPRO_TRACE", None)
    _WORKER = SynthesisSession(base_config)


def _worker_call(
    benchmark_id: str, config: SynthConfig, fresh: bool, collect: bool
) -> CellTaskResult:
    """Run one cell task inside the pool.

    ``collect`` says the parent traced when it submitted the cell: the
    worker installs the same wrappers around a collecting tracer, keeps the
    cell's spans in memory (tagged with a per-process worker id) and ships
    them back on the cell result for the parent to absorb into its trace.
    The wrappers come off again when the cell ends.
    """

    if collect:
        trace.start_collecting(worker=f"w{os.getpid()}")
    try:
        return _run_cell_task(benchmark_id, config, fresh)
    finally:
        if collect:
            trace.disable()


def _run_cell_task(benchmark_id: str, config: SynthConfig, fresh: bool) -> CellTaskResult:
    """Run one benchmark cell in this worker.

    Like the serial paths, the cell's time covers only its ``run`` call,
    not the problem build.
    """

    from repro.benchmarks import get_benchmark
    from repro.synth.session import SynthesisSession

    benchmark = get_benchmark(benchmark_id)
    if fresh:
        # Mirrors ``sweep(warm=False)`` / cold ``run_benchmark``: a freshly
        # built problem inside a throwaway session.
        problem = benchmark.build()
        with SynthesisSession(config) as cold:
            start = time.perf_counter()
            result = cold.run(problem)
            elapsed = time.perf_counter() - start
    else:
        problem = _WORKER.problem_for(benchmark)
        start = time.perf_counter()
        result = _WORKER.run(problem, config=config)
        elapsed = time.perf_counter() - start
    return CellTaskResult(
        success=result.success,
        timed_out=result.timed_out,
        program=result.program,
        elapsed_s=elapsed,
        counters=result.counters,
        trace_events=trace.TRACER.export() if trace.TRACER is not None else [],
    )


# ---------------------------------------------------------------------------
# Parent side: the executor
# ---------------------------------------------------------------------------


class ParallelExecutor:
    """A lazily-started worker pool bound to one session's resources.

    Forked workers inherit the parent's interpreter state (and hash seed, on
    which candidate-enumeration order depends), which is what makes worker
    searches bit-identical to serial ones; where ``fork`` is unavailable the
    pool falls back to ``spawn``, which keeps results *valid* but may
    explore in a different order.
    """

    def __init__(self, jobs: int, base_config: Optional[SynthConfig] = None) -> None:
        self.jobs = max(int(jobs), 1)
        self.base_config = base_config if base_config is not None else SynthConfig()
        self._pool = None

    def _get_pool(self):
        if self._pool is None:
            methods = multiprocessing.get_all_start_methods()
            context = multiprocessing.get_context(
                "fork" if "fork" in methods else "spawn"
            )
            # Freeze the parent heap across the fork so workers inherit it
            # in the GC's permanent generation: a worker's first full
            # collection then skips every pre-fork object (interned types,
            # the benchmark registry, memos of earlier synthesis runs)
            # instead of traversing -- and, under copy-on-write, physically
            # copying -- all of those pages, a pause that can dwarf the
            # cells the worker runs.  The parent unfreezes right after the
            # fork, restoring its own collection behavior.
            gc.collect()
            gc.freeze()
            try:
                self._pool = context.Pool(
                    processes=self.jobs,
                    initializer=_worker_init,
                    initargs=(self.base_config,),
                )
            finally:
                gc.unfreeze()
        return self._pool

    def submit_cell(self, benchmark_id: str, config: SynthConfig, fresh: bool):
        """One benchmark cell; the future resolves to its
        :class:`CellTaskResult`.  The cell collects spans when this process
        has a live tracer now."""

        collect = trace.TRACER is not None
        return self._get_pool().apply_async(
            _worker_call, (benchmark_id, config, fresh, collect)
        )

    # ------------------------------------------------------------------ lifecycle

    def close(self, wait: bool = False) -> None:
        """Shut the pool down, abandoning unconsumed cells.

        Workers hold nothing that outlives them, so terminating only
        discards cells nobody is waiting on -- e.g. the rest of a sweep
        whose caller raised part-way.  ``wait=True`` drains them instead.
        """

        if self._pool is not None:
            if wait:
                self._pool.close()
            else:
                self._pool.terminate()
            self._pool.join()
            self._pool = None

    def __enter__(self) -> "ParallelExecutor":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
