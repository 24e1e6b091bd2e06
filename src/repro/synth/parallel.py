"""The worker pool of :class:`~repro.synth.session.SynthesisSession`.

Table 1 medians, the Figure 7 guidance-mode sweep and the Figure 8
precision sweep are many independent synthesis runs.  A session with more
than one job spreads them over the :class:`multiprocessing.pool.Pool` that
:func:`start_pool` creates.  There is one task shape, the **cell**: a whole
``(problem, variant)`` run of :meth:`SynthesisSession.sweep` (a cold
repetition of :func:`~repro.benchmarks.runner.run_benchmark` is one such
cell).  Each cell is a one-cell serial sweep inside a worker, so it keeps
every serial contract: its own ``timeout_s`` budget bounds it end to end,
its time is the run's ``SynthesisResult.elapsed_s``, and it synthesizes the
program a serial run does (the ``parallel`` arm of
``scripts/arm_identity.py`` checks this on every end-to-end benchmark).

Workers are forked from the parent (same interpreter state, same
string-hash seed), so a worker's search finds exactly the expression the
serial search would.  Each worker holds one long-lived session: warm cells
share that worker's built problems and snapshot recordings, and cold cells
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

The pool is a ``multiprocessing`` pool rather than a
``concurrent.futures.ProcessPoolExecutor`` because a session that closes
part-way through a sweep (its caller raised) must stop the cells still
running: ``Pool.terminate`` does, and the executor has no way to before
Python 3.14.
"""

from __future__ import annotations

import gc
import multiprocessing
import os
from dataclasses import dataclass, field
from multiprocessing.pool import Pool
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
    """A worker's answer to one sweep cell."""

    success: bool
    timed_out: bool
    program: Optional[A.MethodDef]
    #: The run's ``SynthesisResult.elapsed_s`` (problem build excluded).
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


def start_pool(jobs: int, base_config: SynthConfig) -> Pool:
    """A pool of ``jobs`` workers, each holding a session on ``base_config``.

    Forked workers inherit the parent's interpreter state (and hash seed, on
    which candidate-enumeration order depends), which is what makes worker
    searches bit-identical to serial ones; where ``fork`` is unavailable the
    pool falls back to ``spawn``, which keeps results *valid* but may
    explore in a different order.
    """

    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    # Freeze the parent heap across the fork so workers inherit it in the
    # GC's permanent generation: a worker's first full collection then skips
    # every pre-fork object (interned types, the benchmark registry, the
    # parent's built problems) instead of traversing -- and, under
    # copy-on-write, physically copying -- all of those pages, a pause that
    # can dwarf the cells the worker runs.  The parent unfreezes right after
    # the fork, restoring its own collection behavior.
    gc.collect()
    gc.freeze()
    try:
        return context.Pool(
            processes=jobs, initializer=_worker_init, initargs=(base_config,)
        )
    finally:
        gc.unfreeze()


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

#: The worker's long-lived session (every cell runs in it).
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


def run_cell(
    benchmark_id: str, config: SynthConfig, warm: bool, collect: bool
) -> CellTaskResult:
    """Run one cell inside the pool, as a one-cell sweep of the worker's
    session.

    ``collect`` says the parent traced when it submitted the cell: the
    worker installs the same wrappers around a collecting tracer, keeps the
    cell's spans in memory (tagged with a per-process worker id) and ships
    them back on the cell result for the parent to absorb into its trace.
    The wrappers come off again when the cell ends.
    """

    if collect:
        trace.start_collecting(worker=f"w{os.getpid()}")
    try:
        result = _WORKER.sweep([benchmark_id], [config], warm=warm)[0].result
        return CellTaskResult(
            success=result.success,
            timed_out=result.timed_out,
            program=result.program,
            elapsed_s=result.elapsed_s,
            counters=result.counters,
            trace_events=trace.TRACER.export() if trace.TRACER is not None else [],
        )
    finally:
        if collect:
            trace.disable()
