"""The multi-process synthesis execution layer.

The paper's search synthesizes one guarded solution per spec and couples
them only at the merge step, so the per-spec searches that dominate the
Table 1 / Figure 7 / Figure 8 wall-clock are embarrassingly parallel.  This
module realises that as a worker pool owned by
:class:`~repro.synth.session.SynthesisSession`, fanning out two task shapes:

* **per-spec tasks** within one problem -- every spec's
  :func:`~repro.synth.search.generate_for_spec` search (and the merge
  phase's initial :func:`~repro.synth.search.generate_guard` syntheses) runs
  in a worker while the parent session keeps the serial control flow;
* **cell tasks** across a sweep -- whole ``(problem, variant)`` cells of
  :meth:`SynthesisSession.sweep` (and the repeated cold runs of
  :func:`~repro.benchmarks.runner.run_benchmark`) are distributed over the
  pool, each worker holding a persistent warm session of its own.

Determinism and serial equivalence
----------------------------------

The work-list search is deterministic for a fixed problem and config, and
worker processes are forked from the parent (same interpreter state, same
string-hash seed), so a worker's search finds exactly the expression the
serial search would.  The remaining coupling between specs is *solution
reuse*: serially, spec ``i`` first re-tries the solutions of specs
``0..i-1`` and only searches on a miss.  The parallel run therefore
dispatches every spec's search *speculatively*, then replays the serial
resolution loop in the parent: reuse is evaluated with the parent's warm
resources, a covered spec's speculative result is discarded (counted in
``search.parallel_discarded``, its counters dropped so merged totals match
a serial run), and an uncovered spec adopts the worker's result.  Every
task reports its work as one :class:`~repro.obs.metrics.Counters` delta
(the same before/after baseline a serial run takes), which the parent
merges into the run's counters -- so serial and parallel totals are summed
the same way.

Workers run with a **per-worker** :class:`~repro.synth.cache.SynthCache`
(one fresh memo per task for per-spec tasks, a persistent session memo for
cell tasks).  A per-spec task exports the memo entries it recorded and the
parent absorbs them (:func:`absorb_memo`), so later phases -- simplify
validation, merge ordering, guard negation checks -- hit the memo exactly
as they would have after a serial search.  Absorbed outcomes are
store-shaped (``value=None``, reconstructed errors), which is sufficient:
the search branches only on ``ok`` / ``passed_asserts`` / the failure's
read effect.

Workers share work across processes through the persistent spec-outcome
store: each opens the session's SQLite file (``outcomes.sqlite``, say) by
path -- its upserts are concurrent-safe -- and persists the outcomes it
executes itself.

Problems must be *reconstructable in the worker*, which is true exactly for
registry benchmarks (workers rebuild them by id and cache them per worker
session).  Ad-hoc :class:`~repro.synth.goal.SynthesisProblem` objects carry
arbitrary closures and fall back to the serial path.

Budgets are per task: each worker search gets the full ``timeout_s``, so a
parallel run bounds the *per-phase* time rather than the end-to-end time
the serial budget enforces.  A worker timeout surfaces exactly like a
serial one (``timed_out`` result).
"""

from __future__ import annotations

import gc
import multiprocessing
import os
import time
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from repro.lang import ast as A
from repro.obs import trace
from repro.obs.metrics import Counters
from repro.synth.cache import TRACKED, SynthCache
from repro.synth.config import SynthConfig
from repro.synth.goal import Budget, SynthesisTimeout, evaluate_spec
from repro.synth.merge import Merger, SpecSolution
from repro.synth.search import generate_for_spec, generate_guard, search_counters
from repro.synth.simplify import simplify
from repro.synth.store import outcome_from_json, outcome_to_json
from repro.synth.synthesizer import (
    SynthesisResult,
    _adopt_hint,
    _owner_baseline,
    _reuse_solution,
    _RunCounters,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.synth.goal import SynthesisProblem
    from repro.synth.state import StateManager

#: Marker for a disabled cache's tracked-key memo exports (no outcome kept).
TRACKED_MARK = "__tracked__"


# ---------------------------------------------------------------------------
# Task payloads (everything here crosses the process boundary)
# ---------------------------------------------------------------------------

#: One exported memo entry: ``(kind, program, spec_index, value)`` where
#: ``value`` is an ``outcome_to_json`` payload for specs, a truthiness for
#: guards, or :data:`TRACKED_MARK` for a disabled cache's key tracking.
MemoEntry = Tuple[str, A.Node, int, Any]


@dataclass
class TaskResult:
    """A worker's answer to one speculative per-spec search or guard task."""

    #: The spec's expression or the guard (``None`` when none was found).
    found: Optional[A.Node]
    timed_out: bool
    #: The task's work: its search counters plus the worker owners' delta.
    counters: Counters
    memo: List[MemoEntry]
    #: Wall time of the worker's search, reported to the parent's
    #: ``spec_search``/``guard_search`` phase histogram when consumed.
    elapsed_s: float = 0.0
    #: Trace events collected in the worker (empty unless tracing is on).
    trace_events: List[dict] = field(default_factory=list)


@dataclass
class CellTaskResult:
    """A worker's answer to one sweep/benchmark cell."""

    benchmark_id: str
    success: bool
    timed_out: bool
    program: Optional[A.MethodDef]
    elapsed_s: float
    counters: Counters
    specs: int
    lib_methods: int
    #: The cell run's metrics snapshot (``SynthesisResult.metrics``).
    metrics: Optional[dict] = None
    #: Trace events collected in the worker (empty unless tracing is on).
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
            metrics=self.metrics,
        )


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------

_WORKER: Optional["_WorkerState"] = None


class _WorkerState:
    """Per-process state: one persistent session plus its store connection."""

    def __init__(self, base_config: SynthConfig, store_path: Optional[str]) -> None:
        from repro.synth.session import SynthesisSession

        # Workers never write the parent's trace file themselves: their
        # session must not re-open ``trace_path`` (the parent owns it), so
        # the path is stripped here.  The *task* configs keep it -- that is
        # the per-task "collect events for the parent" flag.
        self.session = SynthesisSession(
            replace(base_config, trace_path=None), store=store_path
        )


def _worker_init(base_config: SynthConfig, store_path: Optional[str]) -> None:
    global _WORKER
    # A forked worker inherits the parent's live tracer object, including
    # its open file handle; drop it (without closing the parent's file).
    trace.reset_after_fork()
    _WORKER = _WorkerState(base_config, store_path)


def _worker_call(task: Tuple) -> Any:
    """Task dispatcher run inside the pool; flushes the store per task.

    When the task's config carries a ``trace_path`` the parent is tracing:
    the worker collects this task's events in memory (tagged with a
    per-process worker id) and ships them back on the task result for the
    parent to absorb into its trace.
    """

    kind = task[0]
    collecting = getattr(task[2], "trace_path", None) is not None
    if collecting:
        trace.start_collecting(worker=f"w{os.getpid()}")
    try:
        if kind == "spec":
            result = _run_spec_task(*task[1:])
        elif kind == "guard":
            result = _run_guard_task(*task[1:])
        elif kind == "cell":
            result = _run_cell_task(*task[1:])
        else:
            raise ValueError(f"unknown worker task kind {kind!r}")
        if collecting and kind != "cell":
            result.trace_events = trace.TRACER.export()
        return result
    finally:
        if collecting:
            trace.reset_after_fork()
        store = _WORKER.session.store if _WORKER is not None else None
        if store is not None:
            store.flush()


def _task_problem(benchmark_id: str, config: SynthConfig):
    """The worker's warm problem for a benchmark, at the config's precision."""

    session = _WORKER.session
    problem = session.problem_for(benchmark_id)
    runner = session._at_precision(problem, config.effect_precision)
    state = session._state_for(runner, config, fresh=False)
    if state is not None:
        state.verify_every = config.verify_recordings
    return session, runner, state


def _fresh_cache(session, config: SynthConfig) -> SynthCache:
    """A per-task memo (clean export delta) backed by the worker's store."""

    cache = SynthCache.from_config(config)
    cache.store = session.store
    return cache


def _export_memo(cache: SynthCache, problem: "SynthesisProblem") -> List[MemoEntry]:
    """Serialize the task's memo entries for parent absorption.

    Spec objects cannot cross the process boundary (closures), so entries
    are keyed by the spec's index in the problem; outcomes are shipped as
    their store payloads.
    """

    index_of = {spec: i for i, spec in enumerate(problem.specs)}
    out: List[MemoEntry] = []
    # Private access by design: the export *is* the memo content.  Keys hold
    # the program's alpha-key (not a node), so the representative program is
    # taken from the cache's side map.
    for key, value in cache._entries.items():
        kind, _akey, spec, _precision = key
        program = cache._programs.get(key)
        index = index_of.get(spec)
        if index is None or program is None:  # pragma: no cover - tasks only touch problem specs
            continue
        if value is TRACKED:
            out.append((kind, program, index, TRACKED_MARK))
        elif kind == "spec":
            out.append((kind, program, index, outcome_to_json(value)))
        else:
            out.append((kind, program, index, value))
    return out


def absorb_memo(
    cache: SynthCache, problem: "SynthesisProblem", memo: Sequence[MemoEntry]
) -> None:
    """Seed a worker's exported memo entries into the parent cache.

    The worker already persisted them to the shared store itself.
    """

    for kind, program, index, value in memo:
        spec = problem.specs[index]
        if kind == "spec":
            outcome = TRACKED if value == TRACKED_MARK else outcome_from_json(value)
            cache.seed_spec(problem, program, spec, outcome)
        else:
            truth = TRACKED if value == TRACKED_MARK else value
            cache.seed_guard(problem, program, spec, truth)


def _run_task(benchmark_id: str, config: SynthConfig, search) -> TaskResult:
    """Run one search in this worker and measure its work.

    ``search(problem, counters, cache, state)`` runs against the worker's
    warm problem with a fresh per-task memo; the result's counters are the
    task's search counters plus its :func:`_owner_baseline` delta.
    """

    session, problem, state = _task_problem(benchmark_id, config)
    cache = _fresh_cache(session, config)
    problem.register_cache(cache)
    counters = search_counters()
    baseline = _owner_baseline(problem, cache, state)
    found: Optional[A.Node] = None
    timed_out = False
    started = time.perf_counter()
    try:
        found = search(problem, counters, cache, state)
    except SynthesisTimeout:
        timed_out = True
    finally:
        elapsed = time.perf_counter() - started
        problem.unregister_cache(cache)
    counters.merge(baseline.delta())
    return TaskResult(
        found=found,
        timed_out=timed_out,
        counters=counters,
        memo=_export_memo(cache, problem),
        elapsed_s=elapsed,
    )


def _run_spec_task(
    benchmark_id: str, config: SynthConfig, spec_index: int
) -> TaskResult:
    def search(problem, counters, cache, state):
        return generate_for_spec(
            problem, problem.specs[spec_index], config,
            budget=Budget(config.timeout_s), counters=counters, cache=cache,
            state=state,
        )

    return _run_task(benchmark_id, config, search)


def _run_guard_task(
    benchmark_id: str,
    config: SynthConfig,
    positive_indices: Tuple[int, ...],
    negative_indices: Tuple[int, ...],
    initial_candidates: Tuple[A.Node, ...],
) -> TaskResult:
    def search(problem, counters, cache, state):
        return generate_guard(
            problem,
            [problem.specs[i] for i in positive_indices],
            [problem.specs[i] for i in negative_indices],
            config,
            budget=Budget(config.timeout_s),
            counters=counters,
            initial_candidates=list(initial_candidates),
            cache=cache,
            state=state,
        )

    return _run_task(benchmark_id, config, search)


def _run_cell_task(
    benchmark_id: str, config: SynthConfig, fresh: bool, runs: int = 1
) -> List[CellTaskResult]:
    """Run one benchmark cell ``runs`` times in this worker.

    A multi-run batch is the parallel unit of ``run_benchmark`` and
    ``bench_parallel``: keeping one benchmark's repeats on one worker lets
    them share that worker's warm session instead of duplicating the cold
    work across the pool.
    """

    from repro.benchmarks import get_benchmark

    benchmark = get_benchmark(benchmark_id)
    payloads: List[CellTaskResult] = []
    for _ in range(max(runs, 1)):
        start = time.perf_counter()
        if fresh:
            # Mirrors ``sweep(warm=False)`` / cold ``run_benchmark``: a
            # freshly built problem inside a throwaway store-less session.
            from repro.synth.session import SynthesisSession

            problem = benchmark.build()
            with SynthesisSession(config) as cold:
                result = cold.run(problem)
        else:
            result = _WORKER.session.run(benchmark_id, config=config)
            problem = result.problem
        elapsed = time.perf_counter() - start
        payloads.append(
            CellTaskResult(
                benchmark_id=benchmark_id,
                success=result.success,
                timed_out=result.timed_out,
                program=result.program,
                elapsed_s=elapsed,
                counters=result.counters,
                specs=len(problem.specs),
                lib_methods=problem.library_method_count(),
                metrics=result.metrics,
                # Drained per run, so every payload carries its own events.
                trace_events=(
                    trace.TRACER.export() if trace.TRACER.enabled else []
                ),
            )
        )
        if not result.success:
            break
    return payloads


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

    def __init__(
        self,
        jobs: int,
        base_config: Optional[SynthConfig] = None,
        store_path: Optional[str] = None,
    ) -> None:
        self.jobs = max(int(jobs), 1)
        self.base_config = base_config if base_config is not None else SynthConfig()
        #: The session's spec-outcome store, opened by every worker.
        self.store_path = store_path
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
                    initargs=(self.base_config, self.store_path),
                )
            finally:
                gc.unfreeze()
        return self._pool

    # ------------------------------------------------------------------ submit

    def submit(self, task: Tuple):
        """Dispatch one task tuple; returns the pool's async result."""

        return self._get_pool().apply_async(_worker_call, (task,))

    def submit_specs(self, benchmark_id: str, config: SynthConfig, indices):
        """One speculative search task per spec index, keyed by index."""

        return {
            index: self.submit(("spec", benchmark_id, config, index))
            for index in indices
        }

    def submit_guard(
        self,
        benchmark_id: str,
        config: SynthConfig,
        positive_indices: Tuple[int, ...],
        negative_indices: Tuple[int, ...],
        initial_candidates: Tuple[A.Node, ...],
    ):
        return self.submit(
            (
                "guard",
                benchmark_id,
                config,
                positive_indices,
                negative_indices,
                initial_candidates,
            )
        )

    def submit_cell(
        self, benchmark_id: str, config: SynthConfig, fresh: bool, runs: int = 1
    ):
        """One benchmark cell, run ``runs`` times in the same worker.

        The future resolves to a *list* of :class:`CellTaskResult` (one per
        run, truncated at the first failure like the serial runner).
        """

        return self.submit(("cell", benchmark_id, config, fresh, runs))

    # ------------------------------------------------------------------ lifecycle

    def close(self, wait: bool = False) -> None:
        """Shut the pool down, abandoning unconsumed tasks.

        Every consumed future's task has already run its store flush, so
        terminating only discards work nobody is waiting on -- e.g. the
        speculative searches a reuse-covered spec left behind, which would
        otherwise keep a worker busy for up to ``timeout_s`` each and block
        this call for as long.  ``wait=True`` drains them instead.
        (Mid-task SQLite flushes are transactions; a terminated worker
        rolls back rather than corrupting the store.)
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


# ---------------------------------------------------------------------------
# The parallel run loop
# ---------------------------------------------------------------------------


def run_synthesis_parallel(
    problem: "SynthesisProblem",
    config: SynthConfig,
    cache: SynthCache,
    state: Optional["StateManager"],
    executor: ParallelExecutor,
    benchmark_id: str,
    solution_hints: Optional[dict] = None,
) -> SynthesisResult:
    """The parallel twin of :func:`~repro.synth.synthesizer.run_synthesis`.

    Dispatches every spec's search to the pool speculatively, replays the
    serial reuse/simplify/merge control flow in the parent, and merges the
    used workers' counters so the result's totals match a serial run's (see
    the module docstring for the exact equivalence contract).
    """

    budget = Budget(config.timeout_s)
    problem.register_cache(cache)
    if state is not None:
        state.verify_every = config.verify_recordings
    run = _RunCounters(problem, cache, state)
    counters = run.counters
    solutions: List[SpecSolution] = []

    def merge_task(task: TaskResult) -> None:
        counters.merge(task.counters)
        run.phases.observe_phase("spec_search", task.elapsed_s)
        if task.trace_events:
            trace.TRACER.absorb(task.trace_events)
        absorb_memo(cache, problem, task.memo)

    try:
        # Hints are validated *before* dispatch: a spec whose previous
        # solution still passes needs no speculative search at all, so warm
        # repeats submit nothing (and close() never waits on discarded
        # full-timeout searches).  Validation order differs from the serial
        # engine's interleaved reuse-then-hint order -- and a hint whose
        # spec ends up reuse-covered is one evaluation the serial engine
        # skips -- but evaluation is deterministic, so while hinted-run
        # counters can deviate by those extra lookups, the resolution
        # decisions (and programs) are identical.  The exact-counter
        # contract holds for unhinted (first) runs.
        validated_hints: dict = {}
        if solution_hints:
            for index, spec in enumerate(problem.specs):
                hint = _adopt_hint(
                    problem, spec, solution_hints, budget, Counters(), cache,
                    state,
                )
                if hint is not None:
                    validated_hints[index] = hint
        pending = executor.submit_specs(
            benchmark_id,
            config,
            [
                index
                for index in range(len(problem.specs))
                if index not in validated_hints
            ],
        )
        counters["search.parallel_tasks"] += len(pending)

        specs_started = time.perf_counter()
        with trace.TRACER.span("phase.specs", specs=len(problem.specs)):
            for index, spec in enumerate(problem.specs):
                if _reuse_solution(
                    problem, spec, solutions, config, budget, cache, state
                ):
                    if index in pending:
                        # The speculative search result is dropped unseen:
                        # its work must not pollute the counters a serial
                        # run would report.
                        counters["search.parallel_discarded"] += 1
                    continue
                hint = validated_hints.get(index)
                if hint is not None:
                    counters["search.hint_reuses"] += 1
                    solutions.append(SpecSolution(expr=hint, specs=(spec,)))
                    continue
                task = pending[index].get()
                merge_task(task)
                if task.timed_out:
                    raise SynthesisTimeout(f"timeout while solving spec #{index}")
                if task.found is None:
                    return run.finish(
                        SynthesisResult(
                            problem,
                            success=False,
                            solutions=solutions,
                            elapsed_s=budget.elapsed(),
                        )
                    )
                simplified = simplify(task.found)
                if not evaluate_spec(
                    problem, problem.make_program(simplified), spec, cache=cache,
                    state=state,
                ).ok:
                    simplified = task.found
                solutions.append(SpecSolution(expr=simplified, specs=(spec,)))
        run.phases.observe_phase("specs", time.perf_counter() - specs_started)

        merge_started = time.perf_counter()
        with trace.TRACER.span("phase.merge", solutions=len(solutions)):
            merger = Merger(
                problem,
                config,
                budget=budget,
                counters=counters,
                cache=cache,
                state=state,
                executor=executor,
                benchmark_id=benchmark_id,
                metrics=run.phases,
            )
            program = merger.merge(solutions)
        run.phases.observe_phase("merge", time.perf_counter() - merge_started)
    except SynthesisTimeout:
        return run.finish(
            SynthesisResult(
                problem,
                success=False,
                solutions=solutions,
                elapsed_s=budget.elapsed(),
                timed_out=True,
            )
        )

    return run.finish(
        SynthesisResult(
            problem,
            success=program is not None,
            program=program,
            solutions=solutions,
            elapsed_s=budget.elapsed(),
        )
    )
