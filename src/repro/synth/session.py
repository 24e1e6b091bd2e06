"""The :class:`SynthesisSession` engine API.

The paper's evaluation is not one synthesis run but a long sequence of
*related* runs: Table 1 medians repeat each benchmark, Figure 7 sweeps the
four guidance modes and Figure 8 sweeps the three effect-annotation
precisions.

A session is the engine object that owns everything a sequence of runs
shares:

* the base :class:`~repro.synth.config.SynthConfig` (per-run overrides are
  applied on top);
* one :class:`~repro.synth.cache.SynthCache` -- the spec/guard evaluation
  memo -- shared by every run of the session;
* the per-problem :class:`~repro.synth.state.StateManager` snapshot
  recordings (held on the problems, reused by the session across runs *and*
  across effect-precision variants: ``run`` derives coarsened problem copies
  that share the original's manager and cache registration, so a Figure 8
  sweep replays recordings instead of rebuilding state);
* optionally a persistent :class:`~repro.synth.store.SpecOutcomeStore`
  (content-hash keyed, SQLite-backed) so outcomes survive the process --
  repeated evaluation sweeps skip re-execution entirely.

Typical use::

    from repro.synth import SynthConfig, SynthesisSession

    with SynthesisSession(SynthConfig(timeout_s=30), store="outcomes.sqlite") as s:
        result = s.run(problem)                       # one warm run
        entries = s.sweep(                            # problems x variants
            ["S1", "S4"],
            variants=[("precise", {}), ("class", {"effect_precision": "class"})],
        )

``session.sweep`` is the engine behind the Table 1 / Figure 7 / Figure 8
harnesses and the CI bench gates.  Every result carries the run's counters
(``result.counters``, keyed ``layer.name``): the session's memo, snapshot
managers and store outlive a run, so each result reports only the work that
run added to them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.obs import trace
from repro.synth.cache import SynthCache
from repro.synth.config import SynthConfig
from repro.synth.goal import SynthesisProblem
from repro.synth.store import SpecOutcomeStore
from repro.synth.synthesizer import SynthesisResult, run_synthesis

if TYPE_CHECKING:  # pragma: no cover - typing only
    import os

    from repro.benchmarks.registry import BenchmarkSpec
    from repro.synth.parallel import ParallelExecutor
    from repro.synth.state import StateManager

#: What ``run``/``sweep`` accept as a problem source: a built problem, a
#: benchmark spec, or a registry benchmark id.
ProblemSource = Union[SynthesisProblem, "BenchmarkSpec", str]

#: What ``sweep`` accepts as one variant: a full config, a dict of
#: ``SynthConfig`` field overrides, or an explicitly named ``(name, spec)``.
VariantSpec = Union[SynthConfig, Mapping[str, Any], Tuple[str, Union[SynthConfig, Mapping[str, Any]]]]


@dataclass
class SweepEntry:
    """One cell of a sweep: a problem run under one variant."""

    label: str
    variant: str
    result: SynthesisResult
    problem: SynthesisProblem
    benchmark: Optional["BenchmarkSpec"] = None

    @property
    def success(self) -> bool:
        return self.result.success

    @property
    def elapsed_s(self) -> float:
        return self.result.elapsed_s


class SynthesisSession:
    """A context-managed synthesis engine owning the warm resources.

    Parameters
    ----------
    config:
        The base configuration; ``run``/``sweep`` overrides are applied on
        top with :func:`dataclasses.replace`.  The session's evaluation memo
        is built from this config (``cache_spec_outcomes`` etc.), so cache
        behavior follows the *session* config even when individual runs
        override other knobs.
    store:
        ``None`` (no persistence), a filesystem path of an SQLite store
        (created if missing), or an existing :class:`SpecOutcomeStore` to
        share.  On ``close``/context exit the session closes a store it
        opened from a path, and only flushes a store passed in as an
        instance, which stays open for its owner.
    parallel:
        Default worker count for ``run``/``sweep`` (both also take a
        per-call ``parallel=`` override).  With more than one job the
        session owns a lazily-started
        :class:`~repro.synth.parallel.ParallelExecutor` worker pool:
        ``run`` fans the per-spec searches of registry-derived problems out
        across workers, ``sweep`` distributes whole cells.  Workers share
        outcomes through the session's store.
    """

    def __init__(
        self,
        config: Optional[SynthConfig] = None,
        store: "SpecOutcomeStore | str | os.PathLike | None" = None,
        parallel: int = 1,
    ) -> None:
        self.config = config or SynthConfig()
        #: Whether ``close`` closes the store (the session opened it).  The
        #: store opens before the tracer: opening a legacy JSON store raises,
        #: and must not leave behind a tracer that no session will close.
        self._owns_store = store is not None and not isinstance(
            store, SpecOutcomeStore
        )
        self.store = SpecOutcomeStore.open(store)
        #: Tracer lifecycle: the first session whose config carries a
        #: ``trace_path`` (explicit or via ``REPRO_TRACE``) owns the global
        #: tracer and closes it on ``close``.  If a tracer is already live
        #: (an outer session, or a worker's collecting tracer) this session
        #: nests inside it instead of clobbering its sink.
        self._owns_tracer = False
        if self.config.trace_path and not trace.TRACER.enabled:
            trace.enable(self.config.trace_path)
            self._owns_tracer = True
        self.cache = SynthCache.from_config(self.config)
        self.cache.store = self.store
        self.parallel = max(int(parallel), 1)
        self._closed = False
        #: Lazily-created worker pool (see :meth:`_executor_for`).
        self._executor: Optional["ParallelExecutor"] = None
        #: Problems this session's cache is registered on (for close()).
        self._registered: List[SynthesisProblem] = []
        #: Benchmark-id -> built problem, so repeated ``run("S1")`` /
        #: ``sweep`` calls reuse one warm problem per benchmark.
        self._built: Dict[str, SynthesisProblem] = {}
        #: id(problem) -> registry id for problems this session built (the
        #: reverse map that lets ``run(problem, parallel=N)`` name the
        #: benchmark to worker processes).
        self._benchmark_ids: Dict[int, str] = {}
        #: (id(problem), precision) -> (problem, derived copy) for the
        #: warm precision variants (strong ref keeps ids stable).
        self._derived: Dict[Tuple[int, str], Tuple[SynthesisProblem, SynthesisProblem]] = {}
        #: (id(problem), timeout-less config) -> {spec: solution expr} from
        #: the last successful run: the Section 4 solution-reuse
        #: optimization extended across a session's repeated runs.  Hints
        #: only skip a search after re-validating against the spec, and the
        #: search's determinism makes the adopted expression equal to what a
        #: fresh search would find, so hinted repeats synthesize identical
        #: programs.  (``_registered`` holds strong problem refs, keeping
        #: the ids stable.)
        self._solution_hints: Dict[Tuple[int, SynthConfig], Dict[Any, Any]] = {}

    # ------------------------------------------------------------------ running

    def run(
        self,
        problem: ProblemSource,
        config: Optional[SynthConfig] = None,
        fresh_state: bool = False,
        parallel: Optional[int] = None,
        **overrides: Any,
    ) -> SynthesisResult:
        """Synthesize ``problem`` with the session's warm resources.

        ``problem`` may be a :class:`SynthesisProblem`, a benchmark spec or
        a registry benchmark id (built once per session; a benchmark's
        ``config_overrides`` are applied automatically).  ``config``
        replaces the session base config for this run; ``overrides`` are
        ``SynthConfig`` field overrides applied on top of whichever base is
        in effect.  When the effective ``effect_precision`` differs from the
        problem's class table, the run uses a derived problem copy that
        *shares* the original's snapshot manager and cache registration, so
        precision sweeps stay warm.  ``fresh_state=True`` gives this run a
        brand-new snapshot manager (cold state) instead of the problem's
        long-lived one.

        ``parallel`` (defaulting to the session's ``parallel``) fans the
        per-spec searches out across the session's worker pool
        (:mod:`repro.synth.parallel`) when the problem is a registry
        benchmark -- workers rebuild it by id -- and it has more than one
        spec; anything else falls back to the serial engine.  So does
        ``fresh_state=True``: workers hold long-lived warm state, which
        would silently defeat the cold-state contract.
        """

        self._check_open()
        tracer = trace.TRACER
        if not tracer.enabled:
            return self._run_impl(problem, config, fresh_state, parallel, overrides)
        with tracer.span("session.run") as span:
            result = self._run_impl(problem, config, fresh_state, parallel, overrides)
            span.annotate(problem=result.problem.name, success=result.success)
            return result

    def _run_impl(
        self,
        problem: ProblemSource,
        config: Optional[SynthConfig],
        fresh_state: bool,
        parallel: Optional[int],
        overrides: Mapping[str, Any],
    ) -> SynthesisResult:
        base = config if config is not None else self.config
        effective = replace(base, **overrides) if overrides else base
        with trace.TRACER.span("phase.setup"):
            benchmark = self._as_benchmark(problem)
            if benchmark is not None:
                effective = benchmark.make_config(effective)
            resolved = self._resolve_problem(problem)
            runner = self._at_precision(resolved, effective.effect_precision)
            state = self._state_for(runner, effective, fresh_state)
            self._register(runner)
            hints = self._hints_for(runner, effective)
        jobs = self.parallel if parallel is None else max(int(parallel), 1)
        if jobs > 1 and not fresh_state:
            benchmark_id = (
                benchmark.id
                if benchmark is not None
                else self._benchmark_ids.get(id(resolved))
            )
            if benchmark_id is not None and len(runner.specs) > 1:
                from repro.synth.parallel import run_synthesis_parallel

                result = run_synthesis_parallel(
                    runner,
                    effective,
                    cache=self.cache,
                    state=state,
                    executor=self._executor_for(jobs),
                    benchmark_id=benchmark_id,
                    solution_hints=hints,
                )
                self._remember_solutions(runner, effective, result)
                return result
        result = run_synthesis(
            runner,
            effective,
            cache=self.cache,
            state=state,
            solution_hints=hints,
        )
        self._remember_solutions(runner, effective, result)
        return result

    def sweep(
        self,
        problems: Union[str, Iterable[ProblemSource], None] = "registry",
        variants: Optional[Sequence[VariantSpec]] = None,
        warm: bool = True,
        parallel: Optional[int] = None,
    ) -> List[SweepEntry]:
        """Run every problem under every variant (problem-major order).

        ``problems`` is an iterable of problem sources, or ``"registry"`` /
        ``"all"`` / ``None`` for the full benchmark registry.  ``variants``
        default to a single base-config run.  With ``warm`` (the default)
        all cells share this session's memo, store and snapshot recordings
        -- a benchmark's variants run back to back, so e.g. a Figure 8
        precision sweep reuses the recordings its first variant captured.
        ``warm=False`` isolates every cell in a throwaway session with a
        freshly built problem (and no store): fully cold measurements, as
        the Figure 7 guidance-mode comparison requires.

        ``parallel`` (defaulting to the session's ``parallel``) distributes
        whole registry cells across the session's worker pool, in
        deterministic problem-major result order.  Warm parallel cells are
        warm *per worker* (each worker holds a persistent session); cold
        cells are isolated in the worker exactly as they are serially.
        Cells whose source is an ad-hoc problem object cannot be shipped to
        a worker and run in the parent, interleaved at their position.
        """

        self._check_open()
        sources = self._resolve_sources(problems)
        named_variants = self._normalize_variants(variants)
        jobs = self.parallel if parallel is None else max(int(parallel), 1)
        with trace.TRACER.span(
            "session.sweep",
            problems=len(sources),
            variants=len(named_variants),
            warm=warm,
        ):
            if jobs > 1:
                return self._sweep_parallel(sources, named_variants, warm, jobs)
            entries: List[SweepEntry] = []
            for source in sources:
                benchmark = self._as_benchmark(source)
                for name, spec in named_variants:
                    variant_config = self._variant_config(spec, benchmark)
                    entries.append(
                        self._run_cell(source, benchmark, name, variant_config, warm)
                    )
            return entries

    def _run_cell(
        self,
        source: ProblemSource,
        benchmark: Optional["BenchmarkSpec"],
        variant: str,
        variant_config: SynthConfig,
        warm: bool,
    ) -> SweepEntry:
        """One serial sweep cell (shared by the serial and fallback paths).

        The cell runs fully serial (``parallel=1`` is forced): a
        ``sweep(parallel=1)`` on a parallel-default session must be a true
        serial baseline, and the parallel sweep's ad-hoc fallback cells must
        not contend with the pool already chewing the registry cells.
        """

        with trace.TRACER.span(
            "sweep.cell",
            label=benchmark.id if benchmark is not None else "<ad-hoc>",
            variant=variant,
            warm=warm,
        ):
            if warm:
                problem = self._resolve_problem(source)
                result = self.run(problem, config=variant_config, parallel=1)
            else:
                problem = benchmark.build() if benchmark is not None else source
                with SynthesisSession(variant_config) as cold:
                    result = cold.run(problem, fresh_state=benchmark is None)
        return SweepEntry(
            label=benchmark.id if benchmark is not None else problem.name,
            variant=variant,
            result=result,
            problem=problem,
            benchmark=benchmark,
        )

    def _sweep_parallel(
        self,
        sources: List[ProblemSource],
        named_variants: List[Tuple[str, Union[SynthConfig, Mapping[str, Any]]]],
        warm: bool,
        jobs: int,
    ) -> List[SweepEntry]:
        """Distribute sweep cells over the worker pool, order-preserving.

        Cell tasks run wholly inside a worker, which persists their
        outcomes to the session's store itself.
        """

        executor = self._executor_for(jobs)
        cells: List[Tuple[ProblemSource, Optional["BenchmarkSpec"], str, SynthConfig, Any]] = []
        for source in sources:
            benchmark = self._as_benchmark(source)
            for name, spec in named_variants:
                variant_config = self._variant_config(spec, benchmark)
                future = (
                    executor.submit_cell(benchmark.id, variant_config, fresh=not warm)
                    if benchmark is not None
                    else None
                )
                cells.append((source, benchmark, name, variant_config, future))

        entries: List[SweepEntry] = []
        for source, benchmark, name, variant_config, future in cells:
            if future is None:
                entries.append(
                    self._run_cell(source, benchmark, name, variant_config, warm)
                )
                continue
            with trace.TRACER.span(
                "sweep.cell", label=benchmark.id, variant=name, warm=warm
            ):
                payload = future.get()[0]
                if payload.trace_events:
                    trace.TRACER.absorb(payload.trace_events)
            problem = self._resolve_problem(source)
            result = payload.to_result(problem)
            entries.append(
                SweepEntry(
                    label=benchmark.id,
                    variant=name,
                    result=result,
                    problem=problem,
                    benchmark=benchmark,
                )
            )
        return entries

    # ------------------------------------------------------------------ resources

    def problem_for(self, benchmark: Union[str, "BenchmarkSpec"]) -> SynthesisProblem:
        """The session's built problem for a benchmark (built once, reused)."""

        if isinstance(benchmark, str):
            from repro.benchmarks import get_benchmark

            benchmark = get_benchmark(benchmark)
        problem = self._built.get(benchmark.id)
        if problem is None:
            problem = benchmark.build()
            self._built[benchmark.id] = problem
            self._benchmark_ids[id(problem)] = benchmark.id
        return problem

    def _executor_for(self, jobs: int) -> "ParallelExecutor":
        """The session's worker pool, (re)built for ``jobs`` workers.

        Workers open the session's store by path -- its upserts are
        concurrent-safe -- and the parent's connection is flushed first so
        workers see everything written so far.
        """

        from repro.synth.parallel import ParallelExecutor

        if self._executor is not None and self._executor.jobs != jobs:
            self._executor.close()
            self._executor = None
        if self._executor is None:
            store_path = None
            if self.store is not None:
                self.store.flush()
                store_path = self.store.path
            self._executor = ParallelExecutor(
                jobs, base_config=self.config, store_path=store_path
            )
        return self._executor

    def clear_memory_caches(self) -> None:
        """Drop in-process memo state but keep the persistent store.

        Simulates a fresh process for store tests and two-pass sweeps: the
        evaluation memo is cleared (and the store flushed), so
        subsequent lookups miss in memory and are answered from disk.
        Snapshot recordings, which a real new process would also rebuild
        cheaply, are left in place on the problems.
        """

        self._check_open()
        self.cache.clear_memory()
        if self.store is not None:
            self.store.flush()

    # ------------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Stop the worker pool, detach the cache, and close (or, when it
        was passed in as an instance, flush) the store."""

        if self._closed:
            return
        for problem in self._registered:
            problem.unregister_cache(self.cache)
        self._registered.clear()
        if self._executor is not None:
            self._executor.close()
            self._executor = None
        if self._owns_store:
            self.store.close()
        elif self.store is not None:
            self.store.flush()
        if self._owns_tracer:
            trace.disable()
            self._owns_tracer = False
        self._closed = True

    def __enter__(self) -> "SynthesisSession":
        self._check_open()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        return self._closed

    def _check_open(self) -> None:
        if self._closed:
            raise RuntimeError("SynthesisSession is closed")

    # ------------------------------------------------------------------ internals

    def _resolve_problem(self, source: ProblemSource) -> SynthesisProblem:
        if isinstance(source, SynthesisProblem):
            return source
        return self.problem_for(source)

    @staticmethod
    def _as_benchmark(source: ProblemSource) -> Optional["BenchmarkSpec"]:
        if isinstance(source, SynthesisProblem):
            return None
        if isinstance(source, str):
            from repro.benchmarks import get_benchmark

            return get_benchmark(source)
        return source

    def _resolve_sources(
        self, problems: Union[str, Iterable[ProblemSource], None]
    ) -> List[ProblemSource]:
        if problems is None or (
            isinstance(problems, str) and problems in ("registry", "all")
        ):
            from repro.benchmarks import all_benchmarks

            return list(all_benchmarks())
        if isinstance(problems, str):
            return [problems]
        return list(problems)

    def _normalize_variants(
        self, variants: Optional[Sequence[VariantSpec]]
    ) -> List[Tuple[str, Union[SynthConfig, Mapping[str, Any]]]]:
        if not variants:
            return [("base", {})]
        named: List[Tuple[str, Union[SynthConfig, Mapping[str, Any]]]] = []
        for i, variant in enumerate(variants):
            if isinstance(variant, tuple):
                name, spec = variant
            elif isinstance(variant, SynthConfig):
                name, spec = f"variant{i}", variant
            elif isinstance(variant, Mapping):
                name = (
                    ",".join(f"{k}={v}" for k, v in variant.items())
                    if variant
                    else "base"
                )
                spec = variant
            else:
                raise TypeError(f"unsupported sweep variant {variant!r}")
            named.append((name, spec))
        return named

    def _variant_config(
        self,
        spec: Union[SynthConfig, Mapping[str, Any]],
        benchmark: Optional["BenchmarkSpec"],
    ) -> SynthConfig:
        if isinstance(spec, SynthConfig):
            config = spec
        else:
            config = replace(self.config, **dict(spec)) if spec else self.config
        if benchmark is not None:
            config = benchmark.make_config(config)
        return config

    def _at_precision(
        self, problem: SynthesisProblem, precision: str
    ) -> SynthesisProblem:
        """The problem itself, or a warm derived copy at ``precision``.

        The derived copy coarsens the class table but *shares* the
        original's spec list, database, snapshot manager and cache
        registration list, so outcomes memoized per precision coexist and
        the snapshot recordings (which are precision-independent: they
        capture candidate-free pre-invoke state) are replayed instead of
        rebuilt.
        """

        if problem.class_table.effect_precision == precision:
            return problem
        key = (id(problem), precision)
        cached = self._derived.get(key)
        if cached is not None and cached[0] is problem:
            return cached[1]
        derived = replace(
            problem, class_table=problem.class_table.coarsened(precision)
        )
        derived._caches = problem._caches
        derived._state_manager = problem.state_manager()
        self._derived[key] = (problem, derived)
        return derived

    def _hint_key(
        self, problem: SynthesisProblem, config: SynthConfig
    ) -> Tuple[int, SynthConfig]:
        # The timeout does not influence *which* expression a (finishing)
        # search returns, so hints survive timeout changes; every other
        # config field can steer the search and keys the hint space.
        return (id(problem), replace(config, timeout_s=None))

    def _hints_for(
        self, problem: SynthesisProblem, config: SynthConfig
    ) -> Optional[Dict[Any, Any]]:
        return self._solution_hints.get(self._hint_key(problem, config))

    def _remember_solutions(
        self, problem: SynthesisProblem, config: SynthConfig, result: SynthesisResult
    ) -> None:
        """Store a successful run's per-spec solutions as future hints.

        Only the spec that triggered each solution's search (the first of
        the tuple: later specs were added by reuse coverage) gets a hint,
        so a hinted repeat replays exactly the cold run's reuse-vs-search
        resolution.
        """

        if not result.success:
            return
        hints = self._solution_hints.setdefault(
            self._hint_key(problem, config), {}
        )
        for solution in result.solutions:
            if solution.specs:
                hints[solution.specs[0]] = solution.expr

    def _state_for(
        self, problem: SynthesisProblem, config: SynthConfig, fresh: bool
    ) -> Optional["StateManager"]:
        if not config.snapshot_state:
            return None
        if fresh:
            if problem.database is None:
                return None
            from repro.synth.state import StateManager

            return StateManager(problem.database)
        return problem.state_manager()

    def _register(self, problem: SynthesisProblem) -> None:
        if all(problem is not seen for seen in self._registered):
            problem.register_cache(self.cache)
            self._registered.append(problem)
