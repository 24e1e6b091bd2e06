"""The :class:`SynthesisSession` engine API.

The paper's evaluation is not one synthesis run but a long sequence of
*related* runs: Table 1 medians repeat each benchmark, Figure 7 sweeps the
four guidance modes and Figure 8 sweeps the three effect-annotation
precisions.

A session is the engine object that owns everything a sequence of runs
shares:

* the base :class:`~repro.synth.config.SynthConfig` (per-run overrides are
  applied on top);
* the built problems of the benchmarks it runs by id;
* the per-problem :class:`~repro.synth.state.StateManager` snapshot
  recordings (held on the problems, reused by the session across runs *and*
  across effect-precision variants: ``run`` derives coarsened problem copies
  that share the original's manager, so a Figure 8 sweep replays recordings
  instead of rebuilding state);
* the worker pool of a parallel sweep (:func:`repro.synth.parallel.start_pool`).

Nothing else outlives a run: every run searches every spec, and every spec
and guard evaluation executes.  Everything a session shares lives in its
process (or its workers) and dies with it.

Typical use::

    from repro.synth import SynthConfig, SynthesisSession

    with SynthesisSession(SynthConfig(timeout_s=30)) as s:
        result = s.run(problem)                       # one warm run
        entries = s.sweep(                            # problems x variants
            ["S1", "S4"],
            variants=[("precise", {}), ("class", {"effect_precision": "class"})],
        )

``session.sweep`` runs every cell of the Table 1 / Figure 7 / Figure 8
harnesses, of :func:`~repro.benchmarks.runner.run_benchmark`'s cold
repetitions and of the ``parallel`` arm of ``scripts/arm_identity.py``; a
cell's time is its run's ``SynthesisResult.elapsed_s``, which excludes the
problem build.  Every result carries the run's counters
(``result.counters``, keyed ``layer.name``): the session's snapshot
managers outlive a run, so each result reports only the work that run
added to them.

Tracing is the session's only other duty: a session built with a
``trace_path`` (or, by default, the ``REPRO_TRACE`` environment variable)
enables :mod:`repro.obs.trace` for its lifetime, which wraps
``SynthesisSession.run`` and the engine's other wrap sites, and disables it
on ``close``.  Tracing belongs to the session, not to a config, so it
covers every run and every sweep cell, serial or parallel: a parallel
sweep absorbs the spans its workers collected.
"""

from __future__ import annotations

import os
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
from repro.synth.config import SynthConfig
from repro.synth.goal import SynthesisProblem
from repro.synth.synthesizer import SynthesisResult, run_synthesis

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.pool import Pool

    from repro.benchmarks.registry import BenchmarkSpec
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
        top with :func:`dataclasses.replace`.
    parallel:
        Default worker count for ``sweep`` (which also takes a per-call
        ``parallel=`` override).  With more than one job the session owns a
        lazily-started worker pool (:func:`repro.synth.parallel.start_pool`)
        that runs whole sweep cells.  ``run`` is always serial.
    trace_path:
        The JSONL file this session traces every run and sweep cell to
        (:mod:`repro.obs.trace`); ``None`` means the ``REPRO_TRACE``
        environment variable if it is set, and no tracing otherwise.
    """

    def __init__(
        self,
        config: Optional[SynthConfig] = None,
        parallel: int = 1,
        trace_path: Optional[str] = None,
    ) -> None:
        self.config = config or SynthConfig()
        #: Tracer lifecycle: a session with a trace file owns the global
        #: tracer and closes it on ``close``.  If a tracer is already live
        #: (an outer session, or a worker's collecting tracer) this session
        #: nests inside it instead of clobbering its sink.
        trace_path = trace_path or os.environ.get("REPRO_TRACE") or None
        self._owns_tracer = False
        if trace_path and trace.TRACER is None:
            trace.enable(trace_path)
            self._owns_tracer = True
        self.parallel = max(int(parallel), 1)
        self._closed = False
        #: Lazily-started worker pool and its size (see :meth:`_pool_for`).
        self._pool: Optional["Pool"] = None
        self._pool_jobs = 0
        #: Benchmark-id -> built problem, so repeated ``run("S1")`` /
        #: ``sweep`` calls reuse one warm problem per benchmark.
        self._built: Dict[str, SynthesisProblem] = {}
        #: (id(problem), precision) -> (problem, derived copy) for the
        #: warm precision variants (strong ref keeps ids stable).
        self._derived: Dict[Tuple[int, str], Tuple[SynthesisProblem, SynthesisProblem]] = {}

    # ------------------------------------------------------------------ running

    def run(
        self,
        problem: ProblemSource,
        config: Optional[SynthConfig] = None,
        fresh_state: bool = False,
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
        *shares* the original's snapshot manager, so precision sweeps stay
        warm.  ``fresh_state=True`` gives this run a brand-new snapshot
        manager (cold state) instead of the problem's long-lived one.  The
        run is serial, whatever the session's ``parallel``: the worker pool
        runs only whole ``sweep`` cells.
        """

        self._check_open()
        base = config if config is not None else self.config
        effective = replace(base, **overrides) if overrides else base
        benchmark = self._as_benchmark(problem)
        if benchmark is not None:
            effective = benchmark.make_config(effective)
        resolved = self._resolve_problem(problem)
        runner = self._at_precision(resolved, effective.effect_precision)
        return run_synthesis(
            runner, effective, state=self._state_for(runner, effective, fresh_state)
        )

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
        all cells share this session's built problems and snapshot
        recordings -- a benchmark's variants run back to back, so e.g. a
        Figure 8 precision sweep reuses the recordings its first variant
        captured.
        ``warm=False`` isolates every cell in a throwaway session with a
        freshly built problem: fully cold measurements, as the Figure 7
        guidance-mode comparison requires.

        ``parallel`` (defaulting to the session's ``parallel``) distributes
        whole registry cells across the session's worker pool, in
        deterministic problem-major result order.  Warm parallel cells are
        warm *per worker* (each worker holds a long-lived session); cold
        cells are isolated in the worker exactly as they are serially.
        Cells whose source is an ad-hoc problem object cannot be shipped to
        a worker and run in the parent, interleaved at their position.
        """

        self._check_open()
        sources = self._resolve_sources(problems)
        named_variants = self._normalize_variants(variants)
        jobs = self.parallel if parallel is None else max(int(parallel), 1)
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
        """One sweep cell run in this process (every cell of a serial
        sweep, and the ad-hoc cells of a parallel one)."""

        if warm:
            problem = self._resolve_problem(source)
            result = self.run(problem, config=variant_config)
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

        Cell tasks run wholly inside a worker; only their results come
        back, with the spans a traced session's cells collected.  The pool
        starts with the first registry cell.
        """

        from repro.synth.parallel import run_cell

        # A cell collects spans when this process traces as it is submitted.
        collect = trace.TRACER is not None
        cells: List[Tuple[ProblemSource, Optional["BenchmarkSpec"], str, SynthConfig, Any]] = []
        for source in sources:
            benchmark = self._as_benchmark(source)
            for name, spec in named_variants:
                variant_config = self._variant_config(spec, benchmark)
                future = (
                    self._pool_for(jobs).apply_async(
                        run_cell, (benchmark.id, variant_config, warm, collect)
                    )
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
            payload = future.get()
            if payload.trace_events and trace.TRACER is not None:
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
        return problem

    def _pool_for(self, jobs: int) -> "Pool":
        """The session's worker pool, (re)started for ``jobs`` workers."""

        if self._pool_jobs != jobs:
            self._stop_pool()
        if self._pool is None:
            from repro.synth.parallel import start_pool

            self._pool = start_pool(jobs, self.config)
            self._pool_jobs = jobs
        return self._pool

    def _stop_pool(self) -> None:
        """Terminate the workers, abandoning unconsumed cells (the rest of
        a sweep whose caller raised part-way): workers hold nothing that
        outlives them."""

        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool, self._pool_jobs = None, 0

    # ------------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Stop the worker pool and close the session's tracer, if any."""

        if self._closed:
            return
        self._stop_pool()
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
        original's spec list, database and snapshot manager, so the snapshot
        recordings (which are precision-independent: they capture
        candidate-free pre-invoke state) are replayed instead of rebuilt.
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
        derived._state_manager = problem.state_manager()
        self._derived[key] = (problem, derived)
        return derived

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
