"""The synthesis work-list (Algorithm 2, ``Generate``).

The search maintains a priority queue of partial candidates.  Popping a
candidate expands its left-most hole one step (type-guided for typed holes,
effect-guided for effect holes).  Hole-free results are immediately run
against the spec: passing candidates are returned, candidates failing an
assertion with a non-pure read effect are wrapped by rule S-Eff and pushed
back, everything else is discarded.  Candidates that still contain holes go
back on the queue unless they exceed the size bound.

The queue is ordered as in Section 4: by number of passed assertions
(descending), then program size (ascending).  The alternative orderings are
kept for the ablation benchmarks.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.lang import ast as A
from repro.lang import types as T
from repro.analysis.footprint import footprint
from repro.analysis.prune import StaticPruner
from repro.obs import trace
from repro.synth.cache import SynthCache
from repro.synth.config import ORDER_FIFO, ORDER_PAPER, ORDER_SIZE, SynthConfig
from repro.synth.effect_guided import expand_effect_hole, insert_effect_hole
from repro.synth.enumerate import expand_typed_hole
from repro.synth.goal import (
    Budget,
    Spec,
    SynthesisProblem,
    SynthesisTimeout,
    evaluate_guard,
    evaluate_spec,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.synth.state import StateManager


@dataclass
class SearchStats:
    """Counters describing one work-list search."""

    expansions: int = 0
    evaluated: int = 0
    pushed: int = 0
    effect_wraps: int = 0
    pruned_size: int = 0
    timed_out: bool = False
    # Evaluation-cache counters (filled from the run's SynthCache; spec and
    # guard memo lookups combined).  ``cache_redundant`` counts the
    # re-executions a disabled cache observed -- the work the memo removes.
    cache_hits: int = 0
    cache_misses: int = 0
    cache_redundant: int = 0
    cache_evictions: int = 0
    # Persistent-store counters (repro.synth.store, attached to the run's
    # SynthCache by a SynthesisSession): outcomes answered from / looked up
    # against the on-disk spec-outcome store.
    store_hits: int = 0
    store_misses: int = 0
    # State-management counters (filled from the run's StateManager, see
    # repro.synth.state): snapshot restores vs. full reset+setup rebuilds,
    # plus the raw number of reset-closure invocations.
    state_restores: int = 0
    state_rebuilds: int = 0
    reset_replays: int = 0
    # Query-planner counters (repro.activerecord.database.QueryStats, filled
    # from the problem database's stats): spec-evaluation queries answered
    # through a hash index vs. full-table scans.
    index_hits: int = 0
    index_scans: int = 0
    # Cross-run solution reuse (the session's solution hints): specs whose
    # search was skipped because the previous run's solution re-validated.
    hint_reuses: int = 0
    # Parallel-subsystem counters (repro.synth.parallel): tasks dispatched
    # to the worker pool for this run, and speculative per-spec searches
    # whose result was discarded because solution reuse covered the spec
    # first (their work is NOT folded into the other counters, keeping the
    # merged totals equal to a serial run's).
    parallel_tasks: int = 0
    parallel_discarded: int = 0
    # Static-analysis counters (repro.analysis, behind
    # SynthConfig.static_pruning): candidate evaluations answered from the
    # normal-form outcome memo instead of the interpreter (disjoint from
    # ``evaluated``), footprint/writer-list memo hits, snapshot restores
    # skipped through the write-pure fast-path (mirrors
    # StateStats.pure_skips), and S-Eff wraps whose candidate could not be
    # typed so the hole fell back to the goal's return type (each one a
    # would-be silent annotation/typing bug; see effect_guided).
    static_prunes: int = 0
    footprint_hits: int = 0
    state_pure_skips: int = 0
    effect_type_fallbacks: int = 0
    # Effect-hole expansions whose S-EffApp writer list was reordered by the
    # most-specific-first sort (repro.analysis.footprint.writers_for_effect)
    # relative to the declaration-order scan; counted per expansion, memo
    # hit or not, so merged parallel counters equal a serial run's.
    writer_reorders: int = 0

    def merge(self, other: "SearchStats") -> None:
        """Fold another run's (or worker's) counters into this one.

        Every numeric field must be aggregated here -- a field-completeness
        test (``tests/test_parallel.py``) fails when a counter is added to
        the dataclass without merge support, because the parallel subsystem
        relies on merged worker counters matching serial totals.
        """

        self.expansions += other.expansions
        self.evaluated += other.evaluated
        self.pushed += other.pushed
        self.effect_wraps += other.effect_wraps
        self.pruned_size += other.pruned_size
        self.timed_out = self.timed_out or other.timed_out
        self.cache_hits += other.cache_hits
        self.cache_misses += other.cache_misses
        self.cache_redundant += other.cache_redundant
        self.cache_evictions += other.cache_evictions
        self.store_hits += other.store_hits
        self.store_misses += other.store_misses
        self.state_restores += other.state_restores
        self.state_rebuilds += other.state_rebuilds
        self.reset_replays += other.reset_replays
        self.index_hits += other.index_hits
        self.index_scans += other.index_scans
        self.hint_reuses += other.hint_reuses
        self.parallel_tasks += other.parallel_tasks
        self.parallel_discarded += other.parallel_discarded
        self.static_prunes += other.static_prunes
        self.footprint_hits += other.footprint_hits
        self.state_pure_skips += other.state_pure_skips
        self.effect_type_fallbacks += other.effect_type_fallbacks
        self.writer_reorders += other.writer_reorders

    def as_dict(self) -> dict:
        """Every counter by field name (bench reports, completeness tests)."""

        from dataclasses import fields

        return {f.name: getattr(self, f.name) for f in fields(self)}


class _WorkList:
    """A priority queue of ``(passed_asserts, expression)`` entries."""

    def __init__(self, order: str) -> None:
        self.order = order
        self._heap: List[Tuple[Tuple, int, int, A.Node]] = []
        self._counter = itertools.count()
        self._seen: set[A.Node] = set()

    def push(self, expr: A.Node, passed: int) -> bool:
        """Queue ``expr`` unless a structurally equal candidate was queued."""

        if expr in self._seen:
            return False
        self._seen.add(expr)
        count = next(self._counter)
        if self.order == ORDER_PAPER:
            priority: Tuple = (-passed, A.node_count(expr), count)
        elif self.order == ORDER_SIZE:
            priority = (A.node_count(expr), count)
        elif self.order == ORDER_FIFO:
            priority = (count,)
        else:  # pragma: no cover - validated by SynthConfig
            raise ValueError(self.order)
        heapq.heappush(self._heap, (priority, count, passed, expr))
        return True

    def pop(self) -> Tuple[int, A.Node]:
        _, _, passed, expr = heapq.heappop(self._heap)
        return passed, expr

    def __bool__(self) -> bool:
        return bool(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


def _expand(
    expr: A.Node,
    problem: SynthesisProblem,
    config: SynthConfig,
    stats: Optional[SearchStats] = None,
) -> List[A.Node]:
    """One-step expansion of the left-most hole of ``expr``.

    ``first_hole`` descends only into subtrees that contain a hole (each
    node knows whether it does) and is memoized on the node.
    """

    site = A.first_hole(expr)
    if site is None:
        return []
    if isinstance(site.hole, A.TypedHole):
        return expand_typed_hole(expr, site, problem, config)
    return expand_effect_hole(expr, site, problem, config, stats=stats)


def generate_for_spec(
    problem: SynthesisProblem,
    spec: Spec,
    config: SynthConfig,
    budget: Optional[Budget] = None,
    stats: Optional[SearchStats] = None,
    root: Optional[A.Node] = None,
    cache: Optional[SynthCache] = None,
    state: Optional["StateManager"] = None,
) -> Optional[A.Node]:
    """Search for an expression that makes ``spec`` pass (Algorithm 2).

    Returns the expression, or ``None`` when the search space or candidate
    budget is exhausted.  Raises :class:`SynthesisTimeout` when the time
    budget expires.
    """

    tracer = trace.TRACER
    if not tracer.enabled:
        return _generate_for_spec_impl(
            problem, spec, config, budget, stats, root, cache, state
        )
    with tracer.span("search.spec", spec=spec.name) as span:
        result = _generate_for_spec_impl(
            problem, spec, config, budget, stats, root, cache, state
        )
        span.annotate(found=result is not None)
        return result


def _generate_for_spec_impl(
    problem: SynthesisProblem,
    spec: Spec,
    config: SynthConfig,
    budget: Optional[Budget] = None,
    stats: Optional[SearchStats] = None,
    root: Optional[A.Node] = None,
    cache: Optional[SynthCache] = None,
    state: Optional["StateManager"] = None,
) -> Optional[A.Node]:
    budget = budget or Budget(config.timeout_s)
    stats = stats if stats is not None else SearchStats()
    cache = cache if cache is not None else SynthCache.from_config(config)
    worklist = _WorkList(config.exploration_order)
    worklist.push(root if root is not None else A.TypedHole(problem.ret_type), 0)
    # The static pruner is per-search (one spec, one baseline), so its
    # normal-form outcome memo can never leak an outcome across specs.
    pruner = StaticPruner(problem, stats) if config.static_pruning else None

    while worklist:
        if budget.expired():
            stats.timed_out = True
            raise SynthesisTimeout(f"timeout while solving {spec.name!r}")
        # Pruned candidates count against the budget exactly like evaluated
        # ones: with pruning on, every prune replaces one evaluation the
        # pruning-off search performs, so both exhaust the budget at the
        # same candidate and synthesize identical programs.
        if stats.evaluated + stats.static_prunes > config.max_candidates:
            return None

        passed, expr = worklist.pop()
        stats.expansions += 1
        if trace.TRACER.enabled and stats.expansions % 64 == 0:
            # Cumulative counters every 64 expansions: a cheap progress
            # timeline of the enumeration without a span per pop.
            trace.TRACER.event(
                "search.batch",
                expansions=stats.expansions,
                evaluated=stats.evaluated,
                pushed=stats.pushed,
                queue=len(worklist),
            )
        for candidate in _expand(expr, problem, config, stats):
            if budget.expired():
                stats.timed_out = True
                raise SynthesisTimeout(f"timeout while solving {spec.name!r}")
            if A.has_holes(candidate):
                if A.node_count(candidate) <= config.max_size:
                    if worklist.push(candidate, passed):
                        stats.pushed += 1
                else:
                    stats.pruned_size += 1
                continue

            key = None
            if pruner is not None:
                key = pruner.key_for(candidate)
                reused = pruner.outcome_for(key)
                if reused is not None:
                    # A semantically equivalent candidate already ran; its
                    # outcome carries the same ok/passed_asserts/failure
                    # fields, so every decision below is byte-identical to
                    # what the evaluation would have produced.
                    stats.static_prunes += 1
                    outcome = reused
                else:
                    stats.evaluated += 1
                    outcome = evaluate_spec(
                        problem,
                        problem.make_program(candidate),
                        spec,
                        cache=cache,
                        state=state,
                        static_write_pure=pruner.write_pure(candidate),
                    )
                    pruner.record(key, outcome)
            else:
                stats.evaluated += 1
                outcome = evaluate_spec(
                    problem,
                    problem.make_program(candidate),
                    spec,
                    cache=cache,
                    state=state,
                )
            if outcome.ok:
                return candidate
            if config.use_effects and outcome.has_effect_error:
                wrapped = insert_effect_hole(
                    candidate, outcome.failure.read_effect, problem, stats=stats
                )
                # The S-Eff wrap adds nodes (a let, a seq and two holes), so
                # the size bound must hold for the *wrapped* candidate --
                # checking the bare candidate would let oversized programs
                # enter the work list unpruned.
                if A.node_count(wrapped) > config.max_size:
                    stats.pruned_size += 1
                elif worklist.push(wrapped, outcome.passed_asserts):
                    stats.effect_wraps += 1
    return None


def generate_guard(
    problem: SynthesisProblem,
    positive_specs: Sequence[Spec],
    negative_specs: Sequence[Spec],
    config: SynthConfig,
    budget: Optional[Budget] = None,
    stats: Optional[SearchStats] = None,
    initial_candidates: Sequence[A.Node] = (),
    cache: Optional[SynthCache] = None,
    state: Optional["StateManager"] = None,
) -> Optional[A.Node]:
    """Synthesize a branch condition (Section 3.3).

    The guard must evaluate truthy under every positive spec's setup and
    falsy under every negative spec's setup.  ``initial_candidates`` are
    tried first (existing guards, their negations, ``true``), implementing
    the reuse optimizations of Section 4.
    """

    tracer = trace.TRACER
    if not tracer.enabled:
        return _generate_guard_impl(
            problem,
            positive_specs,
            negative_specs,
            config,
            budget,
            stats,
            initial_candidates,
            cache,
            state,
        )
    with tracer.span(
        "search.guard", positive=len(positive_specs), negative=len(negative_specs)
    ) as span:
        result = _generate_guard_impl(
            problem,
            positive_specs,
            negative_specs,
            config,
            budget,
            stats,
            initial_candidates,
            cache,
            state,
        )
        span.annotate(found=result is not None)
        return result


def _generate_guard_impl(
    problem: SynthesisProblem,
    positive_specs: Sequence[Spec],
    negative_specs: Sequence[Spec],
    config: SynthConfig,
    budget: Optional[Budget] = None,
    stats: Optional[SearchStats] = None,
    initial_candidates: Sequence[A.Node] = (),
    cache: Optional[SynthCache] = None,
    state: Optional["StateManager"] = None,
) -> Optional[A.Node]:
    budget = budget or Budget(config.timeout_s)
    stats = stats if stats is not None else SearchStats()
    cache = cache if cache is not None else SynthCache.from_config(config)

    def accepted(guard: A.Node) -> bool:
        stats.evaluated += 1
        # Guards are mostly pure reads, so consecutive trials against the
        # same spec can skip the snapshot restore between them when the
        # static footprint proves the previous guard wrote nothing.
        pure = config.static_pruning and footprint(
            guard, dict(problem.param_env), problem.class_table, stats
        ).write.is_pure
        for spec in positive_specs:
            if not evaluate_guard(
                problem,
                guard,
                spec,
                expect=True,
                cache=cache,
                state=state,
                static_write_pure=pure,
            ):
                return False
        for spec in negative_specs:
            if not evaluate_guard(
                problem,
                guard,
                spec,
                expect=False,
                cache=cache,
                state=state,
                static_write_pure=pure,
            ):
                return False
        return True

    for guard in initial_candidates:
        if budget.expired():
            stats.timed_out = True
            raise SynthesisTimeout("timeout while synthesizing a guard")
        if accepted(guard):
            return guard

    worklist = _WorkList(config.exploration_order)
    worklist.push(A.TypedHole(T.BOOL), 0)

    while worklist:
        if budget.expired():
            stats.timed_out = True
            raise SynthesisTimeout("timeout while synthesizing a guard")
        if stats.evaluated > config.max_candidates:
            return None

        _, expr = worklist.pop()
        stats.expansions += 1
        for candidate in _expand(expr, problem, config, stats):
            # One expansion can yield many hole-free candidates, each of
            # which runs every positive and negative spec; without this
            # per-candidate guard (mirroring generate_for_spec) a single
            # expansion could evaluate far past the timeout.
            if budget.expired():
                stats.timed_out = True
                raise SynthesisTimeout("timeout while synthesizing a guard")
            if A.has_holes(candidate):
                if A.node_count(candidate) <= config.guard_max_size:
                    if worklist.push(candidate, 0):
                        stats.pushed += 1
                else:
                    stats.pruned_size += 1
                continue
            if accepted(candidate):
                return candidate
    return None
