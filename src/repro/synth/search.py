"""The synthesis work-list (Algorithm 2, ``Generate``).

The search maintains a priority queue of partial candidates.  Popping a
candidate expands its left-most hole one step (type-guided for typed holes,
effect-guided for effect holes).  Hole-free results are immediately run
against the spec: passing candidates are returned, candidates failing an
assertion with a non-pure read effect are wrapped by rule S-Eff and pushed
back, everything else is discarded.  Candidates that still contain holes go
back on the queue unless they exceed the size bound.

Most queued candidates are never popped, so the queue holds
:class:`~repro.lang.ast.Pending` entries: a refinement's size and hole count
come from construction-time fields, and its tree is built only when it is
popped, when it is hole-free (it is evaluated at once), or when the type
narrowing re-check of the expansion needs it.  Duplicates are dropped at pop
time: a tree derived twice is queued twice but expanded once.

The queue is ordered as in Section 4: by number of passed assertions
(descending), then program size (ascending), then push order.

The candidate budget (``SynthConfig.max_candidates``) is checked before
every evaluation, so at most that many candidates are run (or, in spec
search, answered by the static pruner).  The time budget is checked at
every pop and before every evaluation: queuing a refinement is cheap, so
it is not checked per push.
"""

from __future__ import annotations

import heapq
import itertools
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from repro.lang import ast as A
from repro.lang import types as T
from repro.analysis.prune import StaticPruner
from repro.obs.metrics import Counters
from repro.synth.config import SynthConfig
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


#: The search's counters, owned by each run as a fresh :class:`Counters`
#: (meanings: ``docs/API.md``, "Metrics").
#: ``search.reset_replays`` is the problem's (``SynthesisProblem.counters``).
SEARCH_COUNTERS = (
    "search.expansions",
    "search.evaluated",
    "search.pushed",
    "search.effect_wraps",
    "search.pruned_size",
    "search.static_prunes",
    "search.footprint_hits",
    "search.effect_type_fallbacks",
    "search.writer_reorders",
)


def search_counters() -> Counters:
    """A fresh, all-zero set of :data:`SEARCH_COUNTERS`."""

    return Counters.fromkeys(SEARCH_COUNTERS, 0)


class _WorkList:
    """A priority queue of ``(passed_asserts, entry)`` pairs: most passed
    assertions first, then smallest, then first pushed.

    An entry's tree is built when it is popped.  A tree equal to one popped
    before is skipped: equal trees tie on priority (their size and
    ``passed_asserts`` are functions of the tree), so the first one pushed
    is the one expanded.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, int, A.Pending]] = []
        self._counter = itertools.count()
        self._popped: set[A.Node] = set()

    def push(self, entry: A.Pending, passed: int) -> None:
        heapq.heappush(
            self._heap, (-passed, entry.size, next(self._counter), entry)
        )

    def pop(self) -> Optional[Tuple[int, A.Node]]:
        """The best queued tree not popped before, or ``None`` if none is left."""

        while self._heap:
            negated, _, _, entry = heapq.heappop(self._heap)
            expr = entry.build()
            if expr not in self._popped:
                self._popped.add(expr)
                return -negated, expr
        return None

    def __len__(self) -> int:
        return len(self._heap)


def _expand(
    expr: A.Node,
    problem: SynthesisProblem,
    config: SynthConfig,
    counters: Optional[Counters] = None,
) -> List[A.Pending]:
    """One-step expansion of the left-most hole of ``expr``.

    ``first_hole`` walks down into the first child that contains a hole
    (each node knows how many it does).
    """

    site = A.first_hole(expr)
    if site is None:
        return []
    if isinstance(site.hole, A.TypedHole):
        return expand_typed_hole(expr, site, problem, config)
    return expand_effect_hole(expr, site, problem, config, counters=counters)


def generate_for_spec(
    problem: SynthesisProblem,
    spec: Spec,
    config: SynthConfig,
    budget: Optional[Budget] = None,
    counters: Optional[Counters] = None,
    root: Optional[A.Node] = None,
    state: Optional["StateManager"] = None,
) -> Optional[A.Node]:
    """Search for an expression that makes ``spec`` pass (Algorithm 2).

    Returns the expression, or ``None`` when the search space or candidate
    budget is exhausted.  Raises :class:`SynthesisTimeout` when the time
    budget expires.
    """

    budget = budget or Budget(config.timeout_s)
    counters = counters if counters is not None else search_counters()
    worklist = _WorkList()
    worklist.push(
        A.Pending.of(root if root is not None else A.TypedHole(problem.ret_type)), 0
    )
    # The static pruner is per-search (one spec, one baseline), so its
    # normal-form outcome memo can never leak an outcome across specs.
    pruner = StaticPruner(problem, counters) if config.static_pruning else None

    while True:
        if budget.expired():
            raise SynthesisTimeout(f"timeout while solving {spec.name!r}")
        popped = worklist.pop()
        if popped is None:
            return None
        passed, expr = popped
        counters["search.expansions"] += 1
        for entry in _expand(expr, problem, config, counters):
            if entry.holes:
                if entry.size <= config.max_size:
                    worklist.push(entry, passed)
                    counters["search.pushed"] += 1
                else:
                    counters["search.pruned_size"] += 1
                continue
            # One expansion can yield many hole-free candidates; the budget
            # binds before each of them runs, not only at the next pop.
            if budget.expired():
                raise SynthesisTimeout(f"timeout while solving {spec.name!r}")
            # Pruned candidates count against the budget exactly like
            # evaluated ones: with pruning on, every prune replaces one
            # evaluation the pruning-off search performs, so both exhaust
            # the budget at the same candidate and synthesize identical
            # programs.
            if (
                counters["search.evaluated"] + counters["search.static_prunes"]
                >= config.max_candidates
            ):
                return None

            candidate = entry.build()
            outcome = None
            if pruner is not None:
                key = pruner.key_for(candidate)
                outcome = pruner.outcome_for(key)
            if outcome is not None:
                # A semantically equivalent candidate already ran; its
                # outcome carries the same ok/passed_asserts/failure
                # fields, so every decision below is byte-identical to
                # what the evaluation would have produced.
                counters["search.static_prunes"] += 1
            else:
                counters["search.evaluated"] += 1
                outcome = evaluate_spec(
                    problem, problem.make_program(candidate), spec, state=state
                )
                if pruner is not None:
                    pruner.record(key, outcome)
            if outcome.ok:
                return candidate
            if config.use_effects and outcome.has_effect_error:
                wrapped = insert_effect_hole(
                    candidate, outcome.failure.read_effect, problem, counters=counters
                )
                # The S-Eff wrap adds nodes (a let, a seq and two holes), so
                # the size bound must hold for the *wrapped* candidate --
                # checking the bare candidate would let oversized programs
                # enter the work list unpruned.
                if A.node_count(wrapped) > config.max_size:
                    counters["search.pruned_size"] += 1
                else:
                    worklist.push(A.Pending.of(wrapped), outcome.passed_asserts)
                    counters["search.effect_wraps"] += 1


def generate_guard(
    problem: SynthesisProblem,
    positive_specs: Sequence[Spec],
    negative_specs: Sequence[Spec],
    config: SynthConfig,
    budget: Optional[Budget] = None,
    counters: Optional[Counters] = None,
    initial_candidates: Sequence[A.Node] = (),
    state: Optional["StateManager"] = None,
) -> Optional[A.Node]:
    """Synthesize a branch condition (Section 3.3).

    The guard must evaluate truthy under every positive spec's setup and
    falsy under every negative spec's setup.  ``initial_candidates`` are
    tried first (existing guards, their negations, ``true``), implementing
    the reuse optimizations of Section 4.
    """

    budget = budget or Budget(config.timeout_s)
    counters = counters if counters is not None else search_counters()

    def accepted(guard: A.Node) -> bool:
        counters["search.evaluated"] += 1
        for spec in positive_specs:
            if not evaluate_guard(problem, guard, spec, expect=True, state=state):
                return False
        for spec in negative_specs:
            if not evaluate_guard(problem, guard, spec, expect=False, state=state):
                return False
        return True

    def exhausted() -> bool:
        return counters["search.evaluated"] >= config.max_candidates

    for guard in initial_candidates:
        if budget.expired():
            raise SynthesisTimeout("timeout while synthesizing a guard")
        if exhausted():
            return None
        if accepted(guard):
            return guard

    worklist = _WorkList()
    worklist.push(A.Pending.of(A.TypedHole(T.BOOL)), 0)

    while True:
        if budget.expired():
            raise SynthesisTimeout("timeout while synthesizing a guard")
        popped = worklist.pop()
        if popped is None:
            return None
        _, expr = popped
        counters["search.expansions"] += 1
        for entry in _expand(expr, problem, config, counters):
            if entry.holes:
                if entry.size <= config.guard_max_size:
                    worklist.push(entry, 0)
                    counters["search.pushed"] += 1
                else:
                    counters["search.pruned_size"] += 1
                continue
            # One expansion can yield many hole-free candidates, each of
            # which runs every positive and negative spec; without this
            # per-candidate guard (mirroring generate_for_spec) a single
            # expansion could evaluate far past the timeout.
            if budget.expired():
                raise SynthesisTimeout("timeout while synthesizing a guard")
            if exhausted():
                return None
            candidate = entry.build()
            if accepted(candidate):
                return candidate
