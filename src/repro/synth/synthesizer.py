"""The top-level synthesis pipeline.

:func:`run_synthesis` realises the full RbSyn loop:

1. for every spec, search for an expression passing it (Algorithm 2),
   first re-trying expressions that already solved earlier specs (Section 4,
   "Optimizations": the bottleneck becomes the number of unique paths, not
   the number of tests);
2. merge the per-spec solutions into a single branching method
   (Algorithm 1), synthesizing and reusing branch conditions as needed;
3. report the result together with its wall time and the run's counters
   (:class:`~repro.obs.metrics.Counters`), which the evaluation harnesses
   turn into Table 1 / Figures 7 and 8.

The public entry point is :class:`repro.synth.session.SynthesisSession`,
which owns the warm resources (built problems, snapshot managers) and calls
:func:`run_synthesis` with them; nothing else carries over between runs,
so every run searches every spec.  Nothing here times itself: a traced run
is timed per layer from outside, by the wrap sites of
:mod:`repro.obs.trace` (``generate_for_spec`` and ``evaluate_spec`` are
looked up here by name).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.lang import ast as A
from repro.obs.metrics import METRICS_SCHEMA_VERSION, Baseline, Counters
from repro.synth.config import SynthConfig
from repro.synth.goal import (
    Budget,
    SynthesisProblem,
    SynthesisTimeout,
    evaluate_spec,
)
from repro.synth.merge import Merger, SpecSolution
from repro.synth.search import generate_for_spec, search_counters
from repro.synth.simplify import simplify
from repro.synth.state import StateManager


@dataclass
class SynthesisResult:
    """Outcome of one synthesis run."""

    problem: SynthesisProblem
    success: bool
    program: Optional[A.MethodDef] = None
    solutions: List[SpecSolution] = field(default_factory=list)
    elapsed_s: float = 0.0
    timed_out: bool = False
    #: This run's counters, keyed ``layer.name`` (``docs/API.md``,
    #: "Metrics"): the search's own plus what the snapshot manager,
    #: database and problem counted during the run.
    counters: Counters = field(default_factory=Counters)

    @property
    def metrics(self) -> dict:
        """``counters`` nested per layer under ``stats``, schema-versioned."""

        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "stats": self.counters.as_dict(),
        }

    @property
    def method_size(self) -> Optional[int]:
        """Number of AST nodes of the synthesized method (Table 1, Meth Size)."""

        return A.node_count(self.program.body) if self.program is not None else None

    @property
    def paths(self) -> Optional[int]:
        """Number of paths through the synthesized method (Table 1, # Syn Paths)."""

        return A.count_paths(self.program) if self.program is not None else None

    def pretty(self) -> str:
        if self.program is None:
            return "<no solution>"
        from repro.lang.pretty import pretty_block

        return pretty_block(self.program)

    def __str__(self) -> str:
        status = "ok" if self.success else ("timeout" if self.timed_out else "failed")
        return f"<SynthesisResult {self.problem.name} {status} {self.elapsed_s:.2f}s>"


def run_synthesis(
    problem: SynthesisProblem,
    config: SynthConfig,
    state: Optional[StateManager] = None,
) -> SynthesisResult:
    """Synthesize a method satisfying every spec of ``problem``.

    The engine core: assumes ``problem``'s class table is already at
    ``config.effect_precision`` (the session derives precision variants so
    warm resources survive; see ``SynthesisSession.run``).  ``state`` is
    the session's warm snapshot manager; the result reports only the
    counts this run added to it.  ``elapsed_s`` is the run's budget clock,
    which starts here, after the problem build.
    """

    budget = Budget(config.timeout_s)
    if state is not None:
        state.verify_every = config.verify_recordings
    run = _RunCounters(problem, state)
    counters = run.counters
    solutions: List[SpecSolution] = []

    try:
        for spec in problem.specs:
            if _reuse_solution(problem, spec, solutions, budget, state):
                continue
            expr = generate_for_spec(
                problem, spec, config, budget=budget, counters=counters,
                state=state,
            )
            if expr is None:
                return run.finish(
                    SynthesisResult(
                        problem,
                        success=False,
                        solutions=solutions,
                        elapsed_s=budget.elapsed(),
                    )
                )
            simplified = simplify(expr)
            if not evaluate_spec(
                problem, problem.make_program(simplified), spec, state=state
            ).ok:
                simplified = expr
            solutions.append(SpecSolution(expr=simplified, specs=(spec,)))

        merger = Merger(
            problem, config, budget=budget, counters=counters, state=state
        )
        program = merger.merge(solutions)
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


class _RunCounters:
    """The counters of one run.

    ``counters`` starts with the run's fresh search counters; ``finish``
    adds what the long-lived owners -- the problem, the snapshot manager
    and the problem's database -- counted since the run began, so a run
    sharing a session's warm snapshot manager reports only its own work.
    """

    def __init__(
        self, problem: SynthesisProblem, state: Optional[StateManager]
    ) -> None:
        self.counters = search_counters()
        database = problem.database
        self.baseline = Baseline(
            problem.counters,
            state.counters if state is not None else None,
            database.counters if database is not None else None,
        )

    def finish(self, result: SynthesisResult) -> SynthesisResult:
        """Fold the owners' deltas in and attach the counters."""

        self.counters.merge(self.baseline.delta())
        result.counters = self.counters
        return result


def _reuse_solution(
    problem: SynthesisProblem,
    spec,
    solutions: List[SpecSolution],
    budget: Budget,
    state: Optional[StateManager] = None,
) -> bool:
    """Try expressions that solved earlier specs before searching from scratch.

    Each trial executes the spec, so the budget is checked before every
    evaluation -- otherwise a goal with many solved specs could run far
    past ``timeout_s`` without ever raising :class:`SynthesisTimeout`.
    """

    for i, solution in enumerate(solutions):
        if budget.expired():
            raise SynthesisTimeout(
                f"timeout while reusing solutions for {spec.name!r}"
            )
        outcome = evaluate_spec(
            problem, problem.make_program(solution.expr), spec, state=state
        )
        if outcome.ok:
            solutions[i] = solution.covering(spec)
            return True
    return False
