"""Merging per-spec solutions into one branching program (Section 3.3).

After type- and effect-guided synthesis has produced an expression ``e_i``
for every spec, the merger:

1. synthesizes a branch condition ``b_i`` for every solution tuple
   ``<e_i, b_i, Psi_i>`` -- an expression that evaluates truthy under the
   setups of the specs the tuple covers (``true`` and previously synthesized
   guards/negations are tried first, per the Section 4 optimizations);
2. repeatedly rewrites chains of tuples with the rules of Figure 6 --
   merging identical expressions (rules 1 and 2) and strengthening guards
   that fail to distinguish different expressions (rule 3);
3. assembles ``if b_1 then e_1 elsif b_2 then e_2 ... end`` programs,
   simplifying with the branch-pruning rules of Figure 13 (negated guards
   collapse to ``if/else``, boolean bodies collapse to the guard itself);
4. keeps only candidates that pass *every* spec (Algorithm 1's final check)
   and returns the smallest.

Implication between guards is checked propositionally with the SAT encoder
of :mod:`repro.synth.implication`; any imprecision is caught by step 4.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import List, Optional, Sequence, Tuple

from repro.lang import ast as A
from repro.synth.config import SynthConfig
from repro.synth.goal import (
    Budget,
    Spec,
    SynthesisProblem,
    evaluate_all_specs,
)
from repro.obs.metrics import Counters
from repro.synth.implication import GuardEncoder, negate
from repro.synth.search import generate_guard, search_counters
from repro.synth.state import StateManager


@dataclass
class SpecSolution:
    """A tuple ``<e, b, Psi>``: expression, guard and the specs it covers."""

    expr: A.Node
    guard: A.Node = A.TRUE
    specs: Tuple[Spec, ...] = ()

    def with_guard(self, guard: A.Node) -> "SpecSolution":
        return replace(self, guard=guard)

    def covering(self, *specs: Spec) -> "SpecSolution":
        return replace(self, specs=self.specs + specs)


class Merger:
    """Implements Algorithm 1 (``MergeProgram``)."""

    def __init__(
        self,
        problem: SynthesisProblem,
        config: SynthConfig,
        budget: Optional[Budget] = None,
        counters: Optional[Counters] = None,
        state: Optional[StateManager] = None,
    ) -> None:
        self.problem = problem
        self.config = config
        self.budget = budget or Budget(config.timeout_s)
        #: The run's counters: guard searches count into them.
        self.counters = counters if counters is not None else search_counters()
        #: Snapshot manager shared with the searches (None disables replay).
        self.state = state
        self.encoder = GuardEncoder()
        #: Guards synthesized so far, reused across tuples (Section 4).
        self.known_guards: List[A.Node] = []

    # ------------------------------------------------------------------ guards

    def guard_candidates(self) -> List[A.Node]:
        """Guards to try before falling back on synthesis from scratch."""

        candidates: List[A.Node] = [A.TRUE]
        for guard in self.known_guards:
            if guard not in candidates:
                candidates.append(guard)
            negated = negate(guard)
            if negated not in candidates:
                candidates.append(negated)
        return candidates

    def remember_guard(self, guard: A.Node) -> None:
        if guard not in (A.TRUE, A.FALSE) and guard not in self.known_guards:
            self.known_guards.append(guard)

    def synthesize_guard(
        self,
        positive: Sequence[Spec],
        negative: Sequence[Spec] = (),
    ) -> Optional[A.Node]:
        guard = generate_guard(
            self.problem,
            positive,
            negative,
            self.config,
            budget=self.budget,
            counters=self.counters,
            initial_candidates=self.guard_candidates(),
            state=self.state,
        )
        if guard is not None:
            self.remember_guard(guard)
        return guard

    def assign_guards(self, solutions: Sequence[SpecSolution]) -> List[SpecSolution]:
        """Initial guard for each tuple: truthy under its own specs' setups."""

        assigned: List[SpecSolution] = []
        for solution in solutions:
            guard = self.synthesize_guard(solution.specs, ())
            assigned.append(solution.with_guard(guard if guard is not None else A.TRUE))
        return assigned

    # ------------------------------------------------------------------ rewriting

    def rewrite_chain(self, chain: List[SpecSolution]) -> List[SpecSolution]:
        """Apply rules (1)-(3) of Figure 6 until no rewrite applies."""

        chain = list(chain)
        changed = True
        while changed and len(chain) > 1:
            changed = False
            for i, j in itertools.combinations(range(len(chain)), 2):
                first, second = chain[i], chain[j]
                merged = self._merge_pair(first, second)
                if merged is not None:
                    chain = [t for k, t in enumerate(chain) if k not in (i, j)]
                    chain.insert(i, merged)
                    changed = True
                    break
                strengthened = self._strengthen_pair(first, second)
                if strengthened is not None:
                    chain[i], chain[j] = strengthened
                    changed = True
                    break
        return chain

    def _merge_pair(
        self, first: SpecSolution, second: SpecSolution
    ) -> Optional[SpecSolution]:
        """Rules 1 and 2: identical expressions merge into one tuple."""

        if first.expr != second.expr:
            return None
        specs = first.specs + tuple(s for s in second.specs if s not in first.specs)
        if self.encoder.implies(first.guard, second.guard):
            # Rule 1 keeps the stronger guard; rule 2's disjunction is the
            # safe fallback and is validated later either way.
            return SpecSolution(first.expr, first.guard, specs)
        if self.encoder.implies(second.guard, first.guard):
            return SpecSolution(first.expr, second.guard, specs)
        return SpecSolution(first.expr, _disjoin(first.guard, second.guard), specs)

    def _strengthen_pair(
        self, first: SpecSolution, second: SpecSolution
    ) -> Optional[Tuple[SpecSolution, SpecSolution]]:
        """Rule 3: different expressions whose guards do not distinguish them."""

        if first.expr == second.expr:
            return None
        if not (
            self.encoder.implies(first.guard, second.guard)
            or self.encoder.implies(second.guard, first.guard)
        ):
            return None
        first_guard = self.synthesize_guard(first.specs, second.specs)
        if first_guard is None:
            return None
        # Try the negation of the freshly synthesized guard first (Figure 13,
        # rules 6 and 7) before synthesizing the second guard from scratch.
        second_guard: Optional[A.Node] = None
        negated = negate(first_guard)
        if all(
            _guard_holds(
                self.problem, negated, spec, expect=True, state=self.state
            )
            for spec in second.specs
        ) and all(
            _guard_holds(
                self.problem, negated, spec, expect=False, state=self.state
            )
            for spec in first.specs
        ):
            second_guard = negated
        if second_guard is None:
            second_guard = self.synthesize_guard(second.specs, first.specs)
        if second_guard is None:
            return None
        self.remember_guard(first_guard)
        self.remember_guard(second_guard)
        return (
            first.with_guard(first_guard),
            second.with_guard(second_guard),
        )

    # ------------------------------------------------------------------ assembly

    def build_programs(self, chain: List[SpecSolution]) -> List[A.MethodDef]:
        """Candidate programs for one rewritten chain, most simplified first."""

        bodies: List[A.Node] = []

        if len(chain) == 1:
            only = chain[0]
            bodies.append(only.expr)
            if only.guard not in (A.TRUE,):
                bodies.append(A.If(only.guard, only.expr, A.NIL))
        elif len(chain) == 2:
            first, second = chain
            # Rules 4/5: boolean bodies with negated guards collapse to the guard.
            if self.encoder.is_negation(second.guard, first.guard):
                if first.expr == A.TRUE and second.expr == A.FALSE:
                    bodies.append(first.guard)
                if first.expr == A.FALSE and second.expr == A.TRUE:
                    bodies.append(second.guard)
                # if b then e1 else e2 (the else-simplification used in Figure 2).
                bodies.append(A.If(first.guard, first.expr, second.expr))
                bodies.append(A.If(second.guard, second.expr, first.expr))
            bodies.append(self._chain_body(chain))
        else:
            bodies.append(self._chain_body(chain))

        programs: List[A.MethodDef] = []
        seen: set[A.Node] = set()
        for body in bodies:
            if body in seen:
                continue
            seen.add(body)
            programs.append(self.problem.make_program(body))
        return programs

    def _chain_body(self, chain: List[SpecSolution]) -> A.Node:
        """The unsimplified ``if b1 then e1 elsif b2 then e2 ... else nil``."""

        body: A.Node = A.NIL
        for solution in reversed(chain):
            if solution.guard == A.TRUE and body == A.NIL:
                body = solution.expr
            else:
                body = A.If(solution.guard, solution.expr, body)
        return body

    # ------------------------------------------------------------------ top level

    def merge(self, solutions: Sequence[SpecSolution]) -> Optional[A.MethodDef]:
        """Algorithm 1: rewrite, assemble, validate, return a passing program."""

        if not solutions:
            return None
        solutions = self.assign_guards(solutions)

        orderings = _orderings(list(solutions))
        valid: List[A.MethodDef] = []
        for ordering in orderings:
            chain = self.rewrite_chain(list(ordering))
            for program in self.build_programs(chain):
                if self._passes_all_specs(program):
                    valid.append(program)
            if valid:
                break

        if not valid:
            # Fallback: strengthen every guard against every other tuple's
            # specs, which guarantees the if-chain dispatches correctly.
            strengthened = self._strengthen_all(list(solutions))
            if strengthened is not None:
                chain = self.rewrite_chain(strengthened)
                for program in self.build_programs(chain):
                    if self._passes_all_specs(program):
                        valid.append(program)

        if not valid:
            return None
        return min(valid, key=A.node_count)

    def _passes_all_specs(self, program: A.MethodDef) -> bool:
        """Budget-checked validation of one candidate program."""

        return evaluate_all_specs(
            self.problem, program, budget=self.budget, state=self.state
        )

    def _strengthen_all(
        self, solutions: List[SpecSolution]
    ) -> Optional[List[SpecSolution]]:
        strengthened: List[SpecSolution] = []
        for i, solution in enumerate(solutions):
            others = [
                spec
                for j, other in enumerate(solutions)
                if j != i
                for spec in other.specs
            ]
            guard = self.synthesize_guard(solution.specs, others)
            if guard is None:
                return None
            strengthened.append(solution.with_guard(guard))
        return strengthened


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------


def _disjoin(left: A.Node, right: A.Node) -> A.Node:
    if left == A.TRUE or right == A.TRUE:
        return A.TRUE
    if left == right:
        return left
    return A.Or(left, right)


def _guard_holds(
    problem: SynthesisProblem,
    guard: A.Node,
    spec: Spec,
    expect: bool,
    state: Optional[StateManager] = None,
) -> bool:
    # Call-time import: the only path to perfbench's goal.evaluate_guard wrap.
    from repro.synth.goal import evaluate_guard

    return evaluate_guard(problem, guard, spec, expect, state=state)


def _orderings(solutions: List[SpecSolution]) -> List[Tuple[SpecSolution, ...]]:
    """Orderings of the merge chain to try (all permutations when small)."""

    if len(solutions) <= 4:
        return list(itertools.permutations(solutions))
    head = tuple(solutions)
    rotations = [
        tuple(solutions[i:] + solutions[:i]) for i in range(len(solutions))
    ]
    return [head] + rotations
