"""A small propositional SAT solver (DPLL with unit propagation).

The merge step of RbSyn checks implications between branch conditions by
encoding each unique condition as a boolean variable and querying a SAT
solver (Section 3.3, "Checking Implication").  The original implementation
shells out to a SAT library; we implement the needed machinery directly:

* a formula AST (:class:`BVar`, :class:`BNot`, :class:`BAnd`, :class:`BOr`,
  :class:`BImplies`, :class:`BConst`);
* conversion to conjunctive normal form via the Tseitin transformation;
* a DPLL search with unit propagation and pure-literal elimination.

The formulas produced by the merge step are tiny (a handful of variables),
so this solver is comfortably fast while remaining fully self-contained.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple


class Formula:
    """Base class of propositional formulas."""

    def __and__(self, other: "Formula") -> "Formula":
        return BAnd(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return BOr(self, other)

    def __invert__(self) -> "Formula":
        return BNot(self)

    def implies(self, other: "Formula") -> "Formula":
        return BImplies(self, other)


@dataclass(frozen=True)
class BConst(Formula):
    value: bool

    def __str__(self) -> str:
        return "true" if self.value else "false"


@dataclass(frozen=True)
class BVar(Formula):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class BNot(Formula):
    operand: Formula

    def __str__(self) -> str:
        return f"!{self.operand}"


@dataclass(frozen=True)
class BAnd(Formula):
    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} & {self.right})"


@dataclass(frozen=True)
class BOr(Formula):
    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} | {self.right})"


@dataclass(frozen=True)
class BImplies(Formula):
    left: Formula
    right: Formula

    def __str__(self) -> str:
        return f"({self.left} -> {self.right})"


TRUE = BConst(True)
FALSE = BConst(False)

#: A literal: (variable name, polarity).  A clause is a frozenset of literals.
Literal = Tuple[str, bool]
Clause = FrozenSet[Literal]


# ---------------------------------------------------------------------------
# CNF conversion (Tseitin transformation)
# ---------------------------------------------------------------------------


class _Tseitin:
    def __init__(self) -> None:
        self.clauses: List[Clause] = []
        self.counter = 0
        self.cache: Dict[Formula, Literal] = {}

    def fresh(self) -> str:
        self.counter += 1
        return f"__t{self.counter}"

    def add(self, *literals: Literal) -> None:
        self.clauses.append(frozenset(literals))

    def encode(self, formula: Formula) -> Literal:
        if formula in self.cache:
            return self.cache[formula]
        literal = self._encode(formula)
        self.cache[formula] = literal
        return literal

    def _encode(self, formula: Formula) -> Literal:
        if isinstance(formula, BConst):
            name = self.fresh()
            self.add((name, formula.value))
            return (name, True)
        if isinstance(formula, BVar):
            return (formula.name, True)
        if isinstance(formula, BNot):
            name, polarity = self.encode(formula.operand)
            return (name, not polarity)
        if isinstance(formula, BImplies):
            return self.encode(BOr(BNot(formula.left), formula.right))
        if isinstance(formula, (BAnd, BOr)):
            left = self.encode(formula.left)
            right = self.encode(formula.right)
            out = self.fresh()
            out_pos: Literal = (out, True)
            out_neg: Literal = (out, False)
            l_pos, l_neg = left, _negate(left)
            r_pos, r_neg = right, _negate(right)
            if isinstance(formula, BAnd):
                # out <-> (l & r)
                self.add(out_neg, l_pos)
                self.add(out_neg, r_pos)
                self.add(out_pos, l_neg, r_neg)
            else:
                # out <-> (l | r)
                self.add(out_pos, l_neg)
                self.add(out_pos, r_neg)
                self.add(out_neg, l_pos, r_pos)
            return out_pos
        raise TypeError(f"unknown formula {formula!r}")  # pragma: no cover


def _negate(literal: Literal) -> Literal:
    name, polarity = literal
    return (name, not polarity)


def to_cnf(formula: Formula) -> List[Clause]:
    """Clauses equisatisfiable with ``formula``."""

    encoder = _Tseitin()
    root = encoder.encode(formula)
    encoder.add(root)
    return encoder.clauses


# ---------------------------------------------------------------------------
# DPLL
# ---------------------------------------------------------------------------


def _unit_propagate(
    clauses: List[Clause], assignment: Dict[str, bool]
) -> Optional[List[Clause]]:
    """Apply unit propagation; ``None`` signals a conflict."""

    changed = True
    clauses = list(clauses)
    while changed:
        changed = False
        next_clauses: List[Clause] = []
        unit: Optional[Literal] = None
        for clause in clauses:
            literals = []
            satisfied = False
            for name, polarity in clause:
                if name in assignment:
                    if assignment[name] == polarity:
                        satisfied = True
                        break
                else:
                    literals.append((name, polarity))
            if satisfied:
                continue
            if not literals:
                return None
            if len(literals) == 1 and unit is None:
                unit = literals[0]
            next_clauses.append(frozenset(literals))
        clauses = next_clauses
        if unit is not None:
            name, polarity = unit
            assignment[name] = polarity
            changed = True
    return clauses


def _choose_variable(clauses: List[Clause]) -> Optional[str]:
    for clause in clauses:
        for name, _ in clause:
            return name
    return None


def solve(clauses: Iterable[Clause]) -> Optional[Dict[str, bool]]:
    """Find a satisfying assignment for CNF ``clauses`` or return ``None``."""

    return _solve(list(clauses), {})


def _solve(clauses: List[Clause], assignment: Dict[str, bool]) -> Optional[Dict[str, bool]]:
    assignment = dict(assignment)
    propagated = _unit_propagate(clauses, assignment)
    if propagated is None:
        return None
    if not propagated:
        return assignment
    variable = _choose_variable(propagated)
    if variable is None:  # pragma: no cover - empty clause set handled above
        return assignment
    for choice in (True, False):
        branch = dict(assignment)
        branch[variable] = choice
        result = _solve(propagated, branch)
        if result is not None:
            return result
    return None


# ---------------------------------------------------------------------------
# High-level queries
# ---------------------------------------------------------------------------


def is_satisfiable(formula: Formula) -> bool:
    return solve(to_cnf(formula)) is not None


def is_valid(formula: Formula) -> bool:
    return not is_satisfiable(BNot(formula))


def implies(antecedent: Formula, consequent: Formula) -> bool:
    """Whether ``antecedent -> consequent`` is valid."""

    return not is_satisfiable(BAnd(antecedent, BNot(consequent)))


def equivalent(left: Formula, right: Formula) -> bool:
    return implies(left, right) and implies(right, left)
