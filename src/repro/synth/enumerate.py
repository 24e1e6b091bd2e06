"""Type-guided hole filling (the S- rules of Figures 4 and 11).

Given an expression whose left-most hole is a *typed* hole ``[]:tau``, the
enumerator produces every one-step refinement:

* **S-Const** -- constants from Sigma whose type is a subtype of ``tau``,
  plus constants derivable from the hole's type itself (a singleton class
  type yields the class constant, singleton symbol types yield symbol
  literals -- this is how ``arg2[:title]`` materializes in Figure 2);
* **S-Var**   -- variables in scope (method parameters and ``let`` binders)
  whose type fits;
* **S-App**   -- calls ``([]:A).m([]:tau1, ...)`` to any library method whose
  (comp-type-resolved) return type fits;
* hash-literal templates for holes of finite hash type, enumerating key
  subsets as in candidates C6/C7 of the paper's overview.

With ``use_types=False`` (the "E only"/"TE disabled" modes of Figure 7) the
same productions fire but the subtype filters are dropped, which degenerates
into naive term enumeration.

S-Const, S-App and the presence of ``Hash#[]`` depend on the hole's type
alone, not on where the hole is, so they are computed once per
``(class-table generation, hole type, use_types)`` (:func:`productions`)
into a table the :class:`~repro.synth.goal.SynthesisProblem` owns; every
later hole of that type gets the same candidate list and the same template
nodes.  Any class-table mutation moves the generation, so a new method is
offered from the next expansion on, and the table is freed with its problem.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.lang import ast as A
from repro.lang import types as T
from repro.synth.config import SynthConfig
from repro.synth.goal import SynthesisProblem
from repro.typesys.class_table import ClassTable, ResolvedSig
from repro.typesys.typecheck import SynTypeError, check_expr

#: A candidate replacement for a hole together with its (statically known)
#: type, or ``None`` when the type cannot narrow the hole's annotation.
Candidate = Tuple[A.Node, Optional[T.Type]]


def env_at_hole(
    expr: A.Node, site: A.HoleSite, problem: SynthesisProblem
) -> Dict[str, T.Type]:
    """Compute the type environment in scope at ``site`` (rule T-Let)."""

    env: Dict[str, T.Type] = dict(problem.param_env)
    for name, value_expr in site.bindings:
        try:
            env[name] = check_expr(value_expr, env, problem.class_table)
        except SynTypeError:
            env[name] = T.OBJECT
    return env


def fits(actual: T.Type, expected: T.Type, ct: ClassTable, use_types: bool) -> bool:
    """Subtype filter, disabled in the unguided modes."""

    if not use_types:
        return True
    return ct.is_subtype(actual, expected)


# ---------------------------------------------------------------------------
# Productions determined by the hole type
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Productions:
    """What a hole's type admits under one class table."""

    #: S-Const, in Sigma order, then the constants the type implies.
    constants: Tuple[Candidate, ...]
    #: S-App: one call template per library method whose return type fits.
    calls: Tuple[Candidate, ...]
    #: Whether ``Hash#[]`` exists, i.e. whether key lookups are offered.
    hash_lookup: bool


def productions(
    hole_type: T.Type, problem: SynthesisProblem, use_types: bool
) -> Productions:
    """The productions of a ``hole_type`` hole, memoized on ``problem``."""

    ct = problem.class_table
    key = (ct.generation, hole_type, use_types)
    found = problem._productions.get(key)
    if found is None:
        found = Productions(
            tuple(constant_candidates(hole_type, problem, use_types)),
            tuple(call_candidates(hole_type, problem, use_types)),
            ct.lookup("Hash", "[]") is not None,
        )
        problem._productions[key] = found
    return found


def constant_candidates(
    hole_type: T.Type, problem: SynthesisProblem, use_types: bool
) -> List[Candidate]:
    """S-Const plus constants implied by the hole's type."""

    ct = problem.class_table
    results: List[Candidate] = [
        (expr, const_type)
        for expr, const_type in problem.constant_exprs()
        if fits(const_type, hole_type, ct, use_types)
    ]
    # Constants implied by the hole's type: symbol literals for singleton
    # symbol types and the class constant for singleton class types.
    for member in T.union_members(hole_type):
        if isinstance(member, T.SymbolType):
            results.append((A.SymLit(member.name), member))
        elif isinstance(member, T.SingletonClassType):
            results.append((A.ConstRef(member.name), member))
    return results


def call_candidates(
    hole_type: T.Type, problem: SynthesisProblem, use_types: bool
) -> List[Candidate]:
    """S-App: method-call templates with holes for receiver and args."""

    ct = problem.class_table
    return [
        (call_template(resolved), resolved.ret_type)
        for resolved in ct.resolved_synthesis_methods()
        if fits(resolved.ret_type, hole_type, ct, use_types)
    ]


def call_template(resolved: ResolvedSig) -> A.MethodCall:
    """Build ``([]:A).m([]:tau1, ...)`` for a resolved signature."""

    receiver_hole = A.TypedHole(resolved.sig.receiver_type)
    arg_holes = tuple(A.TypedHole(t) for t in resolved.arg_types)
    return A.MethodCall(receiver_hole, resolved.sig.name, arg_holes)


# ---------------------------------------------------------------------------
# Productions that depend on the hole's environment or the config
# ---------------------------------------------------------------------------


def variable_candidates(
    hole: A.TypedHole,
    env: Dict[str, T.Type],
    problem: SynthesisProblem,
    config: SynthConfig,
) -> List[Candidate]:
    """S-Var."""

    ct = problem.class_table
    results: List[Candidate] = []
    for name, var_type in env.items():
        if fits(var_type, hole.type, ct, config.use_types):
            results.append((A.Var(name), var_type))
    return results


def hash_access_candidates(
    hole: A.TypedHole,
    env: Dict[str, T.Type],
    problem: SynthesisProblem,
    config: SynthConfig,
) -> List[Candidate]:
    """Key lookups ``h[:key]`` on hash-typed variables in scope.

    This reproduces the comp type of ``Hash#[]`` in the situation the paper
    highlights (Section 4, "Type Level Computations"): when the receiver is
    still unknown, the type-level computation enumerates all possible
    receivers -- here, the finite-hash-typed variables in scope -- and
    produces one candidate per key whose value type fits the hole.  Only
    offered when the class table has ``Hash#[]``
    (:attr:`Productions.hash_lookup`).
    """

    ct = problem.class_table
    results: List[Candidate] = []
    for name, var_type in env.items():
        for member in T.union_members(var_type):
            if not isinstance(member, T.FiniteHashType):
                continue
            for key, value_type in member.all_keys.items():
                if fits(value_type, hole.type, ct, config.use_types):
                    results.append((A.call(A.Var(name), "[]", A.SymLit(key)), value_type))
    return results


def hash_candidates(
    hole: A.TypedHole, problem: SynthesisProblem, config: SynthConfig
) -> List[Candidate]:
    """Hash-literal templates for holes of finite hash type.

    Enumerates every subset of the optional keys up to ``max_hash_keys``
    entries (always including all required keys), each value being a typed
    hole of the key's value type -- candidates C6/C7 in Figure 2.
    """

    results: List[Candidate] = []
    for member in T.union_members(hole.type):
        if not isinstance(member, T.FiniteHashType):
            continue
        required = list(member.required)
        optional = list(member.optional)
        max_extra = max(config.max_hash_keys - len(required), 0)
        optional_subsets: List[Tuple[Tuple[str, T.Type], ...]] = []
        limit = min(max_extra, len(optional))
        for k in range(0, limit + 1):
            optional_subsets.extend(itertools.combinations(optional, k))
        for subset in optional_subsets:
            entries = tuple(
                (key, A.TypedHole(value_type))
                for key, value_type in tuple(required) + subset
            )
            if not entries:
                continue
            # A hash literal's (hole-preserving) type is always a subtype of
            # the finite hash type it fills, so no narrowing re-check is
            # needed downstream.
            results.append((A.HashLit(entries), None))
    return results


# ---------------------------------------------------------------------------
# One-step expansion of the left-most typed hole
# ---------------------------------------------------------------------------


def expand_typed_hole(
    expr: A.Node,
    site: A.HoleSite,
    problem: SynthesisProblem,
    config: SynthConfig,
) -> List[A.Node]:
    """All one-step refinements of ``expr`` at the typed hole ``site``."""

    assert isinstance(site.hole, A.TypedHole)
    hole = site.hole
    env = env_at_hole(expr, site, problem)
    table = productions(hole.type, problem, config.use_types)

    replacements: List[Candidate] = list(table.constants)
    replacements += variable_candidates(hole, env, problem, config)
    if table.hash_lookup:
        replacements += hash_access_candidates(hole, env, problem, config)
    replacements += hash_candidates(hole, problem, config)
    replacements += table.calls

    param_env = dict(problem.param_env)
    splice = A.splicer(expr, site.path)
    results: List[A.Node] = []
    seen: set[A.Node] = set()
    for replacement, replacement_type in replacements:
        candidate = splice(replacement)
        if candidate in seen:
            continue
        seen.add(candidate)
        if (
            config.use_types
            and config.narrow_types
            and replacement_type is not None
            and replacement_type != hole.type
        ):
            # Type narrowing (Section 3.1): filling a hole with a term of a
            # strictly narrower type can make the whole candidate ill-typed
            # (e.g. a nil receiver); such candidates are pruned immediately.
            # Replacements of exactly the hole's type cannot introduce type
            # errors, so the re-check is skipped for them.
            try:
                check_expr(candidate, param_env, problem.class_table)
            except SynTypeError:
                continue
        results.append(candidate)
    return results
