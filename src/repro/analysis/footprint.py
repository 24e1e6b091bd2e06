"""Footprint inference: static read/write effects of an expression.

``footprint(expr, env, ct)`` computes a *sound over-approximation* of the
effects any evaluation of ``expr`` may perform, purely from the class
table's method annotations:

* literals, variables and constant references are pure;
* compound nodes union their children's footprints (both branches of an
  ``if``, both operands of ``or`` -- the abstraction is path-insensitive);
* a method call adds, for every member of the receiver's (union) type, the
  *resolved* annotation of the method looked up on that member -- the same
  ``ct.resolve`` the interpreter consults when it logs the call's effects
  at runtime, so the dynamic log is subsumed by construction (the
  differential gate in :mod:`repro.analysis.soundness` audits this);
* holes are TOP (``<*, *>``): they stand for arbitrary future code.

Anything the analysis cannot type (unknown method, unbound variable, nil
receiver) widens to TOP through the :func:`footprint` wrapper -- callers
that prune or fast-path on the footprint then simply do neither.

Like ``check_expr``, results are memoized on the (immutable) node, in its
``_fp_memo`` slot (which a pickled node never carries), keyed by
``ClassTable.generation`` and the types of the node's free variables, so
filling a hole recomputes only the root-to-hole spine.  Memo hits are
counted on ``search.footprint_hits``.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Tuple

from repro.lang import ast as A
from repro.lang import types as T
from repro.lang.effects import STAR, Effect, EffectPair
from repro.obs.metrics import Counters
from repro.typesys.class_table import ClassTable, ResolvedSig
from repro.typesys.typecheck import (
    SynTypeError,
    _memo_key,
    check_expr,
    receiver_lookup,
)

#: The lattice top: an expression that may read and write anything.
TOP_PAIR = EffectPair(STAR, STAR)

_PURE_PAIR = EffectPair.pure()

#: Per-node footprint memos are cleared beyond this many entries (distinct
#: class-table generations / free-variable typings), like ``_type_memo``.
_FP_MEMO_LIMIT = 64


def infer(
    expr: A.Node,
    env: Mapping[str, T.Type],
    ct: ClassTable,
    counters: Optional[Counters] = None,
) -> Tuple[T.Type, EffectPair]:
    """The type and static effect footprint of ``expr`` under ``env``.

    Types come from :func:`repro.typesys.typecheck.check_expr` (shared memo
    and all); effects from the footprint pass below.  Raises
    :class:`SynTypeError` when the expression cannot be typed -- callers
    that need a total answer use :func:`footprint` instead.  Memo hits
    increment ``search.footprint_hits`` on ``counters`` (the run's search
    counters).
    """

    return check_expr(expr, env, ct), _pair(expr, env, ct, counters)


def footprint(
    expr: A.Node,
    env: Mapping[str, T.Type],
    ct: ClassTable,
    counters: Optional[Counters] = None,
) -> EffectPair:
    """Total variant of :func:`infer`: untypeable expressions widen to TOP."""

    try:
        return _pair(expr, env, ct, counters)
    except SynTypeError:
        return TOP_PAIR


def _pair(
    expr: A.Node,
    env: Mapping[str, T.Type],
    ct: ClassTable,
    counters: Optional[Counters],
) -> EffectPair:
    if not isinstance(expr, A.Compound):
        return _pair_structural(expr, env, ct, counters)
    key = _memo_key(expr, env, ct)
    if key is None:
        return _pair_structural(expr, env, ct, counters)
    memo = getattr(expr, "_fp_memo", None)
    if memo is not None:
        hit = memo.get(key)
        if hit is not None:
            if counters is not None:
                counters["search.footprint_hits"] += 1
            ok, payload = hit
            if ok:
                return payload
            raise SynTypeError(payload)
    try:
        result = _pair_structural(expr, env, ct, counters)
    except SynTypeError as error:
        _memo_store(expr, memo, key, (False, str(error)))
        raise
    _memo_store(expr, memo, key, (True, result))
    return result


def _memo_store(expr: A.Node, memo: Optional[dict], key: Tuple, entry: Tuple) -> None:
    if memo is None:
        memo = {}
        object.__setattr__(expr, "_fp_memo", memo)
    elif len(memo) >= _FP_MEMO_LIMIT:
        memo.clear()
    memo[key] = entry


def _pair_structural(
    expr: A.Node,
    env: Mapping[str, T.Type],
    ct: ClassTable,
    counters: Optional[Counters],
) -> EffectPair:
    if isinstance(
        expr, (A.NilLit, A.BoolLit, A.IntLit, A.StrLit, A.SymLit)
    ):
        return _PURE_PAIR
    if isinstance(expr, A.Var):
        if expr.name not in env:
            raise SynTypeError(f"unbound variable {expr.name}")
        return _PURE_PAIR
    if isinstance(expr, A.ConstRef):
        if not ct.has_class(expr.name):
            raise SynTypeError(f"unknown constant {expr.name}")
        return _PURE_PAIR
    if isinstance(expr, (A.TypedHole, A.EffectHole)):
        # A hole will be filled with arbitrary well-typed code later; TOP is
        # the only sound abstraction of "anything".
        return TOP_PAIR
    if isinstance(expr, A.Seq):
        return _pair(expr.first, env, ct, counters).union(
            _pair(expr.second, env, ct, counters)
        )
    if isinstance(expr, A.Let):
        value_pair = _pair(expr.value, env, ct, counters)
        inner = dict(env)
        inner[expr.var] = check_expr(expr.value, env, ct)
        return value_pair.union(_pair(expr.body, inner, ct, counters))
    if isinstance(expr, A.If):
        # Path-insensitive: both branches may run.
        return (
            _pair(expr.cond, env, ct, counters)
            .union(_pair(expr.then_branch, env, ct, counters))
            .union(_pair(expr.else_branch, env, ct, counters))
        )
    if isinstance(expr, A.Not):
        return _pair(expr.expr, env, ct, counters)
    if isinstance(expr, A.Or):
        return _pair(expr.left, env, ct, counters).union(
            _pair(expr.right, env, ct, counters)
        )
    if isinstance(expr, A.HashLit):
        pair = _PURE_PAIR
        for _key, value in expr.entries:
            pair = pair.union(_pair(value, env, ct, counters))
        return pair
    if isinstance(expr, A.MethodCall):
        return _call_pair(expr, env, ct, counters)
    if isinstance(expr, A.MethodDef):
        return _pair(expr.body, env, ct, counters)
    raise SynTypeError(f"cannot analyze expression {expr!r}")


def _call_pair(
    expr: A.MethodCall,
    env: Mapping[str, T.Type],
    ct: ClassTable,
    counters: Optional[Counters],
) -> EffectPair:
    pair = _pair(expr.receiver, env, ct, counters)
    for arg in expr.args:
        pair = pair.union(_pair(arg, env, ct, counters))
    receiver_type = check_expr(expr.receiver, env, ct)
    # A union receiver may dispatch to any member at runtime, so the call's
    # footprint unions every member's resolved annotation -- the same
    # ``ct.resolve`` the interpreter logs from (runtime receivers that are
    # *subclasses* of the static member are covered by the region-hierarchy
    # subsumption the effect lattice already implements).
    for member in T.union_members(receiver_type):
        resolved = receiver_lookup(ct, member, expr.name)
        if resolved is None:
            raise SynTypeError(
                f"no method {expr.name!r} on receiver of type {member}"
            )
        pair = pair.union(resolved.effects)
    return pair


# ---------------------------------------------------------------------------
# S-EffApp pre-filter: which library methods can fill an effect hole
# ---------------------------------------------------------------------------

#: ``(generation, effect) -> ([ResolvedSig], reordered)`` writer lists,
#: cleared beyond the limit.  Keyed by the mutation-aware generation token,
#: so a table edit (new method, coarsened precision) naturally invalidates
#: the lists.
_WRITERS_MEMO: dict = {}
_WRITERS_MEMO_LIMIT = 256


def _write_specificity(resolved: ResolvedSig) -> Tuple[int, int, int]:
    """Sort rank of a writer's write effect; lower sorts first.

    Most-specific-first: writers touching only precise ``A.r`` regions rank
    before writers with any class-level ``A.*`` atom, which rank before
    ``*`` writers; within a tier, fewer atoms rank first.  The sort is
    stable, so declaration order (``ct.resolved_synthesis_methods()``)
    breaks ties deterministically.
    """

    effect = resolved.effects.write
    if effect.is_star:
        return (2, 0, 0)
    class_level = sum(1 for region in effect.regions if region.region is None)
    return (1 if class_level else 0, class_level, len(effect.regions))


def writers_for_effect(
    hole_effect: Effect, ct: ClassTable, counters: Optional[Counters] = None
) -> List[ResolvedSig]:
    """Resolved synthesis methods whose write effect subsumes ``hole_effect``,
    most-specific-first.

    The S-EffApp pre-filter: instead of re-scanning every synthesis method
    per effect-hole expansion, the (small) set of eligible writers is
    computed once per ``(class-table generation, effect)`` and memoized.
    The list is ordered by :func:`_write_specificity` so the enumerator
    tries precise writers (the likeliest minimal fills) before class-level
    and ``*`` writers; expansions whose order differs from the declaration
    scan are counted on ``search.writer_reorders`` (every call with the same
    effect counts, memo hit or not, so a run's count does not depend on
    what earlier runs in the process memoized).
    """

    from repro.lang.effects import subsumed

    key = (ct.generation, hole_effect)
    hit = _WRITERS_MEMO.get(key)
    if hit is not None:
        writers, reordered = hit
        if counters is not None:
            counters["search.footprint_hits"] += 1
            if reordered:
                counters["search.writer_reorders"] += 1
        return writers
    scan = [
        resolved
        for resolved in ct.resolved_synthesis_methods()
        if not resolved.effects.write.is_pure
        and subsumed(hole_effect, resolved.effects.write, ct)
    ]
    writers = sorted(scan, key=_write_specificity)
    reordered = writers != scan
    if len(_WRITERS_MEMO) >= _WRITERS_MEMO_LIMIT:
        _WRITERS_MEMO.clear()
    _WRITERS_MEMO[key] = (writers, reordered)
    if counters is not None and reordered:
        counters["search.writer_reorders"] += 1
    return writers
