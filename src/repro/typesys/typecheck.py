"""Typechecking of candidate expressions (the T- rules of Figures 4 and 11).

The typechecker serves two purposes during synthesis:

* it computes the type of the expression a failed candidate evaluated to, so
  rule S-Eff can wrap it in ``let x = e in (<>:eps; []:tau)``;
* it rejects candidates whose holes were *narrowed* into ill-typed programs
  (Section 3.1, "Type Narrowing") -- for example filling a receiver hole with
  ``nil`` and then trying to invoke a method on it.

Expressions may contain holes: a typed hole has its annotated type (T-Hole)
and an effect hole has type ``Object`` (T-EffObj), the top of the lattice, so
it can later be replaced by a term of any type.

``check_expr`` is *incremental*: the synthesized type of every compound
subtree is memoized on the (immutable) node, keyed by the class table's
mutation-aware ``generation`` token and the types its free variables (the
node's construction-time ``_fv``) have in the current environment.  Filling
a hole rebuilds only the root-to-hole spine (``replace_at`` shares every
off-path subtree), so re-checking the narrowed candidate recomputes just
that spine while every shared subtree answers from its memo -- the
whole-tree walk the enumerator used to pay per expansion collapses to the
hole path.  Ill-typed subtrees memoize their rejection too, so repeated
narrowing failures are equally cheap.  The memo lives in the node's
``_type_memo`` slot and is never pickled with it, like the other per-node
memos: ``repro.lang.ast.Node.__reduce__`` carries only the fields.
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from repro.lang import ast as A
from repro.lang import types as T
from repro.typesys.class_table import ClassTable, ResolvedSig


class SynTypeError(Exception):
    """Raised when a candidate expression cannot be typed."""


#: Classes whose instance methods are looked up for non-class receivers.
_SPECIAL_RECEIVER_CLASSES = {
    "FiniteHash": "Hash",
}


def receiver_lookup(
    ct: ClassTable, receiver_type: T.Type, name: str
) -> Optional[ResolvedSig]:
    """Resolve a method call for a receiver of static type ``receiver_type``."""

    if isinstance(receiver_type, T.SingletonClassType):
        sig = ct.lookup(receiver_type.name, name, singleton=True)
    elif isinstance(receiver_type, T.ClassType):
        if receiver_type.name == "NilClass":
            return None
        sig = ct.lookup(receiver_type.name, name, singleton=False)
    elif isinstance(receiver_type, T.FiniteHashType):
        sig = ct.lookup("Hash", name, singleton=False)
    elif isinstance(receiver_type, T.SymbolType):
        sig = ct.lookup("Symbol", name, singleton=False)
    else:
        sig = None
    if sig is None:
        return None
    return ct.resolve(sig, receiver_type)


#: Per-node memos are cleared beyond this many entries (distinct class-table
#: generations / free-variable typings); real searches stay far below it.
_TYPE_MEMO_LIMIT = 64


def check_expr(
    expr: A.Node,
    env: Mapping[str, T.Type],
    ct: ClassTable,
) -> T.Type:
    """Compute the type of ``expr`` under ``env``; raise :class:`SynTypeError`.

    ``env`` maps variable names (method parameters and ``let`` binders) to
    their types.  Compound subtrees answer from their per-node memo when the
    class table and the types of their free variables match a prior check
    (see the module docstring).
    """

    # Leaves are cheaper to re-derive than to look up, and have no memo slot.
    if not isinstance(expr, A.Compound):
        return _check_structural(expr, env, ct)
    key = _memo_key(expr, env, ct)
    if key is None:
        return _check_structural(expr, env, ct)
    memo = getattr(expr, "_type_memo", None)
    if memo is not None:
        hit = memo.get(key)
        if hit is not None:
            ok, payload = hit
            if ok:
                return payload
            raise SynTypeError(payload)
    try:
        result = _check_structural(expr, env, ct)
    except SynTypeError as error:
        _memo_store(expr, memo, key, (False, str(error)))
        raise
    _memo_store(expr, memo, key, (True, result))
    return result


def _memo_key(
    expr: A.Node, env: Mapping[str, T.Type], ct: ClassTable
) -> Optional[Tuple]:
    """The memo key for checking ``expr`` under ``env`` and ``ct``.

    The key is the class-table generation plus the types ``env`` assigns to
    the node's free variables, in the order of its sorted ``_fv`` (see
    :func:`~repro.lang.resolve.free_var_tuple`) -- the names themselves are
    implied by the (per-node) memo, so only the type tuple is stored.
    ``None`` opts out of caching: a free variable missing from ``env`` will
    raise the usual unbound-variable error on the structural path.
    """

    names = expr._fv
    if not names:
        return (ct.generation, ())
    try:
        typing = tuple([env[name] for name in names])
    except KeyError:
        return None
    return (ct.generation, typing)


def _memo_store(expr: A.Node, memo: Optional[dict], key: Tuple, entry: Tuple) -> None:
    if memo is None:
        memo = {}
        object.__setattr__(expr, "_type_memo", memo)
    elif len(memo) >= _TYPE_MEMO_LIMIT:
        memo.clear()
    memo[key] = entry


def _check_structural(
    expr: A.Node,
    env: Mapping[str, T.Type],
    ct: ClassTable,
) -> T.Type:
    """The structural T- rules (one level; children go through the memo)."""

    if isinstance(expr, A.NilLit):
        return T.NIL
    if isinstance(expr, A.BoolLit):
        return T.TRUE_CLASS if expr.value else T.FALSE_CLASS
    if isinstance(expr, A.IntLit):
        return T.INT
    if isinstance(expr, A.StrLit):
        return T.STRING
    if isinstance(expr, A.SymLit):
        return T.SymbolType(expr.name)
    if isinstance(expr, A.ConstRef):
        if not ct.has_class(expr.name):
            raise SynTypeError(f"unknown constant {expr.name}")
        return T.SingletonClassType(expr.name)
    if isinstance(expr, A.Var):
        try:
            return env[expr.name]
        except KeyError:
            raise SynTypeError(f"unbound variable {expr.name}") from None
    if isinstance(expr, A.TypedHole):
        return expr.type
    if isinstance(expr, A.EffectHole):
        return T.OBJECT
    if isinstance(expr, A.Seq):
        check_expr(expr.first, env, ct)
        return check_expr(expr.second, env, ct)
    if isinstance(expr, A.Let):
        value_type = check_expr(expr.value, env, ct)
        inner = dict(env)
        inner[expr.var] = value_type
        return check_expr(expr.body, inner, ct)
    if isinstance(expr, A.HashLit):
        required = {
            key: check_expr(value, env, ct) for key, value in expr.entries
        }
        return T.FiniteHashType.make(required=required)
    if isinstance(expr, A.MethodCall):
        return _check_call(expr, env, ct)
    if isinstance(expr, A.If):
        check_expr(expr.cond, env, ct)
        then_type = check_expr(expr.then_branch, env, ct)
        else_type = check_expr(expr.else_branch, env, ct)
        return T.lub(then_type, else_type, ct)
    if isinstance(expr, A.Not):
        check_expr(expr.expr, env, ct)
        return T.BOOL
    if isinstance(expr, A.Or):
        check_expr(expr.left, env, ct)
        check_expr(expr.right, env, ct)
        return T.BOOL
    if isinstance(expr, A.MethodDef):
        return check_expr(expr.body, env, ct)
    raise SynTypeError(f"cannot type expression {expr!r}")


def _check_call(expr: A.MethodCall, env: Mapping[str, T.Type], ct: ClassTable) -> T.Type:
    receiver_type = check_expr(expr.receiver, env, ct)

    # A union receiver must support the method on every member; the call's
    # type is the least upper bound of the member results.
    member_types = T.union_members(receiver_type)
    result: Optional[T.Type] = None
    for member in member_types:
        resolved = receiver_lookup(ct, member, expr.name)
        if resolved is None:
            raise SynTypeError(
                f"no method {expr.name!r} on receiver of type {member}"
            )
        _check_args(expr, resolved, env, ct)
        result = resolved.ret_type if result is None else T.lub(result, resolved.ret_type, ct)
    assert result is not None
    return result


def _check_args(
    expr: A.MethodCall,
    resolved: ResolvedSig,
    env: Mapping[str, T.Type],
    ct: ClassTable,
) -> None:
    if len(expr.args) != len(resolved.arg_types):
        raise SynTypeError(
            f"{resolved.sig.qualified_name} expects {len(resolved.arg_types)} "
            f"arguments, got {len(expr.args)}"
        )
    for arg, expected in zip(expr.args, resolved.arg_types):
        actual = check_expr(arg, env, ct)
        if not ct.is_subtype(actual, expected):
            raise SynTypeError(
                f"argument of {resolved.sig.qualified_name} has type {actual}, "
                f"expected {expected}"
            )


def check_program(
    program: A.MethodDef,
    param_types: Mapping[str, T.Type],
    ct: ClassTable,
) -> T.Type:
    """Typecheck a whole synthesized method definition."""

    return check_expr(program.body, dict(param_types), ct)


def well_typed(expr: A.Node, env: Mapping[str, T.Type], ct: ClassTable) -> bool:
    """Boolean convenience wrapper used by the enumerator to prune candidates."""

    try:
        check_expr(expr, env, ct)
        return True
    except SynTypeError:
        return False
