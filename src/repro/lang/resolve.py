"""Name resolution for lambda-syn: resolved bindings, computed once per node.

Candidates share every subtree off their root-to-hole spine
(:func:`repro.lang.ast.replace_at`), so anything derivable from binding
structure alone is worth computing once per node.  This module is that
resolution pass.  Its products:

* :func:`free_var_tuple` -- the node's free variables as a sorted tuple,
  the canonical ordering every env-keyed memo in the engine keys by
  (``typecheck.check_expr``'s incremental memo and, through its shared
  ``_memo_key``, the footprint memo of :mod:`repro.analysis.footprint`).
  Every node computes it at construction (its ``_fv``).
* :func:`alpha_key` -- a canonical De Bruijn-style key: two expressions get
  equal keys iff they are alpha-equivalent (identical up to consistent
  renaming of ``let``-bound and parameter names, with free variables still
  compared by name).  The :class:`~repro.analysis.prune.StaticPruner` keys
  its normal-form outcome memo by it so renamed lets share entries, and
  :class:`~repro.synth.cache.SynthCache` uses it for in-memory spec-outcome
  keys.

``alpha_key`` is memoized in the ``_alpha_memo`` slot of each compound node,
which a pickled node never carries (``repro.lang.ast.Node.__reduce__``
rebuilds it from its fields): resolver products never cross the process
boundary in the parallel subsystem and are recomputed (deterministically)
on the far side.  The memo is *per context*: the key of a subtree depends on
its position only through the De Bruijn distances of its free variables, so
it is a small dict keyed by that distance tuple.  Leaves are cheaper to key
than to look up, and have no memo slot.
"""

from __future__ import annotations

from typing import Hashable, Optional, Tuple

from repro.lang import ast as A

#: Per-node ``_alpha_memo`` dicts are cleared beyond this many contexts; real
#: searches see a handful of binder layouts per subtree (same params, few
#: fresh ``t0``-style names), so the bound only triggers on pathological use.
_ALPHA_MEMO_LIMIT = 64


# ---------------------------------------------------------------------------
# Free-variable tuples
# ---------------------------------------------------------------------------


def free_var_tuple(node: A.Node) -> Tuple[str, ...]:
    """The free variables of ``node``, sorted, as a tuple.

    Every memo that keys on "the bindings of the node's free variables"
    iterates this tuple, so keys agree across the typechecker, the footprint
    analysis and the caches.  The node computes it at construction (its
    ``_fv``), so this is a field read.
    """

    return node._fv


# ---------------------------------------------------------------------------
# Alpha keys
# ---------------------------------------------------------------------------


def alpha_key(node: A.Node, scope: Tuple[str, ...] = ()) -> Hashable:
    """A canonical key equal for exactly the alpha-equivalent expressions.

    Bound variables (``let`` binders, ``MethodDef`` parameters) are replaced
    by De Bruijn distances, so ``let a = e in a`` and ``let b = e in b`` key
    identically; *free* variables keep their names, so ``arg0`` and ``arg1``
    stay distinct.  ``scope`` names the binders already in force outside
    ``node`` (outermost first) -- callers keying whole candidates pass the
    default empty scope.
    """

    return _alpha(node, scope)


def _alpha(node: A.Node, bound: Tuple[str, ...]) -> Hashable:
    if not isinstance(node, A.Compound):
        return _alpha_structural(node, bound)
    # The key depends on ``bound`` only through the De Bruijn distances of
    # the node's free variables (every deeper lookup crosses a statically
    # known number of binders), so that distance tuple is a sound memo
    # context: same distances, same key.
    fvt = node._fv
    context = tuple([_debruijn(bound, name) for name in fvt]) if fvt else ()
    memo = getattr(node, "_alpha_memo", None)
    if memo is not None:
        hit = memo.get(context)
        if hit is not None:
            return hit
    key = _alpha_structural(node, bound)
    if memo is None:
        memo = {}
        object.__setattr__(node, "_alpha_memo", memo)
    elif len(memo) >= _ALPHA_MEMO_LIMIT:
        memo.clear()
    memo[context] = key
    return key


def _debruijn(bound: Tuple[str, ...], name: str) -> Optional[int]:
    """Distance to the innermost binder of ``name``, or ``None`` if free."""

    for i in range(len(bound) - 1, -1, -1):
        if bound[i] == name:
            return len(bound) - 1 - i
    return None


def _alpha_structural(node: A.Node, bound: Tuple[str, ...]) -> Hashable:
    if isinstance(node, A.Var):
        index = _debruijn(bound, node.name)
        if index is None:
            return ("fv", node.name)
        return index
    if isinstance(node, A.Let):
        return (
            "let",
            _alpha(node.value, bound),
            _alpha(node.body, bound + (node.var,)),
        )
    if isinstance(node, A.MethodDef):
        return (
            "def",
            node.name,
            len(node.params),
            _alpha(node.body, bound + node.params),
        )
    if isinstance(node, A.Seq):
        return ("seq", _alpha(node.first, bound), _alpha(node.second, bound))
    if isinstance(node, A.MethodCall):
        return (
            "call",
            node.name,
            _alpha(node.receiver, bound),
        ) + tuple(_alpha(arg, bound) for arg in node.args)
    if isinstance(node, A.HashLit):
        return (
            "hash",
            tuple((key, _alpha(value, bound)) for key, value in node.entries),
        )
    if isinstance(node, A.If):
        return (
            "if",
            _alpha(node.cond, bound),
            _alpha(node.then_branch, bound),
            _alpha(node.else_branch, bound),
        )
    if isinstance(node, A.Not):
        return ("not", _alpha(node.expr, bound))
    if isinstance(node, A.Or):
        return ("or", _alpha(node.left, bound), _alpha(node.right, bound))
    # Leaves (literals, constants, holes) are immutable with structural
    # equality; the node itself is its own canonical key.
    return node


__all__ = [
    "alpha_key",
    "free_var_tuple",
]
