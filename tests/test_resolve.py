"""Unit tests for the name-resolution layer (repro.lang.resolve).

The resolver's two products -- sorted free-variable tuples and De Bruijn
alpha keys -- are the keys every env-sensitive memo in the engine shares, so
their contracts are pinned here directly: ordering and memoization of
``free_var_tuple``, alpha-equivalence (and its limits) for ``alpha_key``, and
the pickle behavior of the memo slots.
"""

from __future__ import annotations

import pickle

from repro.lang import ast as A
from repro.lang.resolve import alpha_key, free_var_tuple


def _let(name, value, body):
    return A.Let(name, value, body)


# ---------------------------------------------------------------------------
# free_var_tuple
# ---------------------------------------------------------------------------


def test_free_var_tuple_is_sorted_and_deduplicated():
    expr = A.Seq(
        A.call(A.Var("zeta"), "+", A.Var("alpha")),
        A.Seq(A.Var("mid"), A.Var("alpha")),
    )
    assert free_var_tuple(expr) == ("alpha", "mid", "zeta")


def test_free_var_tuple_excludes_bound_names():
    expr = _let("v", A.Var("outer"), A.call(A.Var("v"), "+", A.Var("free")))
    assert free_var_tuple(expr) == ("free", "outer")
    # The binder is free in its value position but bound in the body.
    shadow = _let("v", A.Var("v"), A.Var("v"))
    assert free_var_tuple(shadow) == ("v",)


def test_free_var_tuple_matches_free_vars_set():
    expr = A.If(A.Var("c"), _let("x", A.Var("a"), A.Var("x")), A.Var("b"))
    assert free_var_tuple(expr) == tuple(sorted(A.free_variables(expr)))


def test_free_var_tuple_is_memoized_per_node():
    # Computed once, at construction: the tuple is the node's ``_fv``.
    expr = A.call(A.Var("a"), "+", A.Var("b"))
    assert free_var_tuple(expr) is expr._fv
    assert free_var_tuple(expr) is free_var_tuple(expr)


def test_method_def_body_free_vars_name_the_params():
    # ``free_var_tuple`` is an *expression* primitive: a MethodDef's params
    # are bindings supplied by ``call_program``, so they appear free in the
    # body's tuple (only those the body uses).
    program = A.MethodDef(
        "m", ("arg0", "arg1"), A.call(A.Var("arg0"), "+", A.Var("stray"))
    )
    assert free_var_tuple(program.body) == ("arg0", "stray")


# ---------------------------------------------------------------------------
# alpha_key
# ---------------------------------------------------------------------------


def test_alpha_key_identifies_renamed_lets():
    a = _let("a", A.IntLit(1), A.call(A.Var("a"), "+", A.IntLit(2)))
    b = _let("b", A.IntLit(1), A.call(A.Var("b"), "+", A.IntLit(2)))
    assert alpha_key(a) == alpha_key(b)


def test_alpha_key_identifies_renamed_nested_lets():
    a = _let("x", A.IntLit(1), _let("y", A.Var("x"), A.Var("y")))
    b = _let("p", A.IntLit(1), _let("q", A.Var("p"), A.Var("q")))
    assert alpha_key(a) == alpha_key(b)
    # Swapping which binder the inner body references breaks equivalence.
    c = _let("p", A.IntLit(1), _let("q", A.Var("p"), A.Var("p")))
    assert alpha_key(a) != alpha_key(c)


def test_alpha_key_distinguishes_free_variables_by_name():
    assert alpha_key(A.Var("arg0")) != alpha_key(A.Var("arg1"))
    a = _let("v", A.Var("arg0"), A.Var("v"))
    b = _let("v", A.Var("arg1"), A.Var("v"))
    assert alpha_key(a) != alpha_key(b)


def test_alpha_key_renamed_method_def_params_identify():
    a = A.MethodDef("m", ("x",), A.call(A.Var("x"), "title"))
    b = A.MethodDef("m", ("y",), A.call(A.Var("y"), "title"))
    assert alpha_key(a) == alpha_key(b)
    # Arity is part of the key.
    c = A.MethodDef("m", ("y", "z"), A.call(A.Var("y"), "title"))
    assert alpha_key(a) != alpha_key(c)


def test_alpha_key_shadowing_is_not_conflated():
    # ``let v = 1 in let v = v in v`` vs ``let v = 1 in let w = v in v``:
    # the second body reads the *outer* binder, the first the inner one.
    a = _let("v", A.IntLit(1), _let("v", A.Var("v"), A.Var("v")))
    b = _let("v", A.IntLit(1), _let("w", A.Var("v"), A.Var("v")))
    assert alpha_key(a) != alpha_key(b)


def test_alpha_key_respects_outer_scope_argument():
    # Under an outer binder for "x", ``x`` is bound (a distance), not free.
    assert alpha_key(A.Var("x"), ("x",)) == 0
    assert alpha_key(A.Var("x"), ()) == ("fv", "x")
    body = A.call(A.Var("x"), "+", A.Var("free"))
    assert alpha_key(body, ("x",)) != alpha_key(body, ())


def test_alpha_key_memo_is_context_keyed():
    # The same node queried under different outer scopes must not
    # leak one context's key into the other.
    node = A.Var("x")
    free_key = alpha_key(node, ())
    bound_key = alpha_key(node, ("x",))
    assert free_key != bound_key
    assert alpha_key(node, ()) == free_key
    assert alpha_key(node, ("y", "x")) == bound_key


def test_resolver_memos_dropped_on_pickle():
    expr = _let("v", A.Var("free"), A.call(A.Var("v"), "+", A.Var("free")))
    compound = [node for node in A.walk(expr) if isinstance(node, A.Compound)]
    alpha_key(expr)
    assert all(node._alpha_memo for node in compound)
    payload = pickle.dumps(expr)
    revived = pickle.loads(payload)
    for node in A.walk(revived):
        assert getattr(node, "_alpha_memo", None) is None
    # ``_fv`` is recomputed at construction, not transported.
    assert b"_fv" not in payload and b"_alpha_memo" not in payload
    # Recomputation on the far side is deterministic.
    assert free_var_tuple(revived) == free_var_tuple(expr) == ("free",)
    assert alpha_key(revived) == alpha_key(expr)
