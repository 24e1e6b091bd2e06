"""Tests for the interpreter, runtime values and effect logging."""

from __future__ import annotations

import random

import pytest

from repro.lang import ast as A
from repro.lang import types as T
from repro.lang import values as V
from repro.lang.effects import Effect
from repro.lang.pretty import pretty
from repro.interp import Interpreter, effect_capture
from repro.interp.effect_log import EffectLog, active_capture_depth, log_effect
from repro.interp.errors import (
    CallBudgetExceeded,
    NoMethodError,
    SynRuntimeError,
    UnboundVariableError,
)
from repro.typesys.class_table import MethodSig


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------


def test_symbols_are_interned():
    assert V.Symbol("title") is V.Symbol("title")
    assert V.sym("a") != V.sym("b")
    assert repr(V.sym("a")) == ":a"


def test_symbols_are_immutable():
    with pytest.raises(AttributeError):
        V.Symbol("title").name = "other"


def test_hash_value_basics():
    h = V.HashValue.of(title="Foo", author="bar")
    assert h[V.sym("title")] == "Foo"
    assert V.sym("author") in h
    assert len(h) == 2
    assert h.to_kwargs() == {"title": "Foo", "author": "bar"}
    assert h == V.HashValue.of(author="bar", title="Foo")


def test_truthiness_is_ruby_style():
    assert not V.truthy(None)
    assert not V.truthy(False)
    assert V.truthy(0)
    assert V.truthy("")
    assert V.truthy([])


def test_class_name_of_builtin_values():
    assert V.class_name_of_value(None) == "NilClass"
    assert V.class_name_of_value(True) == "TrueClass"
    assert V.class_name_of_value(False) == "FalseClass"
    assert V.class_name_of_value(3) == "Integer"
    assert V.class_name_of_value("s") == "String"
    assert V.class_name_of_value(V.sym("x")) == "Symbol"
    assert V.class_name_of_value(V.HashValue.of()) == "Hash"
    assert V.class_name_of_value(V.ClassValue("Post")) == "Post"


def test_class_name_of_model_values(post_model):
    post = post_model.create(title="T", author="a", slug="s")
    assert V.class_name_of_value(post) == "Post"
    assert V.class_name_of_value(post_model) == "Post"
    assert V.is_class_value(post_model)
    assert not V.is_class_value(post)


def test_type_of_value(post_model):
    assert V.type_of_value(None) == T.NIL
    assert V.type_of_value(True) == T.TRUE_CLASS
    assert V.type_of_value(V.sym("t")) == T.SymbolType("t")
    assert V.type_of_value(post_model) == T.SingletonClassType("Post")
    hash_type = V.type_of_value(V.HashValue.of(title="x"))
    assert isinstance(hash_type, T.FiniteHashType)


# ---------------------------------------------------------------------------
# Effect log
# ---------------------------------------------------------------------------


def test_effect_capture_records_and_unwinds():
    assert active_capture_depth() == 0
    with effect_capture() as log:
        assert active_capture_depth() == 1
        log_effect(read=Effect.of("Post.title"))
    assert active_capture_depth() == 0
    assert log.read == Effect.of("Post.title")
    assert log.calls == 1


def test_nested_captures_both_record():
    with effect_capture() as outer:
        with effect_capture() as inner:
            log_effect(write=Effect.of("Post"))
        log_effect(read=Effect.of("User"))
    assert inner.write == Effect.of("Post")
    assert inner.read.is_pure
    assert outer.write == Effect.of("Post")
    assert outer.read == Effect.of("User")


def test_log_effect_without_capture_is_noop():
    log_effect(read=Effect.of("Post"))  # must not raise


def test_effect_log_reset():
    log = EffectLog()
    log.record(read=Effect.of("Post"))
    log.reset()
    assert log.pair.is_pure
    assert log.calls == 0


# ---------------------------------------------------------------------------
# Interpreter
# ---------------------------------------------------------------------------


def test_eval_literals(orm_class_table):
    interp = Interpreter(orm_class_table)
    assert interp.eval(A.NIL) is None
    assert interp.eval(A.TRUE) is True
    assert interp.eval(A.IntLit(3)) == 3
    assert interp.eval(A.StrLit("x")) == "x"
    assert interp.eval(A.SymLit("t")) == V.sym("t")


def test_eval_variables_and_unbound(orm_class_table):
    interp = Interpreter(orm_class_table)
    assert interp.eval(A.Var("x"), {"x": 41}) == 41
    with pytest.raises(UnboundVariableError):
        interp.eval(A.Var("y"), {})


def test_eval_const_ref_returns_model_class(orm_class_table, post_model):
    interp = Interpreter(orm_class_table)
    assert interp.eval(A.ConstRef("Post")) is post_model


def test_eval_const_ref_unknown(orm_class_table):
    interp = Interpreter(orm_class_table)
    with pytest.raises(SynRuntimeError):
        interp.eval(A.ConstRef("Ghost"))


def test_eval_seq_let_if_or_not(orm_class_table):
    interp = Interpreter(orm_class_table)
    assert interp.eval(A.Seq(A.IntLit(1), A.IntLit(2))) == 2
    assert interp.eval(A.Let("x", A.IntLit(5), A.Var("x"))) == 5
    assert interp.eval(A.If(A.FALSE, A.IntLit(1), A.IntLit(2))) == 2
    assert interp.eval(A.If(A.NIL, A.IntLit(1), A.IntLit(2))) == 2
    assert interp.eval(A.Not(A.NIL)) is True
    assert interp.eval(A.Or(A.FALSE, A.StrLit("x"))) == "x"
    assert interp.eval(A.Or(A.IntLit(1), A.StrLit("x"))) == 1


def test_eval_hash_literal(orm_class_table):
    interp = Interpreter(orm_class_table)
    value = interp.eval(A.hash_lit(title=A.StrLit("Foo")))
    assert isinstance(value, V.HashValue)
    assert value[V.sym("title")] == "Foo"


def test_eval_holes_rejected(orm_class_table):
    interp = Interpreter(orm_class_table)
    for expr in (
        A.TypedHole(T.STRING),
        A.EffectHole(Effect.of("Post")),
        # A hole reached inside a compound expression fails too.
        A.Seq(A.IntLit(1), A.TypedHole(T.INT)),
        A.If(A.FALSE, A.IntLit(7), A.TypedHole(T.INT)),
    ):
        with pytest.raises(SynRuntimeError, match="holes"):
            interp.eval(expr)


def test_hole_in_untaken_branch_is_not_evaluated(orm_class_table):
    interp = Interpreter(orm_class_table)
    assert interp.eval(A.If(A.TRUE, A.IntLit(7), A.TypedHole(T.INT))) == 7


def test_method_dispatch_and_effects(orm_class_table, post_model):
    post_model.create(author="a", title="Hello", slug="hw")
    interp = Interpreter(orm_class_table)
    expr = A.call(
        A.call(A.call(A.ConstRef("Post"), "where", A.hash_lit(slug=A.StrLit("hw"))), "first"),
        "title",
    )
    with effect_capture() as log:
        assert interp.eval(expr) == "Hello"
    assert Effect.of("Post.title").regions <= log.read.regions


def test_method_call_on_nil_raises_no_method(orm_class_table):
    interp = Interpreter(orm_class_table)
    with pytest.raises(NoMethodError):
        interp.eval(A.call(A.NIL, "title"))


def test_unknown_method_raises(orm_class_table, post_model):
    post_model.create(author="a", title="t", slug="s")
    interp = Interpreter(orm_class_table)
    with pytest.raises(NoMethodError):
        interp.eval(A.call(A.call(A.ConstRef("Post"), "first"), "frobnicate"))


def test_setter_writes_through_to_database(orm_class_table, post_model):
    post_model.create(author="a", title="Hello", slug="hw")
    interp = Interpreter(orm_class_table)
    expr = A.call(A.call(A.ConstRef("Post"), "first"), "title=", A.StrLit("New"))
    interp.eval(expr)
    assert post_model.first().title == "New"


def test_call_program_binds_parameters(orm_class_table):
    interp = Interpreter(orm_class_table)
    program = A.MethodDef("m", ("arg0", "arg1"), A.Var("arg1"))
    assert interp.call_program(program, "a", "b") == "b"
    with pytest.raises(SynRuntimeError):
        interp.call_program(program, "only-one")


def test_hash_index_method(orm_class_table):
    interp = Interpreter(orm_class_table)
    expr = A.call(A.Var("h"), "[]", A.SymLit("title"))
    assert interp.eval(expr, {"h": V.HashValue.of(title="Foo")}) == "Foo"


def test_integer_arithmetic_methods(orm_class_table):
    interp = Interpreter(orm_class_table)
    assert interp.eval(A.call(A.IntLit(5), "-", A.IntLit(1))) == 4
    assert interp.eval(A.call(A.IntLit(5), "+", A.IntLit(2))) == 7


def test_call_budget_exhaustion(orm_class_table):
    interp = Interpreter(orm_class_table, max_calls=2)
    expr = A.call(A.call(A.call(A.IntLit(1), "+", A.IntLit(1)), "+", A.IntLit(1)), "+", A.IntLit(1))
    with pytest.raises(CallBudgetExceeded):
        interp.eval(expr)
    # The third call is charged, and refused, before its receiver runs.
    assert interp.calls_charged == 3


def test_nested_eval_shares_one_call_budget(orm_class_table):
    """Regression: re-entrant ``eval`` must not reset the outer call budget.

    ``reenter``'s implementation re-enters the interpreter; historically each
    ``eval`` entry wiped ``_calls``, so the outer chain never exhausted its
    budget no matter how long it ran.
    """

    reenter_body = A.call(A.IntLit(1), "+", A.IntLit(1))
    orm_class_table.add_method(
        MethodSig(
            owner="Integer",
            name="reenter",
            arg_types=(),
            ret_type=T.INT,
            impl=lambda interp, recv: interp.eval(reenter_body),
        )
    )
    interp = Interpreter(orm_class_table, max_calls=3)
    # Each reenter call charges itself plus one nested "+": 3 chained calls
    # charge 6 > 3, which the pre-fix accounting never noticed.
    expr = A.IntLit(1)
    for _ in range(3):
        expr = A.call(expr, "reenter")
    with pytest.raises(CallBudgetExceeded):
        interp.eval(expr)

    # Within budget the charges still accumulate across nesting levels.
    roomy = Interpreter(orm_class_table, max_calls=100)
    assert roomy.eval(A.call(A.IntLit(1), "reenter")) == 2
    assert roomy.calls_charged == 2


def test_budget_resets_between_outermost_evals(orm_class_table):
    interp = Interpreter(orm_class_table, max_calls=2)
    expr = A.call(A.call(A.IntLit(1), "+", A.IntLit(1)), "+", A.IntLit(1))
    assert interp.eval(expr) == 3
    assert interp.calls_charged == 2
    assert interp.eval(expr) == 3  # fresh outermost entry, fresh budget


# ---------------------------------------------------------------------------
# Shadowing: every case is a binding-structure trap -- shadowed parameters,
# rebinding in nested lets, sibling lets reusing a name at the same depth, a
# let value reading the name it is about to shadow, shadowing confined to one
# branch -- and must resolve to the innermost binding in force.
# ---------------------------------------------------------------------------


def _let(name, value, body):
    return A.Let(name, value, body)


_SHADOW_ENV = {"p": "outer-p", "n": 5, "s": "hw", "flag": True}

_SHADOWING_CASES = [
    # Parameter shadowed by a let: the body must see the inner binding.
    (_let("p", A.IntLit(1), A.Var("p")), 1),
    # ... and the let *value* must still see the outer one.
    (_let("p", A.call(A.Var("n"), "+", A.IntLit(1)), A.Var("p")), 6),
    # Rebinding chain: each let shadows the previous same-named binder.
    (
        _let("v", A.IntLit(1), _let("v", A.call(A.Var("v"), "+", A.IntLit(10)), A.Var("v"))),
        11,
    ),
    # Triple rebinding, innermost wins.
    (_let("v", A.IntLit(1), _let("v", A.IntLit(2), _let("v", A.IntLit(3), A.Var("v")))), 3),
    # Sibling lets at the same depth: the second must not see the first's
    # frame slot as stale state (frames pop between siblings).
    (A.Seq(_let("v", A.IntLit(7), A.Var("v")), _let("v", A.StrLit("x"), A.Var("v"))), "x"),
    # A shadowing let confined to the taken then-branch ...
    (A.If(A.Var("flag"), _let("n", A.IntLit(100), A.Var("n")), A.Var("n")), 100),
    # ... and to an untaken one: the else-branch still sees the parameter.
    (A.If(A.Not(A.Var("flag")), _let("n", A.IntLit(100), A.Var("n")), A.Var("n")), 5),
    # The let value reads the binder it is about to shadow (no self-capture).
    (_let("n", A.call(A.Var("n"), "+", A.Var("n")), A.Var("n")), 10),
    # Shadowing inside a hash literal entry.
    (
        _let("n", A.IntLit(5), A.hash_lit(title=A.Var("n"), slug=A.Var("s"))),
        V.HashValue.of(title=5, slug="hw"),
    ),
    # Escape after pop: the inner let's frame slot must not leak into the
    # outer expression once its body ends.
    (A.Seq(_let("zz", A.IntLit(9), A.Var("zz")), A.Var("n")), 5),
    # An unbound name at a slot position that *was* bound in a sibling.
    (A.Seq(_let("w", A.IntLit(1), A.Var("w")), A.Var("w")), UnboundVariableError),
    # Method-call receiver and args each under their own shadow.
    (
        _let("n", A.IntLit(2), A.call(A.Var("n"), "+", _let("n", A.IntLit(40), A.Var("n")))),
        42,
    ),
    # Or short-circuit with a shadowed binder in the untaken right side.
    (_let("v", A.TRUE, A.Or(A.Var("v"), _let("v", A.NIL, A.Var("v")))), True),
]


@pytest.mark.parametrize(
    "expr, expected", _SHADOWING_CASES, ids=[pretty(e)[:60] for e, _ in _SHADOWING_CASES]
)
def test_shadowing_battery(orm_class_table, expr, expected):
    interp = Interpreter(orm_class_table)
    if isinstance(expected, type) and issubclass(expected, Exception):
        with pytest.raises(expected):
            interp.eval(expr, _SHADOW_ENV)
    else:
        assert interp.eval(expr, _SHADOW_ENV) == expected


def test_deep_shadowing_tower_resolves_innermost(orm_class_table):
    """A 30-deep rebinding tower: every level shadows the same name."""

    expr = A.Var("v")
    for depth in range(30, 0, -1):
        expr = A.Let("v", A.IntLit(depth), expr)
    assert Interpreter(orm_class_table).eval(expr, {"v": -1}) == 30


# ---------------------------------------------------------------------------
# Seeded generated expressions
# ---------------------------------------------------------------------------


_METHOD_NAMES = ("first", "title", "where", "count", "+", "-", "[]", "frobnicate")


def _gen_expr(rng: random.Random, depth: int) -> A.Node:
    """A random expression over the ORM fixture's vocabulary.

    Intentionally includes ill-formed choices (unbound variables, unknown
    constants/methods, holes) so error behavior is exercised too.  Only
    read-only methods are drawn, so the database never changes.
    """

    leaves = [
        lambda: A.NIL,
        lambda: A.TRUE,
        lambda: A.FALSE,
        lambda: A.IntLit(rng.randrange(-3, 7)),
        lambda: A.StrLit(rng.choice(["hw", "Hello", ""])),
        lambda: A.SymLit(rng.choice(["title", "slug", "missing"])),
        lambda: A.Var(rng.choice(["p", "n", "s", "h", "v", "zz"])),
        lambda: A.ConstRef(rng.choice(["Post", "Ghost"])),
        lambda: A.TypedHole(T.STRING),
    ]
    if depth <= 0:
        return rng.choice(leaves[:-1])()  # holes only via the weighted pick
    roll = rng.random()
    sub = lambda: _gen_expr(rng, depth - 1)  # noqa: E731
    if roll < 0.30:
        return rng.choice(leaves)()
    if roll < 0.40:
        return A.Seq(sub(), sub())
    if roll < 0.50:
        return A.Let("v", sub(), sub())
    if roll < 0.60:
        return A.If(sub(), sub(), sub())
    if roll < 0.66:
        return A.Not(sub())
    if roll < 0.72:
        return A.Or(sub(), sub())
    if roll < 0.78:
        return A.hash_lit(title=sub())
    name = rng.choice(_METHOD_NAMES)
    args = tuple(sub() for _ in range(rng.randrange(0, 2)))
    return A.call(sub(), name, *args)


def _run_stream(orm_class_table, env, seed, count, depth, max_calls):
    """Evaluate a seeded stream; the outcome kinds seen, by error type."""

    rng = random.Random(seed)
    kinds = set()
    for _ in range(count):
        expr = _gen_expr(rng, depth)
        interp = Interpreter(orm_class_table, max_calls=max_calls)
        try:
            interp.eval(expr, env)
        except SynRuntimeError as exc:
            kinds.add(type(exc))
        else:
            kinds.add("value")
            assert interp.calls_charged <= max_calls
    return kinds


def test_seeded_generated_expressions_give_values_and_errors(
    orm_class_table, post_model
):
    post_model.create(author="a", title="Hello", slug="hw")
    env = {"p": post_model.first(), "n": 5, "s": "hw", "h": V.HashValue.of(title="Hello")}
    kinds = _run_stream(orm_class_table, env, 0x5EED, 200, depth=3, max_calls=100_000)
    # The stream exercises both success and failure paths, and every
    # failure is reported as a SynRuntimeError (the only kind caught above).
    assert "value" in kinds
    assert {UnboundVariableError, NoMethodError} <= kinds


def test_generated_expressions_under_tight_budget_hit_call_budget(
    orm_class_table, post_model
):
    post_model.create(author="a", title="Hello", slug="hw")
    env = {"p": post_model.first(), "n": 5, "s": "hw", "h": V.HashValue.of()}
    kinds = _run_stream(orm_class_table, env, 0xB06E7, 150, depth=4, max_calls=2)
    assert CallBudgetExceeded in kinds
