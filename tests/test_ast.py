"""Tests for AST construction, metrics, hole traversal and replacement."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lang import ast as A
from repro.lang import types as T
from repro.lang.effects import Effect


def _sample_expr():
    # t0 = Post.where(slug: arg1).first; t0.title = arg2[:title]; t0
    return A.Let(
        "t0",
        A.call(A.call(A.ConstRef("Post"), "where", A.hash_lit(slug=A.Var("arg1"))), "first"),
        A.seq(
            A.call(A.Var("t0"), "title=", A.call(A.Var("arg2"), "[]", A.SymLit("title"))),
            A.Var("t0"),
        ),
    )


# ---------------------------------------------------------------------------
# Structural equality and hashing
# ---------------------------------------------------------------------------


def test_structural_equality():
    assert _sample_expr() == _sample_expr()
    assert hash(_sample_expr()) == hash(_sample_expr())


def test_inequality_on_different_subterms():
    assert A.Var("a") != A.Var("b")
    assert A.call(A.Var("x"), "m") != A.call(A.Var("x"), "n")


def test_nodes_usable_in_sets():
    exprs = {A.Var("a"), A.Var("a"), A.Var("b")}
    assert len(exprs) == 2


# ---------------------------------------------------------------------------
# node_count / paths
# ---------------------------------------------------------------------------


def test_node_count_counts_every_node():
    assert A.node_count(A.Var("x")) == 1
    assert A.node_count(A.call(A.ConstRef("Post"), "first")) == 2
    expr = _sample_expr()
    assert A.node_count(expr) == 13


def test_node_count_is_memoized_but_correct_for_shared_subtrees():
    shared = A.call(A.ConstRef("Post"), "first")
    expr = A.Seq(shared, shared)
    assert A.node_count(expr) == 5


def test_count_paths_straight_line():
    assert A.count_paths(_sample_expr()) == 1


def test_count_paths_branches():
    expr = A.If(A.TRUE, A.Var("a"), A.If(A.TRUE, A.Var("b"), A.Var("c")))
    assert A.count_paths(expr) == 3


def test_count_paths_method_def():
    program = A.MethodDef("m", ("x",), A.If(A.TRUE, A.Var("x"), A.NIL))
    assert A.count_paths(program) == 2


def test_count_holes_and_has_holes():
    expr = A.call(A.TypedHole(T.STRING), "m", A.EffectHole(Effect.of("Post")))
    assert A.count_holes(expr) == 2
    assert A.has_holes(expr)
    assert not A.has_holes(_sample_expr())


def test_free_variables():
    expr = _sample_expr()
    assert A.free_variables(expr) == frozenset({"arg1", "arg2"})
    assert A.free_variables(A.Let("x", A.Var("y"), A.Var("x"))) == frozenset({"y"})


def test_bound_names():
    assert A.bound_names(_sample_expr()) == ["t0"]


# ---------------------------------------------------------------------------
# Hole traversal and replacement
# ---------------------------------------------------------------------------


def test_first_hole_none_for_complete_expr():
    assert A.first_hole(_sample_expr()) is None


def test_first_hole_finds_leftmost():
    expr = A.call(A.TypedHole(T.ClassType("Post")), "where", A.TypedHole(T.HASH))
    site = A.first_hole(expr)
    assert isinstance(site.hole, A.TypedHole)
    assert site.hole.type == T.ClassType("Post")


def test_iter_holes_order_and_count():
    expr = A.Seq(A.TypedHole(T.STRING), A.EffectHole(Effect.of("Post")))
    holes = list(A.iter_holes(expr))
    assert len(holes) == 2
    assert isinstance(holes[0].hole, A.TypedHole)
    assert isinstance(holes[1].hole, A.EffectHole)


def test_hole_site_reports_let_bindings():
    expr = A.Let("t0", A.call(A.ConstRef("Post"), "first"), A.TypedHole(T.STRING))
    site = A.first_hole(expr)
    assert site.bindings == (("t0", A.call(A.ConstRef("Post"), "first")),)


def test_hole_in_let_value_has_no_binding():
    expr = A.Let("t0", A.TypedHole(T.STRING), A.Var("t0"))
    site = A.first_hole(expr)
    assert site.bindings == ()


def test_replace_at_root():
    assert A.replace_at(A.TypedHole(T.STRING), (), A.Var("x")) == A.Var("x")


def test_fill_first_hole_in_call_args():
    expr = A.call(A.ConstRef("Post"), "where", A.TypedHole(T.HASH))
    filled = A.fill_first_hole(expr, A.hash_lit(slug=A.Var("arg1")))
    assert filled == A.call(
        A.ConstRef("Post"), "where", A.hash_lit(slug=A.Var("arg1"))
    )


def test_fill_first_hole_inside_hash_entry():
    expr = A.call(A.ConstRef("Post"), "where", A.HashLit((("slug", A.TypedHole(T.STRING)),)))
    filled = A.fill_first_hole(expr, A.Var("arg1"))
    assert filled == A.call(A.ConstRef("Post"), "where", A.hash_lit(slug=A.Var("arg1")))


def test_fill_first_hole_requires_a_hole():
    with pytest.raises(ValueError):
        A.fill_first_hole(A.Var("x"), A.Var("y"))


def test_replacement_preserves_other_subtrees():
    expr = A.If(A.TypedHole(T.BOOL), A.Var("a"), A.Var("b"))
    filled = A.fill_first_hole(expr, A.TRUE)
    assert filled.then_branch == A.Var("a")
    assert filled.else_branch == A.Var("b")


# ---------------------------------------------------------------------------
# Constructors and helpers
# ---------------------------------------------------------------------------


def test_seq_right_nests():
    expr = A.seq(A.Var("a"), A.Var("b"), A.Var("c"))
    assert expr == A.Seq(A.Var("a"), A.Seq(A.Var("b"), A.Var("c")))
    assert A.seq(A.Var("a")) == A.Var("a")
    with pytest.raises(ValueError):
        A.seq()


def test_fresh_name_avoids_taken():
    assert A.fresh_name("t", []) == "t0"
    assert A.fresh_name("t", ["t0", "t1"]) == "t2"


def test_walk_visits_all_nodes():
    expr = _sample_expr()
    assert len(list(A.walk(expr))) == A.node_count(expr)


# ---------------------------------------------------------------------------
# Property-based tests
# ---------------------------------------------------------------------------

_leaves = st.sampled_from(
    [A.NIL, A.TRUE, A.FALSE, A.IntLit(1), A.StrLit("s"), A.Var("x"),
     A.TypedHole(T.STRING), A.EffectHole(Effect.of("Post")), A.ConstRef("Post")]
)


def _exprs(depth=3):
    if depth == 0:
        return _leaves
    sub = _exprs(depth - 1)
    return st.one_of(
        _leaves,
        st.tuples(sub, sub).map(lambda p: A.Seq(*p)),
        st.tuples(sub, st.lists(sub, max_size=2)).map(
            lambda p: A.MethodCall(p[0], "m", tuple(p[1]))
        ),
        st.tuples(sub, sub, sub).map(lambda p: A.If(*p)),
        st.tuples(sub, sub).map(lambda p: A.Let("v", p[0], p[1])),
        st.lists(sub, min_size=1, max_size=2).map(
            lambda vs: A.HashLit(tuple((f"k{i}", v) for i, v in enumerate(vs)))
        ),
        sub.map(A.Not),
        st.tuples(sub, sub).map(lambda p: A.Or(*p)),
    )


def _reference_replace(node, path, replacement):
    """``replace_at`` rebuilt through each class's constructor by hand,
    independently of ``Node.with_child``."""

    if not path:
        return replacement
    index, rest = path[0], path[1:]
    kids = list(node.children())
    kids[index] = _reference_replace(kids[index], rest, replacement)
    if isinstance(node, A.MethodCall):
        return A.MethodCall(kids[0], node.name, tuple(kids[1:]))
    if isinstance(node, A.HashLit):
        return A.HashLit(tuple((key, kid) for (key, _), kid in zip(node.entries, kids)))
    if isinstance(node, A.Let):
        return A.Let(node.var, *kids)
    return type(node)(*kids)  # Seq, If, Not, Or


@given(_exprs())
@settings(max_examples=80, deadline=None)
def test_node_count_positive_and_walk_consistent(expr):
    assert A.node_count(expr) == len(list(A.walk(expr))) >= 1


def _walked_holes(expr):
    return sum(isinstance(n, (A.TypedHole, A.EffectHole)) for n in A.walk(expr))


@given(_exprs())
@settings(max_examples=80, deadline=None)
def test_construction_time_fields_agree_with_traversals(expr):
    assert A.count_holes(expr) == _walked_holes(expr)
    assert A.has_holes(expr) == (_walked_holes(expr) > 0)
    assert A.first_hole(expr) == next(A.iter_holes(expr), None)


@given(_exprs())
@settings(max_examples=80, deadline=None)
def test_replace_at_every_hole_matches_a_reference_rebuild(expr):
    filler = A.call(A.Var("filler"), "m")
    for site in A.iter_holes(expr):
        spliced = A.replace_at(expr, site.path, filler)
        expected = _reference_replace(expr, site.path, filler)
        assert spliced == expected
        assert hash(spliced) == hash(expected)
        assert A.node_count(spliced) == len(list(A.walk(spliced)))
        assert A.count_holes(spliced) == _walked_holes(spliced)
        # A pending entry knows the size and holes of the tree it builds.
        for replacement in (filler, A.TypedHole(T.INT)):
            entry = A.Pending(A.Splicer(expr, site.path), replacement)
            built = entry.build()
            assert built == _reference_replace(expr, site.path, replacement)
            assert entry.build() is built
            assert entry.size == len(list(A.walk(built)))
            assert entry.holes == _walked_holes(built)


@given(_exprs())
@settings(max_examples=80, deadline=None)
def test_structural_equality_is_hash_consistent(expr):
    import copy
    import pickle

    for other in (copy.deepcopy(expr), pickle.loads(pickle.dumps(expr))):
        assert expr == other
        assert hash(expr) == hash(other)
        assert A.node_count(other) == A.node_count(expr)


@given(_exprs())
@settings(max_examples=80, deadline=None)
def test_filling_first_hole_reduces_hole_count(expr):
    holes_before = A.count_holes(expr)
    if holes_before == 0:
        assert A.first_hole(expr) is None
        return
    filled = A.fill_first_hole(expr, A.Var("filler"))
    assert A.count_holes(filled) == holes_before - 1


@given(_exprs())
@settings(max_examples=80, deadline=None)
def test_paths_at_least_one(expr):
    assert A.count_paths(expr) >= 1
