"""Unit tests for the synthesis components: enumeration, effect guidance,
search, merging, simplification, pretty printing and the spec DSL."""

from __future__ import annotations

import pytest

from repro.lang import ast as A
from repro.lang import types as T
from repro.lang.effects import Effect
from repro.lang.pretty import pretty, pretty_block
from repro.apps.blog import build_blog_app, seed_blog
from repro.benchmarks import get_benchmark
from repro.synth import SynthConfig, SynthesisSession, define, evaluate_spec
from repro.synth.config import ORDER_FIFO
from repro.synth.effect_guided import expand_effect_hole, insert_effect_hole, writers_for
from repro.synth.enumerate import expand_typed_hole
from repro.synth.goal import Budget, evaluate_guard
from repro.synth.merge import Merger, SpecSolution
from repro.synth.search import generate_for_spec, generate_guard
from repro.synth.simplify import simplify


def _synthesize(problem, config):
    with SynthesisSession(config) as session:
        return session.run(problem)


# ---------------------------------------------------------------------------
# Shared problem fixture
# ---------------------------------------------------------------------------


@pytest.fixture()
def blog_problem():
    app = build_blog_app()
    User = app.models["User"]
    problem = define(
        "find_user",
        "(Str) -> User",
        consts=[True, False, User],
        class_table=app.class_table,
        reset=app.reset,
    )

    def setup(ctx):
        seed_blog(app)
        ctx.invoke("carol")

    def postcond(ctx, result):
        ctx.assert_(lambda: result.username == "carol")

    problem.add_spec("finds carol", setup, postcond)
    problem.app = app  # type: ignore[attr-defined]
    return problem


# ---------------------------------------------------------------------------
# Pretty printer
# ---------------------------------------------------------------------------


def test_pretty_keyword_hash_call():
    expr = A.call(A.ConstRef("Post"), "where", A.hash_lit(slug=A.Var("arg1")))
    assert pretty(expr) == "Post.where(slug: arg1)"


def test_pretty_setter_and_index():
    expr = A.call(A.Var("t0"), "title=", A.call(A.Var("arg2"), "[]", A.SymLit("title")))
    assert pretty(expr) == "t0.title = arg2[:title]"


def test_pretty_operator_and_negation():
    assert pretty(A.call(A.Var("x"), "-", A.IntLit(1))) == "x - 1"
    assert pretty(A.Not(A.Var("b"))) == "!b"
    assert pretty(A.Or(A.Var("a"), A.Var("b"))) == "a || b"


def test_pretty_holes():
    assert "□" in pretty(A.TypedHole(T.ClassType("Post")))
    assert "◇" in pretty(A.EffectHole(Effect.of("Post.title")))


def test_pretty_block_method_def():
    program = A.MethodDef(
        "m", ("arg0",), A.If(A.Var("arg0"), A.StrLit("yes"), A.StrLit("no"))
    )
    text = pretty_block(program)
    assert text.splitlines()[0] == "def m(arg0)"
    assert text.splitlines()[-1] == "end"
    assert "  if arg0" in text


def test_pretty_block_if_without_else():
    text = pretty_block(A.If(A.Var("b"), A.Var("x"), A.NIL))
    assert "else" not in text


# ---------------------------------------------------------------------------
# Simplifier
# ---------------------------------------------------------------------------


def test_simplify_drops_pure_statements():
    expr = A.Seq(A.NIL, A.Var("x"))
    assert simplify(expr) == A.Var("x")


def test_simplify_drops_dead_pure_let():
    expr = A.Let("t", A.Var("y"), A.Var("x"))
    assert simplify(expr) == A.Var("x")


def test_simplify_keeps_effectful_dead_let_value():
    call = A.call(A.ConstRef("Post"), "first")
    expr = A.Let("t", call, A.Var("x"))
    assert simplify(expr) == A.Seq(call, A.Var("x"))


def test_simplify_keeps_used_let():
    expr = A.Let("t", A.call(A.ConstRef("Post"), "first"), A.Var("t"))
    assert simplify(expr) == expr


def test_simplify_double_negation():
    assert simplify(A.Not(A.Not(A.Var("b")))) == A.Var("b")


def test_simplify_recurses_into_branches():
    expr = A.If(A.TRUE, A.Seq(A.NIL, A.Var("x")), A.Var("y"))
    assert simplify(expr) == A.If(A.TRUE, A.Var("x"), A.Var("y"))


# ---------------------------------------------------------------------------
# Type-guided enumeration
# ---------------------------------------------------------------------------


def _built(entries):
    """The trees of an expansion's pending entries."""

    return [entry.build() for entry in entries]


def test_expand_root_hole_offers_vars_consts_and_calls(blog_problem):
    config = SynthConfig()
    root = A.TypedHole(T.ClassType("User"))
    site = A.first_hole(root)
    candidates = _built(expand_typed_hole(root, site, blog_problem, config))
    assert any(isinstance(c, A.MethodCall) for c in candidates)
    # No Str-typed constant or variable fits a User-typed hole.
    assert A.Var("arg0") not in candidates
    assert A.TRUE not in candidates


def test_expand_bool_hole_includes_constants(blog_problem):
    config = SynthConfig()
    root = A.TypedHole(T.BOOL)
    site = A.first_hole(root)
    candidates = _built(expand_typed_hole(root, site, blog_problem, config))
    assert A.TRUE in candidates and A.FALSE in candidates


def test_expand_unguided_mode_ignores_types(blog_problem):
    config = SynthConfig.unguided()
    root = A.TypedHole(T.ClassType("User"))
    site = A.first_hole(root)
    candidates = _built(expand_typed_hole(root, site, blog_problem, config))
    assert A.Var("arg0") in candidates  # type filter disabled


def test_expand_hash_hole_enumerates_key_subsets(blog_problem):
    config = SynthConfig(max_hash_keys=2)
    hash_type = T.FiniteHashType.make(optional={"a": T.STRING, "b": T.STRING})
    root = A.call(A.ConstRef("User"), "where", A.TypedHole(hash_type))
    site = A.first_hole(root)
    candidates = _built(expand_typed_hole(root, site, blog_problem, config))
    hash_args = [c.args[0] for c in candidates if isinstance(c.args[0], A.HashLit)]
    key_sets = {tuple(k for k, _ in h.entries) for h in hash_args}
    assert ("a",) in key_sets and ("b",) in key_sets and ("a", "b") in key_sets


def test_narrowing_prunes_nil_receivers(blog_problem):
    config = SynthConfig()
    expr = A.call(A.TypedHole(T.ClassType("User")), "name")
    site = A.first_hole(expr)
    candidates = _built(expand_typed_hole(expr, site, blog_problem, config))
    assert A.call(A.NIL, "name") not in candidates


def test_let_bindings_are_visible_at_holes(blog_problem):
    config = SynthConfig()
    expr = A.Let(
        "t0",
        A.call(A.ConstRef("User"), "first"),
        A.TypedHole(T.ClassType("User")),
    )
    site = A.first_hole(expr)
    candidates = _built(expand_typed_hole(expr, site, blog_problem, config))
    assert any(
        isinstance(c, A.Let) and c.body == A.Var("t0") for c in candidates
    )


def test_class_table_mutation_refreshes_the_s_app_productions(blog_problem):
    from repro.typesys.class_table import MethodSig

    config = SynthConfig()
    root = A.TypedHole(T.ClassType("User"))
    site = A.first_hole(root)
    newest = A.MethodCall(A.TypedHole(T.SingletonClassType("User")), "newest", ())
    assert newest not in _built(expand_typed_hole(root, site, blog_problem, config))
    blog_problem.class_table.add_method(
        MethodSig("User", "newest", (), T.ClassType("User"), singleton=True)
    )
    assert newest in _built(expand_typed_hole(root, site, blog_problem, config))


def test_production_table_dies_with_its_problem():
    # The S-Const/S-App table hangs off the problem: nothing may keep a
    # finished problem's constants (its model classes) -- and through them
    # its database -- alive after the run.  That includes the synthesized
    # program, which callers keep: its nodes must not reference the model
    # classes the run evaluated them against.
    import gc
    import weakref

    from repro.benchmarks import get_benchmark
    from repro.synth import SynthesisSession

    for benchmark_id in ("S3", "S4"):  # Sigma holds the User model class
        problem = get_benchmark(benchmark_id).build()
        database = weakref.ref(problem.database)
        with SynthesisSession(SynthConfig(timeout_s=60)) as session:
            result = session.run(problem)
        assert result.success
        assert problem._productions  # the run filled the table
        program = result.program
        del problem, result, session
        gc.collect()
        assert database() is None, benchmark_id
        assert program.body is not None  # held across the collection


# ---------------------------------------------------------------------------
# Effect-guided synthesis
# ---------------------------------------------------------------------------


def test_insert_effect_hole_shape(blog_problem):
    expr = A.call(A.ConstRef("User"), "first")
    wrapped = insert_effect_hole(expr, Effect.of("User.name"), blog_problem)
    assert isinstance(wrapped, A.Let)
    assert isinstance(wrapped.body, A.Seq)
    assert isinstance(wrapped.body.first, A.EffectHole)
    assert isinstance(wrapped.body.second, A.TypedHole)
    assert wrapped.body.second.type == T.ClassType("User")


def test_writers_for_matches_setters_and_coarser_methods(blog_problem):
    names = writers_for(Effect.of("User.name"), blog_problem)
    assert "User#name=" in names
    assert "User#update!" in names
    assert "Post#title=" not in names


def test_expand_effect_hole_offers_writers_and_nil(blog_problem):
    config = SynthConfig()
    expr = A.Seq(A.EffectHole(Effect.of("User.name")), A.TypedHole(T.ClassType("User")))
    site = A.first_hole(expr)
    candidates = _built(expand_effect_hole(expr, site, blog_problem, config))
    assert any(
        isinstance(c.first, A.MethodCall) and c.first.name == "name=" for c in candidates
    )
    assert A.Seq(A.NIL, A.TypedHole(T.ClassType("User"))) in candidates


# ---------------------------------------------------------------------------
# Search and guards
# ---------------------------------------------------------------------------


def test_generate_for_spec_finds_solution(blog_problem):
    config = SynthConfig(timeout_s=20)
    expr = generate_for_spec(blog_problem, blog_problem.specs[0], config)
    assert expr is not None
    outcome = evaluate_spec(blog_problem, blog_problem.make_program(expr), blog_problem.specs[0])
    assert outcome.ok


def test_generate_guard_with_positive_and_negative_specs():
    app = build_blog_app()
    User = app.models["User"]
    problem = define(
        "guarded", "(Str) -> Bool", consts=[True, False, User],
        class_table=app.class_table, reset=app.reset,
    )

    def setup_present(ctx):
        seed_blog(app)
        ctx.invoke("carol")

    def setup_absent(ctx):
        seed_blog(app)
        ctx.invoke("nobody")

    postcond = lambda ctx, r: ctx.assert_(lambda: True)  # noqa: E731
    present = problem.add_spec("present", setup_present, postcond)
    absent = problem.add_spec("absent", setup_absent, postcond)

    guard = generate_guard(problem, [present], [absent], SynthConfig(timeout_s=20))
    assert guard is not None
    assert evaluate_guard(problem, guard, present, expect=True)
    assert evaluate_guard(problem, guard, absent, expect=False)
    # true alone cannot distinguish, so the guard must be something real.
    assert guard != A.TRUE


def test_exploration_order_fifo_still_solves(blog_problem):
    config = SynthConfig(timeout_s=20, exploration_order=ORDER_FIFO)
    expr = generate_for_spec(blog_problem, blog_problem.specs[0], config)
    assert expr is not None


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------


def test_merge_single_solution_is_unwrapped(blog_problem):
    config = SynthConfig(timeout_s=20)
    spec = blog_problem.specs[0]
    expr = generate_for_spec(blog_problem, spec, config)
    merger = Merger(blog_problem, config, Budget(20))
    program = merger.merge([SpecSolution(expr=expr, specs=(spec,))])
    assert program is not None
    assert not isinstance(program.body, A.If)


def test_merge_produces_branching_program_for_s5():
    from repro.benchmarks import get_benchmark

    benchmark = get_benchmark("S5")
    problem = benchmark.build()
    result = _synthesize(problem, benchmark.make_config(SynthConfig(timeout_s=60)))
    assert result.success
    assert result.paths == 2
    assert isinstance(result.program.body, A.If)


def test_merge_folds_boolean_branches_for_s7():
    from repro.benchmarks import get_benchmark

    benchmark = get_benchmark("S7")
    problem = benchmark.build()
    result = _synthesize(problem, benchmark.make_config(SynthConfig(timeout_s=60)))
    assert result.success
    assert result.paths == 1
    assert not isinstance(result.program.body, A.If)


# ---------------------------------------------------------------------------
# DSL and goal plumbing
# ---------------------------------------------------------------------------


def test_define_parses_signature_and_params(blog_problem):
    assert blog_problem.arg_types == (T.STRING,)
    assert blog_problem.ret_type == T.ClassType("User")
    assert blog_problem.params == ("arg0",)
    assert blog_problem.param_env == {"arg0": T.STRING}


def test_spec_builder_requires_both_blocks(blog_problem):
    builder = blog_problem.spec("incomplete")
    with pytest.raises(ValueError):
        builder.build()


def test_constant_exprs_conversion(blog_problem):
    exprs = dict(blog_problem.constant_exprs())
    assert A.TRUE in exprs
    assert A.ConstRef("User") in exprs


def test_evaluate_spec_counts_passed_asserts(blog_problem):
    spec = blog_problem.specs[0]
    program = blog_problem.make_program(A.call(A.ConstRef("User"), "first"))
    outcome = evaluate_spec(blog_problem, program, spec)
    assert not outcome.ok
    assert outcome.passed_asserts == 0
    assert outcome.has_effect_error  # the username read is captured


def test_evaluate_spec_backend_keyword_accepts_only_tree(blog_problem):
    spec = blog_problem.specs[0]
    program = blog_problem.make_program(A.call(A.ConstRef("User"), "first"))
    assert evaluate_spec(blog_problem, program, spec, backend="tree").has_effect_error
    with pytest.raises(ValueError, match="compiled"):
        evaluate_spec(blog_problem, program, spec, backend="compiled")


def test_evaluate_spec_runtime_error_is_not_effect_error(blog_problem):
    spec = blog_problem.specs[0]
    program = blog_problem.make_program(A.call(A.NIL, "name"))
    outcome = evaluate_spec(blog_problem, program, spec)
    assert not outcome.ok
    assert not outcome.has_effect_error


@pytest.mark.parametrize(
    "body, kind",
    [
        (A.NIL, "AssertionFailure"),
        (A.call(A.NIL, "nope"), "NoMethodError"),
        # A library crash: a SynRuntimeError chained to the TypeError.
        (A.call(A.StrLit("a"), "+", A.NIL), "SynRuntimeError"),
    ],
    ids=["failed-assert", "no-method", "library-crash"],
)
def test_failing_outcome_keeps_no_traceback(body, kind):
    # The memo and the static pruner keep failing outcomes for the whole run;
    # a traceback would keep every frame of the evaluation alive with them.
    problem = get_benchmark("S4").build()
    outcome = evaluate_spec(problem, problem.make_program(body), problem.specs[0])
    assert not outcome.ok
    caught = outcome.failure or outcome.error
    assert type(caught).__name__ == kind
    link = caught
    while link is not None:
        assert link.__traceback__ is None
        link = link.__cause__ or link.__context__


def test_synthesize_reports_timeout_on_impossible_goal():
    app = build_blog_app()
    problem = define(
        "impossible", "(Str) -> Str", consts=[], class_table=app.class_table,
        reset=app.reset,
    )
    problem.add_spec(
        "unsatisfiable",
        lambda ctx: ctx.invoke("x"),
        lambda ctx, r: ctx.assert_(lambda: False),
    )
    result = _synthesize(problem, SynthConfig(timeout_s=0.5))
    assert not result.success
    assert result.timed_out or result.program is None
