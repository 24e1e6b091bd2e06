"""Tests for the static effect analysis subsystem (repro.analysis):
footprint inference, the pre-evaluation pruner, the annotation linter and
the dynamic-vs-static soundness gate."""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.lang import ast as A
from repro.lang import types as T
from repro.lang import effects as E
from repro.apps.blog import build_blog_app, seed_blog
from repro.analysis import (
    StaticPruner,
    TOP_PAIR,
    footprint,
    infer,
    lint_class_table,
    lint_problem,
    writers_for_effect,
)
from repro.analysis.soundness import check_benchmark, check_expr_against_specs, search_candidates
from repro.benchmarks import get_benchmark
from repro.interp.effect_log import log_effect
from repro.obs.metrics import Counters
from repro.synth import SynthConfig, SynthesisSession, define
from repro.synth.effect_guided import insert_effect_hole
from repro.typesys.class_table import ClassTable, MethodSig
from repro.typesys.typecheck import SynTypeError


# ---------------------------------------------------------------------------
# Shared fixtures
# ---------------------------------------------------------------------------


def _make_blog_problem(app):
    User = app.models["User"]
    problem = define(
        "find_user",
        "(Str) -> User",
        consts=[True, False, User],
        class_table=app.class_table,
        reset=app.reset,
        database=app.database,
    )

    def setup(ctx):
        seed_blog(app)
        ctx.invoke("carol")

    def postcond(ctx, result):
        ctx.assert_(lambda: result.username == "carol")

    problem.add_spec("finds carol", setup, postcond)
    return problem


@pytest.fixture()
def blog_app():
    return build_blog_app()


@pytest.fixture()
def blog_problem(blog_app):
    return _make_blog_problem(blog_app)


def _first_user():
    return A.call(A.ConstRef("User"), "first")


def _rename_user(value: A.Node):
    return A.call(_first_user(), "username=", value)


# ---------------------------------------------------------------------------
# Footprint inference
# ---------------------------------------------------------------------------


def test_footprint_literals_and_vars_are_pure(blog_problem):
    ct = blog_problem.class_table
    for expr in (A.NIL, A.TRUE, A.IntLit(3), A.StrLit("x"), A.Var("arg0")):
        assert footprint(expr, {"arg0": T.STRING}, ct).is_pure


def test_footprint_unbound_var_widens_to_top(blog_problem):
    ct = blog_problem.class_table
    assert footprint(A.Var("ghost"), {}, ct) == TOP_PAIR
    with pytest.raises(SynTypeError):
        infer(A.Var("ghost"), {}, ct)


def test_footprint_call_uses_resolved_annotations(blog_problem):
    ct = blog_problem.class_table
    read_pair = footprint(_first_user(), {}, ct)
    assert not read_pair.read.is_pure
    assert read_pair.write.is_pure
    write_pair = footprint(_rename_user(A.StrLit("x")), {}, ct)
    assert E.subsumed(E.Effect.of("User.username"), write_pair.write, ct)


def test_footprint_seq_and_let_union_children(blog_problem):
    ct = blog_problem.class_table
    seq = A.Seq(_first_user(), _rename_user(A.StrLit("x")))
    pair = footprint(seq, {}, ct)
    assert not pair.read.is_pure and not pair.write.is_pure
    let = A.Let("t", _first_user(), A.call(A.Var("t"), "username=", A.StrLit("x")))
    pair = footprint(let, {}, ct)
    assert E.subsumed(E.Effect.of("User.username"), pair.write, ct)


def test_footprint_if_is_path_insensitive(blog_problem):
    ct = blog_problem.class_table
    expr = A.If(A.TRUE, _rename_user(A.StrLit("x")), A.NIL)
    assert not footprint(expr, {}, ct).write.is_pure


def test_footprint_holes_are_top(blog_problem):
    ct = blog_problem.class_table
    assert footprint(A.TypedHole(T.STRING), {}, ct) == TOP_PAIR
    assert footprint(A.EffectHole(E.Effect.of("User.name")), {}, ct) == TOP_PAIR
    # And TOP propagates through compound nodes.
    assert footprint(A.Seq(A.NIL, A.TypedHole(T.STRING)), {}, ct).read.is_star


def test_footprint_write_purity(blog_problem):
    env, ct = blog_problem.param_env, blog_problem.class_table
    assert footprint(_first_user(), env, ct).write.is_pure
    assert not footprint(_rename_user(A.Var("arg0")), env, ct).write.is_pure
    # Untypeable expressions widen to TOP, which is never write-pure.
    assert not footprint(A.Var("ghost"), env, ct).write.is_pure


def test_footprint_memo_hits_and_generation_invalidation(blog_problem):
    ct = blog_problem.class_table
    expr = A.Seq(_first_user(), _first_user())
    counters = Counters()
    first = footprint(expr, {}, ct, counters)
    hits_after_first = counters["search.footprint_hits"]
    assert footprint(expr, {}, ct, counters) == first
    assert counters["search.footprint_hits"] > hits_after_first
    # Any table mutation moves the generation, so the memo misses once...
    ct.add_class("ScratchClass")
    hits_before = counters["search.footprint_hits"]
    assert footprint(expr, {}, ct, counters) == first
    # ...then warms back up for the new generation.
    rewarmed = counters["search.footprint_hits"]
    footprint(expr, {}, ct, counters)
    assert counters["search.footprint_hits"] > rewarmed
    assert hits_before <= rewarmed  # the miss itself added no hit at the root


def test_writers_for_effect_prefilter(blog_problem):
    ct = blog_problem.class_table
    writers = writers_for_effect(E.Effect.of("User.name"), ct)
    names = {resolved.sig.qualified_name for resolved in writers}
    assert "User#name=" in names
    assert "Post#title=" not in names
    for resolved in writers:
        assert not resolved.effects.write.is_pure
        assert E.subsumed(E.Effect.of("User.name"), resolved.effects.write, ct)
    # Second lookup for the same (generation, effect) is memoized.
    counters = Counters()
    assert writers_for_effect(E.Effect.of("User.name"), ct, counters) == writers
    assert counters["search.footprint_hits"] == 1


# ---------------------------------------------------------------------------
# Pre-evaluation pruner
# ---------------------------------------------------------------------------


def test_pruner_discards_leading_literals(blog_problem):
    pruner = StaticPruner(blog_problem)
    expr = _first_user()
    assert pruner.key_for(A.Seq(A.NIL, expr)) == pruner.key_for(expr)
    assert pruner.key_for(A.Seq(A.TRUE, A.Seq(A.IntLit(0), expr))) == pruner.key_for(expr)


def test_pruner_eta_and_dead_let(blog_problem):
    pruner = StaticPruner(blog_problem)
    call = _first_user()
    assert pruner.key_for(A.Let("t", call, A.Var("t"))) == pruner.key_for(call)
    # A dead binding of a literal disappears; of a computation it stays
    # sequenced for its effects.
    assert pruner.key_for(A.Let("t", A.NIL, A.Var("arg0"))) == pruner.key_for(A.Var("arg0"))
    assert pruner.key_for(A.Let("t", call, A.Var("arg0"))) == pruner.key_for(
        A.Seq(call, A.Var("arg0"))
    )


def test_pruner_keeps_non_literal_discards(blog_problem):
    pruner = StaticPruner(blog_problem)
    expr = _first_user()
    # Variables and constant references are not erased (a ConstRef can raise).
    assert pruner.key_for(A.Seq(A.Var("arg0"), expr)) != pruner.key_for(expr)
    assert pruner.key_for(A.Seq(A.ConstRef("User"), expr)) != pruner.key_for(expr)


def test_pruner_outcome_memo_roundtrip(blog_problem):
    pruner = StaticPruner(blog_problem)
    outcome = SimpleNamespace(error=None)
    key = pruner.key_for(A.Seq(A.NIL, _first_user()))
    assert pruner.outcome_for(key) is None
    pruner.record(key, outcome)
    assert pruner.outcome_for(pruner.key_for(_first_user())) is outcome


def test_pruner_witnessed_prefix_strip(blog_problem):
    pruner = StaticPruner(blog_problem)
    prefix = _first_user()  # write-pure
    suffix = A.Var("arg0")
    combined = A.Seq(prefix, suffix)
    # No witness yet: the prefix must stay.
    assert pruner.key_for(combined) != pruner.key_for(suffix)
    # A completing witness (error=None) for a write-pure prefix strips it.
    pruner.record(pruner.key_for(prefix), SimpleNamespace(error=None))
    assert pruner.key_for(combined) == pruner.key_for(suffix)


def test_pruner_never_strips_crashing_or_writing_prefixes(blog_problem):
    pruner = StaticPruner(blog_problem)
    crashing = _first_user()
    suffix = A.Var("arg0")
    pruner.record(pruner.key_for(crashing), SimpleNamespace(error=RuntimeError("boom")))
    assert pruner.key_for(A.Seq(crashing, suffix)) != pruner.key_for(suffix)
    writing = _rename_user(A.StrLit("x"))
    pruner.record(pruner.key_for(writing), SimpleNamespace(error=None))
    assert pruner.key_for(A.Seq(writing, suffix)) != pruner.key_for(suffix)


# ---------------------------------------------------------------------------
# Search integration
# ---------------------------------------------------------------------------


def test_static_pruning_is_transparent_and_cheaper():
    # S3 has a static prune; the blog problem above has none.
    results = {}
    for enabled in (False, True):
        bench = get_benchmark("S3")
        config = bench.make_config(SynthConfig(timeout_s=30, static_pruning=enabled))
        with SynthesisSession(config) as session:
            results[enabled] = session.run(bench.build())
    off, on = results[False], results[True]
    assert off.success and on.success
    assert off.program == on.program  # byte-identical synthesis
    for key in ("search.expansions", "search.pushed"):
        assert off.counters[key] == on.counters[key]
    # Every prune replaces exactly one evaluation.
    prunes = on.counters["search.static_prunes"]
    assert prunes >= 1
    assert off.counters["search.evaluated"] == on.counters["search.evaluated"] + prunes
    assert off.counters["search.static_prunes"] == 0


def test_insert_effect_hole_counts_type_fallbacks(blog_problem):
    counters = Counters()
    insert_effect_hole(_first_user(), E.Effect.of("User.name"), blog_problem, counters)
    assert counters["search.effect_type_fallbacks"] == 0
    # An untypeable candidate falls back to the goal's return type -- counted.
    insert_effect_hole(A.Var("ghost"), E.Effect.of("User.name"), blog_problem, counters)
    assert counters["search.effect_type_fallbacks"] == 1


# ---------------------------------------------------------------------------
# Soundness gate
# ---------------------------------------------------------------------------


def test_soundness_clean_on_blog_candidates(blog_problem):
    state = blog_problem.state_manager()
    for expr in search_candidates(blog_problem, limit=25):
        assert not check_expr_against_specs(blog_problem, expr, state=state)


def test_soundness_gate_catches_lying_annotation():
    app = build_blog_app()
    app.class_table.add_method(
        MethodSig(
            owner="User",
            name="covert_touch",
            arg_types=(),
            ret_type=T.STRING,
            effects=E.EffectPair.pure(),  # the lie: the impl writes below
            singleton=True,
            impl=lambda interp, recv: log_effect(
                write=E.Effect.region("User", "name")
            ),
            synthesis=False,
        )
    )
    problem = define(
        "lying", "(Str) -> Str", class_table=app.class_table, reset=app.reset
    )
    problem.add_spec(
        "touches",
        lambda ctx: ctx.invoke("x"),
        lambda ctx, r: ctx.assert_(lambda: True),
    )
    violations = check_expr_against_specs(
        problem, A.call(A.ConstRef("User"), "covert_touch")
    )
    assert violations
    assert violations[0].static_pair.write.is_pure
    assert not violations[0].dynamic_pair.write.is_pure
    assert "covert_touch" in violations[0].describe()


def test_soundness_check_benchmark_smoke():
    assert check_benchmark("S1", samples=5, seed=0, search_limit=15) == []


# ---------------------------------------------------------------------------
# Annotation linter
# ---------------------------------------------------------------------------


def _rules(findings):
    return {finding.rule for finding in findings}


def test_lint_clean_on_real_app(blog_problem):
    assert lint_class_table(blog_problem.class_table) == []
    assert lint_problem(blog_problem) == []


def test_lint_flags_unknown_effect_class(blog_app):
    ct = blog_app.class_table
    ct.add_method(
        MethodSig(
            owner="Post",
            name="typo_cls",
            arg_types=(),
            ret_type=T.STRING,
            effects=E.EffectPair.of(read="Postt.title"),
        )
    )
    findings = lint_class_table(ct)
    assert "unknown-effect-class" in _rules(findings)
    assert any("Postt" in f.message for f in findings)


def test_lint_flags_unknown_effect_region(blog_app):
    ct = blog_app.class_table
    ct.add_method(
        MethodSig(
            owner="Post",
            name="typo_region",
            arg_types=(),
            ret_type=T.STRING,
            effects=E.EffectPair.of(read="Post.titel"),
        )
    )
    findings = lint_class_table(ct)
    assert "unknown-effect-region" in _rules(findings)
    assert any("titel" in f.message and "title" in f.message for f in findings)


def test_lint_flags_pure_writer(blog_app):
    ct = blog_app.class_table
    ct.add_method(
        MethodSig(
            owner="Post",
            name="archive!",
            arg_types=(),
            ret_type=T.BOOL,
            effects=E.EffectPair.pure(),
            impl=lambda interp, recv: True,
        )
    )
    findings = lint_class_table(ct)
    assert any(
        f.rule == "pure-writer" and f.subject == "Post#archive!" for f in findings
    )
    # Comparison/negation operators are exempt (they end in = / ! by syntax).
    assert not any(
        f.rule == "pure-writer" and f.subject.endswith("#==") for f in findings
    )


def test_lint_flags_impl_arity_mismatch(blog_app):
    ct = blog_app.class_table
    ct.add_method(
        MethodSig(
            owner="Post",
            name="frob",
            arg_types=(T.STRING,),
            ret_type=T.STRING,
            effects=E.EffectPair.pure(),
            impl=lambda interp: "x",  # calls pass (interp, recv, arg)
        )
    )
    findings = lint_class_table(ct)
    assert any(
        f.rule == "impl-arity" and f.subject == "Post#frob" for f in findings
    )
    # Var-positional impls accept anything and are not flagged.
    ct.add_method(
        MethodSig(
            owner="Post",
            name="frob2",
            arg_types=(T.STRING,),
            ret_type=T.STRING,
            effects=E.EffectPair.pure(),
            impl=lambda *args: "x",
        )
    )
    assert not any(f.subject == "Post#frob2" for f in lint_class_table(ct))


def test_lint_flags_unwritten_region():
    ct = ClassTable()
    ct.add_class("Gauge")
    ct.add_method(
        MethodSig(
            owner="Gauge",
            name="level",
            arg_types=(),
            ret_type=T.INT,
            effects=E.EffectPair.of(read="Gauge.level"),
            impl=lambda interp, recv: 0,
        )
    )
    findings = lint_class_table(ct)
    assert any(
        f.rule == "unwritten-region" and f.subject == "Gauge.level" for f in findings
    )


def test_lint_flags_unsatisfiable_spec():
    ct = ClassTable()
    ct.add_class("Gauge")

    def read_gauge():
        log_effect(read=E.Effect.region("Gauge", "level"))
        return True

    problem = define("gauge_goal", "(Str) -> Str", class_table=ct, reset=lambda: None)
    problem.add_spec(
        "reads the unwritable gauge",
        lambda ctx: ctx.invoke("x"),
        lambda ctx, r: ctx.assert_(read_gauge),
    )
    findings = lint_problem(problem)
    assert any(
        f.rule == "unsatisfiable-spec" and "Gauge.level" in f.message
        for f in findings
    )


# ---------------------------------------------------------------------------
# Alpha-equivalence in the pruner memo (the resolved-binding keys)
# ---------------------------------------------------------------------------


def test_pruner_key_identifies_renamed_lets(blog_problem):
    """Candidates differing only in let names share one memo entry."""

    pruner = StaticPruner(blog_problem)
    call = _first_user()
    # Not eta-reducible (the body uses the binder twice), so the keys
    # exercise alpha-keying rather than collapsing to the same normal form.
    a = A.Let("t0", call, A.Seq(A.Var("t0"), A.Var("t0")))
    b = A.Let("fresh", call, A.Seq(A.Var("fresh"), A.Var("fresh")))
    assert a != b
    assert pruner.key_for(a) == pruner.key_for(b)
    outcome = SimpleNamespace(error=None)
    pruner.record(pruner.key_for(a), outcome)
    assert pruner.outcome_for(pruner.key_for(b)) is outcome


def test_pruner_key_keeps_free_variables_distinct(blog_problem):
    pruner = StaticPruner(blog_problem)
    a = A.Let("t", A.Var("arg0"), A.Seq(A.Var("t"), A.Var("t")))
    b = A.Let("t", A.Var("arg1"), A.Seq(A.Var("t"), A.Var("t")))
    assert pruner.key_for(a) != pruner.key_for(b)


def test_pruner_witness_strip_is_alpha_invariant(blog_problem):
    """A witness recorded under one let-name strips renamed prefixes too."""

    pruner = StaticPruner(blog_problem)
    call = _first_user()
    prefix_a = A.Let("t0", call, A.Seq(A.Var("t0"), A.Var("t0")))
    prefix_b = A.Let("x", call, A.Seq(A.Var("x"), A.Var("x")))
    suffix = A.Var("arg0")
    pruner.record(pruner.key_for(prefix_a), SimpleNamespace(error=None))
    assert pruner.key_for(A.Seq(prefix_b, suffix)) == pruner.key_for(suffix)


def test_search_shares_memo_across_renamed_candidates(blog_problem):
    """End-to-end: static_prunes counts renamed-let duplicates as hits."""

    from repro.synth.goal import evaluate_spec

    counters = Counters()
    pruner = StaticPruner(blog_problem, counters)
    call = _first_user()
    spec = blog_problem.specs[0]
    manager = blog_problem.state_manager()
    seen = 0
    for name in ("t0", "t1", "renamed"):
        candidate = A.Let(name, call, A.Seq(A.Var(name), A.Var(name)))
        key = pruner.key_for(candidate)
        hit = pruner.outcome_for(key)
        if hit is not None:
            counters["search.static_prunes"] += 1
            seen += 1
            continue
        program = blog_problem.make_program(candidate)
        outcome = evaluate_spec(blog_problem, program, spec, state=manager)
        pruner.record(key, outcome)
    assert seen == 2 and counters["search.static_prunes"] == 2


# ---------------------------------------------------------------------------
# Writer ordering (most-specific-first) and the reorder counter
# ---------------------------------------------------------------------------


def test_writers_for_effect_most_specific_first(blog_problem):
    ct = blog_problem.class_table
    writers = writers_for_effect(E.Effect.of("User.name"), ct)

    # Column-precise writers come before class-level, class-level before *.
    def rank(resolved):
        write = resolved.effects.write
        if write.is_star:
            return 2
        if any(region.region is None for region in write.regions):
            return 1
        return 0

    ranks = [rank(resolved) for resolved in writers]
    assert ranks == sorted(ranks)


def test_writer_reorders_counter(blog_problem):
    """A declaration order that is not specificity order is counted."""

    from repro.corelib import register_corelib
    from repro.lang.effects import EffectPair

    ct = ClassTable()
    register_corelib(ct)
    ct.add_class("Doc")
    # Declared coarse-first: the star writer, then class-level, then the
    # column-precise one -- the specificity sort must reverse the scan.
    ct.add_method(MethodSig(
        owner="Doc", name="wipe_all", singleton=True,
        arg_types=(), ret_type=T.NIL,
        effects=EffectPair(read=E.Effect.pure(), write=E.Effect.star()),
        impl=lambda interp, recv: None, synthesis=True,
    ))
    ct.add_method(MethodSig(
        owner="Doc", name="touch", singleton=True,
        arg_types=(), ret_type=T.NIL,
        effects=EffectPair(read=E.Effect.pure(), write=E.Effect.of("Doc")),
        impl=lambda interp, recv: None, synthesis=True,
    ))
    ct.add_method(MethodSig(
        owner="Doc", name="retitle", singleton=True,
        arg_types=(T.STRING,), ret_type=T.NIL,
        effects=EffectPair(read=E.Effect.pure(), write=E.Effect.of("Doc.title")),
        impl=lambda interp, recv, v: None, synthesis=True,
    ))
    counters = Counters()
    writers = writers_for_effect(E.Effect.of("Doc.title"), ct, counters)
    names = [resolved.sig.qualified_name for resolved in writers]
    assert names.index("Doc.retitle") < names.index("Doc.touch") < names.index(
        "Doc.wipe_all"
    )
    assert counters["search.writer_reorders"] == 1
    # Memo hits re-count the reorder, so a run's count does not depend on
    # what earlier runs memoized.
    writers_for_effect(E.Effect.of("Doc.title"), ct, counters)
    assert counters["search.writer_reorders"] == 2
    assert counters["search.footprint_hits"] == 1
