"""Tests for the search loop (repro.synth.search) and the evaluations it
drives: work-list dedup, guard rejection, and regression tests for the
budget-, size- and ``max_candidates``-bound bugfixes in the search, reuse
and merge-validation loops."""

from __future__ import annotations

import pytest

from repro.lang import ast as A
from repro.lang import types as T
from repro.apps.blog import build_blog_app, seed_blog
from repro.synth import SynthConfig, define
from repro.synth.goal import (
    Budget,
    SynthesisTimeout,
    evaluate_all_specs,
    evaluate_guard,
)
from repro.synth.merge import SpecSolution
from repro.synth.search import (
    _WorkList,
    generate_for_spec,
    generate_guard,
    search_counters,
)
from repro.synth.synthesizer import _reuse_solution


# ---------------------------------------------------------------------------
# Fixtures
# ---------------------------------------------------------------------------


@pytest.fixture()
def blog_problem():
    """The find_user goal of the synth unit tests, with a seeding spec."""

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
    return problem


FIRST_USER = A.call(A.ConstRef("User"), "first")


# ---------------------------------------------------------------------------
# Work-list dedup
# ---------------------------------------------------------------------------


def test_worklist_deduplicates_pushed_candidates():
    worklist = _WorkList()
    a = A.Seq(A.TypedHole(T.BOOL), A.NIL)
    b = A.Seq(A.TypedHole(T.BOOL), A.NIL)
    c = A.Seq(A.TypedHole(T.BOOL), A.TRUE)
    assert a is not b and a == b
    for tree in (a, b, c):
        worklist.push(A.Pending.of(tree), 0)
    assert len(worklist) == 3  # equal trees are both queued
    _, popped = worklist.pop()
    assert popped is a  # the first one pushed is popped ...
    assert worklist.pop() == (0, c)  # ... and the second one skipped
    assert worklist.pop() is None


class _Base:
    pass


class _Sub(_Base):
    pass


def _override_problem():
    """A method and its override: ``Base#m`` and ``Sub#m`` are distinct
    S-App productions that derive the same tree once the receiver hole is
    filled with the ``Sub`` parameter (``arg0.m([]:Int, []:Int)``)."""

    from repro.corelib import register_corelib
    from repro.typesys.class_table import ClassTable, MethodSig

    ct = ClassTable()
    register_corelib(ct)
    ct.add_class("Base", pyclass=_Base)
    ct.add_class("Sub", "Base", pyclass=_Sub)
    for owner in ("Base", "Sub"):
        ct.add_method(
            MethodSig(owner, "m", (T.INT, T.INT), T.INT,
                      impl=lambda interp, recv, a, b: a + b)
        )
    problem = define("overridden", "(Sub, Int) -> Int", consts=[1], class_table=ct)

    def setup(ctx):
        ctx.invoke(_Sub(), 2)

    def postcond(ctx, result):
        ctx.assert_(lambda: False)

    problem.add_spec("never passes", setup, postcond)
    return problem


def test_worklist_expands_a_tree_derived_twice_once(monkeypatch):
    import repro.synth.search as search

    expanded = []
    expand = search._expand

    def recording(expr, *args, **kwargs):
        expanded.append(expr)
        return expand(expr, *args, **kwargs)

    monkeypatch.setattr(search, "_expand", recording)
    problem = _override_problem()
    counters = search_counters()
    found = generate_for_spec(
        problem, problem.specs[0], SynthConfig(timeout_s=60, max_size=6),
        counters=counters,
    )
    assert found is None
    assert len(expanded) == len(set(expanded)) == counters["search.expansions"]
    # The counters of push-time dedup: the same trees are expanded and
    # evaluated.  Only ``pushed`` also counts the 7 duplicate pushes.
    assert counters["search.expansions"] == 128
    assert counters["search.evaluated"] == 142
    assert counters["search.pruned_size"] == 422
    assert counters["search.pushed"] == 127 + 7


# ---------------------------------------------------------------------------
# Guard evaluation
# ---------------------------------------------------------------------------


def test_crashing_guard_is_rejected_under_both_polarities(blog_problem):
    spec = blog_problem.specs[0]
    crashing = A.call(A.NIL, "name")
    assert not evaluate_guard(blog_problem, crashing, spec, expect=True)
    assert not evaluate_guard(blog_problem, crashing, spec, expect=False)
    # A guard that runs is accepted under exactly one polarity.
    assert evaluate_guard(blog_problem, A.TRUE, spec, expect=True)
    assert not evaluate_guard(blog_problem, A.TRUE, spec, expect=False)


# ---------------------------------------------------------------------------
# Bugfix regressions: budget checks in reuse / merge validation
# ---------------------------------------------------------------------------


def test_reuse_solution_checks_budget(blog_problem):
    spec = blog_problem.specs[0]
    solutions = [SpecSolution(expr=FIRST_USER, specs=())]
    with pytest.raises(SynthesisTimeout):
        _reuse_solution(blog_problem, spec, solutions, Budget(0.0))


def test_evaluate_all_specs_checks_budget(blog_problem):
    program = blog_problem.make_program(FIRST_USER)
    with pytest.raises(SynthesisTimeout):
        evaluate_all_specs(blog_problem, program, budget=Budget(0.0))


def test_evaluate_all_specs_without_budget_still_works(blog_problem):
    program = blog_problem.make_program(FIRST_USER)
    assert not evaluate_all_specs(blog_problem, program)  # wrong user, just False


# ---------------------------------------------------------------------------
# Bugfix regression: S-Eff wrap respects the size bound
# ---------------------------------------------------------------------------


def test_effect_wrap_is_size_bounded(blog_problem):
    # With max_size=3, `User.first` (2 nodes) fails with an effect error and
    # the S-Eff wrap would grow it past the bound; the wrapped candidate
    # must be pruned (counted in pruned_size), never pushed.
    config = SynthConfig(timeout_s=20, max_size=3)
    counters = search_counters()
    expr = generate_for_spec(
        blog_problem, blog_problem.specs[0], config, counters=counters
    )
    assert expr is None  # no solution fits in 3 nodes
    assert counters["search.effect_wraps"] == 0  # every wrap exceeded the bound
    assert counters["search.pruned_size"] > 0


# ---------------------------------------------------------------------------
# Bugfix regression: the candidate budget binds within an expansion
# ---------------------------------------------------------------------------


def _never_passing_problem():
    from repro.corelib import register_corelib
    from repro.typesys.class_table import ClassTable

    ct = ClassTable()
    # The comparison methods give guard search a large space of booleans.
    register_corelib(ct, synthesis_equality=True)
    problem = define(
        "unsolvable", "(Bool, Bool, Int) -> Obj", consts=[True, False, 1],
        class_table=ct,
    )

    def setup(ctx):
        ctx.invoke(True, False, 3)

    def postcond(ctx, result):
        ctx.assert_(lambda: False)

    return problem, problem.add_spec("never passes", setup, postcond)


@pytest.mark.parametrize("max_candidates", [1, 5, 20])
def test_max_candidates_bounds_spec_search(max_candidates):
    # One expansion can yield many hole-free candidates (the root hole's
    # alone yields six); the budget must stop the search at the candidate
    # that exhausts it, not at the next pop.
    problem, spec = _never_passing_problem()
    counters = search_counters()
    config = SynthConfig(timeout_s=60, max_candidates=max_candidates)
    assert generate_for_spec(problem, spec, config, counters=counters) is None
    spent = counters["search.evaluated"] + counters["search.static_prunes"]
    assert spent == max_candidates


@pytest.mark.parametrize("max_candidates", [1, 5, 20])
def test_max_candidates_bounds_guard_search(max_candidates):
    # A guard that must be truthy and falsy under the same spec never holds.
    problem, spec = _never_passing_problem()
    counters = search_counters()
    config = SynthConfig(timeout_s=60, max_candidates=max_candidates)
    guard = generate_guard(
        problem, [spec], [spec], config, counters=counters,
        initial_candidates=[A.TRUE],
    )
    assert guard is None
    assert counters["search.evaluated"] == max_candidates


# ---------------------------------------------------------------------------
# Bugfix regression: per-candidate budget guard in generate_guard
# ---------------------------------------------------------------------------


class _FlippingBudget:
    """Reports unexpired exactly once, then expired forever after."""

    def __init__(self) -> None:
        self.calls = 0

    def expired(self) -> bool:
        self.calls += 1
        return self.calls > 1

    def elapsed(self) -> float:
        return 0.0


def test_generate_for_spec_checks_budget_per_candidate(blog_problem):
    spec = blog_problem.specs[0]
    counters = search_counters()
    with pytest.raises(SynthesisTimeout):
        generate_for_spec(
            blog_problem,
            spec,
            SynthConfig(),
            budget=_FlippingBudget(),
            counters=counters,
        )
    # The root hole's expansion yields hole-free candidates, and the budget
    # expired after the first pop: none of them may run.
    assert counters["search.expansions"] == 1
    assert counters["search.evaluated"] == 0


def test_generate_guard_checks_budget_per_candidate(blog_problem):
    spec = blog_problem.specs[0]
    counters = search_counters()
    with pytest.raises(SynthesisTimeout):
        generate_guard(
            blog_problem,
            [spec],
            [],
            SynthConfig(),
            budget=_FlippingBudget(),
            counters=counters,
        )
    # The budget expired during the first expansion: without the
    # per-candidate guard, every hole-free candidate of that expansion
    # would have been evaluated before the next pop noticed the timeout.
    assert counters["search.evaluated"] == 0
