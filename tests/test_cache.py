"""Tests for the synthesis performance subsystem (repro.synth.cache):
spec-outcome memoization, invalidation, the cache-on/off equivalence
guarantee, work-list dedup, and regression tests for the budget- and
size-bound bugfixes in the search loop."""

from __future__ import annotations

import pytest

from repro.lang import ast as A
from repro.lang import types as T
from repro.apps.blog import build_blog_app, seed_blog
from repro.benchmarks import get_benchmark, run_benchmark
from repro.synth import SynthConfig, SynthesisSession, define, evaluate_spec
from repro.synth.cache import MISSING, SynthCache
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
    problem.app = app  # type: ignore[attr-defined]
    return problem


@pytest.fixture()
def mutable_seed_problem():
    """A goal whose reset re-applies *mutable* seed data.

    Changing ``seed`` changes what reset restores, which is exactly the
    situation that makes memoized outcomes stale.
    """

    app = build_blog_app()
    User = app.models["User"]
    seed = {"username": "carol"}

    def reset():
        app.reset()
        app.models["User"].create(name="Seeded", username=seed["username"])

    problem = define(
        "first_user", "() -> User", consts=[User],
        class_table=app.class_table, reset=reset,
    )

    def setup(ctx):
        ctx.invoke()

    def postcond(ctx, result):
        ctx.assert_(lambda: result.username == "carol")

    spec = problem.add_spec("first is carol", setup, postcond)
    return problem, spec, seed


FIRST_USER = A.call(A.ConstRef("User"), "first")


# ---------------------------------------------------------------------------
# Work-list dedup
# ---------------------------------------------------------------------------


def test_worklist_deduplicates_pushed_candidates():
    worklist = _WorkList("paper")
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
# Spec-outcome memo: hits, misses, eviction
# ---------------------------------------------------------------------------


def test_spec_memo_hit_skips_execution(mutable_seed_problem):
    problem, spec, _ = mutable_seed_problem
    cache = SynthCache()
    program = problem.make_program(FIRST_USER)

    first = evaluate_spec(problem, program, spec, cache=cache)
    assert first.ok
    assert cache.counters["cache.spec_misses"] == 1
    assert cache.counters["cache.spec_hits"] == 0

    second = evaluate_spec(problem, program, spec, cache=cache)
    assert second is first  # the memoized outcome object, no re-run
    assert cache.counters["cache.spec_misses"] == 1
    assert cache.counters["cache.spec_hits"] == 1


def test_disabled_cache_executes_but_counts_redundancy(mutable_seed_problem):
    problem, spec, _ = mutable_seed_problem
    cache = SynthCache(enabled=False)
    program = problem.make_program(FIRST_USER)

    first = evaluate_spec(problem, program, spec, cache=cache)
    second = evaluate_spec(problem, program, spec, cache=cache)
    assert first.ok and second.ok
    assert second is not first  # re-executed
    assert cache.counters["cache.spec_hits"] == 0
    assert cache.counters["cache.spec_misses"] == 1  # one unique key...
    assert cache.counters["cache.spec_redundant"] == 1  # ...and one observed re-run
    # Total executions on the disabled path = misses + redundant.


def test_untracked_disabled_cache_is_a_noop_baseline(mutable_seed_problem):
    problem, spec, _ = mutable_seed_problem
    cache = SynthCache(enabled=False, track_redundancy=False)
    program = problem.make_program(FIRST_USER)
    evaluate_spec(problem, program, spec, cache=cache)
    evaluate_spec(problem, program, spec, cache=cache)
    assert len(cache) == 0  # no key bookkeeping at all
    assert cache.counters["cache.spec_redundant"] == 0
    assert cache.counters["cache.spec_misses"] == 2  # executions still counted


def test_synthesize_releases_its_cache(blog_problem):
    with SynthesisSession(SynthConfig(timeout_s=30)) as session:
        result = session.run(blog_problem)
    assert result.success
    # The session's cache must not stay registered on a long-lived problem.
    assert blog_problem._caches == []


def test_memo_is_precision_keyed(mutable_seed_problem):
    problem, spec, _ = mutable_seed_problem
    cache = SynthCache()
    program = problem.make_program(FIRST_USER)
    evaluate_spec(problem, program, spec, cache=cache)

    from dataclasses import replace
    from repro.lang.effects import PRECISION_PURITY

    coarse = replace(problem, class_table=problem.class_table.coarsened(PRECISION_PURITY))
    evaluate_spec(coarse, program, spec, cache=cache)
    assert cache.counters["cache.spec_misses"] == 2  # different precision, different key
    assert cache.counters["cache.spec_hits"] == 0


def test_lru_eviction_is_counted(mutable_seed_problem):
    problem, spec, _ = mutable_seed_problem
    cache = SynthCache(max_entries=2)
    bodies = [A.IntLit(1), A.IntLit(2), A.IntLit(3)]
    for body in bodies:
        evaluate_spec(problem, problem.make_program(body), spec, cache=cache)
    assert len(cache) == 2
    assert cache.counters["cache.evictions"] == 1
    # The oldest entry was evicted: looking it up again is a miss.
    evaluate_spec(problem, problem.make_program(bodies[0]), spec, cache=cache)
    assert cache.counters["cache.spec_hits"] == 0
    assert cache.counters["cache.spec_misses"] == 4


# ---------------------------------------------------------------------------
# Guard memo
# ---------------------------------------------------------------------------


def test_guard_memo_answers_both_polarities_from_one_run(mutable_seed_problem):
    problem, spec, _ = mutable_seed_problem
    cache = SynthCache()
    guard = A.TRUE
    assert evaluate_guard(problem, guard, spec, expect=True, cache=cache)
    assert not evaluate_guard(problem, guard, spec, expect=False, cache=cache)
    assert cache.counters["cache.guard_misses"] == 1
    assert cache.counters["cache.guard_hits"] == 1  # negated question answered from memo


def test_guard_memo_rejects_crashing_guards(mutable_seed_problem):
    problem, spec, _ = mutable_seed_problem
    cache = SynthCache()
    crashing = A.call(A.NIL, "name")
    assert not evaluate_guard(problem, crashing, spec, expect=True, cache=cache)
    assert not evaluate_guard(problem, crashing, spec, expect=False, cache=cache)
    assert cache.counters["cache.guard_hits"] == 1
    program = problem.make_program(crashing)
    assert cache.lookup_guard(problem, program, spec) is None  # stored crash
    assert cache.lookup_guard(problem, problem.make_program(A.FALSE), spec) is MISSING


# ---------------------------------------------------------------------------
# Invalidation when reset's baseline changes
# ---------------------------------------------------------------------------


def test_invalidation_after_reset_baseline_mutates(mutable_seed_problem):
    problem, spec, seed = mutable_seed_problem
    cache = SynthCache()
    problem.register_cache(cache)
    program = problem.make_program(FIRST_USER)

    assert evaluate_spec(problem, program, spec, cache=cache).ok

    # The DB baseline that reset restores changes between specs...
    seed["username"] = "dave"
    stale = evaluate_spec(problem, program, spec, cache=cache)
    assert stale.ok  # ...so the memoized outcome is stale by construction
    assert cache.counters["cache.spec_hits"] == 1

    problem.invalidate_caches()
    assert cache.counters["cache.invalidations"] == 1
    fresh = evaluate_spec(problem, program, spec, cache=cache)
    assert not fresh.ok  # re-executed against the new baseline
    assert cache.counters["cache.spec_misses"] == 2


def test_rebind_reset_invalidates_registered_caches(mutable_seed_problem):
    problem, spec, _ = mutable_seed_problem
    cache = SynthCache()
    problem.register_cache(cache)
    program = problem.make_program(FIRST_USER)
    assert evaluate_spec(problem, program, spec, cache=cache).ok
    assert len(cache) == 1

    app = problem.app if hasattr(problem, "app") else None  # noqa: F841
    problem.rebind_reset(lambda: None)
    assert len(cache) == 0
    assert cache.counters["cache.invalidations"] == 1


# ---------------------------------------------------------------------------
# Cache on/off equivalence (end to end)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("benchmark_id", ["S4", "S5"])
def test_synthesis_results_identical_with_and_without_cache(benchmark_id):
    benchmark = get_benchmark(benchmark_id)
    off = run_benchmark(
        benchmark, SynthConfig(timeout_s=60, cache_spec_outcomes=False), runs=1
    )
    on = run_benchmark(
        benchmark, SynthConfig(timeout_s=60, cache_spec_outcomes=True), runs=1
    )
    assert off.success and on.success
    assert off.last_result.program == on.last_result.program
    on_c, off_c = on.counters, off.counters
    # The memo absorbed repeated executions; a disabled cache never hits...
    assert on_c["cache.spec_hits"] + on_c["cache.guard_hits"] > 0
    assert off_c["cache.spec_hits"] + off_c["cache.guard_hits"] == 0
    # ...but the disabled cache observed the redundancy.
    assert off_c["cache.spec_redundant"] + off_c["cache.guard_redundant"] > 0
    # The executions the enabled cache performed are exactly the unique ones.
    for key in ("cache.spec_misses", "cache.guard_misses"):
        assert on_c[key] == off_c[key]


def test_synthesize_surfaces_cache_stats(blog_problem):
    with SynthesisSession(SynthConfig(timeout_s=30)) as session:
        result = session.run(blog_problem)
    assert result.success
    assert result.counters["cache.spec_misses"] > 0
    cache = result.metrics["stats"]["cache"]
    assert set(cache) >= {"spec_hits", "spec_misses", "evictions"}
    assert cache["spec_misses"] == result.counters["cache.spec_misses"]


# ---------------------------------------------------------------------------
# Bugfix regressions: budget checks in reuse / merge validation
# ---------------------------------------------------------------------------


def test_reuse_solution_checks_budget(blog_problem):
    spec = blog_problem.specs[0]
    solutions = [SpecSolution(expr=FIRST_USER, specs=())]
    with pytest.raises(SynthesisTimeout):
        _reuse_solution(blog_problem, spec, solutions, SynthConfig(), Budget(0.0))


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
