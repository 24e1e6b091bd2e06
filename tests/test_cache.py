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
from repro.synth import SynthConfig, define, evaluate_spec, synthesize
from repro.synth.cache import MISSING, SynthCache
from repro.synth.goal import (
    Budget,
    SynthesisTimeout,
    evaluate_all_specs,
    evaluate_guard,
)
from repro.synth.merge import SpecSolution
from repro.synth.search import SearchStats, _WorkList, generate_for_spec, generate_guard
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
# Work-list dedup and AST metadata memoization
# ---------------------------------------------------------------------------


def test_first_hole_is_memoized_per_node():
    expr = A.Seq(A.TypedHole(T.BOOL), A.NIL)
    first = A.first_hole(expr)
    assert first is A.first_hole(expr)  # second call hits the memo
    assert first.hole == A.TypedHole(T.BOOL)
    hole_free = A.Seq(A.IntLit(1), A.IntLit(2))
    assert A.first_hole(hole_free) is None
    assert A.first_hole(hole_free) is None  # memoized None, still None


def test_worklist_deduplicates_pushed_candidates():
    worklist = _WorkList("paper")
    a = A.Seq(A.TypedHole(T.BOOL), A.NIL)
    b = A.Seq(A.TypedHole(T.BOOL), A.NIL)
    assert a is not b and a == b
    assert worklist.push(a, 0)
    assert not worklist.push(b, 0)  # structurally equal: already seen
    assert worklist.push(A.Seq(A.TypedHole(T.BOOL), A.TRUE), 0)
    assert len(worklist) == 2
    _, popped = worklist.pop()
    assert popped is a


# ---------------------------------------------------------------------------
# Spec-outcome memo: hits, misses, eviction
# ---------------------------------------------------------------------------


def test_spec_memo_hit_skips_execution(mutable_seed_problem):
    problem, spec, _ = mutable_seed_problem
    cache = SynthCache()
    program = problem.make_program(FIRST_USER)

    first = evaluate_spec(problem, program, spec, cache=cache)
    assert first.ok
    assert (cache.stats.spec_misses, cache.stats.spec_hits) == (1, 0)

    second = evaluate_spec(problem, program, spec, cache=cache)
    assert second is first  # the memoized outcome object, no re-run
    assert (cache.stats.spec_misses, cache.stats.spec_hits) == (1, 1)


def test_disabled_cache_executes_but_counts_redundancy(mutable_seed_problem):
    problem, spec, _ = mutable_seed_problem
    cache = SynthCache(enabled=False)
    program = problem.make_program(FIRST_USER)

    first = evaluate_spec(problem, program, spec, cache=cache)
    second = evaluate_spec(problem, program, spec, cache=cache)
    assert first.ok and second.ok
    assert second is not first  # re-executed
    assert cache.stats.spec_hits == 0
    assert cache.stats.spec_misses == 1  # one unique key...
    assert cache.stats.spec_redundant == 1  # ...and one observed re-run
    # Total executions on the disabled path = misses + redundant.


def test_untracked_disabled_cache_is_a_noop_baseline(mutable_seed_problem):
    problem, spec, _ = mutable_seed_problem
    cache = SynthCache(enabled=False, track_redundancy=False)
    program = problem.make_program(FIRST_USER)
    evaluate_spec(problem, program, spec, cache=cache)
    evaluate_spec(problem, program, spec, cache=cache)
    assert len(cache) == 0  # no key bookkeeping at all
    assert cache.stats.spec_redundant == 0
    assert cache.stats.spec_misses == 2  # executions still counted


def test_synthesize_releases_its_cache(blog_problem):
    result = synthesize(blog_problem, SynthConfig(timeout_s=30))
    assert result.success
    # The per-run cache must not stay registered on a long-lived problem.
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
    assert cache.stats.spec_misses == 2  # different precision, different key
    assert cache.stats.spec_hits == 0


def test_lru_eviction_is_counted(mutable_seed_problem):
    problem, spec, _ = mutable_seed_problem
    cache = SynthCache(max_entries=2)
    bodies = [A.IntLit(1), A.IntLit(2), A.IntLit(3)]
    for body in bodies:
        evaluate_spec(problem, problem.make_program(body), spec, cache=cache)
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    # The oldest entry was evicted: looking it up again is a miss.
    evaluate_spec(problem, problem.make_program(bodies[0]), spec, cache=cache)
    assert cache.stats.spec_hits == 0
    assert cache.stats.spec_misses == 4


# ---------------------------------------------------------------------------
# Guard memo
# ---------------------------------------------------------------------------


def test_guard_memo_answers_both_polarities_from_one_run(mutable_seed_problem):
    problem, spec, _ = mutable_seed_problem
    cache = SynthCache()
    guard = A.TRUE
    assert evaluate_guard(problem, guard, spec, expect=True, cache=cache)
    assert not evaluate_guard(problem, guard, spec, expect=False, cache=cache)
    assert cache.stats.guard_misses == 1
    assert cache.stats.guard_hits == 1  # negated question answered from memo


def test_guard_memo_rejects_crashing_guards(mutable_seed_problem):
    problem, spec, _ = mutable_seed_problem
    cache = SynthCache()
    crashing = A.call(A.NIL, "name")
    assert not evaluate_guard(problem, crashing, spec, expect=True, cache=cache)
    assert not evaluate_guard(problem, crashing, spec, expect=False, cache=cache)
    assert cache.stats.guard_hits == 1
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
    assert cache.stats.spec_hits == 1

    problem.invalidate_caches()
    assert cache.stats.invalidations == 1
    fresh = evaluate_spec(problem, program, spec, cache=cache)
    assert not fresh.ok  # re-executed against the new baseline
    assert cache.stats.spec_misses == 2


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
    assert cache.stats.invalidations == 1


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
    assert on.cache_hits > 0  # the memo absorbed repeated executions
    assert off.cache_hits == 0  # a disabled cache never serves hits
    assert off.cache_redundant > 0  # ...but it observed the redundancy
    # The executions the enabled cache performed are exactly the unique ones.
    assert on.cache_misses == off.cache_misses


def test_synthesize_surfaces_cache_stats(blog_problem):
    result = synthesize(blog_problem, SynthConfig(timeout_s=30))
    assert result.success
    assert result.cache_stats is not None
    assert result.stats.cache_misses == result.cache_stats.misses
    assert result.stats.cache_misses > 0
    assert set(result.cache_stats.as_dict()) >= {"spec_hits", "spec_misses", "evictions"}


# ---------------------------------------------------------------------------
# Bugfix regressions: budget checks in reuse / merge validation
# ---------------------------------------------------------------------------


def test_reuse_solution_checks_budget(blog_problem):
    spec = blog_problem.specs[0]
    solutions = [SpecSolution(expr=FIRST_USER, specs=())]
    stats = SearchStats()
    with pytest.raises(SynthesisTimeout):
        _reuse_solution(
            blog_problem, spec, solutions, SynthConfig(), Budget(0.0), stats
        )
    assert stats.timed_out


def test_evaluate_all_specs_checks_budget(blog_problem):
    program = blog_problem.make_program(FIRST_USER)
    stats = SearchStats()
    with pytest.raises(SynthesisTimeout):
        evaluate_all_specs(blog_problem, program, budget=Budget(0.0), stats=stats)
    assert stats.timed_out


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
    stats = SearchStats()
    expr = generate_for_spec(
        blog_problem, blog_problem.specs[0], config, stats=stats
    )
    assert expr is None  # no solution fits in 3 nodes
    assert stats.effect_wraps == 0  # every wrap exceeded the bound
    assert stats.pruned_size > 0


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
    stats = SearchStats()
    with pytest.raises(SynthesisTimeout):
        generate_guard(
            blog_problem,
            [spec],
            [],
            SynthConfig(),
            budget=_FlippingBudget(),
            stats=stats,
        )
    # The budget expired during the first expansion: without the
    # per-candidate guard, every hole-free candidate of that expansion
    # would have been evaluated before the next pop noticed the timeout.
    assert stats.evaluated == 0
    assert stats.timed_out
