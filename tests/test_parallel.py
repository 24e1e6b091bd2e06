"""Tests for the parallel synthesis subsystem (repro.synth.parallel):
serial-vs-parallel equivalence (programs, outcomes and merged counters),
sweep-cell distribution, the two-process SQLite store round-trip and
cross-run solution hints."""

from __future__ import annotations

import dataclasses

import pytest

from repro.activerecord import Database
from repro.benchmarks import get_benchmark, run_benchmark
from repro.interp import Interpreter
from repro.obs.metrics import Counters
from repro.synth import SynthConfig, SynthesisSession
from repro.synth.cache import SynthCache
from repro.synth.search import SEARCH_COUNTERS, search_counters
from repro.synth.state import StateManager

#: Multi-spec registry benchmarks cheap enough for pooled tests.
FAST = ["S4", "S5"]

#: Counters that only the parallel run accumulates (dispatch bookkeeping,
#: not work): excluded from the serial-equality comparison.
PARALLEL_ONLY = {"search.parallel_tasks", "search.parallel_discarded"}


def _work(counters):
    """Every counter but the parallel dispatch bookkeeping."""

    return {key: value for key, value in counters.items() if key not in PARALLEL_ONLY}


# ---------------------------------------------------------------------------
# Serial-vs-parallel equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("benchmark_id", FAST + ["S7", "A1"])
def test_parallel_run_synthesizes_identical_programs(benchmark_id):
    config = SynthConfig(timeout_s=60)
    with SynthesisSession(config) as session:
        serial = session.run(benchmark_id)
    with SynthesisSession(config) as session:
        parallel = session.run(benchmark_id, parallel=2)
    assert parallel.success == serial.success
    assert parallel.timed_out == serial.timed_out
    assert parallel.program == serial.program
    assert parallel.counters["search.parallel_tasks"] > 0


@pytest.mark.parametrize("benchmark_id", ["S1", "S5"])
def test_parallel_counters_equal_serial_totals(benchmark_id):
    """Merged worker counters must reproduce the serial run's totals.

    Measured with ``snapshot_state=False``: per-process snapshot managers
    record specs independently, so state counters are only comparable when
    the subsystem is off and every execution pays an explicit reset.  (The
    remaining hit/miss classification is exact on these benchmarks; specs
    whose search re-evaluates a program the parent's reuse phase just
    executed -- e.g. S4 -- shift one hit to a miss, totals preserved.)
    """

    config = SynthConfig(timeout_s=60, snapshot_state=False)
    with SynthesisSession(config) as session:
        serial = session.run(benchmark_id)
    with SynthesisSession(config) as session:
        parallel = session.run(benchmark_id, parallel=2)
    assert _work(parallel.counters) == _work(serial.counters)


def test_parallel_hit_miss_totals_preserved_on_speculative_overlap():
    """S4's speculative search re-executes one reuse evaluation: the
    hit/miss split shifts by one but the combined totals stay equal."""

    config = SynthConfig(timeout_s=60, snapshot_state=False)
    with SynthesisSession(config) as session:
        serial = session.run("S4")
    with SynthesisSession(config) as session:
        parallel = session.run("S4", parallel=2)
    assert parallel.program == serial.program
    def lookups(counters):
        return sum(counters[f"cache.{kind}_{outcome}"]
                   for kind in ("spec", "guard") for outcome in ("hits", "misses"))

    assert lookups(parallel.counters) == lookups(serial.counters)
    assert parallel.counters["search.evaluated"] == serial.counters["search.evaluated"]


def test_non_registry_problem_falls_back_to_serial():
    problem = get_benchmark("S4").build()
    with SynthesisSession(SynthConfig(timeout_s=60), parallel=2) as session:
        result = session.run(problem)
    assert result.success
    assert result.counters["search.parallel_tasks"] == 0


def test_fresh_state_falls_back_to_serial():
    """Workers hold warm state, so a cold-state run must stay in-process."""

    with SynthesisSession(SynthConfig(timeout_s=60), parallel=2) as session:
        result = session.run("S4", fresh_state=True)
    assert result.success
    assert result.counters["search.parallel_tasks"] == 0


def test_run_benchmark_parallel_matches_serial():
    benchmark = get_benchmark("S5")
    config = SynthConfig(timeout_s=60)
    serial = run_benchmark(benchmark, config, runs=1)
    parallel = run_benchmark(benchmark, config, runs=1, parallel=2)
    assert parallel.success and serial.success
    assert parallel.program_text == serial.program_text


def test_run_benchmark_cold_parallel_distributes_runs():
    benchmark = get_benchmark("S4")
    config = SynthConfig(timeout_s=60)
    serial = run_benchmark(benchmark, config, runs=3, warm_state=False)
    parallel = run_benchmark(
        benchmark, config, runs=3, warm_state=False, parallel=2
    )
    assert parallel.success
    assert parallel.program_text == serial.program_text
    assert len(parallel.times_s) == len(serial.times_s) == 3


# ---------------------------------------------------------------------------
# Parallel sweeps
# ---------------------------------------------------------------------------


def test_parallel_sweep_matches_serial_order_and_programs():
    config = SynthConfig(timeout_s=60)
    variants = [("base", {}), ("class", {"effect_precision": "class"})]
    with SynthesisSession(config) as session:
        serial = session.sweep(FAST, variants, warm=False)
    with SynthesisSession(config, parallel=2) as session:
        parallel = session.sweep(FAST, variants, warm=False)
    assert [(e.label, e.variant) for e in parallel] == [
        (e.label, e.variant) for e in serial
    ]
    for serial_entry, parallel_entry in zip(serial, parallel):
        assert parallel_entry.success == serial_entry.success
        assert parallel_entry.result.program == serial_entry.result.program


def test_parallel_warm_sweep_matches_cold_programs():
    config = SynthConfig(timeout_s=60)
    cells = FAST * 2
    with SynthesisSession(config) as session:
        serial = session.sweep(cells, warm=False)
    with SynthesisSession(config, parallel=2) as session:
        parallel = session.sweep(cells, warm=True)
    for serial_entry, parallel_entry in zip(serial, parallel):
        assert parallel_entry.result.program == serial_entry.result.program


def test_parallel_sweep_interleaves_ad_hoc_problems():
    """Non-registry sources run in the parent at their sweep position."""

    config = SynthConfig(timeout_s=60)
    problem = get_benchmark("S1").build()
    with SynthesisSession(config, parallel=2) as session:
        entries = session.sweep(["S4", problem, "S5"], warm=True)
    assert [entry.label for entry in entries] == ["S4", problem.name, "S5"]
    assert all(entry.success for entry in entries)


# ---------------------------------------------------------------------------
# Store sharing across processes
# ---------------------------------------------------------------------------


def test_two_process_sqlite_store_round_trip(tmp_path):
    """A worker pool populates the SQLite store; a fresh session hits it."""

    path = str(tmp_path / "outcomes.sqlite")
    config = SynthConfig(timeout_s=60)
    with SynthesisSession(config, store=path, parallel=2) as pool_session:
        entries = pool_session.sweep(FAST, warm=True)
    assert all(entry.success for entry in entries)

    with SynthesisSession(config, store=path) as fresh:
        assert fresh.store.loaded > 0
        results = {bid: fresh.run(bid) for bid in FAST}
    for bid, result in results.items():
        assert result.success
        assert result.counters["cache.store_hits"] >= 1, bid
        serial = SynthesisSession(config)
        try:
            assert result.program == serial.run(bid).program
        finally:
            serial.close()


def test_parallel_run_persists_spec_tasks_through_workers(tmp_path):
    """Per-spec tasks write their outcomes to the store from the workers."""

    path = str(tmp_path / "outcomes.sqlite")
    config = SynthConfig(timeout_s=60)
    with SynthesisSession(config, store=path, parallel=2) as session:
        first = session.run("S4")
    assert first.success
    assert first.counters["search.parallel_tasks"] > 0

    with SynthesisSession(config, store=path) as fresh:
        second = fresh.run("S4")
    assert second.program == first.program
    assert second.counters["cache.store_hits"] >= 1
    # The spec searches ran only in workers, yet nothing is re-executed.
    assert second.counters["search.reset_replays"] == 0


# ---------------------------------------------------------------------------
# Cross-run solution hints
# ---------------------------------------------------------------------------


def test_session_repeats_reuse_solutions_without_searching():
    config = SynthConfig(timeout_s=60)
    with SynthesisSession(config) as session:
        first = session.run("S4")
        second = session.run("S4")
    assert second.program == first.program
    assert second.counters["search.hint_reuses"] > 0
    # Hints replace the per-spec searches (the merge phase's guard
    # syntheses still expand), so the repeat does strictly less work.
    assert second.counters["search.expansions"] < first.counters["search.expansions"]
    assert second.counters["search.evaluated"] < first.counters["search.evaluated"]


def test_hints_do_not_cross_configs():
    with SynthesisSession(SynthConfig(timeout_s=60)) as session:
        session.run("S4")
        coarse = session.run("S4", effect_precision="class")
    # The precision variant runs on a derived problem with its own hint
    # space, so its first run must have searched.
    assert coarse.counters["search.hint_reuses"] == 0


# ---------------------------------------------------------------------------
# Pickle safety of per-node memo slots
# ---------------------------------------------------------------------------


def test_ast_memo_slots_are_dropped_on_pickle(orm_class_table):
    """Per-node memos must never cross process boundaries.

    Workers receive ASTs by pickle; a type, footprint or free-variable memo
    smuggled through would at best be stale (keyed by the parent's class
    table generation) and at worst unpicklable, and a transported hash is
    wrong under another string-hash seed.  ``Node.__reduce__`` rebuilds every
    node through its constructor, so only the dataclass fields travel: the
    memos are dropped and the construction-time fields are recomputed on the
    receiving side.
    """

    import pickle

    from repro.analysis.footprint import footprint
    from repro.lang import ast as A
    from repro.lang import types as T
    from repro.lang.resolve import alpha_key, free_var_tuple
    from repro.typesys.typecheck import check_expr

    def build():
        return A.Let("v", A.IntLit(5), A.call(A.Var("v"), "+", A.IntLit(1)))

    expr = build()
    # Populate every per-node memo the engine writes.
    check_expr(expr, {}, orm_class_table)
    footprint(expr, {}, orm_class_table)
    A.free_vars(expr)
    free_var_tuple(expr)
    alpha_key(expr)
    A.first_hole(expr)
    memos = ("_type_memo", "_fp_memo", "_free_vars", "_fv_tuple", "_alpha_memo",
             "_first_hole")
    assert all(memo in expr.__dict__ for memo in memos)

    payload = pickle.dumps(expr)
    revived = pickle.loads(payload)
    for node in A.walk(revived):
        carried = [memo for memo in memos if memo in node.__dict__]
        assert carried == [], f"pickled node carries memos: {carried}"
    # Construction-time fields are recomputed, not transported: their names
    # never appear in the payload, and they match a fresh build's.
    for name in ("_hash", "_node_count", "_has_holes") + memos:
        assert name.encode() not in payload
    fresh = build()
    assert (revived._hash, revived._node_count, revived._has_holes) == (
        fresh._hash, fresh._node_count, fresh._has_holes
    )

    # The revived tree is fully usable: it evaluates and typechecks.
    assert Interpreter(orm_class_table).eval(revived) == 6
    assert check_expr(revived, {}, orm_class_table) == T.INT


# ---------------------------------------------------------------------------
# Counter-merge completeness
# ---------------------------------------------------------------------------


def _completeness(owner_counters):
    """Merging two runs' counters must add up every key the owner declares.

    Takes an owner's fresh counters; fails when one of its keys is not
    declared at zero or is not summed by ``merge``.
    """

    keys = sorted(owner_counters)
    assert keys
    assert all(value == 0 for value in owner_counters.values())
    a = Counters({key: 2 * index + 1 for index, key in enumerate(keys)})
    b = Counters({key: 100 + index for index, key in enumerate(keys)})
    merged = a.copy()
    merged.merge(b)
    assert set(merged) == set(keys)
    for key in keys:
        assert merged[key] == a[key] + b[key], f"{key} not merged"


def test_search_stats_merge_covers_every_counter():
    _completeness(search_counters())


def test_cache_stats_merge_covers_every_counter():
    _completeness(SynthCache().counters)


def test_state_stats_merge_covers_every_counter():
    _completeness(StateManager(Database()).counters)


def test_cache_stats_as_dict_and_since_cover_every_counter():
    """`as_dict`/`since` round-trip every cache counter (bench report plumbing)."""

    fresh = SynthCache().counters
    keys = sorted(fresh)
    counters = Counters({key: i + 1 for i, key in enumerate(keys)})
    assert counters.as_dict() == {
        "cache": {key.partition(".")[2]: counters[key] for key in keys}
    }
    delta = counters.since(fresh)
    assert delta.as_dict() == counters.as_dict()


def test_search_stats_as_dict_covers_every_counter():
    names = {key.partition(".")[2] for key in SEARCH_COUNTERS}
    assert search_counters().as_dict() == {"search": dict.fromkeys(names, 0)}


# ---------------------------------------------------------------------------
# Trace and metrics merge across workers
# ---------------------------------------------------------------------------


def _span_multiset(path):
    """Spans as a (name, attrs) multiset: ids, worker tags, parent links and
    timings aside -- exactly what serial/parallel runs must agree on."""

    import collections

    from repro.obs.tool import load_trace

    _, events = load_trace(path)
    return collections.Counter(
        (e["name"], tuple(sorted(e["attrs"].items())))
        for e in events
        if e["kind"] == "span"
    )


def test_parallel_trace_merge_matches_serial_span_set(tmp_path):
    """A traced ``parallel=2`` run must absorb worker spans into the same
    span set a serial run emits, and its merged metrics totals must equal
    the serial run's (timing histograms and dispatch bookkeeping aside)."""

    serial_path = str(tmp_path / "serial.jsonl")
    parallel_path = str(tmp_path / "parallel.jsonl")
    config = SynthConfig(timeout_s=60, snapshot_state=False)
    with SynthesisSession(
        dataclasses.replace(config, trace_path=serial_path)
    ) as session:
        serial = session.run("S5")
    with SynthesisSession(
        dataclasses.replace(config, trace_path=parallel_path)
    ) as session:
        parallel = session.run("S5", parallel=2)
    assert parallel.success and serial.success
    assert parallel.program == serial.program
    assert parallel.counters["search.parallel_tasks"] > 0
    assert _span_multiset(parallel_path) == _span_multiset(serial_path)

    # Worker spans really crossed the process boundary: the merged trace
    # carries more than one worker tag.
    from repro.obs.tool import load_trace

    _, events = load_trace(parallel_path)
    assert len({e["worker"] for e in events}) > 1

    # Merged metric totals equal the serial run's for every exported
    # counter (the phase histograms measure wall time, which legitimately
    # differs; PARALLEL_ONLY counters are dispatch bookkeeping).
    assert set(parallel.metrics["stats"]) == set(serial.metrics["stats"])
    for layer, names in serial.metrics["stats"].items():
        for name, value in names.items():
            if f"{layer}.{name}" in PARALLEL_ONLY:
                continue
            assert parallel.metrics["stats"][layer][name] == value, f"{layer}.{name}"
    assert set(parallel.metrics["phases"]) >= set(serial.metrics["phases"])


# ---------------------------------------------------------------------------
# Fork hygiene
# ---------------------------------------------------------------------------


def test_pool_creation_freezes_across_fork_and_unfreezes_parent():
    """Workers inherit the parent heap frozen; the parent is restored.

    The freeze-across-fork keeps a worker's first full collection from
    traversing (and copy-on-write copying) every pre-fork page; the parent
    must unfreeze right after so its own collection behavior is unchanged.
    """

    import gc

    from repro.synth.parallel import ParallelExecutor

    assert gc.get_freeze_count() == 0
    executor = ParallelExecutor(2, base_config=SynthConfig(timeout_s=60))
    with executor:
        executor._get_pool()
        assert gc.get_freeze_count() == 0
        # The pool still works after the freeze/unfreeze dance.
        future = executor.submit_cell(
            "S4",
            get_benchmark("S4").make_config(SynthConfig(timeout_s=60)),
            fresh=False,
            runs=1,
        )
        payloads = future.get()
    assert payloads and payloads[0].success
