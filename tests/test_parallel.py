"""Tests for the parallel synthesis subsystem (repro.synth.parallel):
serial-vs-parallel equivalence (programs, outcomes and merged counters),
sweep-cell distribution, the two-process SQLite store round-trip, cross-run
solution hints, and the counter-merge field-completeness guards."""

from __future__ import annotations

import dataclasses

import pytest

from repro.benchmarks import get_benchmark, run_benchmark
from repro.interp import Interpreter
from repro.synth import SynthConfig, SynthesisSession
from repro.synth.cache import CacheStats
from repro.synth.search import SearchStats
from repro.synth.state import StateStats

#: Multi-spec registry benchmarks cheap enough for pooled tests.
FAST = ["S4", "S5"]

#: Counters that only the parallel run accumulates (dispatch bookkeeping,
#: not work): excluded from the serial-equality comparison.
PARALLEL_ONLY = {"parallel_tasks", "parallel_discarded"}


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
    assert parallel.stats.parallel_tasks > 0


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
    serial_counts = serial.stats.as_dict()
    parallel_counts = parallel.stats.as_dict()
    for field in serial_counts:
        if field in PARALLEL_ONLY:
            continue
        assert parallel_counts[field] == serial_counts[field], field
    assert parallel.cache_stats.as_dict() == serial.cache_stats.as_dict()


def test_parallel_hit_miss_totals_preserved_on_speculative_overlap():
    """S4's speculative search re-executes one reuse evaluation: the
    hit/miss split shifts by one but the combined totals stay equal."""

    config = SynthConfig(timeout_s=60, snapshot_state=False)
    with SynthesisSession(config) as session:
        serial = session.run("S4")
    with SynthesisSession(config) as session:
        parallel = session.run("S4", parallel=2)
    assert parallel.program == serial.program
    assert (
        parallel.stats.cache_hits + parallel.stats.cache_misses
        == serial.stats.cache_hits + serial.stats.cache_misses
    )
    assert parallel.stats.evaluated == serial.stats.evaluated


def test_non_registry_problem_falls_back_to_serial():
    problem = get_benchmark("S4").build()
    with SynthesisSession(SynthConfig(timeout_s=60), parallel=2) as session:
        result = session.run(problem)
    assert result.success
    assert result.stats.parallel_tasks == 0


def test_fresh_state_falls_back_to_serial():
    """Workers hold warm state, so a cold-state run must stay in-process."""

    with SynthesisSession(SynthConfig(timeout_s=60), parallel=2) as session:
        result = session.run("S4", fresh_state=True)
    assert result.success
    assert result.stats.parallel_tasks == 0


def test_parallel_sweep_with_json_store_warns(tmp_path):
    """Cell tasks cannot persist to a JSON store; the sweep must say so."""

    path = str(tmp_path / "outcomes.json")
    with SynthesisSession(SynthConfig(timeout_s=60), store=path, parallel=2) as session:
        with pytest.warns(RuntimeWarning, match="SQLite backend"):
            session.sweep(["S1"], warm=True)


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
        assert fresh.store.stats.loaded > 0
        results = {bid: fresh.run(bid) for bid in FAST}
    for bid, result in results.items():
        assert result.success
        assert result.stats.store_hits >= 1, bid
        serial = SynthesisSession(config)
        try:
            assert result.program == serial.run(bid).program
        finally:
            serial.close()


def test_parallel_run_with_json_store_persists_via_parent(tmp_path):
    """With a JSON store workers stay store-less; the parent writes through."""

    path = str(tmp_path / "outcomes.json")
    config = SynthConfig(timeout_s=60)
    with SynthesisSession(config, store=path, parallel=2) as session:
        first = session.run("S4")
        assert session.store.backend == "json"
    assert first.success

    with SynthesisSession(config, store=path) as fresh:
        second = fresh.run("S4")
    assert second.program == first.program
    assert second.stats.store_hits >= 1


# ---------------------------------------------------------------------------
# Cross-run solution hints
# ---------------------------------------------------------------------------


def test_session_repeats_reuse_solutions_without_searching():
    config = SynthConfig(timeout_s=60)
    with SynthesisSession(config) as session:
        first = session.run("S4")
        second = session.run("S4")
    assert second.program == first.program
    assert second.stats.hint_reuses > 0
    # Hints replace the per-spec searches (the merge phase's guard
    # syntheses still expand), so the repeat does strictly less work.
    assert second.stats.expansions < first.stats.expansions
    assert second.stats.evaluated < first.stats.evaluated


def test_hints_do_not_cross_configs():
    with SynthesisSession(SynthConfig(timeout_s=60)) as session:
        session.run("S4")
        coarse = session.run("S4", effect_precision="class")
    # The precision variant runs on a derived problem with its own hint
    # space, so its first run must have searched.
    assert coarse.stats.hint_reuses == 0


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
# Counter-merge field completeness
# ---------------------------------------------------------------------------


def _completeness(stats_cls):
    """Merging two instances must aggregate every dataclass field.

    Fails when a counter is added without merge support: the unmerged field
    keeps ``a``'s value instead of the expected combination.
    """

    fields = dataclasses.fields(stats_cls)
    a_values = {}
    b_values = {}
    for index, field in enumerate(fields):
        if field.type in ("int", int):
            a_values[field.name] = 2 * index + 1
            b_values[field.name] = 100 + index
        elif field.type in ("bool", bool):
            a_values[field.name] = False
            b_values[field.name] = True
        else:  # pragma: no cover - all counters are ints/bools today
            raise AssertionError(f"unexpected counter type {field.type!r}")
    a = stats_cls(**a_values)
    b = stats_cls(**b_values)
    a.merge(b)
    for field in fields:
        merged = getattr(a, field.name)
        if field.type in ("bool", bool):
            assert merged is True, f"{stats_cls.__name__}.{field.name} not merged"
        else:
            expected = a_values[field.name] + b_values[field.name]
            assert merged == expected, f"{stats_cls.__name__}.{field.name} not merged"


def test_search_stats_merge_covers_every_counter():
    _completeness(SearchStats)


def test_cache_stats_merge_covers_every_counter():
    _completeness(CacheStats)


def test_state_stats_merge_covers_every_counter():
    _completeness(StateStats)


def test_cache_stats_as_dict_and_since_cover_every_counter():
    """`as_dict`/`since` round-trip every field (bench report plumbing)."""

    fields = [f.name for f in dataclasses.fields(CacheStats)]
    stats = CacheStats(**{name: i + 1 for i, name in enumerate(fields)})
    assert set(stats.as_dict()) == set(fields)
    delta = stats.since(CacheStats())
    assert delta.as_dict() == stats.as_dict()


def test_search_stats_as_dict_covers_every_counter():
    fields = {f.name for f in dataclasses.fields(SearchStats)}
    assert set(SearchStats().as_dict()) == fields


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
    assert parallel.stats.parallel_tasks > 0
    assert _span_multiset(parallel_path) == _span_multiset(serial_path)

    # Worker spans really crossed the process boundary: the merged trace
    # carries more than one worker tag.
    from repro.obs.tool import load_trace

    _, events = load_trace(parallel_path)
    assert len({e["worker"] for e in events}) > 1

    # Merged metric totals equal the serial run's for every exported stats
    # field (the phase histograms measure wall time, which legitimately
    # differs; PARALLEL_ONLY counters are dispatch bookkeeping).
    assert set(parallel.metrics["stats"]) == set(serial.metrics["stats"])
    for prefix, fields in serial.metrics["stats"].items():
        for name, value in fields.items():
            if name in PARALLEL_ONLY:
                continue
            assert parallel.metrics["stats"][prefix][name] == value, (
                f"{prefix}.{name}"
            )
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
