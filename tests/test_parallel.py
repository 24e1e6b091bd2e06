"""Tests for the parallel synthesis subsystem (repro.synth.parallel), the
worker pool a session starts to run whole sweep cells (cold
``run_benchmark`` repetitions among them): cells match serial runs in
programs and counters, a cell's time is its run's ``elapsed_s`` and
excludes its problem build, ``run`` and ad-hoc cells stay in the parent,
worker trace shipping, stopping a sweep part-way, fork hygiene and
counter-merge completeness."""

from __future__ import annotations

import json
import time

import pytest

from repro.activerecord import Database
from repro.benchmarks import get_benchmark, run_benchmark
from repro.interp import Interpreter
from repro.obs.metrics import Counters
from repro.obs import trace
from repro.synth import SynthConfig, SynthesisSession
from repro.synth.search import SEARCH_COUNTERS, search_counters
from repro.synth.state import StateManager

#: Multi-spec registry benchmarks cheap enough for pooled tests.
FAST = ["S4", "S5"]


def _pool_started(session):
    return session._pool is not None


def _cell(benchmark_id, config, warm, parallel):
    """One sweep cell's result, run serially or in a worker."""

    with SynthesisSession(config) as session:
        entry = session.sweep([benchmark_id], warm=warm, parallel=parallel)[0]
        assert _pool_started(session) == (parallel > 1)
    return entry.result


# ---------------------------------------------------------------------------
# Cells match serial runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("benchmark_id", FAST + ["S7", "A1"])
def test_parallel_run_synthesizes_identical_programs(benchmark_id):
    """A cold cell run in a worker synthesizes the serial program and
    reports the serial run's counters, snapshot state on or off."""

    for snapshot_state in (True, False):
        config = SynthConfig(timeout_s=60, snapshot_state=snapshot_state)
        serial = _cell(benchmark_id, config, warm=False, parallel=1)
        parallel = _cell(benchmark_id, config, warm=False, parallel=2)
        assert parallel.success == serial.success
        assert parallel.timed_out == serial.timed_out
        assert parallel.program == serial.program
        assert dict(parallel.counters) == dict(serial.counters)
        assert parallel.metrics["stats"] == serial.metrics["stats"]


@pytest.mark.parametrize("benchmark_id", ["S1", "S5"])
def test_parallel_counters_equal_serial_totals(benchmark_id):
    """A warm cell runs in its worker's long-lived session; the first one
    reports the counters of a serial warm sweep's first cell, snapshot
    state on or off."""

    for snapshot_state in (True, False):
        config = SynthConfig(timeout_s=60, snapshot_state=snapshot_state)
        serial = _cell(benchmark_id, config, warm=True, parallel=1)
        parallel = _cell(benchmark_id, config, warm=True, parallel=2)
        assert parallel.program == serial.program
        assert dict(parallel.counters) == dict(serial.counters)


def test_non_registry_problem_falls_back_to_serial():
    """An ad-hoc problem cannot be rebuilt in a worker: a parallel sweep
    runs its cell in the parent and never starts the pool."""

    problem = get_benchmark("S4").build()
    with SynthesisSession(SynthConfig(timeout_s=60), parallel=2) as session:
        entries = session.sweep([problem])
        assert not _pool_started(session)
    assert entries[0].success


def test_fresh_state_falls_back_to_serial():
    """``run`` is serial on a parallel session, fresh state or warm: it
    never starts the pool, and it takes no ``parallel`` argument."""

    with SynthesisSession(SynthConfig(timeout_s=60), parallel=2) as session:
        cold = session.run("S4", fresh_state=True)
        warm = session.run("S4")
        with pytest.raises(TypeError):
            session.run("S4", parallel=2)
        assert not _pool_started(session)
    assert cold.success
    assert warm.program == cold.program


def test_run_benchmark_parallel_matches_serial():
    """Cold repetitions spread over workers sum to the serial loop's
    counters and synthesize its program."""

    benchmark = get_benchmark("S5")
    config = SynthConfig(timeout_s=60)
    serial = run_benchmark(benchmark, config, runs=2, warm_state=False)
    parallel = run_benchmark(
        benchmark, config, runs=2, warm_state=False, parallel=2
    )
    assert parallel.success and serial.success
    assert parallel.program_text == serial.program_text
    assert dict(parallel.counters) == dict(serial.counters)


def test_run_benchmark_warm_runs_refuse_workers():
    """Warm runs share one session, so they cannot be spread over workers."""

    with pytest.raises(ValueError, match="warm"):
        run_benchmark(get_benchmark("S5"), SynthConfig(timeout_s=60), parallel=2)


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


#: A problem-build delay far above S1's run time (a few milliseconds).
BUILD_DELAY_S = 0.3


@pytest.mark.parametrize("jobs", [1, 2])
def test_cold_cell_times_exclude_the_problem_build(monkeypatch, jobs):
    """A cold cell's time covers its ``run`` call only, serial or in a
    worker, so a slow problem build does not inflate Table 1 or Figure 7
    medians."""

    benchmark = get_benchmark("S1")
    build = benchmark.build

    def slow_build():
        time.sleep(BUILD_DELAY_S)
        return build()

    # Patched before the pool forks, so the workers inherit the slow build.
    monkeypatch.setattr(benchmark, "build", slow_build)
    config = SynthConfig(timeout_s=60)
    with SynthesisSession(config) as session:
        entry = session.sweep(["S1"], warm=False, parallel=jobs)[0]
    assert entry.success
    assert entry.elapsed_s < BUILD_DELAY_S
    result = run_benchmark(
        benchmark, config, runs=2, warm_state=False, parallel=jobs
    )
    assert len(result.times_s) == 2
    assert all(elapsed < BUILD_DELAY_S for elapsed in result.times_s)


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
# Pickle safety of per-node memo slots
# ---------------------------------------------------------------------------


def test_ast_memo_slots_are_dropped_on_pickle(orm_class_table):
    """Per-node memos must never cross process boundaries.

    ASTs cross the process boundary by pickle (a cell's program comes back
    from its worker); a type, footprint or alpha-key memo smuggled
    through would at best be stale (keyed by the sender's class table
    generation) and at worst unpicklable, and a transported hash is
    wrong under another string-hash seed.  ``Node.__reduce__`` rebuilds every
    node through its constructor, so only the fields travel: the memo slots
    arrive empty and the construction-time fields (``_fv`` included) are
    recomputed on the receiving side.
    """

    import pickle

    from repro.analysis.footprint import footprint
    from repro.lang import ast as A
    from repro.lang import types as T
    from repro.lang.resolve import alpha_key
    from repro.typesys.typecheck import check_expr

    def build():
        return A.Let("v", A.IntLit(5), A.call(A.Var("v"), "+", A.IntLit(1)))

    expr = build()
    # Fill every memo slot the engine writes, on every compound node.
    check_expr(expr, {}, orm_class_table)
    footprint(expr, {}, orm_class_table)
    alpha_key(expr)
    memos = ("_type_memo", "_fp_memo", "_alpha_memo")
    compound = [node for node in A.walk(expr) if isinstance(node, A.Compound)]
    assert len(compound) == 2
    for node in compound:
        assert all(getattr(node, memo, None) for memo in memos)

    payload = pickle.dumps(expr)
    revived = pickle.loads(payload)
    for node in A.walk(revived):
        carried = [memo for memo in memos if getattr(node, memo, None) is not None]
        assert carried == [], f"pickled node carries memos: {carried}"
    # Construction-time fields are recomputed, not transported: their names
    # never appear in the payload, and they match a fresh build's.
    for name in ("_hash", "_node_count", "_holes", "_fv") + memos:
        assert name.encode() not in payload
    fresh = build()
    assert (revived._hash, revived._node_count, revived._holes, revived._fv) == (
        fresh._hash, fresh._node_count, fresh._holes, fresh._fv
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


def test_state_stats_merge_covers_every_counter():
    _completeness(StateManager(Database()).counters)


def test_search_stats_as_dict_covers_every_counter():
    names = {key.partition(".")[2] for key in SEARCH_COUNTERS}
    assert search_counters().as_dict() == {"search": dict.fromkeys(names, 0)}


# ---------------------------------------------------------------------------
# Trace and metrics merge across workers
# ---------------------------------------------------------------------------


def _span_multiset(path):
    """Spans as a multiset of their names and deterministic attrs -- every
    attr but the layer self times; ids, worker tags, parent links and
    timings aside -- exactly what serial/parallel runs must agree on."""

    import collections

    from repro.obs.tool import load_trace

    def deterministic(attrs):
        fixed = {k: v for k, v in attrs.items() if k != "layers"}
        fixed["calls"] = {layer: t["calls"] for layer, t in attrs["layers"].items()}
        return json.dumps(fixed, sort_keys=True)

    _, spans = load_trace(path)
    return collections.Counter((s["name"], deterministic(s["attrs"])) for s in spans)


def test_parallel_trace_merge_matches_serial_span_set(tmp_path):
    """A traced cold ``parallel=2`` sweep must absorb the cells' worker
    spans into the same span multiset a serial sweep emits."""

    from repro.obs.tool import load_trace

    config = SynthConfig(timeout_s=60)
    paths, programs = {}, {}
    for jobs in (1, 2):
        paths[jobs] = str(tmp_path / f"jobs{jobs}.jsonl")
        with SynthesisSession(config, trace_path=paths[jobs]) as session:
            entries = session.sweep(["S5", "S4"], warm=False, parallel=jobs)
        assert all(entry.success for entry in entries)
        programs[jobs] = [entry.result.program for entry in entries]
    assert programs[2] == programs[1]
    serial = _span_multiset(paths[1])
    assert sum(n for (name, _), n in serial.items() if name == "session") == 2
    assert _span_multiset(paths[2]) == serial

    # Worker spans really crossed the process boundary: the merged trace
    # carries more than one worker tag, and none from the parent.
    _, spans = load_trace(paths[2])
    workers = {s["worker"] for s in spans}
    assert len(workers) > 1 and "0" not in workers


def test_repro_trace_parallel_sweep_matches_serial_span_set(tmp_path, monkeypatch):
    """With ``REPRO_TRACE`` set, a session traces every cell of a sweep:
    the ``parallel=2`` cold sweep's file holds the serial sweep's span
    multiset, and no worker session reopens (and truncates) the file."""

    paths = {}
    for jobs in (1, 2):
        paths[jobs] = str(tmp_path / f"env{jobs}.jsonl")
        monkeypatch.setenv("REPRO_TRACE", paths[jobs])
        with SynthesisSession(SynthConfig(timeout_s=60)) as session:
            entries = session.sweep(["S5", "S4"], warm=False, parallel=jobs)
        assert all(entry.success for entry in entries)
    serial = _span_multiset(paths[1])
    assert sum(n for (name, _), n in serial.items() if name == "session") == 2
    assert _span_multiset(paths[2]) == serial


def _wrapped_sites():
    """The wrap sites that hold a tracing wrapper in this process."""

    from repro.obs import trace

    wrapped = []
    for sites in trace.SITES.values():
        for site in sites:
            owner, attr = trace.resolve(site)
            if hasattr(vars(owner)[attr], "__wrapped__"):
                wrapped.append(site)
    return trace.TRACER is None, wrapped


def test_untraced_cell_in_a_worker_forked_from_a_tracing_parent(tmp_path):
    """Workers forked while the parent traces inherit its wrappers; they put
    the original functions back, so a cell submitted once the parent has
    stopped tracing writes nothing and runs them unwrapped."""

    from repro.obs.tool import load_trace

    path = str(tmp_path / "parent.jsonl")
    trace.enable(path)
    try:
        with SynthesisSession(SynthConfig(timeout_s=60), parallel=2) as session:
            parent_tracing, parent_wrapped = _wrapped_sites()
            assert not parent_tracing and parent_wrapped
            pool = session._pool_for(2)  # forked while tracing
            trace.disable()
            entries = session.sweep(["S4", "S5"], warm=False)
            assert all(entry.success for entry in entries)
            probes = [pool.apply(_wrapped_sites) for _ in range(4)]
    finally:
        trace.disable()
    assert probes == [(True, [])] * 4
    _, spans = load_trace(path)
    assert spans == []


# ---------------------------------------------------------------------------
# Stopping
# ---------------------------------------------------------------------------


def test_closing_mid_sweep_terminates_running_cells():
    """A caller that raises part-way through a sweep does not wait for the
    cells still running: closing the session terminates its workers."""

    import dataclasses
    import multiprocessing

    def broken_reset():
        raise RuntimeError("broken reset")

    # The ad-hoc cell raises in the parent after the two unguided A10 cells
    # went to the workers, where each would run to its 60 s timeout.
    broken = dataclasses.replace(get_benchmark("S1").build(), reset=broken_reset)
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match="broken reset"):
        with SynthesisSession(SynthConfig.unguided(timeout_s=60), parallel=2) as session:
            session.sweep([broken, "A10", "A10"])
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []


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

    assert gc.get_freeze_count() == 0
    with SynthesisSession(SynthConfig(timeout_s=60), parallel=2) as session:
        session._pool_for(2)
        assert gc.get_freeze_count() == 0
        # The pool still works after the freeze/unfreeze dance.
        entry = session.sweep(["S4"], warm=True)[0]
    assert entry.success
