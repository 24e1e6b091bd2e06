"""Tests for the observability subsystem (repro.obs): span-based tracing,
the counter namespace and metrics snapshots, the trace analysis tooling,
and the traced ``session.run`` end-to-end contract (root span, phase
coverage, Chrome export)."""

from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

from repro.obs import trace
from repro.obs import tool
from repro.obs.metrics import (
    METRICS_SCHEMA_VERSION,
    Baseline,
    Counters,
    MetricsRegistry,
    merge_snapshots,
)
from repro.activerecord.database import QUERY_COUNTERS
from repro.synth import SynthConfig, SynthesisSession
from repro.synth.cache import CACHE_COUNTERS
from repro.synth.search import SEARCH_COUNTERS
from repro.synth.state import STATE_COUNTERS


@pytest.fixture(autouse=True)
def _restore_tracer():
    """Never leak an enabled tracer into other tests (module-global state)."""

    yield
    if trace.TRACER is not trace.NULL:
        trace.disable()


# ---------------------------------------------------------------------------
# Tracer lifecycle and span model
# ---------------------------------------------------------------------------


def test_tracer_is_disabled_by_default():
    assert trace.TRACER is trace.NULL
    assert trace.TRACER.enabled is False
    # The null tracer supports the full instrumentation surface inertly.
    with trace.TRACER.span("anything", attr=1) as span:
        span.annotate(more=2)
    trace.TRACER.event("instant")
    trace.TRACER.annotate(ok=True)
    assert trace.TRACER.export() == []


def test_enable_writes_schema_versioned_header_first(tmp_path):
    path = str(tmp_path / "run.jsonl")
    tracer = trace.enable(path)
    assert trace.TRACER is tracer and tracer.enabled
    with tracer.span("outer", label="o"):
        with tracer.span("inner") as inner:
            inner.annotate(deep=True)
            tracer.event("tick", n=1)
    trace.disable()
    assert trace.TRACER is trace.NULL

    lines = [json.loads(line) for line in open(path)]
    assert lines[0]["kind"] == "header"
    assert lines[0]["schema"] == trace.TRACE_SCHEMA_VERSION
    by_name = {e["name"]: e for e in lines[1:]}
    outer, inner, tick = by_name["outer"], by_name["inner"], by_name["tick"]
    # Spans are written complete at exit, so inner precedes outer.
    assert [e["name"] for e in lines[1:]] == ["tick", "inner", "outer"]
    assert outer["kind"] == inner["kind"] == "span"
    assert outer["parent"] is None
    assert inner["parent"] == outer["id"]
    assert tick["kind"] == "event" and tick["parent"] == inner["id"]
    assert inner["attrs"] == {"deep": True}
    assert outer["attrs"] == {"label": "o"}
    assert outer["dur"] >= inner["dur"] >= 0
    assert all(e["worker"] == "0" for e in lines[1:])


def test_finish_pops_through_escaped_inner_spans():
    tracer = trace.Tracer(None)
    outer = tracer.begin("outer")
    tracer.begin("inner")  # never finished (e.g. an exception skipped it)
    tracer.finish(outer)
    assert tracer.current is None
    assert [e["name"] for e in tracer.export()] == ["outer"]


def test_annotate_targets_innermost_open_span():
    tracer = trace.Tracer(None)
    with tracer.span("outer"):
        with tracer.span("inner"):
            tracer.annotate(src="memo")
    events = {e["name"]: e for e in tracer.export()}
    assert events["inner"]["attrs"] == {"src": "memo"}
    assert events["outer"]["attrs"] == {}


def test_absorb_reparents_worker_roots_onto_current_span():
    worker = trace.Tracer(None, worker="w1")
    with worker.span("search.spec", spec="s"):
        with worker.span("eval.spec", spec="s"):
            pass
    shipped = worker.export()

    parent = trace.Tracer(None)
    with parent.span("phase.specs") as phase:
        parent.absorb(shipped)
    merged = {e["name"]: e for e in parent.export()}
    # The worker's root span hangs off the absorbing parent span; the
    # worker-internal link and the worker-tagged ids are preserved.
    assert merged["search.spec"]["parent"] == phase.id
    assert merged["eval.spec"]["parent"] == merged["search.spec"]["id"]
    assert merged["search.spec"]["id"].startswith("w1:")
    assert merged["search.spec"]["worker"] == "w1"


def test_reset_after_fork_drops_tracer_without_closing(tmp_path):
    path = str(tmp_path / "run.jsonl")
    tracer = trace.enable(path)
    trace.reset_after_fork()
    assert trace.TRACER is trace.NULL
    # The parent-side file object is untouched; closing it still works.
    tracer.close()
    assert json.loads(open(path).readline())["kind"] == "header"


# ---------------------------------------------------------------------------
# Counters and the metrics registry
# ---------------------------------------------------------------------------


def test_counters_since_merge_and_per_layer_nesting():
    """The one counter namespace: flat ``layer.name`` keys, a missing key
    reads 0, ``since``/``merge`` are per-key arithmetic over every key, and
    ``as_dict`` nests per layer (the shape of ``metrics["stats"]``)."""

    counters = Counters.fromkeys(("search.expansions", "cache.spec_hits"), 0)
    assert counters["search.never_counted"] == 0
    assert "search.never_counted" not in counters  # reading adds no key

    before = counters.copy()
    counters["search.expansions"] += 5
    counters["state.restores"] += 2  # a key first counted after the copy
    assert before["search.expansions"] == 0  # the copy is independent
    delta = counters.since(before)
    assert isinstance(delta, Counters)
    assert delta == {"search.expansions": 5, "cache.spec_hits": 0, "state.restores": 2}

    total = Counters({"search.expansions": 1, "query.scans": 4})
    total.merge(delta)
    assert total == {
        "search.expansions": 6,
        "query.scans": 4,
        "cache.spec_hits": 0,
        "state.restores": 2,
    }
    assert total.as_dict() == {
        "cache": {"spec_hits": 0},
        "query": {"scans": 4},
        "search": {"expansions": 6},
        "state": {"restores": 2},
    }

    # A baseline over several owners sums each owner's delta.
    cache, state = Counters({"cache.spec_hits": 3}), Counters({"state.restores": 1})
    baseline = Baseline(cache, None, state)
    cache["cache.spec_hits"] += 2
    state["state.restores"] += 4
    assert baseline.delta() == {"cache.spec_hits": 2, "state.restores": 4}


#: Every key each counter owner declares, by layer (the search layer also
#: holds the problem's ``search.reset_replays``).
OWNER_COUNTERS = {
    "cache": CACHE_COUNTERS,
    "query": QUERY_COUNTERS,
    "search": SEARCH_COUNTERS + ("search.reset_replays",),
    "state": STATE_COUNTERS,
}


@pytest.mark.parametrize("prefix", sorted(OWNER_COUNTERS))
def test_registry_exports_and_merges_every_stats_field(prefix):
    """Every counter an owner declares must flow through the snapshot.

    The keys must be distinct and live in the owner's layer, the snapshot
    must export each one under ``stats[layer]``, and ``merge_snapshots``
    must fold it exactly like ``Counters.merge``.
    """

    keys = OWNER_COUNTERS[prefix]
    assert len(set(keys)) == len(keys)
    assert all(key.startswith(prefix + ".") for key in keys)
    names = {key.partition(".")[2] for key in keys}
    a = Counters({key: 2 * index + 1 for index, key in enumerate(keys)})
    b = Counters({key: 100 + index for index, key in enumerate(keys)})

    snap_a = MetricsRegistry().snapshot(a)
    snap_b = MetricsRegistry().snapshot(b)
    assert set(snap_a["stats"]) == {prefix}
    assert set(snap_a["stats"][prefix]) == names

    merged = merge_snapshots(snap_a, snap_b)["stats"][prefix]
    a.merge(b)  # Counters.merge is the reference semantics
    assert set(merged) == names
    for name in names:
        assert merged[name] == a[f"{prefix}.{name}"], f"{prefix}.{name}"


def test_registry_instruments_and_snapshot_shape():
    registry = MetricsRegistry()
    registry.observe_phase("spec_search", 0.5)
    registry.observe_phase("spec_search", 1.5)
    counters = Counters({"search.evaluated": 5, "cache.spec_hits": 2})
    snap = registry.snapshot(counters)
    assert snap["schema_version"] == METRICS_SCHEMA_VERSION
    assert set(snap) == {"schema_version", "phases", "stats"}
    assert snap["stats"] == {"cache": {"spec_hits": 2}, "search": {"evaluated": 5}}
    hist = snap["phases"]["spec_search"]
    assert hist["count"] == 2
    assert hist["total_s"] == pytest.approx(2.0)
    assert hist["min_s"] == pytest.approx(0.5)
    assert hist["max_s"] == pytest.approx(1.5)
    assert hist["mean_s"] == pytest.approx(1.0)
    json.dumps(snap)  # JSON-able end to end


def test_merge_snapshots_combines_every_section():
    a_reg, b_reg = MetricsRegistry(), MetricsRegistry()
    a_reg.observe_phase("run", 1.0)
    b_reg.observe_phase("run", 3.0)
    b_reg.observe_phase("merge", 0.25)
    merged = merge_snapshots(
        a_reg.snapshot(Counters({"search.evaluated": 2})),
        b_reg.snapshot(Counters({"search.evaluated": 3, "query.scans": 1})),
    )
    assert merged["stats"] == {"query": {"scans": 1}, "search": {"evaluated": 5}}
    run = merged["phases"]["run"]
    assert run["count"] == 2
    assert run["total_s"] == pytest.approx(4.0)
    assert run["min_s"] == pytest.approx(1.0)
    assert run["max_s"] == pytest.approx(3.0)
    assert run["mean_s"] == pytest.approx(2.0)
    assert merged["phases"]["merge"]["count"] == 1


# ---------------------------------------------------------------------------
# Trace tooling
# ---------------------------------------------------------------------------


def test_load_trace_rejects_headerless_and_wrong_schema(tmp_path):
    headerless = tmp_path / "bad.jsonl"
    headerless.write_text('{"kind": "span", "name": "x"}\n')
    with pytest.raises(tool.TraceError, match="not a trace header"):
        tool.load_trace(str(headerless))

    wrong = tmp_path / "wrong.jsonl"
    wrong.write_text('{"kind": "header", "schema": 999}\n')
    with pytest.raises(tool.TraceError, match="schema"):
        tool.load_trace(str(wrong))

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(tool.TraceError, match="empty trace"):
        tool.load_trace(str(empty))


def _traced_run(tmp_path, benchmark_id="S4"):
    path = str(tmp_path / "run.jsonl")
    config = SynthConfig(timeout_s=60, trace_path=path)
    with SynthesisSession(config) as session:
        result = session.run(benchmark_id)
    assert trace.TRACER is trace.NULL  # the session owned + closed it
    assert result.success
    return path, result


def test_traced_session_run_summary_covers_phases(tmp_path):
    path, result = _traced_run(tmp_path)
    summary = tool.summarize(path)
    breakdown = summary["breakdown"]
    assert breakdown["root"]["name"] == "session.run"
    assert breakdown["root"]["attrs"]["problem"] == result.problem.name
    assert breakdown["root"]["attrs"]["success"] is True
    assert set(breakdown["phases"]) >= {"phase.setup", "phase.specs", "phase.merge"}
    assert breakdown["coverage"] >= 0.95
    assert summary["events"] > 0
    assert summary["slowest_specs"], "search.spec spans missing"
    totals = summary["span_totals"]
    assert totals["eval.spec"]["count"] > 0
    # S4's merge phase searches guards and evaluates them.
    assert totals["search.guard"]["count"] > 0
    assert totals["eval.guard"]["count"] > 0
    # Every evaluation is answered by the memo or executed, nothing else.
    timeline = summary["hit_ratio_timeline"]
    assert all(set(e) == {"bucket", "memo", "exec", "hit_ratio"} for e in timeline)
    evals = sum(
        totals[name]["count"] for name in ("eval.spec", "eval.guard") if name in totals
    )
    assert sum(e["memo"] + e["exec"] for e in timeline) == evals
    # The human rendering mentions the phases and coverage line.
    rendered = tool.format_summary(summary)
    assert "session.run" in rendered and "phase coverage" in rendered


def test_traced_run_chrome_export_is_valid(tmp_path):
    path, _ = _traced_run(tmp_path)
    chrome = tool.to_chrome(path)
    payload = json.loads(json.dumps(chrome))
    assert payload["traceEvents"]
    phases = {e["ph"] for e in payload["traceEvents"]}
    assert "X" in phases  # complete spans
    for event in payload["traceEvents"]:
        assert event["ph"] in ("X", "i", "M")
        if event["ph"] == "X":
            assert event["ts"] >= 0 and event["dur"] >= 0


def test_trace_tool_cli_summarize_and_export(tmp_path, capsys):
    import importlib.util
    import os

    path, _ = _traced_run(tmp_path)
    spec = importlib.util.spec_from_file_location(
        "trace_tool_cli",
        os.path.join(os.path.dirname(__file__), "..", "scripts", "trace_tool.py"),
    )
    cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli)

    assert cli.main(["summarize", path, "--json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["breakdown"]["coverage"] >= 0.95

    out = str(tmp_path / "chrome.json")
    assert cli.main(["export-chrome", path, "--out", out]) == 0
    assert json.load(open(out))["traceEvents"]

    assert cli.main(["summarize", str(tmp_path / "missing.jsonl")]) == 2


def test_repro_trace_env_enables_tracing(tmp_path, monkeypatch):
    path = str(tmp_path / "env.jsonl")
    monkeypatch.setenv("REPRO_TRACE", path)
    config = SynthConfig(timeout_s=60)  # trace_path defaults from the env
    assert config.trace_path == path
    with SynthesisSession(config) as session:
        assert session.run("S1").success
    header, events = tool.load_trace(path)
    assert header["schema"] == trace.TRACE_SCHEMA_VERSION
    assert any(e["name"] == "session.run" for e in events)


# ---------------------------------------------------------------------------
# Metrics threaded through the engine
# ---------------------------------------------------------------------------


def test_run_result_carries_metrics_snapshot():
    with SynthesisSession(SynthConfig(timeout_s=60)) as session:
        result = session.run("S4")
    assert result.success
    metrics = result.metrics
    assert metrics["schema_version"] == METRICS_SCHEMA_VERSION
    assert set(metrics["stats"]) >= {"search", "cache", "state"}
    assert metrics["stats"] == result.counters.as_dict()
    assert metrics["stats"]["search"]["evaluated"] > 0
    assert "run" in metrics["phases"] and metrics["phases"]["run"]["count"] == 1
    assert "spec_search" in metrics["phases"]


def test_benchmark_result_folds_metrics_across_runs():
    from repro.benchmarks import get_benchmark, run_benchmark

    result = run_benchmark(get_benchmark("S4"), SynthConfig(timeout_s=60), runs=2)
    assert result.success
    assert result.metrics is not None
    assert result.metrics["phases"]["run"]["count"] == 2


def _perfbench_counters():
    """``perfbench/child.py``'s ``COUNTERS`` table, read without importing
    the benchmark (it expects its own directory on ``sys.path``)."""

    child = Path(__file__).resolve().parents[1] / "perfbench" / "child.py"
    source = child.read_text()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "COUNTERS"
            for target in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/child.py defines no COUNTERS")


@pytest.mark.parametrize("parallel", [1, 2])
@pytest.mark.parametrize("benchmark_id", ["S5", "A1"])
def test_metrics_stats_hold_every_counter_perfbench_reads(benchmark_id, parallel):
    """The end-to-end benchmark reads its per-layer counters from
    ``result.metrics["stats"]`` by name, defaulting a missing one to 0, so
    a renamed counter would silently zero a benchmark metric.  Every name
    it reads must be exported (by a sweep cell run serially or in a
    worker), and the search and snapshot counters it reports must be
    live."""

    with SynthesisSession(SynthConfig(timeout_s=60)) as session:
        result = session.sweep([benchmark_id], parallel=parallel)[0].result
    assert result.success
    stats = result.metrics["stats"]
    for layer, names in _perfbench_counters().items():
        for name in names:
            if (layer, name) in {("cache", "intern_hits"), ("cache", "intern_misses")}:
                continue  # the deleted AST interner's pair, always 0
            assert name in stats.get(layer, {}), f"{layer}.{name}"
    live = [("search", "expansions"), ("search", "pushed"), ("search", "evaluated"),
            ("state", "restores")]
    for layer, name in live:
        assert stats[layer][name] > 0, f"{layer}.{name}"


def _perfbench_spans():
    """A fresh ``perfbench/spans.py`` module and the ``layers`` table of
    ``perfbench/rationale.json``, both read without writing anything under
    ``perfbench/`` (no bytecode cache)."""

    import types

    root = Path(__file__).resolve().parents[1] / "perfbench"
    path = root / "spans.py"
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    layers = json.loads((root / "rationale.json").read_text())["layers"]
    return module, layers


def test_perfbench_wrap_sites_resolve_and_enumeration_is_reached():
    """The end-to-end benchmark wraps engine functions by the name their
    caller looks them up by, and tallies ``len()`` of what the enumeration
    sites return; a traced run is incorrect when a site cannot be resolved
    or is never reached.  Every site must resolve, and one A5 run (which
    wraps a failed candidate in an effect hole and expands that hole) must
    reach all three ``enumerate`` sites and count their candidates."""

    spans_module, layers = _perfbench_spans()
    spans = spans_module.LayerSpans(
        {name: layer["wraps"] for name, layer in layers.items()}
    )
    assert spans.missing == []
    spans.install()
    try:
        with SynthesisSession(SynthConfig(timeout_s=60)) as session:
            result = session.run("A5")
    finally:
        spans.uninstall()
    assert result.success
    summary = spans.summary()
    for site in layers["enumerate"]["wraps"]:
        assert summary["site_calls"].get(site, 0) > 0, site
    assert summary["counts"]["enumerate.candidates"] > 0
