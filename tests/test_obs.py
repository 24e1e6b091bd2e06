"""Tests for the observability subsystem (repro.obs): wrap-site tracing,
the counter namespace and ``result.metrics``, the trace analysis tooling,
and the traced ``session.run`` end-to-end contract (one span per run,
search and merge; layer self times that add up; every site unwrapped
again; Chrome export)."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import trace
from repro.obs import tool
from repro.obs.metrics import METRICS_SCHEMA_VERSION, Baseline, Counters
from repro.activerecord.database import QUERY_COUNTERS
from repro.synth import SynthConfig, SynthesisSession
from repro.synth.search import SEARCH_COUNTERS
from repro.synth.state import STATE_COUNTERS, InfrastructureError, StateManager
from repro.synth.synthesizer import SynthesisResult


@pytest.fixture(autouse=True)
def _restore_tracer():
    """Never leak a live tracer (or its wrappers) into other tests."""

    yield
    trace.disable()


def _all_sites():
    return [site for sites in trace.SITES.values() for site in sites]


def _site_functions():
    """site -> the function its owner holds under its name right now."""

    functions = {}
    for site in _all_sites():
        owner, attr = trace.resolve(site)
        functions[site] = vars(owner)[attr]
    return functions


# ---------------------------------------------------------------------------
# Tracer lifecycle and span model
# ---------------------------------------------------------------------------


def test_tracer_is_disabled_by_default():
    assert trace.TRACER is None
    # Nothing is wrapped while tracing is off.
    assert not any(hasattr(fn, "__wrapped__") for fn in _site_functions().values())


def test_importing_trace_resolves_no_site():
    """Sites are resolved at install: importing the tracer imports no
    engine module."""

    code = (
        "import sys, repro.obs.trace\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro')))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={"PYTHONPATH": src},
    )
    loaded = set(ast.literal_eval(done.stdout))
    assert loaded <= {"repro", "repro.obs", "repro.obs.metrics", "repro.obs.tool",
                      "repro.obs.trace"}


def test_every_site_resolves_on_its_owner():
    """Each site names a function its owner defines itself
    (``vars(owner)[attr]``), under the name its caller looks it up by."""

    assert set(trace.RECORDED) < set(trace.SITES)
    for site in _all_sites():
        owner, attr = trace.resolve(site)
        assert callable(vars(owner)[attr]), site


def test_sites_cover_every_perfbench_wrap_site():
    """The tracer wraps every site the end-to-end benchmark wraps, in the
    same layer, so a trace and a traced benchmark pass attribute time
    alike."""

    _, layers = _perfbench_spans()
    for layer, entry in layers.items():
        assert set(entry["wraps"]) <= set(trace.SITES.get(layer, ())), layer


def test_enable_writes_schema_versioned_header_first(tmp_path):
    path = str(tmp_path / "run.jsonl")
    tracer = trace.enable(path)
    assert trace.TRACER is tracer
    outer = tracer.begin("session", {"site": "outer"})
    inner = tracer.begin("search", {"site": "inner"})
    tracer.finish(inner, 5)
    tracer.finish(outer, 10)
    trace.disable()
    assert trace.TRACER is None

    lines = [json.loads(line) for line in open(path)]
    assert lines[0]["kind"] == "header"
    assert lines[0]["schema"] == trace.TRACE_SCHEMA_VERSION == 2
    # Spans are written complete at exit, so inner precedes outer.
    assert [e["name"] for e in lines[1:]] == ["search", "session"]
    first, second = lines[1:]
    assert second["parent"] is None and first["parent"] == second["id"]
    assert first["attrs"] == {"site": "inner", "layers": {}}
    assert (first["dur"], second["dur"]) == (5, 10)
    assert all(e["kind"] == "span" and e["worker"] == "0" for e in lines[1:])


def test_finish_pops_through_escaped_inner_spans():
    tracer = trace.Tracer(None)
    outer = tracer.begin("outer", {})
    tracer.begin("inner", {})  # never finished
    tracer.finish(outer, 0)
    assert tracer.current is None
    assert [e["name"] for e in tracer.export()] == ["outer"]


def test_tallies_target_innermost_open_span():
    """A tallied call counts into the innermost open recorded span, is
    timed only when it is the outermost call into its layer, and is not
    traced at all outside every recorded span; the self times of all spans
    add up to the root span's duration."""

    tracer = trace.Tracer(None)
    level = [0]

    def leaf(depth=0):
        return leaf_wrapped(depth - 1) if depth > 0 else None

    leaf_wrapped = trace._tallied(tracer, "goal", leaf, level)
    leaf_wrapped()  # outside every recorded span: not traced
    assert tracer.export() == []

    inner = trace._recorded(tracer, "search", "inner", lambda: leaf_wrapped(2), [0])

    def outer_body():
        leaf_wrapped()
        return inner()

    outer = trace._recorded(tracer, "merge", "outer", outer_body, [0])
    outer()
    spans = {s["attrs"]["site"]: s for s in tracer.export()}
    inner_layers = spans["inner"]["attrs"]["layers"]
    outer_layers = spans["outer"]["attrs"]["layers"]
    assert spans["inner"]["parent"] == spans["outer"]["id"]
    # leaf(2) calls itself twice more: three calls, one of them timed.
    assert set(inner_layers) == {"search", "goal"}
    assert inner_layers["goal"]["calls"] == 3
    assert set(outer_layers) == {"merge", "goal"}
    assert outer_layers["goal"]["calls"] == 1
    total = sum(t["self_ns"] for s in spans.values() for t in s["attrs"]["layers"].values())
    assert total == spans["outer"]["dur"]
    assert tracer.current is None and level == [0]


def test_absorb_reparents_worker_roots_onto_current_span():
    worker = trace.Tracer(None, worker="w1")
    root = worker.begin("session", {})
    worker.finish(worker.begin("search", {}), 1)
    worker.finish(root, 2)
    shipped = worker.export()

    parent = trace.Tracer(None)
    outer = parent.begin("session", {})
    parent.absorb(shipped)
    merged = {e["name"]: e for e in parent.export()}
    # The worker's root span hangs off the absorbing parent span; the
    # worker-internal link and the worker-tagged ids are preserved.
    assert merged["session"]["parent"] == outer.id
    assert merged["search"]["parent"] == merged["session"]["id"]
    assert merged["session"]["id"].startswith("w1:")
    assert merged["session"]["worker"] == "w1"


def test_reset_after_fork_drops_tracer_without_closing(tmp_path):
    path = str(tmp_path / "run.jsonl")
    originals = _site_functions()
    tracer = trace.enable(path)
    assert all(_site_functions()[site] is not fn for site, fn in originals.items())
    trace.reset_after_fork()
    assert trace.TRACER is None
    # Every site holds its original function again ...
    assert all(_site_functions()[site] is fn for site, fn in originals.items())
    # ... and the parent-side file object is untouched; closing it works.
    tracer.close()
    assert json.loads(open(path).readline())["kind"] == "header"


# ---------------------------------------------------------------------------
# Counters and the metrics registry
# ---------------------------------------------------------------------------


def test_counters_since_merge_and_per_layer_nesting():
    """The one counter namespace: flat ``layer.name`` keys, a missing key
    reads 0, ``since``/``merge`` are per-key arithmetic over every key, and
    ``as_dict`` nests per layer (the shape of ``metrics["stats"]``)."""

    counters = Counters.fromkeys(("search.expansions", "query.index_hits"), 0)
    assert counters["search.never_counted"] == 0
    assert "search.never_counted" not in counters  # reading adds no key

    before = counters.copy()
    counters["search.expansions"] += 5
    counters["state.restores"] += 2  # a key first counted after the copy
    assert before["search.expansions"] == 0  # the copy is independent
    delta = counters.since(before)
    assert isinstance(delta, Counters)
    assert delta == {"search.expansions": 5, "query.index_hits": 0, "state.restores": 2}

    total = Counters({"search.expansions": 1, "query.scans": 4})
    total.merge(delta)
    assert total == {
        "search.expansions": 6,
        "query.scans": 4,
        "query.index_hits": 0,
        "state.restores": 2,
    }
    assert total.as_dict() == {
        "query": {"index_hits": 0, "scans": 4},
        "search": {"expansions": 6},
        "state": {"restores": 2},
    }

    # A baseline over several owners sums each owner's delta.
    query, state = Counters({"query.scans": 3}), Counters({"state.restores": 1})
    baseline = Baseline(query, None, state)
    query["query.scans"] += 2
    state["state.restores"] += 4
    assert baseline.delta() == {"query.scans": 2, "state.restores": 4}


#: Every key each counter owner declares, by layer (the search layer also
#: holds the problem's ``search.reset_replays``).
OWNER_COUNTERS = {
    "query": QUERY_COUNTERS,
    "search": SEARCH_COUNTERS + ("search.reset_replays",),
    "state": STATE_COUNTERS,
}


@pytest.mark.parametrize("prefix", sorted(OWNER_COUNTERS))
def test_registry_exports_and_merges_every_stats_field(prefix):
    """Every counter an owner declares must flow through ``result.metrics``.

    The keys must be distinct and live in the owner's layer, ``metrics``
    must export each one under ``stats[layer]``, and counts folded with
    ``Counters.merge`` must export their sums.
    """

    keys = OWNER_COUNTERS[prefix]
    assert len(set(keys)) == len(keys)
    assert all(key.startswith(prefix + ".") for key in keys)
    names = {key.partition(".")[2] for key in keys}
    a = Counters({key: 2 * index + 1 for index, key in enumerate(keys)})
    b = Counters({key: 100 + index for index, key in enumerate(keys)})

    metrics = SynthesisResult(None, success=True, counters=a).metrics
    assert set(metrics["stats"]) == {prefix}
    assert set(metrics["stats"][prefix]) == names

    folded = a.copy()
    folded.merge(b)
    merged = SynthesisResult(None, success=True, counters=folded).metrics["stats"][prefix]
    assert set(merged) == names
    for index, key in enumerate(keys):
        name = key.partition(".")[2]
        assert merged[name] == (2 * index + 1) + (100 + index), key


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

    # A trace of the in-engine spans (schema 1) is refused the same way.
    version_one = tmp_path / "v1.jsonl"
    version_one.write_text('{"kind": "header", "schema": 1}\n')
    with pytest.raises(tool.TraceError, match="schema 1 != 2"):
        tool.load_trace(str(version_one))

    instant = tmp_path / "instant.jsonl"
    instant.write_text('{"kind": "header", "schema": 2}\n{"kind": "event"}\n')
    with pytest.raises(tool.TraceError, match="unknown kind"):
        tool.load_trace(str(instant))

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(tool.TraceError, match="empty trace"):
        tool.load_trace(str(empty))


def _traced_run(tmp_path, benchmark_id="S4"):
    path = str(tmp_path / "run.jsonl")
    with SynthesisSession(SynthConfig(timeout_s=60), trace_path=path) as session:
        result = session.run(benchmark_id)
    assert trace.TRACER is None  # the session owned + closed it
    assert result.success
    return path, result


def test_traced_session_run_summary_covers_phases(tmp_path):
    """One span per run, search and merge, and the layer self times of
    the whole trace add up to its root spans' durations (within 1%)."""

    path, result = _traced_run(tmp_path)
    _, spans = tool.load_trace(path)
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    assert set(by_name) == {"session", "search", "merge"}
    (run,) = by_name["session"]
    assert run["parent"] is None
    assert run["attrs"]["site"] == "repro.synth.session:SynthesisSession.run"
    assert run["attrs"]["problem"] == result.problem.name
    assert run["attrs"]["success"] is True
    assert run["attrs"]["counters"] == {k: v for k, v in result.counters.items() if v}
    (merge,) = by_name["merge"]
    assert merge["parent"] == run["id"]
    specs = [s for s in by_name["search"] if "spec" in s["attrs"]]
    guards = [s for s in by_name["search"] if "positive" in s["attrs"]]
    assert specs and all(s["parent"] == run["id"] for s in specs)
    # S4's merge phase searches guards.
    assert guards and all(s["parent"] == merge["id"] for s in guards)
    assert len(specs) + len(guards) == len(by_name["search"])

    summary = tool.summarize(path)
    total_self = sum(entry["self_s"] for entry in summary["layers"].values())
    assert total_self == pytest.approx(summary["root_s"], rel=0.01)
    assert summary["root_s"] == pytest.approx(run["dur"] / 1e9)
    assert {"session", "search", "merge", "goal", "enumerate"} <= set(summary["layers"])
    assert summary["slowest_searches"][0]["dur_s"] == max(
        s["dur"] for s in by_name["search"]
    ) / 1e9
    efficacy = {line["name"]: line for line in summary["efficacy"]}
    assert list(efficacy) == ["indexes", "snapshots", "static pruning"]
    counters = result.counters
    assert efficacy["snapshots"]["hits"] == counters["state.restores"]
    assert efficacy["snapshots"]["misses"] == counters["state.rebuilds"]
    rendered = tool.format_summary(summary)
    assert "layer self time:" in rendered and "slowest searches:" in rendered
    assert "efficacy static pruning = " in rendered


def test_efficacy_lines_flag_a_layer_that_never_hits():
    spans = [{"name": "session", "attrs": {"counters": {
        "query.scans": 12, "state.restores": 3, "state.rebuilds": 1,
    }}}]
    lines = {line["name"]: tool.format_efficacy(line) for line in tool.efficacy(spans)}
    assert lines["indexes"] == (
        "efficacy indexes = 0 / (0 + 12) = 0.0000  ZERO-HIT: layer does work but never hits"
    )
    assert lines["snapshots"] == "efficacy snapshots = 3 / (3 + 1) = 0.7500"
    assert lines["static pruning"].endswith("(unused: no lookups)")


def test_session_close_restores_every_site_even_when_run_raises(tmp_path, monkeypatch):
    originals = _site_functions()
    path = str(tmp_path / "run.jsonl")
    with SynthesisSession(SynthConfig(timeout_s=60), trace_path=path) as session:
        assert all(_site_functions()[site] is not fn for site, fn in originals.items())
        assert session.run("S4").success
    assert all(_site_functions()[site] is fn for site, fn in originals.items())

    def broken_finalize(self, spec, ctx, recorder):
        raise RuntimeError("recording cannot be finalized")

    monkeypatch.setattr(StateManager, "_finalize", broken_finalize)
    with pytest.raises(InfrastructureError):
        with SynthesisSession(SynthConfig(timeout_s=60), trace_path=path) as session:
            session.run("S4")
    assert trace.TRACER is None
    assert all(_site_functions()[site] is fn for site, fn in originals.items())
    # The raising run's spans were still closed and written.
    _, spans = tool.load_trace(path)
    assert [s["name"] for s in spans if s["parent"] is None] == ["session"]
    assert "success" not in spans[-1]["attrs"]


def test_traced_a5_reaches_every_layer_and_enumeration_site(tmp_path, monkeypatch):
    """A5 wraps a failed candidate in an effect hole and expands it, so a
    traced run reaches every layer and all three ``enumerate`` sites.  It
    misses three sites, and reaches ``goal`` and ``activerecord`` through
    their other sites."""

    calls = dict.fromkeys(_all_sites(), 0)
    for site in calls:
        owner, attr = trace.resolve(site)
        original = vars(owner)[attr]

        def counted(*args, __site=site, __fn=original, **kwargs):
            calls[__site] += 1
            return __fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    path, _ = _traced_run(tmp_path, "A5")
    summary = tool.summarize(path)
    assert set(summary["layers"]) == set(trace.SITES)
    assert all(entry["calls"] > 0 for entry in summary["layers"].values())
    for site in trace.SITES["enumerate"]:
        assert calls[site] > 0, site
    unreached = sorted(site for site, n in calls.items() if not n)
    assert unreached == [
        "repro.activerecord.database:Database.bulk_insert",
        "repro.activerecord.database:Database.exists",
        "repro.synth.goal:evaluate_guard",
    ]


def test_traced_run_chrome_export_is_valid(tmp_path):
    path, _ = _traced_run(tmp_path)
    chrome = tool.to_chrome(path)
    payload = json.loads(json.dumps(chrome))
    assert payload["traceEvents"]
    phases = {e["ph"] for e in payload["traceEvents"]}
    assert phases == {"X", "M"}  # complete spans and thread names
    for event in payload["traceEvents"]:
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
    total_self = sum(entry["self_s"] for entry in summary["layers"].values())
    assert total_self == pytest.approx(summary["root_s"], rel=0.01)

    assert cli.main(["summarize", path]) == 0
    assert "efficacy snapshots = " in capsys.readouterr().out

    out = str(tmp_path / "chrome.json")
    assert cli.main(["export-chrome", path, "--out", out]) == 0
    assert json.load(open(out))["traceEvents"]

    assert cli.main(["summarize", str(tmp_path / "missing.jsonl")]) == 2


def test_repro_trace_env_enables_tracing(tmp_path, monkeypatch):
    path = str(tmp_path / "env.jsonl")
    monkeypatch.setenv("REPRO_TRACE", path)
    with SynthesisSession(SynthConfig(timeout_s=60)) as session:  # no trace_path
        assert trace.TRACER is not None and trace.TRACER.path == path
        assert session.run("S1").success
    assert trace.TRACER is None
    header, spans = tool.load_trace(path)
    assert header["schema"] == trace.TRACE_SCHEMA_VERSION
    assert any(s["name"] == "session" for s in spans)


# ---------------------------------------------------------------------------
# Metrics threaded through the engine
# ---------------------------------------------------------------------------


def test_run_result_carries_metrics_snapshot():
    with SynthesisSession(SynthConfig(timeout_s=60)) as session:
        result = session.run("S4")
    assert result.success
    metrics = result.metrics
    assert metrics["schema_version"] == METRICS_SCHEMA_VERSION == 3
    assert set(metrics) == {"schema_version", "stats"}
    assert set(metrics["stats"]) >= {"search", "state"}
    assert "cache" not in metrics["stats"]  # no memo, no cache.* counters
    assert metrics["stats"] == result.counters.as_dict()
    assert metrics["stats"]["search"]["evaluated"] > 0
    json.dumps(metrics)  # JSON-able end to end


def test_benchmark_result_folds_metrics_across_runs():
    """``BenchmarkResult.counters`` sums its runs: two identical cold runs
    count exactly twice what one does."""

    from repro.benchmarks import get_benchmark, run_benchmark

    config = SynthConfig(timeout_s=60)
    once = run_benchmark(get_benchmark("S4"), config, runs=1, warm_state=False)
    twice = run_benchmark(get_benchmark("S4"), config, runs=2, warm_state=False)
    assert once.success and twice.success and len(twice.times_s) == 2
    assert twice.counters == {key: 2 * value for key, value in once.counters.items()}


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
            if (layer, name) in {
                # The deleted AST interner's pair, always 0.
                ("cache", "intern_hits"), ("cache", "intern_misses"),
                # The deleted spec/guard memo's counters, always 0.
                ("cache", "spec_hits"), ("cache", "spec_misses"),
                ("cache", "guard_hits"), ("cache", "guard_misses"),
            }:
                continue
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
