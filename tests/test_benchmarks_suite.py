"""Tests for the benchmark registry, runner, apps and evaluation harnesses.

Full end-to-end synthesis of every benchmark lives in the pytest-benchmark
harnesses under ``benchmarks/``; here we check the registry metadata, that a
representative subset of benchmarks synthesizes correctly (marked ``slow``
where appropriate), and that the Table 1 / Figure 7 / Figure 8 harnesses
produce well-formed output on small subsets.
"""

from __future__ import annotations

import pytest

from repro.apps import (
    build_blog_app,
    build_diaspora_app,
    build_discourse_app,
    build_gitlab_app,
)
from repro.benchmarks import all_benchmarks, get_benchmark, run_benchmark
from repro.evaluation.figure7 import run_figure7
from repro.evaluation.figure8 import run_figure8
from repro.evaluation.report import cumulative_counts, format_markdown_table, format_table
from repro.evaluation.table1 import measure_assertions, run_table1
from repro.lang.effects import PRECISIONS
from repro.synth import SynthConfig


# ---------------------------------------------------------------------------
# App substrates
# ---------------------------------------------------------------------------


def test_app_contexts_are_isolated():
    first = build_blog_app()
    second = build_blog_app()
    first.models["User"].create(name="A", username="a")
    assert second.models["User"].count() == 0


@pytest.mark.parametrize(
    "builder, expected_models",
    [
        (build_blog_app, {"User", "Post"}),
        (build_discourse_app, {"User", "EmailToken"}),
        (build_gitlab_app, {"User", "Issue", "Discussion", "Note"}),
        (build_diaspora_app, {"Pod", "User", "InvitationCode"}),
    ],
)
def test_apps_register_models_and_methods(builder, expected_models):
    app = builder()
    assert expected_models <= set(app.models)
    assert app.library_method_count() > 20
    for name in expected_models:
        assert app.class_table.has_class(name)
    app.models[next(iter(expected_models))]  # __getitem__ via models
    with pytest.raises(KeyError):
        app["NotAModel"]


def test_app_reset_clears_database():
    app = build_discourse_app()
    app.models["User"].create(username="x", name="X", email="x@example.com",
                              active=True, staged=False, approved=True,
                              admin=False, trust_level=1)
    app.stores["SiteSetting"].set("global_notice", "hi")
    app.reset()
    assert app.models["User"].count() == 0
    assert app.stores["SiteSetting"].get("global_notice") is None


# ---------------------------------------------------------------------------
# Registry metadata
# ---------------------------------------------------------------------------


def test_registry_has_all_19_benchmarks_in_table_order():
    benchmarks = all_benchmarks()
    assert [b.id for b in benchmarks] == [
        "S1", "S2", "S3", "S4", "S5", "S6", "S7",
        "A1", "A2", "A3", "A4", "A5", "A6", "A7", "A8",
        "A9", "A10", "A11", "A12",
    ]


def test_registry_groups():
    assert len(all_benchmarks("Synthetic")) == 7
    assert len(all_benchmarks("Discourse")) == 4
    assert len(all_benchmarks("Gitlab")) == 4
    assert len(all_benchmarks("Diaspora")) == 4


def test_get_benchmark_unknown_id():
    with pytest.raises(KeyError):
        get_benchmark("Z9")


def test_paper_reference_metadata_is_plausible():
    for benchmark in all_benchmarks():
        paper = benchmark.paper
        assert paper.specs >= 1
        assert paper.asserts_min <= paper.asserts_max
        assert paper.time_s > 0
        assert paper.meth_size > 0
        assert paper.syn_paths >= 1
        assert paper.lib_methods > 100


def test_benchmark_build_returns_fresh_problems():
    benchmark = get_benchmark("S4")
    first = benchmark.build()
    second = benchmark.build()
    assert first is not second
    assert first.class_table is not second.class_table
    assert len(first.specs) == benchmark.paper.specs


def test_make_config_applies_overrides():
    benchmark = get_benchmark("S6")
    config = benchmark.make_config(SynthConfig(timeout_s=5))
    assert config.timeout_s == 5
    assert config.max_size == benchmark.config_overrides["max_size"]


def test_measure_assertions_matches_spec_definitions():
    low, high = measure_assertions(get_benchmark("S6"))
    assert (low, high) == (4, 4)
    low, high = measure_assertions(get_benchmark("A6"))
    assert (low, high) == (10, 10)


# ---------------------------------------------------------------------------
# End-to-end synthesis of representative benchmarks
# ---------------------------------------------------------------------------

FAST_BENCHMARKS = ["S1", "S2", "S3", "S4", "S5", "S7", "A1", "A5", "A7", "A8", "A11"]
SLOW_BENCHMARKS = ["S6", "A2", "A3", "A4", "A6", "A9", "A10", "A12"]


@pytest.mark.parametrize("benchmark_id", FAST_BENCHMARKS)
def test_fast_benchmarks_synthesize(benchmark_id):
    benchmark = get_benchmark(benchmark_id)
    result = run_benchmark(benchmark, SynthConfig(timeout_s=60), runs=1)
    assert result.success, f"{benchmark_id} failed"
    assert result.meth_size and result.meth_size > 0
    assert result.syn_paths and result.syn_paths >= 1


@pytest.mark.slow
@pytest.mark.parametrize("benchmark_id", SLOW_BENCHMARKS)
def test_slow_benchmarks_synthesize(benchmark_id):
    benchmark = get_benchmark(benchmark_id)
    result = run_benchmark(benchmark, SynthConfig(timeout_s=120), runs=1)
    assert result.success, f"{benchmark_id} failed"


def test_runner_collects_table1_metrics():
    result = run_benchmark(get_benchmark("S4"), SynthConfig(timeout_s=30), runs=2)
    assert result.success
    assert len(result.times_s) == 2
    assert result.median_s is not None
    assert result.siqr_s is not None
    assert result.specs == 2
    assert result.lib_methods > 20
    assert "exists?" in result.program_text
    assert "±" in result.display_time()


def test_type_guidance_helps_on_s4():
    """Unguided enumeration should be slower (or fail) relative to guided."""

    guided = run_benchmark(get_benchmark("S4"), SynthConfig.full(timeout_s=30), runs=1)
    unguided = run_benchmark(get_benchmark("S4"), SynthConfig.unguided(timeout_s=30), runs=1)
    assert guided.success
    if unguided.success:
        assert unguided.median_s >= guided.median_s


# ---------------------------------------------------------------------------
# Evaluation harnesses (smoke, tiny subsets)
# ---------------------------------------------------------------------------


def test_table1_harness_rows():
    rows = run_table1([get_benchmark("S1"), get_benchmark("S4")], runs=1, timeout_s=30)
    assert len(rows) == 2
    as_dicts = [row.as_dict() for row in rows]
    assert as_dicts[0]["id"] == "S1"
    text = format_table(as_dicts, ["id", "name", "time", "size", "paths"])
    assert "S1" in text and "S4" in text


def test_figure7_harness_series():
    series = run_figure7([get_benchmark("S1")], timeout_s=20, modes=("full", "unguided"))
    assert {s.mode for s in series} == {"full", "unguided"}
    full = next(s for s in series if s.mode == "full")
    assert full.solved == 1
    curve = full.curve([0.0, 20.0])
    assert curve[-1] == 1


def test_figure8_harness_rows():
    rows = run_figure8([get_benchmark("S4")], timeout_s=20)
    assert len(rows) == 1
    assert set(rows[0].times_s) == set(PRECISIONS)
    assert rows[0].times_s["precise"] is not None


def test_report_helpers():
    assert cumulative_counts([0.5, None, 2.0], [1.0, 3.0]) == [1, 2]
    md = format_markdown_table([{"a": 1, "b": 2}], ["a", "b"])
    assert md.splitlines()[0] == "| a | b |"
