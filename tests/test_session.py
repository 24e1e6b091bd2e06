"""Tests for the SynthesisSession engine API (repro.synth.session):
shared-vs-cold run equivalence, warm precision sweeps, sweep normalization,
session-owned tracing and the session lifecycle."""

from __future__ import annotations

import dataclasses

import pytest

from repro.benchmarks import get_benchmark, run_benchmark
from repro.lang.effects import PRECISIONS
from repro.synth import SynthConfig, SynthesisSession

FAST = ["S1", "S4", "S5"]


# ---------------------------------------------------------------------------
# run(): warm resources, equivalence with cold runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("benchmark_id", FAST)
def test_shared_vs_cold_run_equivalence(benchmark_id):
    """A warm session must synthesize exactly what isolated cold runs do."""

    cold = run_benchmark(
        get_benchmark(benchmark_id), SynthConfig(timeout_s=60), warm_state=False
    )
    with SynthesisSession(SynthConfig(timeout_s=60)) as session:
        first = session.run(benchmark_id)
        second = session.run(benchmark_id)
    assert cold.success and first.success and second.success
    assert first.program == second.program
    assert first.pretty() == cold.program_text
    # The second warm run replays the shared snapshot baseline and
    # recordings: no reset-closure replays at all.
    assert second.counters["search.reset_replays"] == 0


def test_run_accepts_problem_spec_and_id():
    benchmark = get_benchmark("S1")
    with SynthesisSession(SynthConfig(timeout_s=60)) as session:
        by_id = session.run("S1")
        by_spec = session.run(benchmark)
        by_problem = session.run(session.problem_for("S1"))
    assert by_id.program == by_spec.program == by_problem.program


def test_run_applies_benchmark_config_overrides():
    # S6 carries a max_size override; running it by id must apply it.
    with SynthesisSession(SynthConfig(timeout_s=60)) as session:
        problem = session.problem_for("S6")
        assert problem is session.problem_for("S6")  # built once


def test_precision_override_stays_warm():
    """The satellite fix: precision sweeps reuse recordings, not rebuilds."""

    with SynthesisSession(SynthConfig(timeout_s=60)) as session:
        precise = session.run("S1")
        coarse = session.run("S1", effect_precision="class")
    assert precise.success and coarse.success
    # The coarse run replayed the precise run's recordings: zero resets.
    assert coarse.counters["search.reset_replays"] == 0
    assert coarse.counters["state.restores"] > 0


def test_traced_warm_repeat_does_the_untraced_repeats_work(tmp_path):
    """Tracing does not steer the search, so a traced session's warm repeat
    synthesizes the untraced repeat's program with exactly its counters.
    A repeat keeps only the built problem and its snapshot recordings from
    the first run, so it searches exactly as much as that run did."""

    runs = {}
    for label, trace_path in (
        ("untraced", None),
        ("traced", str(tmp_path / "repeat.jsonl")),
    ):
        with SynthesisSession(SynthConfig(timeout_s=60), trace_path=trace_path) as session:
            runs[label] = (session.run("S4"), session.run("S4"))
    (first, untraced), (_, traced) = runs["untraced"], runs["traced"]
    for key, value in (("search.expansions", 22), ("search.evaluated", 14)):
        assert untraced.counters[key] == first.counters[key] == value
    assert untraced.counters["state.rebuilds"] == 0
    assert traced.program == untraced.program
    assert dict(traced.counters) == dict(untraced.counters)


def test_trace_path_is_not_a_config_override(tmp_path):
    """Tracing belongs to the session: naming a trace file per run or per
    sweep variant fails at once instead of being silently mishandled."""

    path = tmp_path / "override.jsonl"
    with SynthesisSession(SynthConfig(timeout_s=60)) as session:
        with pytest.raises(TypeError):
            session.run("S4", trace_path=str(path))
        for parallel in (1, 2):
            with pytest.raises(TypeError):
                session.sweep(
                    ["S4"], variants=[("traced", {"trace_path": str(path)})],
                    warm=False, parallel=parallel,
                )
    assert not path.exists()


def test_synth_config_fields():
    """The knobs ``SynthConfig`` has; a new one must change this on purpose."""

    assert [f.name for f in dataclasses.fields(SynthConfig)] == [
        "use_types",
        "use_effects",
        "effect_precision",
        "max_size",
        "guard_max_size",
        "max_hash_keys",
        "max_candidates",
        "timeout_s",
        "snapshot_state",
        "static_pruning",
        "verify_recordings",
    ]


def test_session_close_rejects_runs():
    session = SynthesisSession(SynthConfig(timeout_s=60))
    assert session.run("S1").success
    session.close()
    assert session.closed
    with pytest.raises(RuntimeError):
        session.run("S1")
    with pytest.raises(RuntimeError):
        session.sweep(["S1"])


def test_session_has_no_store_keyword(tmp_path):
    path = tmp_path / "outcomes.sqlite"
    with pytest.raises(TypeError):
        SynthesisSession(SynthConfig(), store=str(path))
    assert not path.exists()


# ---------------------------------------------------------------------------
# sweep(): variants, warm vs cold isolation
# ---------------------------------------------------------------------------


def test_sweep_warm_shares_state_across_variants():
    with SynthesisSession(SynthConfig(timeout_s=60)) as session:
        entries = session.sweep(["S1"], [("a", {}), ("b", {})])
    assert [e.variant for e in entries] == ["a", "b"]
    assert all(e.success for e in entries)
    assert entries[0].result.program == entries[1].result.program
    # Variant b ran entirely from variant a's warm state.
    assert entries[1].result.counters["search.reset_replays"] == 0


def test_sweep_cold_isolates_every_cell():
    with SynthesisSession(SynthConfig(timeout_s=60)) as session:
        entries = session.sweep(["S1"], [("a", {}), ("b", {})], warm=False)
    assert all(e.success for e in entries)
    assert entries[0].result.program == entries[1].result.program
    # Each cell rebuilt its own baseline (one reset-closure replay each).
    assert [e.result.counters["search.reset_replays"] for e in entries] == [1, 1]


def test_sweep_variant_normalization():
    session = SynthesisSession(SynthConfig(timeout_s=60))
    try:
        named = session._normalize_variants(
            [("explicit", {}), {"effect_precision": "class"}, SynthConfig()]
        )
        assert [name for name, _ in named] == [
            "explicit",
            "effect_precision=class",
            "variant2",
        ]
        assert session._normalize_variants(None) == [("base", {})]
        with pytest.raises(TypeError):
            session._normalize_variants([42])
    finally:
        session.close()


# ---------------------------------------------------------------------------
# Acceptance: two-pass Figure 8 precision sweep through one session
# ---------------------------------------------------------------------------


def test_two_pass_figure8_sweep_matches_cold_and_replays_fewer_resets():
    """A Figure 8 precision sweep run twice through one session must
    synthesize programs identical to fully cold runs, and replay fewer
    resets on each warm pass than the cold cells do."""

    variants = [(p, {"effect_precision": p}) for p in PRECISIONS]
    config = SynthConfig.full(timeout_s=60)

    with SynthesisSession(config) as session:
        pass1 = session.sweep(["S1"], variants)
        pass2 = session.sweep(["S1"], variants)
        cold = session.sweep(["S1"], variants, warm=False)

    for entries in (pass1, pass2, cold):
        assert all(e.success for e in entries)
    for warm1, warm2, isolated in zip(pass1, pass2, cold):
        assert warm1.variant == warm2.variant == isolated.variant
        # Identical programs: warm sharing never changes results.
        assert warm1.result.program == isolated.result.program
        assert warm2.result.program == isolated.result.program

    def resets(entries):
        return sum(e.result.counters["search.reset_replays"] for e in entries)

    # Pass 1 pays the one baseline capture; pass 2 replays recordings
    # without a single reset; cold pays one per cell.
    assert resets(pass2) < resets(pass1) < resets(cold)


# ---------------------------------------------------------------------------
# run_benchmark: every repetition runs through one session
# ---------------------------------------------------------------------------


def _session_spans(path):
    from repro.obs.tool import load_trace

    _, spans = load_trace(str(path))
    return sum(span["name"] == "session" for span in spans)


def test_repro_trace_keeps_every_cold_repetition(tmp_path, monkeypatch):
    """With ``REPRO_TRACE`` set, the runner's one session owns the tracer and
    each cold repetition is a cell of it, so the file keeps a ``session``
    span per repetition instead of only the last one's."""

    path = tmp_path / "cold.jsonl"
    monkeypatch.setenv("REPRO_TRACE", str(path))
    result = run_benchmark(
        get_benchmark("S4"), SynthConfig(timeout_s=60), runs=3, warm_state=False
    )
    assert result.success and len(result.times_s) == 3
    assert _session_spans(path) == 3


def test_traced_session_keeps_parallel_cold_repetitions(tmp_path):
    """Cold repetitions spread over workers inside a traced session ship
    their spans back, and the runner's session absorbs them."""

    path = tmp_path / "parallel.jsonl"
    with SynthesisSession(SynthConfig(timeout_s=60), trace_path=str(path)):
        result = run_benchmark(
            get_benchmark("S4"), SynthConfig(timeout_s=60),
            runs=2, warm_state=False, parallel=2,
        )
    assert result.success and len(result.times_s) == 2
    assert _session_spans(path) == 2


@pytest.mark.parametrize("jobs", [1, 2])
def test_cold_run_benchmark_stops_at_the_first_failed_repetition(monkeypatch, jobs):
    """A failed cold repetition ends the loop, serially or over workers: the
    result folds exactly one failed run's counters, and serially no later
    repetition builds its problem."""

    benchmark = get_benchmark("S4")
    config = SynthConfig(timeout_s=60, max_candidates=1)
    one = run_benchmark(benchmark, config, runs=1, warm_state=False)
    assert not one.success and not one.timed_out

    build = benchmark.build
    builds = []

    def counted_build():
        builds.append(benchmark.id)
        return build()

    monkeypatch.setattr(benchmark, "build", counted_build)
    result = run_benchmark(benchmark, config, runs=3, warm_state=False, parallel=jobs)
    assert not result.success and result.times_s == []
    assert dict(result.counters) == dict(one.counters)
    if jobs == 1:
        assert builds == ["S4"]
