"""Tests for the SynthesisSession engine API and the persistent spec-outcome
store (repro.synth.session / repro.synth.store): shared-vs-cold run
equivalence, warm precision sweeps, sweep normalization, store round-trips
across simulated process boundaries, and corrupted/stale store handling."""

from __future__ import annotations

import json

import pytest

from repro.benchmarks import get_benchmark, run_benchmark
from repro.lang.effects import PRECISIONS
from repro.synth import SpecOutcomeStore, SynthConfig, SynthesisSession
from repro.synth.store import (
    STORE_VERSION,
    outcome_from_json,
    outcome_to_json,
    program_hash,
    problem_fingerprint,
)

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
    # The second warm run answers everything from the shared memo and
    # snapshot baseline: no reset-closure replays at all.
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


def test_session_close_unregisters_cache_and_rejects_runs():
    session = SynthesisSession(SynthConfig(timeout_s=60))
    result = session.run("S1")
    assert result.success
    problem = session.problem_for("S1")
    assert session.cache in problem._caches
    session.close()
    assert session.cache not in problem._caches
    with pytest.raises(RuntimeError):
        session.run("S1")


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
# Persistent store: round-trips, corruption, staleness
# ---------------------------------------------------------------------------


# A7 is an app-backed benchmark whose failing asserts mix class-level and
# column effects (the None-region serialization regression); S1 is synthetic.
@pytest.mark.parametrize("benchmark_id", ["S1", "A7"])
def test_store_round_trip_across_sessions(tmp_path, benchmark_id):
    """Write in one session, reopen in another process-simulated session."""

    path = tmp_path / "outcomes.json"
    config = SynthConfig(timeout_s=60)
    with SynthesisSession(config, store=str(path)) as first_session:
        first = first_session.run(benchmark_id)
    assert first.success
    assert path.exists()

    with SynthesisSession(config, store=str(path)) as second_session:
        assert second_session.store.loaded > 0
        second = second_session.run(benchmark_id)
    assert second.success
    assert second.program == first.program
    assert second.counters["cache.store_hits"] >= 1
    # Everything executed in session one came back from disk: no resets.
    assert second.counters["search.reset_replays"] == 0


def test_clear_memory_caches_falls_back_to_store(tmp_path):
    path = tmp_path / "outcomes.json"
    with SynthesisSession(SynthConfig(timeout_s=60), store=str(path)) as session:
        first = session.run("S1")
        assert first.counters["cache.store_hits"] == 0
        session.clear_memory_caches()
        second = session.run("S1")
    assert second.program == first.program
    assert second.counters["cache.store_hits"] >= 1


def test_store_corrupted_file_is_ignored(tmp_path):
    path = tmp_path / "outcomes.json"
    path.write_text("{not json!", encoding="utf-8")
    store = SpecOutcomeStore(str(path))
    assert store.corrupt_file
    assert len(store) == 0
    with SynthesisSession(SynthConfig(timeout_s=60), store=store) as session:
        result = session.run("S1")
    assert result.success
    # The corrupt file was overwritten with a valid store on flush.
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["version"] == STORE_VERSION and data["entries"]


def test_store_wrong_schema_version_is_ignored(tmp_path):
    path = tmp_path / "outcomes.json"
    path.write_text(
        json.dumps({"version": 999, "entries": {"k": {"v": 999, "kind": "spec"}}}),
        encoding="utf-8",
    )
    store = SpecOutcomeStore(str(path))
    assert store.corrupt_file
    assert len(store) == 0


def test_store_stale_entries_are_dropped(tmp_path):
    path = tmp_path / "outcomes.json"
    path.write_text(
        json.dumps(
            {
                "version": STORE_VERSION,
                "entries": {
                    "bad-version": {"v": 999, "kind": "spec", "ok": True},
                    "bad-kind": {"v": STORE_VERSION, "kind": "mystery"},
                    "not-a-dict": 5,
                    "good": {
                        "v": STORE_VERSION,
                        "kind": "guard",
                        "truth": True,
                    },
                },
            }
        ),
        encoding="utf-8",
    )
    store = SpecOutcomeStore(str(path))
    assert store.loaded == 1
    assert store.counters["store.stale_dropped"] == 3


def test_store_malformed_entry_payload_is_a_miss(tmp_path):
    """An entry that loads but cannot be decoded is treated as stale."""

    path = tmp_path / "outcomes.json"
    with SynthesisSession(SynthConfig(timeout_s=60), store=str(path)) as session:
        session.run("S1")
    data = json.loads(path.read_text(encoding="utf-8"))
    # Corrupt every spec payload in place (keep the entry shape valid).
    for entry in data["entries"].values():
        if entry["kind"] == "spec":
            entry["ok"] = "definitely-not-a-bool"
    path.write_text(json.dumps(data), encoding="utf-8")

    with SynthesisSession(SynthConfig(timeout_s=60), store=str(path)) as session:
        result = session.run("S1")
    assert result.success
    assert result.counters["search.reset_replays"] >= 1  # it really re-executed


def test_store_disabled_cache_never_consults_store(tmp_path):
    path = tmp_path / "outcomes.json"
    config = SynthConfig(timeout_s=60)
    with SynthesisSession(config, store=str(path)) as session:
        session.run("S1")
    off = SynthConfig(timeout_s=60, cache_spec_outcomes=False)
    with SynthesisSession(off, store=str(path)) as session:
        result = session.run("S1")
    assert result.success
    assert result.counters["cache.store_hits"] == 0


def test_invalidate_caches_wipes_attached_store(tmp_path):
    path = tmp_path / "outcomes.json"
    with SynthesisSession(SynthConfig(timeout_s=60), store=str(path)) as session:
        session.run("S1")
        assert len(session.store) > 0
        session.problem_for("S1").invalidate_caches()
        assert len(session.store) == 0
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["entries"] == {}


# ---------------------------------------------------------------------------
# Store payloads and content hashes (unit level)
# ---------------------------------------------------------------------------


def test_outcome_payload_round_trip_ok_failure_error():
    from repro.interp.errors import AssertionFailure, SynRuntimeError
    from repro.lang.effects import Effect, EffectPair
    from repro.synth.goal import SpecOutcome

    ok = SpecOutcome(ok=True, passed_asserts=3, value=object())
    back = outcome_from_json(outcome_to_json(ok))
    assert back.ok and back.passed_asserts == 3 and back.value is None

    # "Pod" + "Pod.status" mixes a class-level region (region=None) with a
    # column region of the same class: the sort key must not compare None
    # against the column name (regression: TypeError on app benchmarks).
    failure = AssertionFailure(
        EffectPair(Effect.of("Pod", "Pod.status", "User"), Effect.star()), "boom"
    )
    failed = SpecOutcome(ok=False, passed_asserts=1, failure=failure)
    back = outcome_from_json(json.loads(json.dumps(outcome_to_json(failed))))
    assert not back.ok and back.passed_asserts == 1
    assert back.failure.read_effect == failure.read_effect
    assert back.failure.write_effect == failure.write_effect
    assert back.has_effect_error

    errored = SpecOutcome(ok=False, error=RuntimeError("nope"))
    back = outcome_from_json(outcome_to_json(errored))
    assert not back.ok and back.failure is None
    assert isinstance(back.error, SynRuntimeError)


def test_program_hash_is_structural():
    problem = get_benchmark("S1").build()
    from repro.lang import ast as A

    one = problem.make_program(A.IntLit(1))
    same = problem.make_program(A.IntLit(1))
    other = problem.make_program(A.IntLit(2))
    assert program_hash(one) == program_hash(same)
    assert program_hash(one) != program_hash(other)


def test_problem_fingerprint_tracks_definitions():
    first = get_benchmark("S1").build()
    second = get_benchmark("S1").build()
    # Two builds of the same benchmark fingerprint identically (that is what
    # makes the store useful across processes)...
    assert problem_fingerprint(first) == problem_fingerprint(second)
    # ...and different goals or a rebound reset closure change it.
    assert problem_fingerprint(first) != problem_fingerprint(
        get_benchmark("S4").build()
    )
    second.reset = lambda: None
    assert problem_fingerprint(first) != problem_fingerprint(second)


# ---------------------------------------------------------------------------
# Acceptance: two-pass Figure 8 precision sweep through one session
# ---------------------------------------------------------------------------


def test_two_pass_figure8_sweep_matches_cold_and_hits_store(tmp_path):
    """The PR's acceptance criterion, gated in CI.

    A Figure 8 precision sweep run twice through one session (with a
    memory-cache drop in between, simulating a new process over the same
    store) must synthesize programs identical to fully cold runs, replay
    fewer resets on the second pass, and answer >= 1 evaluation from the
    persistent store.
    """

    variants = [(p, {"effect_precision": p}) for p in PRECISIONS]
    config = SynthConfig.full(timeout_s=60)

    with SynthesisSession(config, store=str(tmp_path / "store.json")) as session:
        pass1 = session.sweep(["S1"], variants)
        session.clear_memory_caches()
        pass2 = session.sweep(["S1"], variants)
        cold = session.sweep(["S1"], variants, warm=False)

    for entries in (pass1, pass2, cold):
        assert all(e.success for e in entries)
    for warm1, warm2, isolated in zip(pass1, pass2, cold):
        assert warm1.variant == warm2.variant == isolated.variant
        # Identical programs: warm sharing and the store never change results.
        assert warm1.result.program == isolated.result.program
        assert warm2.result.program == isolated.result.program

    def resets(entries):
        return sum(e.result.counters["search.reset_replays"] for e in entries)

    def store_hits(entries):
        return sum(e.result.counters["cache.store_hits"] for e in entries)
    # Pass 1 pays the one baseline capture; pass 2 re-answers everything
    # from the store without a single reset; cold pays one per cell.
    assert resets(pass2) < resets(pass1) <= resets(cold)
    assert store_hits(pass2) >= 1
    assert store_hits(pass1) == 0
