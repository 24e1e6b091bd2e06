"""Tests for the persistent spec-outcome store (repro.synth.store), an SQLite
database: round-trips, corruption, schema versions, invalidation, LRU
compaction, multi-process writers, the refusal to open a legacy JSON store
document, and the ``store_tool`` CLI (including ``migrate`` from JSON)."""

from __future__ import annotations

import json
import multiprocessing
import os
import sqlite3
import subprocess
import sys

import pytest

from repro.synth import SynthConfig, SynthesisSession
from repro.synth.store import STORE_VERSION, SpecOutcomeStore

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _path(tmp_path, name="outcomes.sqlite"):
    return str(tmp_path / name)


def _entry(truth=True):
    return {"v": STORE_VERSION, "kind": "guard", "truth": truth}


def _store_tool(*args):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "store_tool.py"), *args],
        env=env, capture_output=True, text=True,
    )


def test_open_passes_through_instances_and_none(tmp_path):
    assert SpecOutcomeStore.open(None) is None
    store = SpecOutcomeStore(_path(tmp_path))
    assert SpecOutcomeStore.open(store) is store
    store.close()


# ---------------------------------------------------------------------------
# Round-trip, corruption, schema version, invalidation
# ---------------------------------------------------------------------------


def test_round_trip_across_sessions(tmp_path):
    path = _path(tmp_path)
    config = SynthConfig(timeout_s=60)
    with SynthesisSession(config, store=path) as first_session:
        first = first_session.run("S4")
    assert first.success
    assert os.path.exists(path)

    with SynthesisSession(config, store=path) as second_session:
        assert second_session.store.loaded > 0
        second = second_session.run("S4")
    assert second.success
    assert second.program == first.program
    assert second.counters["cache.store_hits"] >= 1
    assert second.counters["search.reset_replays"] == 0


def test_corrupted_file_is_ignored(tmp_path):
    path = _path(tmp_path)
    with open(path, "wb") as fh:
        fh.write(b"{not json! and definitely not sqlite\xff\x00")
    store = SpecOutcomeStore(path)
    assert store.corrupt_file
    assert len(store) == 0
    # The store stays usable: a run against it persists fresh outcomes.
    with SynthesisSession(SynthConfig(timeout_s=60), store=store) as session:
        result = session.run("S1")
    assert result.success
    store.close()
    reopened = SpecOutcomeStore(path)
    assert not reopened.corrupt_file
    assert len(reopened) > 0
    reopened.close()


def test_legacy_json_store_is_refused_and_left_unchanged(tmp_path):
    """A document the retired JSON backend wrote must never be replaced."""

    path = _path(tmp_path, "outcomes.json")
    document = {"version": STORE_VERSION, "entries": {"k": _entry()}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
    with open(path, "rb") as fh:
        before = fh.read()
    with pytest.raises(ValueError, match="store_tool.py migrate"):
        SpecOutcomeStore(path)
    with pytest.raises(ValueError, match="store_tool.py migrate"):
        SynthesisSession(store=path)
    with open(path, "rb") as fh:
        assert fh.read() == before
    assert os.listdir(tmp_path) == ["outcomes.json"]


def test_wrong_schema_version_is_dropped_wholesale(tmp_path):
    path = _path(tmp_path)
    store = SpecOutcomeStore(path)
    store.raw_put("k", _entry())
    store.close()
    conn = sqlite3.connect(path)
    with conn:
        conn.execute("UPDATE meta SET value = '999' WHERE key = 'version'")
    conn.close()
    store = SpecOutcomeStore(path)
    assert store.corrupt_file
    assert len(store) == 0
    store.close()


def test_stale_entries_are_dropped_at_load(tmp_path):
    path = _path(tmp_path)
    store = SpecOutcomeStore(path)
    store.raw_put("good", _entry())
    store.close()
    conn = sqlite3.connect(path)
    with conn:
        conn.execute(
            "INSERT INTO entries (key, kind, v, payload, last_hit)"
            " VALUES ('bad-version', 'spec', 999, '{}', 99)"
        )
        conn.execute(
            "INSERT INTO entries (key, kind, v, payload, last_hit)"
            " VALUES ('bad-kind', 'mystery', ?, '{}', 99)",
            (STORE_VERSION,),
        )
    conn.close()
    store = SpecOutcomeStore(path)
    assert store.loaded == 1
    assert store.counters["store.stale_dropped"] == 2
    assert dict(store.raw_entries()) == {"good": _entry()}
    store.close()


def test_invalidate_caches_wipes_attached_store(tmp_path):
    path = _path(tmp_path)
    with SynthesisSession(SynthConfig(timeout_s=60), store=path) as session:
        session.run("S1")
        assert len(session.store) > 0
        session.problem_for("S1").invalidate_caches()
        assert len(session.store) == 0
    reopened = SpecOutcomeStore(path)
    assert len(reopened) == 0
    reopened.close()


# ---------------------------------------------------------------------------
# Compaction (LRU on last-hit order)
# ---------------------------------------------------------------------------


def test_compact_keeps_most_recently_hit(tmp_path):
    path = _path(tmp_path)
    store = SpecOutcomeStore(path)
    for i in range(5):
        store.raw_put(f"k{i}", _entry(i % 2 == 0))
    # Touch k0: it becomes the most recently hit entry.
    assert store._raw_get("k0") is not None
    pruned = store.compact(2)
    assert pruned == 3
    assert store.counters["store.compacted"] == 3
    kept = {key for key, _ in store.raw_entries()}
    assert kept == {"k4", "k0"}
    store.close()
    reopened = SpecOutcomeStore(path)
    assert {key for key, _ in reopened.raw_entries()} == {"k4", "k0"}
    reopened.close()


def test_compact_noop_below_bound(tmp_path):
    store = SpecOutcomeStore(_path(tmp_path))
    store.raw_put("k", _entry())
    assert store.compact(10) == 0
    assert len(store) == 1
    store.close()


# ---------------------------------------------------------------------------
# store_tool CLI
# ---------------------------------------------------------------------------


def test_store_tool_migrate_round_trip(tmp_path):
    """A v1 JSON document of a real S1 run migrates into a working store."""

    run_path = _path(tmp_path, "run.sqlite")
    with SynthesisSession(SynthConfig(timeout_s=60), store=run_path) as session:
        first = session.run("S1")
    with SpecOutcomeStore(run_path) as store:
        entries = list(store.raw_entries())  # least recently hit first
    assert entries
    invalid = {
        "bad-version": {"v": 999, "kind": "spec", "ok": True},
        "bad-kind": {"v": STORE_VERSION, "kind": "mystery"},
        "not-a-dict": 5,
    }
    legacy = _path(tmp_path, "outcomes.json")
    with open(legacy, "w", encoding="utf-8") as fh:
        json.dump({"version": STORE_VERSION, "entries": {**invalid, **dict(entries)}}, fh)
    migrated = _path(tmp_path, "migrated.sqlite")

    proc = _store_tool("migrate", legacy, migrated)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["copied"] == len(entries)
    assert report["stale_dropped"] == len(invalid)
    with SpecOutcomeStore(migrated) as store:
        # Document order is the last-hit order, and migration keeps it.
        assert [key for key, _ in store.raw_entries()] == [k for k, _ in entries]

    # The migrated store answers a fresh session without re-execution.
    with SynthesisSession(SynthConfig(timeout_s=60), store=migrated) as session:
        second = session.run("S1")
    assert second.program == first.program
    assert second.counters["cache.store_hits"] >= 1
    assert second.counters["search.reset_replays"] == 0


def test_store_tool_info_and_compact(tmp_path):
    path = _path(tmp_path)
    store = SpecOutcomeStore(path)
    for i in range(4):
        store.raw_put(f"k{i}", _entry())
    store.close()
    info = json.loads(_store_tool("info", path).stdout)
    assert info["entries"] == 4 and info["by_kind"] == {"spec": 0, "guard": 4}
    compacted = json.loads(_store_tool("compact", path, "--max-entries", "1").stdout)
    assert compacted["pruned"] == 3 and compacted["entries_after"] == 1


def test_store_tool_missing_path_exits_2_and_creates_nothing(tmp_path):
    missing = _path(tmp_path, "nope.sqlite")
    for args in (
        ("info", missing),
        ("compact", missing, "--max-entries", "1"),
        ("migrate", _path(tmp_path, "typo.json"), _path(tmp_path, "out.sqlite")),
    ):
        proc = _store_tool(*args)
        assert proc.returncode == 2, args
        assert "no such store" in proc.stderr
    assert os.listdir(tmp_path) == []


# ---------------------------------------------------------------------------
# Concurrency
# ---------------------------------------------------------------------------


def _sqlite_writer(path: str, prefix: str, count: int) -> None:
    store = SpecOutcomeStore(path)
    for i in range(count):
        store.raw_put(f"{prefix}-{i}", {"v": STORE_VERSION, "kind": "guard", "truth": True})
        if i % 3 == 0:
            store.flush()
    store.close()


def test_sqlite_two_processes_lose_no_outcomes(tmp_path):
    """Two worker processes writing the same SQLite store interleave per key."""

    path = str(tmp_path / "shared.sqlite")
    SpecOutcomeStore(path).close()  # create the schema up front
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
    )
    writers = [
        context.Process(target=_sqlite_writer, args=(path, prefix, 25))
        for prefix in ("alpha", "beta")
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=60)
        assert writer.exitcode == 0
    store = SpecOutcomeStore(path)
    keys = {key for key, _ in store.raw_entries()}
    assert keys == {f"alpha-{i}" for i in range(25)} | {f"beta-{i}" for i in range(25)}
    store.close()
