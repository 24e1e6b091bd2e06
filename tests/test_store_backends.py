"""Backend-parametrized tests for the persistent spec-outcome store
(repro.synth.store): the JSON document and the SQLite database must pass the
same suite -- round-trips, corruption, schema versions, invalidation,
LRU compaction -- plus the backend-specific concurrency contracts (JSON
merge-on-flush, SQLite multi-process writers) and the ``store_tool`` CLI."""

from __future__ import annotations

import json
import multiprocessing
import os
import sqlite3
import subprocess
import sys

import pytest

from repro.synth import SynthConfig, SynthesisSession
from repro.synth.store import (
    SQLITE_SUFFIXES,
    STORE_VERSION,
    JsonSpecOutcomeStore,
    SpecOutcomeStore,
    SQLiteSpecOutcomeStore,
)

BACKENDS = ["json", "sqlite"]


def _path(tmp_path, backend: str):
    return str(tmp_path / ("outcomes.json" if backend == "json" else "outcomes.sqlite"))


def _entry(truth=True):
    return {"v": STORE_VERSION, "kind": "guard", "truth": truth}


# ---------------------------------------------------------------------------
# Backend dispatch
# ---------------------------------------------------------------------------


def test_suffix_dispatch(tmp_path):
    assert isinstance(SpecOutcomeStore(str(tmp_path / "a.json")), JsonSpecOutcomeStore)
    for suffix in SQLITE_SUFFIXES:
        store = SpecOutcomeStore(str(tmp_path / f"a{suffix}"))
        assert isinstance(store, SQLiteSpecOutcomeStore)
        store.close()


def test_explicit_backend_overrides_suffix(tmp_path):
    store = SpecOutcomeStore(str(tmp_path / "odd.dat"), backend="sqlite")
    assert store.backend == "sqlite"
    store.close()
    assert SpecOutcomeStore(str(tmp_path / "odd2.dat")).backend == "json"
    with pytest.raises(ValueError):
        SpecOutcomeStore(str(tmp_path / "x.json"), backend="mystery")


def test_open_passes_through_instances_and_none(tmp_path):
    assert SpecOutcomeStore.open(None) is None
    store = SpecOutcomeStore(str(tmp_path / "a.json"))
    assert SpecOutcomeStore.open(store) is store


# ---------------------------------------------------------------------------
# The shared suite: round-trip, corruption, schema version, invalidation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_round_trip_across_sessions(tmp_path, backend):
    path = _path(tmp_path, backend)
    config = SynthConfig(timeout_s=60)
    with SynthesisSession(config, store=path) as first_session:
        first = first_session.run("S4")
    assert first.success
    assert os.path.exists(path)

    with SynthesisSession(config, store=path) as second_session:
        assert second_session.store.backend == backend
        assert second_session.store.loaded > 0
        second = second_session.run("S4")
    assert second.success
    assert second.program == first.program
    assert second.counters["cache.store_hits"] >= 1
    assert second.counters["search.reset_replays"] == 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_corrupted_file_is_ignored(tmp_path, backend):
    path = _path(tmp_path, backend)
    with open(path, "wb") as fh:
        fh.write(b"{not json! and definitely not sqlite\xff\x00")
    store = SpecOutcomeStore(path)
    assert store.corrupt_file
    assert len(store) == 0
    # The store stays usable: a run against it persists fresh outcomes.
    with SynthesisSession(SynthConfig(timeout_s=60), store=store) as session:
        result = session.run("S1")
    assert result.success
    reopened = SpecOutcomeStore(path)
    assert not reopened.corrupt_file
    assert len(reopened) > 0
    reopened.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_wrong_schema_version_is_dropped_wholesale(tmp_path, backend):
    path = _path(tmp_path, backend)
    if backend == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"version": 999, "entries": {"k": _entry()}}, fh)
    else:
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_stale_entries_are_dropped_at_load(tmp_path, backend):
    path = _path(tmp_path, backend)
    store = SpecOutcomeStore(path)
    store.raw_put("good", _entry())
    store.flush()
    store.close()
    if backend == "json":
        data = json.loads(open(path, encoding="utf-8").read())
        data["entries"]["bad-version"] = {"v": 999, "kind": "spec", "ok": True}
        data["entries"]["bad-kind"] = {"v": STORE_VERSION, "kind": "mystery"}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
    else:
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_invalidate_caches_wipes_attached_store(tmp_path, backend):
    path = _path(tmp_path, backend)
    with SynthesisSession(SynthConfig(timeout_s=60), store=path) as session:
        session.run("S1")
        assert len(session.store) > 0
        session.problem_for("S1").invalidate_caches()
        assert len(session.store) == 0
    reopened = SpecOutcomeStore(path)
    assert len(reopened) == 0
    reopened.close()


# ---------------------------------------------------------------------------
# Compaction (LRU on last-hit order) and migration
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_compact_keeps_most_recently_hit(tmp_path, backend):
    path = _path(tmp_path, backend)
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
    store.flush()
    store.close()
    reopened = SpecOutcomeStore(path)
    assert {key for key, _ in reopened.raw_entries()} == {"k4", "k0"}
    reopened.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_compact_noop_below_bound(tmp_path, backend):
    store = SpecOutcomeStore(_path(tmp_path, backend))
    store.raw_put("k", _entry())
    assert store.compact(10) == 0
    assert len(store) == 1
    store.close()


@pytest.mark.parametrize("direction", ["json->sqlite", "sqlite->json"])
def test_store_tool_migrate_round_trip(tmp_path, direction):
    src_backend, dst_backend = direction.split("->")
    src_path = _path(tmp_path, src_backend)
    dst_path = _path(tmp_path, dst_backend)
    with SynthesisSession(SynthConfig(timeout_s=60), store=src_path) as session:
        first = session.run("S1")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "store_tool.py"),
         "migrate", src_path, dst_path],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["copied"] == len(SpecOutcomeStore(src_path))
    assert report["dst"]["backend"] == dst_backend

    # The migrated store answers a fresh session without re-execution.
    with SynthesisSession(SynthConfig(timeout_s=60), store=dst_path) as session:
        second = session.run("S1")
    assert second.program == first.program
    assert second.counters["cache.store_hits"] >= 1
    assert second.counters["search.reset_replays"] == 0


def test_store_tool_info_and_compact(tmp_path):
    path = _path(tmp_path, "json")
    store = SpecOutcomeStore(path)
    for i in range(4):
        store.raw_put(f"k{i}", _entry())
    store.flush()
    store.close()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    tool = os.path.join(root, "scripts", "store_tool.py")
    info = json.loads(
        subprocess.run(
            [sys.executable, tool, "info", path],
            env=env, capture_output=True, text=True,
        ).stdout
    )
    assert info["entries"] == 4 and info["backend"] == "json"
    compacted = json.loads(
        subprocess.run(
            [sys.executable, tool, "compact", path, "--max-entries", "1"],
            env=env, capture_output=True, text=True,
        ).stdout
    )
    assert compacted["pruned"] == 3 and compacted["entries_after"] == 1


# ---------------------------------------------------------------------------
# Concurrency contracts
# ---------------------------------------------------------------------------


def test_json_concurrent_flush_merges_instead_of_losing(tmp_path):
    """The last-flush-wins data loss: two writers' flushes must both survive."""

    path = str(tmp_path / "shared.json")
    first = SpecOutcomeStore(path)
    second = SpecOutcomeStore(path)  # loaded before first writes anything
    first.raw_put("from-first", _entry(True))
    first.flush()
    second.raw_put("from-second", _entry(False))
    second.flush()  # pre-fix this overwrote the document, dropping from-first
    assert second.counters["store.merged_in"] == 1
    merged = dict(SpecOutcomeStore(path).raw_entries())
    assert set(merged) == {"from-first", "from-second"}


def test_json_invalidate_still_wipes_disk_despite_merge(tmp_path):
    path = str(tmp_path / "shared.json")
    store = SpecOutcomeStore(path)
    store.raw_put("k", _entry())
    store.flush()
    store.invalidate()
    store.flush()
    assert json.loads(open(path, encoding="utf-8").read())["entries"] == {}


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
