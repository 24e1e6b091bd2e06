"""Persistent, content-hash-keyed spec-outcome stores (JSON and SQLite).

The in-memory memo of :mod:`repro.synth.cache` dies with the process, but
the paper's evaluation is a long sequence of *related* processes: Table 1
medians, the Figure 7 guidance sweep and the Figure 8 precision sweep all
re-execute the same ``(program, spec)`` pairs run after run.  This module
persists spec and guard outcomes to disk so a later process -- or a later
pass of the same :class:`~repro.synth.session.SynthesisSession` after its
memory caches were dropped -- answers them without re-executing
``reset + setup + candidate``.

Keys are content hashes, not object identities, so they survive process
boundaries:

* ``program_hash`` -- SHA-256 of the candidate's pretty-printed source
  (deterministic for structurally equal ASTs);
* ``spec_hash`` -- SHA-256 over the spec's name, the bytecode of its setup
  and postcondition closures (recursively, covering nested lambdas), and the
  owning problem's fingerprint (name, signature, constants and the class
  table's method/effect fingerprint).  Changing a benchmark definition or a
  library annotation therefore changes the hash, so entries recorded against
  the old definition become unreachable -- stale by construction;
* ``effect_precision`` -- the Figure 8 annotation level, since an outcome's
  captured effects depend on it.

What is stored is exactly what the search consumes (``ok``,
``passed_asserts`` and a failed assertion's read/write effects -- the
``err(e_r, e_w)`` of the paper's extended semantics -- or the guard's
truthiness); result values and exception objects are not persisted, so a
store-served :class:`~repro.synth.goal.SpecOutcome` carries ``value=None``.
This is sufficient for synthesis to proceed identically: the search branches
only on ``ok`` / ``passed_asserts`` / the failure's read effect.

Two backends share the schema, the content-hash keys and the entry payloads,
behind the dispatching :class:`SpecOutcomeStore` constructor (selected by
path suffix, or forced with ``backend="json"``/``"sqlite"``):

* :class:`JsonSpecOutcomeStore` -- a single JSON document
  (``{"version", "entries"}``) written atomically (temp file +
  ``os.replace``).  Flush first merges the entries currently on disk into
  the in-memory map, so two processes flushing the same path interleave
  without losing each other's outcomes -- but the read-modify-write is not
  atomic across processes, so heavily concurrent writers should use the
  SQLite backend;
* :class:`SQLiteSpecOutcomeStore` -- one row per entry in WAL mode with
  upsert writes, the supported path for multi-process use
  (:mod:`repro.synth.parallel` worker pools).  Lookups read through to the
  database, so workers observe each other's flushed outcomes mid-run.

A corrupted file, a file with a different schema version, or an individual
malformed entry is ignored and counted (``store.stale_dropped``, or the
``corrupt_file`` flag for a whole unusable file); the store
never raises on bad persisted data.  Both backends track a last-hit order
per entry, and :meth:`SpecOutcomeStore.compact` prunes the least recently
hit entries beyond a bound (``scripts/store_tool.py`` wraps this, plus
JSON <-> SQLite migration, as a CLI).

Closures that capture mutable out-of-band state (beyond what the problem
fingerprint covers) hash equal even when that state differs; like the
snapshot subsystem's determinism contract, using a store asserts that the
benchmark definitions determine the spec behavior.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import tempfile
import types
from typing import TYPE_CHECKING, Any, Dict, Iterator, List, Optional, Tuple

from repro.interp.errors import AssertionFailure, SynRuntimeError
from repro.lang.effects import Effect, EffectPair, Region
from repro.obs import trace
from repro.obs.metrics import Counters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lang import ast as A
    from repro.synth.goal import Spec, SpecOutcome, SynthesisProblem

#: Bump when the entry payload shape changes; older files are ignored whole.
STORE_VERSION = 1

#: Sentinel distinguishing "no entry" from a stored ``None`` guard truthiness.
STORE_MISS = object()

#: Path suffixes dispatched to the SQLite backend (everything else is JSON).
SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")


#: The store's counters, owned by each :class:`SpecOutcomeStore` (meanings:
#: ``docs/API.md``, "Metrics").
STORE_COUNTERS = (
    "store.stale_dropped",
    "store.writes",
    "store.flushes",
    "store.compacted",
    "store.merged_in",
)


# ---------------------------------------------------------------------------
# Effect / outcome (de)serialization
# ---------------------------------------------------------------------------


def _effect_to_json(effect: Effect) -> Dict[str, object]:
    if effect.is_star:
        return {"star": True}
    # region is None for class-level effects (``A.*``), so the sort key must
    # not compare None against column names.
    return {
        "regions": sorted(
            ([region.cls, region.region] for region in effect.regions),
            key=lambda entry: (entry[0], entry[1] or ""),
        )
    }


def _effect_from_json(data: Any) -> Effect:
    if not isinstance(data, dict):
        raise ValueError("effect payload must be a dict")
    if data.get("star"):
        return Effect.star()
    regions = data.get("regions", [])
    if not isinstance(regions, list):
        raise ValueError("effect regions must be a list")
    atoms = []
    for entry in regions:
        cls, region = entry
        if not isinstance(cls, str) or not (region is None or isinstance(region, str)):
            raise ValueError("malformed effect region")
        atoms.append(Region(cls, region))
    return Effect(frozenset(atoms))


def outcome_to_json(outcome: "SpecOutcome") -> Optional[Dict[str, object]]:
    """The JSON payload for a spec outcome, or ``None`` if unserializable.

    Only the fields the search consumes are kept; ``value`` and exception
    objects are dropped (see the module docstring).
    """

    payload: Dict[str, object] = {
        "v": STORE_VERSION,
        "ok": bool(outcome.ok),
        "passed": int(outcome.passed_asserts),
    }
    if outcome.ok:
        return payload
    if outcome.failure is not None:
        payload["fail"] = {
            "read": _effect_to_json(outcome.failure.read_effect),
            "write": _effect_to_json(outcome.failure.write_effect),
            "msg": outcome.failure.message,
        }
    elif outcome.error is not None:
        payload["error"] = f"{type(outcome.error).__name__}: {outcome.error}"
    return payload


def outcome_from_json(payload: Dict[str, object]) -> "SpecOutcome":
    """Rebuild a :class:`~repro.synth.goal.SpecOutcome` from its payload.

    Raises on malformed payloads (callers treat that as a stale entry).
    """

    from repro.synth.goal import SpecOutcome

    ok = payload["ok"]
    passed = payload["passed"]
    if not isinstance(ok, bool) or not isinstance(passed, int):
        raise ValueError("malformed outcome payload")
    if ok:
        return SpecOutcome(ok=True, passed_asserts=passed)
    fail = payload.get("fail")
    if fail is not None:
        if not isinstance(fail, dict):
            raise ValueError("malformed failure payload")
        failure = AssertionFailure(
            EffectPair(
                _effect_from_json(fail["read"]), _effect_from_json(fail["write"])
            ),
            fail.get("msg"),
        )
        return SpecOutcome(ok=False, passed_asserts=passed, failure=failure)
    error = payload.get("error")
    return SpecOutcome(
        ok=False,
        passed_asserts=passed,
        error=SynRuntimeError(f"[replayed from store] {error}"),
    )


def _valid_entry(value: Any) -> bool:
    return (
        isinstance(value, dict)
        and value.get("v") == STORE_VERSION
        and value.get("kind") in ("spec", "guard")
    )


# ---------------------------------------------------------------------------
# Content hashing
# ---------------------------------------------------------------------------


def _hash_text(*parts: str) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part.encode("utf-8", "backslashreplace"))
        digest.update(b"\x00")
    return digest.hexdigest()


def _code_fingerprint(obj: Any, out: list) -> None:
    """Accumulate a stable fingerprint of a callable's compiled code.

    Recurses into nested code objects (lambdas and inner functions defined in
    the setup/postcond bodies) so their bodies participate.  Captured cell
    *values* are deliberately excluded -- they are process-local objects (app
    substrates, model classes) whose identity the problem fingerprint covers.
    """

    if isinstance(obj, types.CodeType):
        out.append(obj.co_name)
        out.append(obj.co_code.hex())
        out.append(repr(obj.co_names))
        out.append(repr(obj.co_varnames))
        out.append(repr(obj.co_freevars))
        for const in obj.co_consts:
            _code_fingerprint(const, out)
        return
    code = getattr(obj, "__code__", None)
    if code is not None:
        _code_fingerprint(code, out)
        return
    out.append(repr(obj))


def _constant_label(value: Any) -> str:
    if isinstance(value, type):
        return f"class:{value.__name__}"
    return repr(value)


def problem_fingerprint(problem: "SynthesisProblem") -> str:
    """A content hash of everything spec outcomes may depend on.

    Covers the goal (name, signature, constants) and the class table's
    method/effect fingerprint -- but *not* the effect precision, which is a
    separate key component so one problem's precision variants share spec
    hashes.
    """

    reset_parts: list = []
    _code_fingerprint(problem.reset, reset_parts)
    return _hash_text(
        problem.name,
        repr(problem.arg_types),
        repr(problem.ret_type),
        ",".join(_constant_label(c) for c in problem.constants),
        problem.class_table.fingerprint(),
        *reset_parts,
    )


def spec_hash(problem_fp: str, spec: "Spec") -> str:
    """Content hash of one spec under its problem fingerprint."""

    parts: list = [problem_fp, spec.name]
    _code_fingerprint(spec.setup, parts)
    _code_fingerprint(spec.postcond, parts)
    return _hash_text(*parts)


def program_hash(program: "A.Node") -> str:
    """Content hash of a candidate program (its pretty-printed source)."""

    from repro.lang.pretty import pretty_block

    return _hash_text(pretty_block(program))


# ---------------------------------------------------------------------------
# Backend dispatch
# ---------------------------------------------------------------------------


def _backend_class(path: Any, backend: Optional[str]) -> type:
    if backend is not None:
        try:
            return {"json": JsonSpecOutcomeStore, "sqlite": SQLiteSpecOutcomeStore}[
                backend
            ]
        except KeyError:
            raise ValueError(
                f"unknown store backend {backend!r} (expected 'json' or 'sqlite')"
            ) from None
    suffix = os.path.splitext(os.fspath(path))[1].lower()
    if suffix in SQLITE_SUFFIXES:
        return SQLiteSpecOutcomeStore
    return JsonSpecOutcomeStore


class SpecOutcomeStore:
    """Persistent memo of spec and guard outcomes, behind backend dispatch.

    One store is owned by a :class:`~repro.synth.session.SynthesisSession`
    (or opened standalone) and attached to the session's
    :class:`~repro.synth.cache.SynthCache`, which consults it on in-memory
    misses and writes every executed outcome through.  ``flush`` persists
    dirty entries; ``close`` flushes and detaches.

    Constructing (or :meth:`open`-ing) the base class dispatches on the path
    suffix -- :data:`SQLITE_SUFFIXES` select :class:`SQLiteSpecOutcomeStore`,
    everything else :class:`JsonSpecOutcomeStore` -- or on an explicit
    ``backend="json"``/``"sqlite"`` argument.
    """

    #: Backend tag (``"json"`` / ``"sqlite"``), set by the subclasses.
    backend = "json"

    def __new__(cls, path: Any = None, backend: Optional[str] = None):
        if cls is SpecOutcomeStore:
            cls = _backend_class(path, backend)
        return object.__new__(cls)

    def __init__(self, path: str, backend: Optional[str] = None) -> None:
        self.path = os.fspath(path)
        self.counters = Counters.fromkeys(STORE_COUNTERS, 0)
        #: Load-time diagnostics: entries loaded from disk at open time
        #: (after dropping malformed ones), and whether the backing file
        #: existed but could not be used (the store then starts empty; the
        #: corrupt file is replaced on the next flush).
        self.loaded = 0
        self.corrupt_file = False
        self._dirty = False
        self._closed = False
        # Hash memos: fingerprinting a problem walks the class table, spec
        # hashing walks closure bytecode and program hashing pretty-prints
        # the candidate, so each is computed once.  Problems are keyed by
        # id() with a strong reference so ids cannot be recycled; programs
        # are keyed structurally (their hashes are cached per instance), so
        # the lookup and the write-through of one evaluation share one
        # pretty-print.
        self._problem_fps: Dict[int, Tuple["SynthesisProblem", str]] = {}
        self._spec_hashes: Dict[Tuple[str, "Spec"], str] = {}
        self._program_hashes: Dict["A.Node", str] = {}
        self._load()

    # ------------------------------------------------------------------ opening

    @staticmethod
    def open(
        store: "SpecOutcomeStore | str | os.PathLike | None",
        backend: Optional[str] = None,
    ) -> Optional["SpecOutcomeStore"]:
        """Coerce a path (or an existing store, or ``None``) into a store."""

        if store is None or isinstance(store, SpecOutcomeStore):
            return store
        return SpecOutcomeStore(store, backend=backend)

    # ------------------------------------------------------------------ keys

    def _problem_fp(self, problem: "SynthesisProblem") -> str:
        entry = self._problem_fps.get(id(problem))
        if entry is None:
            entry = (problem, problem_fingerprint(problem))
            self._problem_fps[id(problem)] = entry
        return entry[1]

    def _spec_hash(self, problem: "SynthesisProblem", spec: "Spec") -> str:
        fp = self._problem_fp(problem)
        cached = self._spec_hashes.get((fp, spec))
        if cached is None:
            cached = spec_hash(fp, spec)
            self._spec_hashes[(fp, spec)] = cached
        return cached

    def _program_hash(self, program: "A.Node") -> str:
        cached = self._program_hashes.get(program)
        if cached is None:
            cached = program_hash(program)
            self._program_hashes[program] = cached
        return cached

    def _key(
        self,
        kind: str,
        problem: "SynthesisProblem",
        program: "A.Node",
        spec: "Spec",
    ) -> str:
        return ":".join(
            (
                self._program_hash(program),
                self._spec_hash(problem, spec),
                problem.class_table.effect_precision,
                kind,
            )
        )

    # ------------------------------------------------------------------ spec API

    def load_spec(
        self, problem: "SynthesisProblem", program: "A.Node", spec: "Spec"
    ) -> Optional["SpecOutcome"]:
        """The persisted outcome for ``(program, spec)``, or ``None``."""

        entry = self._raw_get(self._key("spec", problem, program, spec))
        if trace.TRACER.enabled:
            trace.TRACER.event("store.lookup", kind="spec", hit=entry is not None)
        if entry is None:
            return None
        try:
            return outcome_from_json(entry)
        except (KeyError, ValueError, TypeError):
            self.counters["store.stale_dropped"] += 1
            return None

    def save_spec(
        self,
        problem: "SynthesisProblem",
        program: "A.Node",
        spec: "Spec",
        outcome: "SpecOutcome",
    ) -> None:
        payload = outcome_to_json(outcome)
        if payload is None:  # pragma: no cover - every outcome serializes today
            return
        payload["kind"] = "spec"
        self._raw_put(self._key("spec", problem, program, spec), payload)
        self.counters["store.writes"] += 1

    # ------------------------------------------------------------------ guard API

    def load_guard(
        self, problem: "SynthesisProblem", program: "A.Node", spec: "Spec"
    ) -> Any:
        """Persisted guard truthiness (``True``/``False``/``None`` for a
        crashing guard), or the module sentinel :data:`STORE_MISS`."""

        entry = self._raw_get(self._key("guard", problem, program, spec))
        if trace.TRACER.enabled:
            trace.TRACER.event("store.lookup", kind="guard", hit=entry is not None)
        if entry is None:
            return STORE_MISS
        truth = entry.get("truth", STORE_MISS)
        if truth is STORE_MISS or not (truth is None or isinstance(truth, bool)):
            self.counters["store.stale_dropped"] += 1
            return STORE_MISS
        return truth

    def save_guard(
        self,
        problem: "SynthesisProblem",
        program: "A.Node",
        spec: "Spec",
        truthiness: Optional[bool],
    ) -> None:
        self._raw_put(
            self._key("guard", problem, program, spec),
            {"v": STORE_VERSION, "kind": "guard", "truth": truthiness},
        )
        self.counters["store.writes"] += 1

    # ------------------------------------------------------------------ lifecycle

    def invalidate(self) -> None:
        """Drop every entry (in memory and, at the next flush, on disk).

        Called when a problem's baseline state changed *out of band*
        (:meth:`SynthesisProblem.invalidate_caches`): persisted outcomes are
        then stale but content hashes cannot tell, so the store wipes
        conservatively.  Rebinding the reset closure needs no wipe -- the
        closure participates in the problem fingerprint, so old entries
        become unreachable by construction.
        """

        self._wipe()
        self._problem_fps.clear()
        self._spec_hashes.clear()
        self._program_hashes.clear()

    def close(self) -> None:
        self.flush()
        self._closed = True

    def __enter__(self) -> "SpecOutcomeStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------ backend hooks

    def _load(self) -> None:
        raise NotImplementedError

    def _raw_get(self, key: str) -> Optional[Dict[str, object]]:
        """The raw payload under ``key`` (touching its last-hit order)."""

        raise NotImplementedError

    def _raw_put(self, key: str, payload: Dict[str, object]) -> None:
        raise NotImplementedError

    def _wipe(self) -> None:
        raise NotImplementedError

    def flush(self) -> None:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def raw_entries(self) -> Iterator[Tuple[str, Dict[str, object]]]:
        """All ``(key, payload)`` pairs, least recently hit first.

        The raw-access API behind ``scripts/store_tool.py``'s backend
        migration: iterating one store and :meth:`raw_put`-ing into another
        preserves entries *and* their pruning order.
        """

        raise NotImplementedError

    def raw_put(self, key: str, payload: Dict[str, object]) -> None:
        """Insert one raw entry as the most recently hit (migration API)."""

        if not _valid_entry(payload):
            self.counters["store.stale_dropped"] += 1
            return
        self._raw_put(key, payload)
        self.counters["store.writes"] += 1

    def compact(self, max_entries: int) -> int:
        """LRU-style pruning: keep the ``max_entries`` most recently hit.

        Entries are ordered by last hit (lookups and writes both refresh an
        entry's position); the oldest beyond the bound are dropped.  Returns
        the number of pruned entries.  The ROADMAP growth-management
        follow-up: stores are append-only otherwise, so long-lived sweep
        stores eventually outgrow their usefulness.
        """

        raise NotImplementedError


# ---------------------------------------------------------------------------
# JSON backend
# ---------------------------------------------------------------------------


class JsonSpecOutcomeStore(SpecOutcomeStore):
    """Single-document JSON backend (atomic temp-file + ``os.replace``).

    The whole document is held in memory; entry order is the last-hit order
    (Python dicts preserve insertion order, and hits/writes reinsert at the
    end), which the document serializes, so compaction order survives the
    process.  ``flush`` merges the entries currently on disk into the
    in-memory map first, so concurrent writers no longer lose each other's
    flushes wholesale -- but the read-merge-write is not atomic, so the
    SQLite backend remains the supported path for multi-process writers.
    """

    backend = "json"

    def __init__(self, path: str, backend: Optional[str] = None) -> None:
        self._entries: Dict[str, Dict[str, object]] = {}
        #: Set by :meth:`invalidate` and :meth:`compact`: the next flush
        #: must overwrite the disk document instead of merging it back in
        #: (dropped entries would otherwise be re-adopted from disk).
        self._wiped = False
        super().__init__(path, backend)

    def _load(self) -> None:
        entries, corrupt, stale = self._read_disk()
        self.corrupt_file = corrupt
        self.counters["store.stale_dropped"] += stale
        self._entries = entries
        self.loaded = len(self._entries)

    def _read_disk(self) -> Tuple[Dict[str, Dict[str, object]], bool, int]:
        """Parse the on-disk document: ``(valid entries, corrupt?, stale)``."""

        try:
            with open(self.path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except FileNotFoundError:
            return {}, False, 0
        except (OSError, ValueError):
            return {}, True, 0
        if (
            not isinstance(data, dict)
            or data.get("version") != STORE_VERSION
            or not isinstance(data.get("entries"), dict)
        ):
            # A future (or ancient) schema: ignore wholesale rather than
            # misread entries recorded under different rules.
            return {}, True, 0
        entries: Dict[str, Dict[str, object]] = {}
        stale = 0
        for key, value in data["entries"].items():
            if isinstance(key, str) and _valid_entry(value):
                entries[key] = value
            else:
                stale += 1
        return entries, False, stale

    def _raw_get(self, key: str) -> Optional[Dict[str, object]]:
        entry = self._entries.get(key)
        if entry is not None:
            # Refresh the last-hit order (in memory only: a pure-read session
            # does not dirty the document just by looking).
            self._entries[key] = self._entries.pop(key)
        return entry

    def _raw_put(self, key: str, payload: Dict[str, object]) -> None:
        self._entries.pop(key, None)
        self._entries[key] = payload
        self._dirty = True

    def _wipe(self) -> None:
        if self._entries:
            self._entries.clear()
        self._dirty = True
        self._wiped = True

    def compact(self, max_entries: int) -> int:
        if max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        excess = len(self._entries) - max_entries
        if excess <= 0:
            return 0
        for key in list(self._entries)[:excess]:
            del self._entries[key]
        self._dirty = True
        # The next flush must overwrite the document: merging would re-adopt
        # the pruned entries straight back from disk.
        self._wiped = True
        self.counters["store.compacted"] += excess
        return excess

    def flush(self) -> None:
        """Merge the on-disk entries in, then persist atomically.

        The merge fixes the last-flush-wins data loss of concurrent writers:
        entries another process flushed since our load are adopted (ours win
        per key) instead of being overwritten wholesale.  An
        :meth:`invalidate` suppresses the merge for its next flush -- the
        wipe must reach the disk.  No-op when nothing changed.
        """

        if not self._dirty or self._closed:
            return
        if not self._wiped:
            disk, _corrupt, _stale = self._read_disk()
            merged_in = 0
            for key, value in disk.items():
                if key not in self._entries:
                    merged_in += 1
            if merged_in:
                # Disk-only entries are treated as older than anything we
                # touched: they go first, our entries keep their order.
                ours = self._entries
                self._entries = {
                    k: v for k, v in disk.items() if k not in ours
                }
                self._entries.update(ours)
                self.counters["store.merged_in"] += merged_in
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        payload = json.dumps(
            {"version": STORE_VERSION, "entries": self._entries},
            separators=(",", ":"),
        )
        fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(payload)
            os.replace(tmp_path, self.path)
        except BaseException:
            try:
                os.unlink(tmp_path)
            except OSError:
                pass
            raise
        self._dirty = False
        self._wiped = False
        self.counters["store.flushes"] += 1
        if trace.TRACER.enabled:
            trace.TRACER.event("store.flush", backend="json", entries=len(self))

    def raw_entries(self) -> Iterator[Tuple[str, Dict[str, object]]]:
        yield from list(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)


# ---------------------------------------------------------------------------
# SQLite backend
# ---------------------------------------------------------------------------


class SQLiteSpecOutcomeStore(SpecOutcomeStore):
    """One-row-per-entry SQLite backend, the supported multi-process path.

    * WAL journal mode plus a generous busy timeout: concurrent readers
      never block, and concurrent writers queue instead of failing;
    * writes are buffered in memory and flushed as upserts in one immediate
      transaction, so two worker processes writing the same store interleave
      per key and lose nothing;
    * lookups miss the write buffer and read through to the database, so a
      worker observes outcomes other workers flushed mid-run;
    * a ``last_hit`` sequence column records the hit order for
      :meth:`compact` (hit touches are buffered and persisted on flush).

    Schema-version handling mirrors the JSON document: a file recorded under
    a different :data:`STORE_VERSION` is dropped wholesale (and
    ``corrupt_file`` set), as is an unreadable database file.
    """

    backend = "sqlite"

    def __init__(self, path: str, backend: Optional[str] = None) -> None:
        self._conn: Optional[sqlite3.Connection] = None
        self._pending: Dict[str, Dict[str, object]] = {}
        self._touched: Dict[str, None] = {}
        self._clock = 0
        super().__init__(path, backend)

    # ------------------------------------------------------------------ schema

    def _connect(self) -> sqlite3.Connection:
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        conn = sqlite3.connect(self.path, timeout=30.0)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA busy_timeout=30000")
        return conn

    def _init_schema(self, conn: sqlite3.Connection) -> None:
        with conn:
            conn.execute(
                "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT)"
            )
            conn.execute(
                "CREATE TABLE IF NOT EXISTS entries ("
                " key TEXT PRIMARY KEY,"
                " kind TEXT NOT NULL,"
                " v INTEGER NOT NULL,"
                " payload TEXT NOT NULL,"
                " last_hit INTEGER NOT NULL DEFAULT 0)"
            )
            conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES ('version', ?)",
                (str(STORE_VERSION),),
            )

    def _load(self) -> None:
        try:
            conn = self._connect()
            self._init_schema(conn)
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'version'"
            ).fetchone()
        except sqlite3.Error:
            # An unreadable database (e.g. a JSON document renamed to .db):
            # mirror the JSON corrupt-file behavior by starting empty.  The
            # broken file is replaced so the store is usable from here on.
            self.corrupt_file = True
            try:
                if self._conn is not None:  # pragma: no cover - defensive
                    self._conn.close()
            finally:
                self._conn = None
            for suffix in ("", "-wal", "-shm"):
                try:
                    os.unlink(self.path + suffix)
                except OSError:
                    pass
            conn = self._connect()
            self._init_schema(conn)
            row = (str(STORE_VERSION),)
        if row is None or row[0] != str(STORE_VERSION):
            # Same contract as a wrong-version JSON document: entries
            # recorded under different rules are ignored wholesale.
            self.corrupt_file = True
            with conn:
                conn.execute("DELETE FROM entries")
                conn.execute(
                    "INSERT OR REPLACE INTO meta (key, value) VALUES ('version', ?)",
                    (str(STORE_VERSION),),
                )
        with conn:
            cursor = conn.execute(
                "DELETE FROM entries WHERE kind NOT IN ('spec', 'guard') OR v != ?",
                (STORE_VERSION,),
            )
        self.counters["store.stale_dropped"] += max(cursor.rowcount, 0)
        self.loaded = conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
        self._clock = (
            conn.execute("SELECT COALESCE(MAX(last_hit), 0) FROM entries").fetchone()[0]
        )
        self._conn = conn

    # ------------------------------------------------------------------ raw ops

    def _touch(self, key: str) -> None:
        self._touched.pop(key, None)
        self._touched[key] = None

    def _raw_get(self, key: str) -> Optional[Dict[str, object]]:
        pending = self._pending.get(key)
        if pending is not None:
            self._touch(key)
            return pending
        row = self._conn.execute(
            "SELECT payload FROM entries WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            return None
        try:
            payload = json.loads(row[0])
        except ValueError:
            payload = None
        if not _valid_entry(payload):
            self.counters["store.stale_dropped"] += 1
            with self._conn:
                self._conn.execute("DELETE FROM entries WHERE key = ?", (key,))
            return None
        self._touch(key)
        self._dirty = True
        return payload

    def _raw_put(self, key: str, payload: Dict[str, object]) -> None:
        self._pending[key] = payload
        self._touch(key)
        self._dirty = True

    def _wipe(self) -> None:
        self._pending.clear()
        self._touched.clear()
        with self._conn:
            self._conn.execute("DELETE FROM entries")
        self._dirty = False

    def flush(self) -> None:
        """Upsert buffered writes and hit touches in one transaction."""

        if not self._dirty or self._closed:
            return
        with self._conn:
            for key in self._touched:
                self._clock += 1
                payload = self._pending.get(key)
                if payload is not None:
                    self._conn.execute(
                        "INSERT INTO entries (key, kind, v, payload, last_hit)"
                        " VALUES (?, ?, ?, ?, ?)"
                        " ON CONFLICT(key) DO UPDATE SET"
                        " kind = excluded.kind, v = excluded.v,"
                        " payload = excluded.payload, last_hit = excluded.last_hit",
                        (
                            key,
                            str(payload.get("kind")),
                            STORE_VERSION,
                            json.dumps(payload, separators=(",", ":")),
                            self._clock,
                        ),
                    )
                else:
                    self._conn.execute(
                        "UPDATE entries SET last_hit = ? WHERE key = ?",
                        (self._clock, key),
                    )
        self._pending.clear()
        self._touched.clear()
        self._dirty = False
        self.counters["store.flushes"] += 1
        if trace.TRACER.enabled:
            trace.TRACER.event("store.flush", backend="sqlite", entries=len(self))

    def compact(self, max_entries: int) -> int:
        if max_entries < 0:
            raise ValueError("max_entries must be >= 0")
        self.flush()
        with self._conn:
            cursor = self._conn.execute(
                "DELETE FROM entries WHERE key NOT IN ("
                " SELECT key FROM entries ORDER BY last_hit DESC, key LIMIT ?)",
                (max_entries,),
            )
        pruned = cursor.rowcount if cursor.rowcount > 0 else 0
        self.counters["store.compacted"] += pruned
        return pruned

    def raw_entries(self) -> Iterator[Tuple[str, Dict[str, object]]]:
        self.flush()
        for key, payload in self._conn.execute(
            "SELECT key, payload FROM entries ORDER BY last_hit ASC, key"
        ):
            try:
                decoded = json.loads(payload)
            except ValueError:
                continue
            if _valid_entry(decoded):
                yield key, decoded

    def __len__(self) -> int:
        count = self._conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0]
        if not self._pending:
            return count
        # Count pending keys not yet persisted in chunks (one IN query per
        # chunk, bounded by SQLite's host-parameter limit).
        pending = list(self._pending)
        persisted = 0
        for start in range(0, len(pending), 500):
            chunk = pending[start : start + 500]
            placeholders = ",".join("?" * len(chunk))
            persisted += self._conn.execute(
                f"SELECT COUNT(*) FROM entries WHERE key IN ({placeholders})",
                chunk,
            ).fetchone()[0]
        return count + len(pending) - persisted

    def close(self) -> None:
        super().close()
        if self._conn is not None:
            self._conn.close()
            self._conn = None
