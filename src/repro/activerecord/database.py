"""A minimal in-memory relational store backing the ORM substrate.

Tables are named collections of rows; rows are plain ``dict`` objects with an
auto-assigned integer ``id``.  The database exposes exactly the operations
the ORM layer needs (insert/query/update/delete/count) plus ``reset``, the
hook RbSyn uses to give every candidate program a clean slate (Section 4,
"optional hooks for resetting the global state").

State isolation guarantees:

* Rows handed across the table boundary (``insert``/``get``/``all``/
  ``query`` return values, the row a ``select`` predicate sees,
  ``insert``/``update`` arguments) are copied, including nested mutable
  values, so a candidate program can never mutate stored state through a
  stale reference.
* ``snapshot()``/``restore()`` are an exact round-trip of the whole database
  state -- every table's rows *and* ``next_id`` plus the globals -- which is
  what :mod:`repro.synth.state` builds its spec-evaluation snapshots on.
  Both are copy-on-write at two levels and copy no row: ``Table.dump`` hands
  the live row mapping, row dicts included, to the snapshot, and
  ``Table.adopt`` takes the snapshot's mapping by reference, so each costs
  O(tables + indexed columns).  Afterwards the first insert, delete or row
  replacement copies the mapping (``Table._rows_shared``), and the first
  write to a row below the watermark -- the ``next_id`` at the last
  dump/adopt; ids are monotonic, so later inserts are private -- copies that
  one row dict, at most once until the next dump/adopt (``Table._private``).
  The globals dict is copy-on-write too: when all its values are atomic it
  is shared with the snapshot by reference and the next
  ``set_global``/``delete_global`` pays for the copy.

Indexed queries:

* Each table lazily builds hash indexes (``{value: bucket}``) on the
  columns equality queries filter by -- built on the first indexed lookup
  (``Table.index_on``) and maintained incrementally by ``insert``/``update``/
  ``delete``/``clear``.  A bucket is the bare row id while one row holds the
  value and a ``set`` of row ids only while two or more do, so an index on a
  unique column holds no container per row, and its build gives the cyclic
  garbage collector no per-row object to track.  Only ``Table`` sees the
  bucket shape.  Index buckets follow dict-key equivalence, which
  matches ``==`` for hashable values (``1 == 1.0 == True`` share a bucket),
  so an indexed lookup returns exactly the rows a scan would; the two
  exceptions are handled by the planner: NaN query values (identity-match in
  a dict, ``==``-miss in a scan) never use an index, and columns holding
  unhashable values are marked unindexable and fall back to scans.
* The planner (``Table.plan`` / ``Database.query``) picks the most selective
  indexed equality column (smallest bucket), filters the residual conditions
  against the candidate rows, and falls back to a scan when no index
  applies.  ``Database.count``/``exists`` short-circuit without copying any
  rows.  Every executed plan is an explainable :class:`QueryPlan` (``kind``,
  ``index_column``, ``rows_examined``) surfaced via ``Database.last_plan``
  and counted on the database's ``query.*`` counters (``Database.counters``).
* Indexes participate in the snapshot machinery: ``dump`` hands the live
  index cache to the :class:`TableSnapshot` entry, ``adopt`` installs a
  snapshot's cached indexes copy-on-write (two levels: the outer
  value->bucket dict, then each ``set`` bucket, are copied just before the
  first write to them; an id bucket is immutable and never copied), and
  ``index_on`` publishes indexes built while a table
  is still byte-identical to its snapshot back into that snapshot, so
  repeated restore/evaluate loops never rebuild an index from scratch.  A
  mutation "diverges" the table from its snapshot (``_origin = None``) so a
  post-snapshot write can never leak into the snapshot's cached indexes.
  Snapshot equality ignores the index cache entirely: :class:`TableSnapshot`
  is a ``dict`` subclass that keeps the cache in slots, outside ``==``.

Ordering invariant: a table's row mapping is kept in ascending-id insertion
order (``next_id`` is monotonic, in-place updates keep dict positions, and
``adopt`` preserves the dump's order), so a sorted bucket reproduces scan
order exactly.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from repro.obs.metrics import Counters
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Set,
    Tuple,
    Union,
)

#: Values that need no copying when rows cross the table boundary.  Rows made
#: only of these (the overwhelmingly common case) are copied with a plain
#: ``dict`` copy; anything else falls back to ``copy.deepcopy``.
_ATOMIC = (bool, int, float, str, bytes, type(None))


def _copy_value(value: Any) -> Any:
    if isinstance(value, _ATOMIC):
        return value
    return copy.deepcopy(value)


def _copy_row(row: Dict[str, Any]) -> Dict[str, Any]:
    """An independent copy of ``row``, deep-copying nested mutable values."""

    for value in row.values():
        if not isinstance(value, _ATOMIC):
            return {key: _copy_value(value) for key, value in row.items()}
    return dict(row)


# -- indexing switch -----------------------------------------------------------

_DEFAULT_INDEXING = True


def default_indexing() -> bool:
    """Whether new :class:`Database` instances build indexes (default on).

    Flipped at runtime by :func:`set_default_indexing`, which the tier-1
    indexed-versus-scan tests and the ``no_index`` arm of
    ``scripts/arm_identity.py`` use to compare indexed and scan-only runs.
    """

    return _DEFAULT_INDEXING


def set_default_indexing(enabled: bool) -> bool:
    """Set the indexing default for new databases; returns the old value."""

    global _DEFAULT_INDEXING
    previous = _DEFAULT_INDEXING
    _DEFAULT_INDEXING = bool(enabled)
    return previous


def _indexable(value: Any) -> bool:
    """Whether ``value`` can be a hash-index key with scan-identical results.

    Unhashable values cannot be dict keys at all; NaN-like values (``v != v``)
    identity-match in a dict but ``==``-miss in a scan, so they must take the
    scan path to preserve result identity.
    """

    try:
        hash(value)
    except TypeError:
        return False
    try:
        if value != value:
            return False
    except Exception:
        return False
    return True


# -- plans and counters --------------------------------------------------------


@dataclass(slots=True)
class QueryPlan:
    """How one query was (or would be) answered.

    ``kind`` is one of ``"get"`` (primary-key dict lookup), ``"index"``
    (hash-index bucket + residual filter), ``"scan"`` (full iteration) or
    ``"all"`` (O(1) ``len`` shortcut for condition-less count/exists).
    ``rows_examined`` counts stored rows actually inspected.  Slotted: one
    is allocated per executed query, on the hot path of every evaluation.
    """

    kind: str
    table: str
    index_column: Optional[str] = None
    rows_examined: int = 0
    rows_matched: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "table": self.table,
            "index_column": self.index_column,
            "rows_examined": self.rows_examined,
            "rows_matched": self.rows_matched,
        }


#: The query planner's counters, owned by each :class:`Database` (meanings:
#: ``docs/API.md``, "Metrics").
QUERY_COUNTERS = (
    "query.index_hits",
    "query.scans",
    "query.shortcuts",
    "query.index_builds",
    "query.rows_examined",
)


def _count_plan(counters: Counters, plan: QueryPlan) -> None:
    """Count one executed plan: its kind and the rows it examined."""

    if plan.kind == "scan":
        counters["query.scans"] += 1
    elif plan.kind == "all":
        counters["query.shortcuts"] += 1
    else:
        counters["query.index_hits"] += 1
    counters["query.rows_examined"] += plan.rows_examined


# -- snapshots -----------------------------------------------------------------

#: A hash-index bucket: the bare row id while one row holds the value, a set
#: of two or more row ids otherwise.  Id buckets are immutable, so
#: copy-on-write sharing never copies them; set buckets are copied before
#: their first write (see ``Table._bucket_shared``).
_Bucket = Union[int, Set[int]]
_Index = Dict[Any, _Bucket]


def _rebuild_table_snapshot(
    items: Dict[str, Any],
    indexes: Dict[str, _Index],
    unindexable: Set[str],
) -> "TableSnapshot":
    entry = TableSnapshot(items)
    entry.indexes = indexes
    entry.unindexable = unindexable
    return entry


class TableSnapshot(dict):
    """One table's dumped ``{"rows", "next_id"}`` state plus an index cache.

    The row mapping and its row dicts are shared with the table that dumped
    them and with every table that adopts them, so they are read-only: the
    tables copy before they write (see ``Table.dump``).  The cache lives in
    slots, *outside* the mapping items, so snapshot equality -- which
    :mod:`repro.synth.state` relies on to detect post-invoke writes and
    verify recordings -- compares only the logical state; two identical
    states with differently warmed index caches still compare equal.  The
    cache is shared copy-on-write with the tables built
    from it (see ``Table.adopt``) and is *live*: a table still byte-identical
    to this snapshot publishes newly built indexes back into it.  Its
    buckets are ``Table``'s private shape (a bare row id or a set of ids);
    the snapshot only carries them.
    """

    __slots__ = ("indexes", "unindexable")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.indexes: Dict[str, _Index] = {}
        self.unindexable: Set[str] = set()

    def __reduce__(self) -> Tuple[Any, ...]:
        # dict subclasses with __slots__ need explicit pickle/deepcopy
        # support; rebuilding through the plain-dict payload keeps both the
        # mapping items and the cache.
        return (_rebuild_table_snapshot, (dict(self), self.indexes, self.unindexable))


class Table:
    """One table: insertion-ordered rows keyed by integer id."""

    def __init__(
        self,
        name: str,
        indexing: bool = True,
        counters: Optional[Counters] = None,
    ) -> None:
        self.name = name
        self.rows: Dict[int, Dict[str, Any]] = {}
        self.next_id = 1
        #: Whether ``rows`` is also a snapshot's mapping (set by ``dump`` and
        #: ``adopt``); the first insert, delete or row replacement copies it.
        self._rows_shared = False
        #: Row dicts with ids below the watermark are shared with a snapshot
        #: unless listed in ``_private`` (already copied since the last
        #: dump/adopt); ``_writable_row`` copies them before a write.
        self._watermark = 0
        self._private: Set[int] = set()
        self.indexing = bool(indexing)
        #: The owning database's ``query.*`` counters.
        self.counters = (
            counters if counters is not None else Counters.fromkeys(QUERY_COUNTERS, 0)
        )
        #: Lazily built hash indexes: column -> value -> bucket (the bare
        #: row id of a value one row holds, else a set of row ids).
        self._indexes: Dict[str, _Index] = {}
        #: Columns whose whole index (outer dict *and* buckets) is shared
        #: with a snapshot; the first write copies the outer dict.
        self._index_shared: Set[str] = set()
        #: Columns whose outer dict is private but whose set buckets may
        #: still be shared; writes copy the touched set first.  Id buckets
        #: are immutable and never copied.
        self._bucket_shared: Set[str] = set()
        #: Columns that held an unhashable value; permanently scan-only
        #: (until ``clear``/``adopt`` resets the table).
        self._unindexable: Set[str] = set()
        #: The snapshot entry this table is still byte-identical to (set by
        #: ``adopt`` and ``dump``, cleared by any mutation).  While set,
        #: newly built indexes are published into the snapshot's cache so
        #: later restores inherit them.
        self._origin: Optional[TableSnapshot] = None

    # -- index maintenance ------------------------------------------------------

    def index_on(self, column: str) -> Optional[_Index]:
        """The hash index for ``column``, built lazily on first use.

        Maps each value to its bucket: the bare row id while one row holds
        the value, a set of row ids while two or more do.  A unique column
        thus costs one ``setdefault`` and no container per row.  Returns
        ``None`` (and remembers the column as unindexable) when any stored
        value is unhashable.  Indexes built while the table is still
        undiverged from a snapshot are published back into that snapshot so
        subsequent restores start warm.
        """

        if not self.indexing or column in self._unindexable:
            return None
        index = self._indexes.get(column)
        if index is not None:
            return index
        index = {}
        setdefault = index.setdefault
        for row_id, row in self.rows.items():
            value = row.get(column)
            try:
                bucket = setdefault(value, row_id)
            except TypeError:
                self._mark_unindexable(column)
                return None
            if bucket is not row_id:  # else: a new one-row bucket
                if isinstance(bucket, set):
                    bucket.add(row_id)
                else:
                    index[value] = {bucket, row_id}
        self._indexes[column] = index
        self.counters["query.index_builds"] += 1
        if self._origin is not None:
            self._origin.indexes[column] = index
            self._index_shared.add(column)
        return index

    def _mark_unindexable(self, column: str) -> None:
        self._unindexable.add(column)
        self._indexes.pop(column, None)
        self._index_shared.discard(column)
        self._bucket_shared.discard(column)
        if self._origin is not None:
            self._origin.unindexable.add(column)

    def _diverge(self) -> None:
        """Any mutation makes the table no longer identical to its snapshot."""

        self._origin = None

    def _writable_index(self, column: str) -> _Index:
        """The column's index, with a private outer dict (copy-on-write)."""

        index = self._indexes[column]
        if column in self._index_shared:
            index = dict(index)  # set buckets stay shared; copied on write
            self._indexes[column] = index
            self._index_shared.discard(column)
            self._bucket_shared.add(column)
        return index

    def _bucket_add(
        self, column: str, index: _Index, value: Any, row_id: int
    ) -> None:
        """Add ``row_id`` to ``value``'s bucket, widening an id to a set."""

        bucket = index.get(value)
        if bucket is None:
            index[value] = row_id
        elif not isinstance(bucket, set):
            index[value] = {bucket, row_id}
        else:
            if column in self._bucket_shared:
                bucket = set(bucket)
                index[value] = bucket
            bucket.add(row_id)

    def _bucket_discard(
        self, column: str, index: _Index, value: Any, row_id: int
    ) -> None:
        """Drop ``row_id`` from ``value``'s bucket; a set left with one id
        narrows to that id."""

        bucket = index.get(value)
        if bucket is None:
            return
        if not isinstance(bucket, set):
            if bucket == row_id:
                del index[value]
            return
        if column in self._bucket_shared:
            bucket = set(bucket)
            index[value] = bucket
        bucket.discard(row_id)
        if len(bucket) == 1:
            index[value] = bucket.pop()
        elif not bucket:
            del index[value]

    def _index_insert(self, row: Dict[str, Any]) -> None:
        row_id = row["id"]
        for column in list(self._indexes):
            index = self._writable_index(column)
            try:
                self._bucket_add(column, index, row.get(column), row_id)
            except TypeError:
                self._mark_unindexable(column)

    def _index_delete(self, row: Dict[str, Any]) -> None:
        row_id = row["id"]
        for column in list(self._indexes):
            index = self._writable_index(column)
            try:
                self._bucket_discard(column, index, row.get(column), row_id)
            except TypeError:
                self._mark_unindexable(column)

    def _index_update(
        self, row_id: int, old_row: Dict[str, Any], changes: Dict[str, Any]
    ) -> None:
        # Iterate the (usually single-key) change set, not the index map:
        # ``_mark_unindexable`` may mutate ``self._indexes`` mid-loop, and
        # ``changes`` is a local the loop can safely walk.
        indexes = self._indexes
        for column, new in changes.items():
            if column not in indexes:
                continue
            old = old_row.get(column)
            try:
                # Equal values share a bucket (dict-key equivalence), so the
                # index is already correct; nothing to move.
                if old is new or old == new:
                    continue
            except Exception:
                pass
            index = self._writable_index(column)
            try:
                self._bucket_discard(column, index, old, row_id)
                self._bucket_add(column, index, new, row_id)
            except TypeError:
                self._mark_unindexable(column)

    # -- row mutation -----------------------------------------------------------

    def _share_rows(self) -> None:
        """Mark the row mapping and every row dict as shared with a snapshot."""

        self._rows_shared = True
        self._watermark = self.next_id
        self._private = set()

    def _writable_rows(self) -> Dict[int, Dict[str, Any]]:
        """The row mapping, private to this table (copy-on-write)."""

        if self._rows_shared:
            self.rows = dict(self.rows)
            self._rows_shared = False
        return self.rows

    def _writable_row(self, row_id: int, row: Dict[str, Any]) -> Dict[str, Any]:
        """Stored ``row``, replaced by a private copy if a snapshot shares it."""

        if row_id < self._watermark and row_id not in self._private:
            row = _copy_row(row)
            self._writable_rows()[row_id] = row
            self._private.add(row_id)
        return row

    def _insert_row(self, values: Dict[str, Any]) -> Dict[str, Any]:
        self._diverge()
        if self._rows_shared:
            self._writable_rows()
        row = _copy_row(values)
        row["id"] = self.next_id
        self.rows[self.next_id] = row
        self.next_id += 1
        if self._indexes:
            self._index_insert(row)
        return row

    def insert(self, values: Dict[str, Any]) -> Dict[str, Any]:
        return _copy_row(self._insert_row(values))

    def bulk_insert(self, rows: Iterable[Dict[str, Any]]) -> int:
        """Insert many rows without per-row return copies; returns the count."""

        count = 0
        for values in rows:
            self._insert_row(values)
            count += 1
        return count

    def get(self, row_id: int) -> Optional[Dict[str, Any]]:
        row = self.rows.get(row_id)
        return _copy_row(row) if row is not None else None

    def _apply_update(
        self, row_id: int, values: Dict[str, Any]
    ) -> Optional[Dict[str, Any]]:
        """Merge ``values`` into a stored row; returns the stored dict (no copy).

        Any ``id`` key in ``values`` is stripped: a row's id is its storage
        key, and letting an update overwrite the field would make the stored
        dict diverge from its key in ``rows`` (subsequent ``get``/``delete``
        by the new id would miss).
        """

        row = self.rows.get(row_id)
        if row is None:
            return None
        # Value-identical writes leave the table byte-identical (dict-value
        # equality is exactly what snapshot comparison sees), so they skip
        # divergence, copy-on-write and index maintenance entirely.  The
        # effect *log* is unaffected: writes are logged at the model layer
        # before they reach storage.
        for key, value in values.items():
            if key == "id":
                continue
            old = row.get(key)
            try:
                if old is value or old == value:
                    continue
            except Exception:
                pass
            break
        else:
            return row
        self._diverge()
        row = self._writable_row(row_id, row)
        changes = {
            key: _copy_value(value) for key, value in values.items() if key != "id"
        }
        if self._indexes:
            self._index_update(row_id, row, changes)
        row.update(changes)
        return row

    def write_one(self, row_id: int, column: str, value: Any) -> bool:
        """Write a single column; returns whether the row existed.

        The column-accessor hot path (``post.title = ...``): a specialised
        ``_apply_update`` for the one-key case that skips the values loop,
        the changes dict and the multi-column index pass.  Semantics are
        identical, including the value-identical skip and the ``id`` guard.
        """

        if column == "id":
            return self.rows.get(row_id) is not None
        row = self.rows.get(row_id)
        if row is None:
            return False
        old = row.get(column)
        try:
            if old is value or old == value:
                return True
        except Exception:
            pass
        self._origin = None
        row = self._writable_row(row_id, row)
        if not isinstance(value, _ATOMIC):
            value = copy.deepcopy(value)
        if column in self._indexes:
            index = self._writable_index(column)
            try:
                self._bucket_discard(column, index, old, row_id)
                self._bucket_add(column, index, value, row_id)
            except TypeError:
                self._mark_unindexable(column)
        row[column] = value
        return True

    def update(self, row_id: int, values: Dict[str, Any]) -> Optional[Dict[str, Any]]:
        row = self._apply_update(row_id, values)
        return _copy_row(row) if row is not None else None

    def delete(self, row_id: int) -> bool:
        row = self.rows.get(row_id)
        if row is None:
            return False
        self._diverge()
        del self._writable_rows()[row_id]
        if self._indexes:
            self._index_delete(row)
        return True

    def all(self) -> List[Dict[str, Any]]:
        rows = [_copy_row(row) for row in self.rows.values()]
        plan = QueryPlan(
            "scan", self.name, rows_examined=len(rows), rows_matched=len(rows)
        )
        _count_plan(self.counters, plan)
        return rows

    def select(self, predicate: Callable[[Dict[str, Any]], bool]) -> List[Dict[str, Any]]:
        """Copies of the rows ``predicate`` accepts.

        The predicate sees the copy it may return, never a stored row, so a
        predicate that mutates its argument cannot reach stored state (or a
        snapshot sharing the row).
        """

        rows = [row for row in map(_copy_row, self.rows.values()) if predicate(row)]
        _count_plan(
            self.counters,
            QueryPlan(
                "scan", self.name, rows_examined=len(self.rows), rows_matched=len(rows)
            ),
        )
        return rows

    def clear(self) -> None:
        self._diverge()
        # Replace (never mutate) the row and index containers: they may be
        # shared with a live snapshot.
        self.rows = {}
        self.next_id = 1
        self._rows_shared = False
        self._watermark = 0
        self._private = set()
        self._indexes = {}
        self._index_shared = set()
        self._bucket_shared = set()
        self._unindexable = set()

    # -- planning and matching --------------------------------------------------

    def plan(self, conditions: Optional[Mapping[str, Any]] = None) -> QueryPlan:
        """The access path ``match_ids`` would take for ``conditions``.

        ``rows_examined`` is the planner's estimate (bucket size for an
        indexed plan, table size for a scan); execution overwrites it with
        the actual count.  Planning an indexed column may lazily build its
        index -- that *is* the "first indexed lookup".
        """

        conditions = conditions or {}
        if not conditions:
            return QueryPlan("scan", self.name, rows_examined=len(self.rows))
        if "id" in conditions and _indexable(conditions["id"]):
            return QueryPlan("get", self.name, index_column="id", rows_examined=1)
        if self.indexing:
            best: Optional[str] = None
            best_size = 0
            for column, value in conditions.items():
                if column == "id" or not _indexable(value):
                    continue
                index = self.index_on(column)
                if index is None:
                    continue
                bucket = index.get(value)
                if bucket is None:
                    size = 0
                else:
                    size = len(bucket) if isinstance(bucket, set) else 1
                if best is None or size < best_size:
                    best, best_size = column, size
            if best is not None:
                return QueryPlan(
                    "index", self.name, index_column=best, rows_examined=best_size
                )
        return QueryPlan("scan", self.name, rows_examined=len(self.rows))

    def match_ids(
        self,
        conditions: Optional[Mapping[str, Any]] = None,
        order: Optional[str] = None,
        descending: bool = False,
        limit: Optional[int] = None,
    ) -> Tuple[List[int], QueryPlan]:
        """Ids of matching rows plus the executed plan; copies no rows.

        Ids come back in table insertion order (identical to ascending-id
        order by the storage invariant) unless ``order`` is given, which
        sorts by that column (``None`` values last, stable) and honours
        ``descending``; ``limit`` truncates after ordering.  Unordered
        limited queries stop examining rows once the limit is reached.
        """

        # Planning is fused with execution (rather than delegated to
        # ``plan()``) so the chosen index and bucket are probed exactly once
        # per query; ``plan()`` remains the what-would-you-do API.
        cap = limit if (order is None and limit is not None and limit >= 0) else None
        examined = 0
        ids: List[int] = []
        rows = self.rows
        plan: QueryPlan
        if not conditions:
            plan = QueryPlan("scan", self.name)
            if cap is None:
                ids = list(rows)
                examined = len(ids)
            else:
                for row_id in rows:
                    if len(ids) >= cap:
                        break
                    examined += 1
                    ids.append(row_id)
        elif "id" in conditions and _indexable(conditions["id"]):
            plan = QueryPlan("get", self.name, index_column="id")
            row = rows.get(conditions["id"])
            if row is not None:
                examined = 1
                if len(conditions) == 1 or all(
                    row.get(c) == v for c, v in conditions.items() if c != "id"
                ):
                    ids.append(row["id"])
        else:
            best: Optional[str] = None
            best_bucket: Any = None
            best_size = 0
            if self.indexing:
                indexes = self._indexes
                for column, value in conditions.items():
                    if column == "id":
                        continue
                    index = indexes.get(column)
                    if index is None:
                        index = self.index_on(column)
                        if index is None:
                            continue
                    # Inlined ``_indexable``: probing the index hashes the
                    # value anyway (TypeError -> unhashable, scan path), and
                    # NaN-like values (``v != v``) identity-match in a dict
                    # but ``==``-miss in a scan, so they must scan too.
                    try:
                        bucket = index.get(value)
                        if value != value:
                            continue
                    except Exception:
                        continue
                    if bucket is None:
                        size = 0
                    else:
                        size = len(bucket) if isinstance(bucket, set) else 1
                    if best is None or size < best_size:
                        best, best_bucket, best_size = column, bucket, size
                        # A unit (or empty) bucket cannot be beaten; skip
                        # probing the remaining condition columns.
                        if size <= 1:
                            break
            if best is not None:
                plan = QueryPlan("index", self.name, index_column=best)
                if best_bucket is not None:
                    single = len(conditions) == 1
                    ordered = (
                        sorted(best_bucket)
                        if isinstance(best_bucket, set)
                        else (best_bucket,)
                    )
                    for row_id in ordered:
                        if cap is not None and len(ids) >= cap:
                            break
                        row = rows[row_id]
                        examined += 1
                        if single or all(
                            row.get(c) == v
                            for c, v in conditions.items()
                            if c != best
                        ):
                            ids.append(row_id)
            else:
                plan = QueryPlan("scan", self.name)
                for row_id, row in rows.items():
                    if cap is not None and len(ids) >= cap:
                        break
                    examined += 1
                    if all(row.get(c) == v for c, v in conditions.items()):
                        ids.append(row_id)
        if order is not None:
            rows = self.rows
            ids.sort(
                key=lambda row_id: (
                    rows[row_id].get(order) is None,
                    rows[row_id].get(order),
                )
            )
            if descending:
                ids.reverse()
        if limit is not None:
            ids = ids[:limit]
        plan.rows_examined = examined
        plan.rows_matched = len(ids)
        _count_plan(self.counters, plan)
        return ids, plan

    # -- snapshot support -------------------------------------------------------

    def dump(self) -> TableSnapshot:
        """This table's state as a ``{"rows", "next_id"}`` snapshot entry.

        Copies no row: the entry takes the live row mapping, row dicts
        included, and the table marks both shared, so its next structural
        write copies the mapping and its next write to each existing row
        copies that row (see ``_writable_rows``/``_writable_row``).  The
        entry also carries the current index cache (shared, marked
        copy-on-write on our side) and becomes the table's ``_origin``: until
        the next mutation, indexes built here are published into the entry.
        """

        entry = TableSnapshot({"rows": self.rows, "next_id": self.next_id})
        entry.indexes = dict(self._indexes)
        entry.unindexable = set(self._unindexable)
        self._share_rows()
        self._index_shared = set(self._indexes)
        self._bucket_shared -= self._index_shared
        self._origin = entry
        return entry

    def adopt(self, entry: Mapping[str, Any]) -> None:
        """Install snapshot state, sharing rows and indexes copy-on-write.

        Copies no row: the snapshot's row mapping is taken by reference and
        marked shared like a fresh ``dump``, so the entry stays valid across
        any number of restores.  The snapshot's cached indexes are installed
        the same way -- shared until the first index write -- so
        restore/evaluate loops stay warm.
        """

        if self._origin is entry:
            # Still byte-identical to this exact snapshot entry: every
            # mutation clears ``_origin`` (``_diverge``), and the only
            # changes that survive with it set -- lazily built indexes,
            # unindexable markings -- are published into the entry itself.
            # Restore-evaluate loops over read-only programs hit this path
            # every iteration and skip the container rebuilds entirely.
            return
        self.rows = entry["rows"]
        self.next_id = entry["next_id"]
        self._share_rows()
        indexes = getattr(entry, "indexes", None) or {}
        self._indexes = dict(indexes)
        self._index_shared = set(indexes)
        self._bucket_shared = set()
        self._unindexable = set(getattr(entry, "unindexable", None) or ())
        self._origin = entry if isinstance(entry, TableSnapshot) else None

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Dict[str, Any]]:
        return iter(self.all())


class Database:
    """A named collection of tables with a reset hook and a query planner."""

    def __init__(self, indexing: Optional[bool] = None) -> None:
        self._tables: Dict[str, Table] = {}
        self._globals: Dict[str, Any] = {}
        #: Whether ``_globals`` is currently shared with a snapshot
        #: (copy-on-write: the next write replaces it with a private copy).
        self._globals_shared = False
        self.indexing = default_indexing() if indexing is None else bool(indexing)
        #: Query-planner counters (``query.*``), shared by every table.
        self.counters = Counters.fromkeys(QUERY_COUNTERS, 0)
        #: The most recently executed plan (``explain`` for the last query).
        self.last_plan: Optional[QueryPlan] = None

    # -- tables ---------------------------------------------------------------

    def table(self, name: str) -> Table:
        table = self._tables.get(name)
        if table is None:
            table = Table(name, indexing=self.indexing, counters=self.counters)
            self._tables[name] = table
        return table

    def table_names(self) -> List[str]:
        return sorted(self._tables)

    def set_indexing(self, enabled: bool) -> None:
        """Enable/disable indexing for this database and its tables.

        Disabling drops all index state so subsequent queries take the scan
        path with no stale caches.
        """

        self.indexing = bool(enabled)
        for table in self._tables.values():
            table.indexing = self.indexing
            if not self.indexing:
                table._indexes = {}
                table._index_shared = set()
                table._bucket_shared = set()
                table._unindexable = set()

    def insert(self, table: str, **values: Any) -> Dict[str, Any]:
        return self.table(table).insert(values)

    def insert_id(self, table: str, values: Dict[str, Any]) -> int:
        """Insert ``values`` and return only the assigned id (no row copy).

        The model-creation path: the caller already owns a complete values
        dict, so the ``insert`` return copy would duplicate what it holds.
        """

        return self.table(table)._insert_row(values)["id"]

    def bulk_insert(self, table: str, rows: Iterable[Dict[str, Any]]) -> int:
        return self.table(table).bulk_insert(rows)

    def get(self, table: str, row_id: int) -> Optional[Dict[str, Any]]:
        return self.table(table).get(row_id)

    def update(self, table: str, row_id: int, **values: Any) -> Optional[Dict[str, Any]]:
        return self.table(table).update(row_id, values)

    def write(self, table: str, row_id: int, values: Dict[str, Any]) -> bool:
        """Merge ``values`` into a stored row without copying it back.

        The column-accessor write path: the caller already holds the values
        it wrote, so the ``update`` return copy would be discarded (and the
        dict is taken positionally, skipping a kwargs repack).  Returns
        whether the row existed.
        """

        return self.table(table)._apply_update(row_id, values) is not None

    def write_one(self, table: str, row_id: int, column: str, value: Any) -> bool:
        """Write a single column (the accessor path); no dict, no row copy."""

        return self.table(table).write_one(row_id, column, value)

    def delete(self, table: str, row_id: int) -> bool:
        return self.table(table).delete(row_id)

    def all(self, table: str) -> List[Dict[str, Any]]:
        return self.table(table).all()

    def select(
        self, table: str, predicate: Callable[[Dict[str, Any]], bool]
    ) -> List[Dict[str, Any]]:
        return self.table(table).select(predicate)

    # -- planned queries -------------------------------------------------------

    def query(
        self,
        table: str,
        conditions: Optional[Mapping[str, Any]] = None,
        order: Optional[str] = None,
        descending: bool = False,
        limit: Optional[int] = None,
    ) -> List[Dict[str, Any]]:
        """Copied rows matching an equality conjunction, planned via indexes.

        The single entry point the Relation layer pushes its conditions,
        order and limit down into; only the matching rows are copied.
        """

        t = self.table(table)
        ids, plan = t.match_ids(
            conditions, order=order, descending=descending, limit=limit
        )
        self.last_plan = plan
        rows = t.rows
        return [_copy_row(rows[row_id]) for row_id in ids]

    def match_ids(
        self,
        table: str,
        conditions: Optional[Mapping[str, Any]] = None,
        order: Optional[str] = None,
        descending: bool = False,
        limit: Optional[int] = None,
    ) -> List[int]:
        """Matching row ids without copying any rows."""

        ids, plan = self.table(table).match_ids(
            conditions, order=order, descending=descending, limit=limit
        )
        self.last_plan = plan
        return ids

    def where(self, table: str, conditions: Dict[str, Any]) -> List[Dict[str, Any]]:
        """Rows matching an equality conjunction over ``conditions``."""

        return self.query(table, conditions)

    def count(
        self,
        table: str,
        conditions: Optional[Dict[str, Any]] = None,
        limit: Optional[int] = None,
    ) -> int:
        """Matching-row count; copies no rows.

        Condition-less unlimited counts are O(1); otherwise the planner
        matches ids only.
        """

        t = self.table(table)
        if not conditions and limit is None:
            self.last_plan = QueryPlan("all", table, rows_matched=len(t))
            _count_plan(self.counters, self.last_plan)
            return len(t)
        ids, plan = t.match_ids(conditions, limit=limit)
        self.last_plan = plan
        return len(ids)

    def exists(
        self, table: str, conditions: Optional[Dict[str, Any]] = None
    ) -> bool:
        """Whether any row matches; stops at the first match, copies nothing."""

        t = self.table(table)
        if not conditions:
            self.last_plan = QueryPlan("all", table, rows_matched=min(len(t), 1))
            _count_plan(self.counters, self.last_plan)
            return len(t) > 0
        ids, plan = t.match_ids(conditions, limit=1)
        self.last_plan = plan
        return bool(ids)

    def pluck(
        self,
        table: str,
        column: str,
        conditions: Optional[Mapping[str, Any]] = None,
        order: Optional[str] = None,
        descending: bool = False,
        limit: Optional[int] = None,
    ) -> List[Any]:
        """One column's values from matching rows; copies values, not rows."""

        t = self.table(table)
        ids, plan = t.match_ids(
            conditions, order=order, descending=descending, limit=limit
        )
        self.last_plan = plan
        rows = t.rows
        return [_copy_value(rows[row_id].get(column)) for row_id in ids]

    def update_where(
        self,
        table: str,
        conditions: Optional[Mapping[str, Any]] = None,
        values: Optional[Mapping[str, Any]] = None,
        order: Optional[str] = None,
        descending: bool = False,
        limit: Optional[int] = None,
    ) -> int:
        """Update all matching rows in place; returns the matched count.

        Operates directly on matched ids -- no row materialization and no
        per-row re-lookup.
        """

        t = self.table(table)
        ids, plan = t.match_ids(
            conditions, order=order, descending=descending, limit=limit
        )
        self.last_plan = plan
        values = dict(values or {})
        for row_id in ids:
            t._apply_update(row_id, values)
        return len(ids)

    def delete_where(
        self,
        table: str,
        conditions: Optional[Mapping[str, Any]] = None,
        order: Optional[str] = None,
        descending: bool = False,
        limit: Optional[int] = None,
    ) -> int:
        """Delete all matching rows; returns the matched count."""

        t = self.table(table)
        ids, plan = t.match_ids(
            conditions, order=order, descending=descending, limit=limit
        )
        self.last_plan = plan
        for row_id in ids:
            t.delete(row_id)
        return len(ids)

    def explain(
        self, table: str, conditions: Optional[Mapping[str, Any]] = None
    ) -> QueryPlan:
        """The plan ``query`` would take, without executing or recording it."""

        return self.table(table).plan(dict(conditions or {}))

    # -- global key/value state (SiteSetting-style globals) -------------------

    def get_global(self, key: str, default: Any = None) -> Any:
        return self._globals.get(key, default)

    def _unshare_globals(self) -> None:
        """Give the database a private globals dict before mutating it."""

        if self._globals_shared:
            self._globals = dict(self._globals)
            self._globals_shared = False

    def set_global(self, key: str, value: Any) -> Any:
        self._unshare_globals()
        self._globals[key] = value
        return value

    def delete_global(self, key: str) -> None:
        self._unshare_globals()
        self._globals.pop(key, None)

    def globals(self) -> Dict[str, Any]:
        return dict(self._globals)

    # -- lifecycle -------------------------------------------------------------

    def reset(self) -> None:
        """Clear every table and global; used before each spec run.

        The globals dict is *replaced*, never cleared in place: it may be
        shared copy-on-write with a live snapshot.
        """

        for table in self._tables.values():
            table.clear()
        self._globals = {}
        self._globals_shared = False

    def _snapshot_globals(self) -> Dict[str, Any]:
        """The globals for a snapshot, shared copy-on-write when possible.

        When every value is atomic (the SiteSetting-style common case) the
        live dict itself is handed to the snapshot and marked shared, so
        snapshotting is O(1); the next ``set_global``/``delete_global``
        replaces it with a private copy.  Any mutable value forces the
        legacy eager copy -- such a value could be mutated in place through
        a ``get_global`` reference, which dict-level sharing cannot see.
        """

        if all(isinstance(value, _ATOMIC) for value in self._globals.values()):
            self._globals_shared = True
            return self._globals
        return {key: _copy_value(value) for key, value in self._globals.items()}

    def snapshot(self) -> Dict[str, Any]:
        """The database state, shared copy-on-write with the live tables.

        Covers every table's rows *and* ``next_id`` (so a restore never
        reuses ids handed out before a delete) plus the globals;
        ``restore`` makes the pair an exact round-trip.  No later write to
        the database changes the snapshot, yet taking it copies no row: it
        costs O(tables + indexed columns), and later writes pay for the
        copies (see ``Table.dump``).  Treat it as read-only.  Pristine tables
        (no rows, no ids ever assigned) are omitted so snapshots compare
        equal across auto-created-but-unused tables.  Table entries are
        :class:`TableSnapshot` objects carrying the index cache out-of-band;
        snapshot equality sees only the logical state.
        """

        return {
            "tables": {
                name: table.dump()
                for name, table in self._tables.items()
                if table.rows or table.next_id != 1
            },
            "globals": self._snapshot_globals(),
        }

    def restore(self, snap: Dict[str, Any]) -> None:
        """Restore a ``snapshot()`` by copy-on-write table swaps.

        Copies no row: each table adopts its entry's row mapping by
        reference (``Table.adopt``), so a restore costs O(tables + indexed
        columns).  Tables created after the snapshot was captured are
        cleared, mirroring what re-running ``reset`` plus the seed closure
        would leave behind.  The snapshot stays valid across any number of
        restores: like the tables, the globals dict is adopted by reference
        (and marked shared) when all its values are atomic, copied eagerly
        otherwise.  Cached indexes ride along with each table entry, so no
        restore ever forces an index rebuild by itself.
        """

        saved = snap["tables"]
        for name, table in self._tables.items():
            if name not in saved and (table.rows or table.next_id != 1):
                table.clear()
        for name, entry in saved.items():
            self.table(name).adopt(entry)
        snapshot_globals = snap["globals"]
        if self._globals is snapshot_globals and self._globals_shared:
            return
        if all(isinstance(value, _ATOMIC) for value in snapshot_globals.values()):
            self._globals = snapshot_globals
            self._globals_shared = True
        else:
            self._globals = {
                key: _copy_value(value) for key, value in snapshot_globals.items()
            }
            self._globals_shared = False

    def total_rows(self) -> int:
        return sum(len(table) for table in self._tables.values())
