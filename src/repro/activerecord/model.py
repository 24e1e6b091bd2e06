"""Model classes: schema-driven records with effect-logging accessors.

A model class describes one table.  Reading a column logs a *read* effect on
the region ``Model.column`` and writing a column logs a *write* effect on the
same region -- exactly the effect annotations RbSyn generates for
ActiveRecord's metaprogrammed column accessors (Section 5.1, "Annotations for
Benchmarks").  Query-style class methods (``where``, ``exists``, ``first``,
``create`` ...) log coarser class-level effects because which columns they
touch depends on their arguments (Section 4, "Effect Annotations").

Models can be declared in two ways:

* declaratively, subclassing :class:`Model` with a ``schema`` dict and
  binding a database with ``Model.bind(db)``; or
* dynamically with :func:`create_model`, which the app substrates use so
  that every benchmark run gets fresh, isolated classes.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Type as PyType

from repro.lang import types as T
from repro.lang.effects import Effect
from repro.interp.effect_log import captures_active, log_effect
from repro.interp.errors import SynRuntimeError
from repro.activerecord.database import Database


class Model:
    """Base class of all ORM models."""

    #: Column name -> lambda-syn type (``id`` is implicit).
    schema: Dict[str, T.Type] = {}
    #: Name used in the class table and effect regions; defaults to the class name.
    model_name: str = "Model"
    #: Table name in the database; defaults to the lowercased model name + "s".
    table_name: str = "models"
    #: Bound database; set by :meth:`bind` or :func:`create_model`.
    _database: Optional[Database] = None

    # -- class-table integration ----------------------------------------------

    @classmethod
    def syn_singleton_name(cls) -> str:
        """Dispatch name when the class object itself is a receiver."""

        return cls.model_name

    def syn_class_name(self) -> str:
        """Dispatch name when an instance is a receiver."""

        return type(self).model_name

    # -- configuration ---------------------------------------------------------

    @classmethod
    def bind(cls, database: Database) -> None:
        cls._database = database

    @classmethod
    def database(cls) -> Database:
        if cls._database is None:
            raise SynRuntimeError(f"model {cls.model_name} is not bound to a database")
        return cls._database

    @classmethod
    def columns(cls) -> List[str]:
        return ["id"] + list(cls.schema.keys())

    @classmethod
    def column_type(cls, column: str) -> T.Type:
        if column == "id":
            return T.INT
        return cls.schema[column]

    # -- effect helpers ---------------------------------------------------------

    @classmethod
    def _log_read(cls, column: Optional[str] = None) -> None:
        if captures_active():
            log_effect(read=Effect.region(cls.model_name, column))

    @classmethod
    def _log_write(cls, column: Optional[str] = None) -> None:
        if captures_active():
            log_effect(write=Effect.region(cls.model_name, column))

    # -- class-level query API ---------------------------------------------------

    @classmethod
    def create(cls, **values: Any) -> "Model":
        cls._check_columns(values)
        cls._log_write(None)
        defaults = dict.fromkeys(cls.schema)
        defaults.update(values)
        # The storage layer copies ``defaults`` into the stored row; this
        # fresh dict (plus the assigned id) then *is* the new instance's
        # attribute dict -- no round-trip copy of the row.
        defaults["id"] = cls.database().insert_id(cls.table_name, defaults)
        return cls._adopt_row(defaults)

    @classmethod
    def where(cls, **conditions: Any) -> "Relation":
        from repro.activerecord.relation import Relation

        cls._check_columns(conditions)
        cls._log_read(None)
        return Relation(cls, dict(conditions))

    @classmethod
    def all_relation(cls) -> "Relation":
        from repro.activerecord.relation import Relation

        cls._log_read(None)
        return Relation(cls, {})

    @classmethod
    def first(cls) -> Optional["Model"]:
        cls._log_read(None)
        rows = cls.database().query(cls.table_name, limit=1)
        return cls._adopt_row(rows[0]) if rows else None

    @classmethod
    def last(cls) -> Optional["Model"]:
        cls._log_read(None)
        db = cls.database()
        ids = db.match_ids(cls.table_name)
        if not ids:
            return None
        row = db.get(cls.table_name, ids[-1])
        return cls._adopt_row(row) if row is not None else None

    @classmethod
    def exists(cls, **conditions: Any) -> bool:
        cls._check_columns(conditions)
        cls._log_read(None)
        return cls.database().exists(cls.table_name, conditions)

    @classmethod
    def find(cls, row_id: int) -> Optional["Model"]:
        cls._log_read(None)
        row = cls.database().get(cls.table_name, row_id)
        return cls._adopt_row(row) if row is not None else None

    @classmethod
    def find_by(cls, **conditions: Any) -> Optional["Model"]:
        cls._check_columns(conditions)
        cls._log_read(None)
        rows = cls.database().query(cls.table_name, conditions, limit=1)
        return cls._adopt_row(rows[0]) if rows else None

    @classmethod
    def count(cls, **conditions: Any) -> int:
        cls._log_read(None)
        return cls.database().count(cls.table_name, conditions or None)

    @classmethod
    def all(cls) -> List["Model"]:
        cls._log_read(None)
        return [cls._adopt_row(row) for row in cls.database().all(cls.table_name)]

    @classmethod
    def delete_all(cls) -> int:
        cls._log_write(None)
        return cls.database().delete_where(cls.table_name)

    @classmethod
    def _check_columns(cls, values: Dict[str, Any]) -> None:
        # The column set is immutable after class creation; cache it on the
        # class itself (``__dict__`` lookup, not inheritance, so subclasses
        # with their own schema never see a parent's cache).
        columns = cls.__dict__.get("_column_set")
        if columns is None:
            columns = frozenset(cls.columns())
            cls._column_set = columns
        if values.keys() <= columns:
            return
        unknown = set(values) - columns
        raise SynRuntimeError(
            f"unknown column(s) {sorted(unknown)} for {cls.model_name}"
        )

    # -- instances ---------------------------------------------------------------

    def __init__(self, attributes: Dict[str, Any]) -> None:
        object.__setattr__(self, "_attributes", dict(attributes))

    @classmethod
    def _adopt_row(cls, row: Dict[str, Any]) -> "Model":
        """Wrap a row dict the caller cedes ownership of (no re-copy).

        Query methods receive independent row copies from the database
        layer; re-copying them in ``__init__`` would be pure waste, so they
        adopt instead.  Never pass a dict that is still referenced elsewhere.
        """

        instance = cls.__new__(cls)
        object.__setattr__(instance, "_attributes", row)
        return instance

    @property
    def attributes(self) -> Dict[str, Any]:
        return dict(self._attributes)

    def __getattr__(self, name: str) -> Any:
        # Only called when normal lookup fails, i.e. for column reads.
        cls = type(self)
        if name in cls.schema or name == "id":
            cls._log_read(name)
            return self._attributes.get(name)
        raise AttributeError(
            f"{cls.model_name} has no attribute or column {name!r}"
        )

    def __setattr__(self, name: str, value: Any) -> None:
        cls = type(self)
        if name.startswith("_"):
            object.__setattr__(self, name, value)
            return
        if name in cls.schema:
            self.write_column(name, value)
            return
        object.__setattr__(self, name, value)

    def read_column(self, name: str) -> Any:
        """Explicit column read (same effect logging as attribute access)."""

        type(self)._log_read(name)
        return self._attributes.get(name)

    def write_column(self, name: str, value: Any) -> Any:
        """Write one column, persisting to the database (``Post#title=``)."""

        cls = type(self)
        if name not in cls.schema:
            raise SynRuntimeError(f"unknown column {name!r} for {cls.model_name}")
        cls._log_write(name)
        self._attributes[name] = value
        row_id = self._attributes.get("id")
        if row_id is not None:
            cls.database().write_one(cls.table_name, row_id, name, value)
        return value

    def update(self, **values: Any) -> "Model":
        """Write several columns at once (ActiveRecord's ``update!``)."""

        type(self)._check_columns(values)
        for name, value in values.items():
            self.write_column(name, value)
        return self

    def increment(self, column: str, by: int = 1) -> "Model":
        """ActiveRecord's ``increment!``: bump a numeric column and persist."""

        current = self._attributes.get(column) or 0
        self.write_column(column, current + by)
        return self

    def decrement(self, column: str, by: int = 1) -> "Model":
        """ActiveRecord's ``decrement!``: lower a numeric column and persist."""

        return self.increment(column, -by)

    def reload(self) -> "Model":
        """Re-read every column from the database (reads the whole record)."""

        cls = type(self)
        log_effect(read=Effect.region(cls.model_name))
        row_id = self._attributes.get("id")
        if row_id is not None:
            row = cls.database().get(cls.table_name, row_id)
            if row is not None:
                object.__setattr__(self, "_attributes", dict(row))
        return self

    def save(self) -> bool:
        cls = type(self)
        cls._log_write(None)
        row_id = self._attributes.get("id")
        if row_id is None:
            row = cls.database().insert(cls.table_name, **{
                k: v for k, v in self._attributes.items() if k != "id"
            })
            object.__setattr__(self, "_attributes", dict(row))
        else:
            cls.database().update(
                cls.table_name,
                row_id,
                **{k: v for k, v in self._attributes.items() if k != "id"},
            )
        return True

    def destroy(self) -> "Model":
        cls = type(self)
        cls._log_write(None)
        row_id = self._attributes.get("id")
        if row_id is not None:
            cls.database().delete(cls.table_name, row_id)
        return self

    def persisted(self) -> bool:
        cls = type(self)
        cls._log_read(None)
        row_id = self._attributes.get("id")
        if row_id is None:
            return False
        return cls.database().get(cls.table_name, row_id) is not None

    # -- equality -----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Model):
            return NotImplemented
        return (
            type(other).model_name == type(self).model_name
            and other._attributes.get("id") == self._attributes.get("id")
            and other._attributes.get("id") is not None
        )

    def __hash__(self) -> int:
        return hash((type(self).model_name, self._attributes.get("id")))

    def __repr__(self) -> str:
        cols = ", ".join(f"{k}={v!r}" for k, v in self._attributes.items())
        return f"#<{type(self).model_name} {cols}>"


def create_model(
    name: str,
    schema: Dict[str, T.Type],
    database: Optional[Database] = None,
    table_name: Optional[str] = None,
) -> PyType[Model]:
    """Create a fresh model class bound to ``database``.

    The app substrates use this factory so each benchmark run works on its
    own isolated classes and tables.
    """

    attrs: Dict[str, Any] = {
        "schema": dict(schema),
        "model_name": name,
        "table_name": table_name or (name.lower() + "s"),
        "_database": database,
    }
    # Column accessors are generated as properties so they shadow any
    # same-named helpers inherited from Model (e.g. a ``count`` column must
    # win over the ``count`` query classmethod on instances).
    for column in schema:
        attrs[column] = _column_property(column)
    return type(name, (Model,), attrs)


def _column_property(column: str) -> property:
    def reader(self: Model):
        return self.read_column(column)

    def writer(self: Model, value: Any) -> None:
        self.write_column(column, value)

    return property(reader, writer, doc=f"Column accessor for {column!r}.")
