"""An in-memory ActiveRecord-style ORM.

The paper's benchmarks synthesize methods of Ruby on Rails applications whose
side effects are database reads and writes performed through ActiveRecord.
We reproduce the slice of ActiveRecord those benchmarks exercise:

* :mod:`repro.activerecord.database` -- a multi-table in-memory store with
  auto-incrementing primary keys and a reset hook (RbSyn clears the database
  before every spec run);
* :mod:`repro.activerecord.model` -- model classes with schema-driven column
  accessors and mutators that log read/write effects, plus the usual class
  methods (``create``, ``where``, ``exists?``, ``find_by`` ...);
* :mod:`repro.activerecord.relation` -- lazy query relations supporting
  chaining (``where``), materialization (``first``, ``to_a``, ``count``) and
  predicates (``exists?``, ``empty?``);
* :mod:`repro.activerecord.annotations` -- generation of
  :class:`~repro.typesys.class_table.MethodSig` entries (types, effects,
  comp types and implementations) for every model, mirroring how RbSyn
  extends RDL's metaprogramming-generated annotations with effects.
"""

from repro.activerecord.database import (
    Database,
    QueryPlan,
    TableSnapshot,
    default_indexing,
    set_default_indexing,
)
from repro.activerecord.model import Model, create_model
from repro.activerecord.relation import Relation
from repro.activerecord.annotations import register_activerecord, register_model

__all__ = [
    "Database",
    "QueryPlan",
    "TableSnapshot",
    "default_indexing",
    "set_default_indexing",
    "Model",
    "create_model",
    "Relation",
    "register_activerecord",
    "register_model",
]
