"""Shared plumbing for the benchmark application substrates."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Type as PyType

from repro.activerecord.database import Database
from repro.activerecord.model import Model
from repro.corelib.kvstore import KeyValueStore
from repro.typesys.class_table import ClassTable


@dataclass
class AppContext:
    """One freshly-built application: database, models, settings, class table.

    ``models`` and ``stores`` are keyed by class-table name (``"Post"``,
    ``"SiteSetting"`` ...).  ``reset`` clears every table and global and is
    installed as the synthesis problem's global-state reset hook.
    """

    name: str
    database: Database
    class_table: ClassTable
    models: Dict[str, PyType[Model]] = field(default_factory=dict)
    stores: Dict[str, PyType[KeyValueStore]] = field(default_factory=dict)

    def __getitem__(self, name: str) -> Any:
        if name in self.models:
            return self.models[name]
        if name in self.stores:
            return self.stores[name]
        raise KeyError(f"{self.name} has no model or store named {name!r}")

    def reset(self) -> None:
        self.database.reset()

    def library_method_count(self) -> int:
        return len(self.class_table.synthesis_methods())
