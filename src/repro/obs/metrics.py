"""The engine's one counter namespace.

Every unit of work the engine counts lives in one flat :class:`Counters`
dict keyed ``layer.name`` -- ``search.expansions``, ``state.restores``,
``query.index_hits``.  Each counter has exactly one owner, which declares
its keys (at zero) and increments them where the work happens:

* ``search.*`` -- the run's search (a fresh ``Counters`` per run), except
  ``search.reset_replays``, which the problem counts;
* ``state.*`` -- the snapshot manager
  (:class:`~repro.synth.state.StateManager`);
* ``query.*`` -- the database's query planner
  (:class:`~repro.activerecord.database.Database`).

``docs/API.md`` ("Metrics") lists every key with its meaning.  The
snapshot manager, database and problem outlive a run, so a run reports
their work as a :class:`Baseline` delta.  Counts from several runs
(a benchmark's repetitions, wherever each ran) fold with
:meth:`Counters.merge`.

``SynthesisResult.metrics`` is the schema-versioned JSON-able view of a
run's counters: ``{"schema_version": 3, "stats": counters.as_dict()}``.
Where the time went is the trace's business (:mod:`repro.obs.trace`).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

#: Bump when the ``SynthesisResult.metrics`` dict changes shape.
METRICS_SCHEMA_VERSION = 3


class Counters(dict):
    """Flat engine counters keyed ``layer.name``; a missing key reads 0.

    A plain dict underneath, so an increment is one dict update with a
    constant key (``counters["search.pushed"] += 1``).
    """

    __slots__ = ()

    def __missing__(self, key: str) -> int:
        return 0

    def copy(self) -> "Counters":
        return Counters(self)

    def since(self, before: Mapping[str, int]) -> "Counters":
        """What was counted after ``before`` was copied (every key kept)."""

        return Counters(
            {key: value - before.get(key, 0) for key, value in self.items()}
        )

    def merge(self, other: Mapping[str, int]) -> None:
        """Add ``other``'s counts to this one's (new keys start at 0)."""

        for key, value in other.items():
            self[key] += value

    def as_dict(self) -> Dict[str, Dict[str, int]]:
        """The counters nested per layer: ``{layer: {name: value}}``."""

        nested: Dict[str, Dict[str, int]] = {}
        for key in sorted(self):
            layer, _, name = key.partition(".")
            nested.setdefault(layer, {})[name] = self[key]
        return nested


class Baseline:
    """Several owners' counters at one moment; :meth:`delta` is what they
    have counted since, summed into one :class:`Counters`.  A run takes one
    over the long-lived owners it touches when it starts."""

    def __init__(self, *owners: Optional[Counters]) -> None:
        self._owners = [(c, c.copy()) for c in owners if c is not None]

    def delta(self) -> Counters:
        total = Counters()
        for counters, before in self._owners:
            total.merge(counters.since(before))
        return total
