"""Engine counters and per-phase timings behind one export path.

Every unit of work the engine counts lives in one flat :class:`Counters`
dict keyed ``layer.name`` -- ``search.expansions``, ``cache.spec_hits``,
``state.restores``, ``query.index_hits``.  Each counter has exactly one
owner, which declares its keys (at zero) and increments them where the work
happens:

* ``search.*`` -- the run's search (a fresh ``Counters`` per run), except
  ``search.reset_replays``, which the problem counts;
* ``cache.*`` -- the evaluation memo (:class:`~repro.synth.cache.SynthCache`);
* ``state.*`` -- the snapshot manager
  (:class:`~repro.synth.state.StateManager`);
* ``query.*`` -- the database's query planner
  (:class:`~repro.activerecord.database.Database`).

``docs/API.md`` ("Metrics") lists every key with its meaning.  The memo,
snapshot manager, database and problem outlive a run, so a run reports their
work as a :class:`Baseline` delta.  Counts from several runs
(a benchmark's repetitions, wherever each ran) fold with
:meth:`Counters.merge`.

:class:`MetricsRegistry` adds per-phase wall-time histograms;
``snapshot(counters)`` is the schema-versioned JSON-able dict on
``SynthesisResult.metrics`` (``phases`` plus ``stats``, the counters nested
per layer), and :func:`merge_snapshots` folds two snapshots.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional

#: Bump when the snapshot dict changes shape.
METRICS_SCHEMA_VERSION = 2


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


class Histogram:
    """Streaming summary of observed durations (seconds)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def as_dict(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "total_s": self.total,
            "min_s": self.min,
            "max_s": self.max,
            "mean_s": (self.total / self.count) if self.count else None,
        }


class MetricsRegistry:
    """Per-phase wall-time histograms of one run."""

    def __init__(self) -> None:
        self._histograms: Dict[str, Histogram] = {}

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def observe_phase(self, phase: str, seconds: float) -> None:
        """Record one wall-time observation for a pipeline phase."""

        self.histogram(phase).observe(seconds)

    def snapshot(self, counters: Optional[Counters] = None) -> Dict[str, Any]:
        """One JSON-able dict of the phase timings and ``counters``."""

        return {
            "schema_version": METRICS_SCHEMA_VERSION,
            "phases": {
                name: hist.as_dict()
                for name, hist in sorted(self._histograms.items())
            },
            "stats": counters.as_dict() if counters is not None else {},
        }


def _merge_histogram(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    count = a["count"] + b["count"]
    total = a["total_s"] + b["total_s"]
    mins = [m for m in (a["min_s"], b["min_s"]) if m is not None]
    maxs = [m for m in (a["max_s"], b["max_s"]) if m is not None]
    return {
        "count": count,
        "total_s": total,
        "min_s": min(mins) if mins else None,
        "max_s": max(maxs) if maxs else None,
        "mean_s": (total / count) if count else None,
    }


def merge_snapshots(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    """Fold two snapshots: counters sum, histograms combine."""

    phases = dict(a.get("phases", {}))
    for name, hist in b.get("phases", {}).items():
        phases[name] = (
            _merge_histogram(phases[name], hist) if name in phases else dict(hist)
        )
    stats: Dict[str, Dict[str, int]] = {
        layer: dict(names) for layer, names in a.get("stats", {}).items()
    }
    for layer, names in b.get("stats", {}).items():
        section = stats.setdefault(layer, {})
        for name, value in names.items():
            section[name] = section.get(name, 0) + value
    return {
        "schema_version": METRICS_SCHEMA_VERSION,
        "phases": phases,
        "stats": stats,
    }
