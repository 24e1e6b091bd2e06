"""The synthesis performance subsystem: spec-outcome memoization.

Section 4 of the paper observes that once solution reuse kicks in, "the
bottleneck becomes the number of unique paths, not the number of tests".
This module realises that observation as a :class:`SynthCache` memo for spec
and guard evaluation shared by one synthesis run, keyed on ``(program, spec,
effect_precision)``.  Identical ``(program, spec)`` pairs are executed
repeatedly across solution reuse (``synthesizer._reuse_solution``), guard
search (``generate_guard``'s ``initial_candidates`` loop) and the merge
phase's ordering/validation loops; the memo returns the recorded
:class:`~repro.synth.goal.SpecOutcome` instead of re-running ``reset() +
Interpreter() + setup()``.

The ``program`` of a key is the program node itself: a node hashes in O(1)
from its construction-time hash and compares structurally, so a lookup
needs no normalization pass and an equal program built anew hits.  A
let-renamed program is a different key; no hit measured on the end-to-end
benchmarks needed alpha-equivalence.

Soundness rests on spec evaluation being deterministic: ``evaluate_spec``
always calls ``problem.reset()`` first, so an outcome depends only on the
program, the spec and the effect-annotation precision of the class table.
If external code changes what ``reset`` restores (for example by mutating
the seed data a reset closure re-applies), the memo must be flushed --
either via :meth:`SynthCache.invalidate` directly or via
:meth:`repro.synth.goal.SynthesisProblem.invalidate_caches`, which notifies
every cache registered against the problem.  Replacing the reset function
through :meth:`~repro.synth.goal.SynthesisProblem.rebind_reset` invalidates
automatically.

A *disabled* cache (``SynthConfig(cache_spec_outcomes=False)``) keeps no
entry: every lookup misses, so every evaluation executes.  It is the
``no_memo`` arm of ``scripts/arm_identity.py``, which checks that the memo
never changes a synthesized program.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Optional, Tuple

from repro.lang import ast as A
from repro.obs.metrics import Counters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.synth.config import SynthConfig
    from repro.synth.goal import Spec, SpecOutcome, SynthesisProblem

#: Default bound on memo entries; beyond it the least-recently-used entry
#: is evicted (counted on ``cache.evictions``).
DEFAULT_MAX_ENTRIES = 100_000

#: Sentinel distinguishing "no entry" from a memoized ``None`` guard value.
_MISSING = object()


#: The memo's counters, owned by each :class:`SynthCache` (meanings:
#: ``docs/API.md``, "Metrics").
CACHE_COUNTERS = (
    "cache.spec_hits",
    "cache.spec_misses",
    "cache.guard_hits",
    "cache.guard_misses",
    "cache.evictions",
    "cache.invalidations",
)


class SynthCache:
    """Spec/guard evaluation memo.

    A :class:`~repro.synth.session.SynthesisSession` owns one instance and
    threads it through the search, reuse and merge phases of every run; it
    is registered on the problems it serves, so baseline invalidations
    flush it.
    """

    def __init__(
        self,
        enabled: bool = True,
        max_entries: int = DEFAULT_MAX_ENTRIES,
    ) -> None:
        self.enabled = enabled
        self.max_entries = max_entries
        self.counters = Counters.fromkeys(CACHE_COUNTERS, 0)
        self._entries: "OrderedDict[Tuple, Any]" = OrderedDict()

    @staticmethod
    def from_config(config: "SynthConfig") -> "SynthCache":
        return SynthCache(
            enabled=getattr(config, "cache_spec_outcomes", True),
            max_entries=getattr(config, "spec_cache_max_entries", DEFAULT_MAX_ENTRIES),
        )

    # ------------------------------------------------------------------ keys

    @staticmethod
    def _key(
        kind: str, problem: "SynthesisProblem", program: A.Node, spec: "Spec"
    ) -> Tuple:
        # The program node itself is the key: it hashes in O(1) from its
        # construction-time ``_hash`` and compares structurally.  Every hit
        # measured on the end-to-end benchmarks is an exact repeat, so
        # collapsing let-renamed candidates (``alpha_key``) would buy nothing.
        return (kind, program, spec, problem.class_table.effect_precision)

    # ------------------------------------------------------------------ raw memo

    def _get(self, key: Tuple) -> Any:
        entry = self._entries.get(key, _MISSING)
        if entry is _MISSING:
            return _MISSING
        self._entries.move_to_end(key)
        return entry

    def _put(self, key: Tuple, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.counters["cache.evictions"] += 1

    # ------------------------------------------------------------------ spec memo

    def lookup_spec(
        self, problem: "SynthesisProblem", program: A.Node, spec: "Spec"
    ) -> Optional["SpecOutcome"]:
        """The memoized outcome of ``(program, spec)``, or ``None`` on a miss.

        A disabled cache always misses.
        """

        if not self.enabled:
            self.counters["cache.spec_misses"] += 1
            return None
        key = self._key("spec", problem, program, spec)
        entry = self._get(key)
        if entry is _MISSING:
            self.counters["cache.spec_misses"] += 1
            return None
        self.counters["cache.spec_hits"] += 1
        return entry

    def store_spec(
        self,
        problem: "SynthesisProblem",
        program: A.Node,
        spec: "Spec",
        outcome: "SpecOutcome",
    ) -> None:
        if self.enabled:
            self._put(self._key("spec", problem, program, spec), outcome)

    # ------------------------------------------------------------------ guard memo

    def lookup_guard(
        self, problem: "SynthesisProblem", program: A.Node, spec: "Spec"
    ) -> Any:
        """The memoized truthiness of a guard program under ``spec``.

        Returns the stored value (``True``/``False``, or ``None`` for a
        crashing guard) or the module sentinel ``MISSING`` on a miss.  A
        disabled cache always misses.
        """

        if not self.enabled:
            self.counters["cache.guard_misses"] += 1
            return _MISSING
        key = self._key("guard", problem, program, spec)
        entry = self._get(key)
        if entry is _MISSING:
            self.counters["cache.guard_misses"] += 1
            return _MISSING
        self.counters["cache.guard_hits"] += 1
        return entry

    def store_guard(
        self,
        problem: "SynthesisProblem",
        program: A.Node,
        spec: "Spec",
        truthiness: Optional[bool],
    ) -> None:
        if self.enabled:
            self._put(self._key("guard", problem, program, spec), truthiness)

    # ------------------------------------------------------------------ lifecycle

    def invalidate(self) -> None:
        """Drop every memoized outcome (the baseline state changed)."""

        self._entries.clear()
        self.counters["cache.invalidations"] += 1

    def __len__(self) -> int:
        return len(self._entries)


#: Re-exported miss sentinel for guard lookups.
MISSING = _MISSING
