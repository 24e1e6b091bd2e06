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

A *disabled* cache (``SynthConfig(cache_spec_outcomes=False)``) still tracks
which keys it has seen and counts the lookups that would have hit as
``redundant`` executions, which is how ``benchmarks/bench_cache.py`` measures
the redundancy the memo removes without changing the disabled-path behavior.

An enabled cache may additionally carry a persistent spec-outcome store
(:mod:`repro.synth.store`, an SQLite file such as ``outcomes.sqlite`` owned
by a :class:`~repro.synth.session.SynthesisSession`): in-memory misses fall
back to the store's content-hash-keyed entries, which survive the process,
and every executed outcome is written through.  Store hits skip the execution
like memo hits do but are counted separately (``cache.store_hits``).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, Optional, Tuple

from repro.lang import ast as A
from repro.lang.resolve import alpha_key
from repro.obs import trace
from repro.obs.metrics import Counters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.synth.config import SynthConfig
    from repro.synth.goal import Spec, SpecOutcome, SynthesisProblem
    from repro.synth.store import SpecOutcomeStore

#: Default bound on memo entries; beyond it the least-recently-used entry
#: is evicted (counted on ``cache.evictions``).
DEFAULT_MAX_ENTRIES = 100_000

#: Sentinel stored for keys tracked by a *disabled* cache (key presence is
#: recorded so redundant executions can be counted, but no outcome is kept).
_TRACKED = object()

#: Sentinel distinguishing "no entry" from a memoized ``None`` guard value.
_MISSING = object()


#: The memo's counters, owned by each :class:`SynthCache` (meanings:
#: ``docs/API.md``, "Metrics").
CACHE_COUNTERS = (
    "cache.spec_hits",
    "cache.spec_misses",
    "cache.spec_redundant",
    "cache.guard_hits",
    "cache.guard_misses",
    "cache.guard_redundant",
    "cache.evictions",
    "cache.invalidations",
    "cache.store_hits",
    "cache.store_misses",
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
        track_redundancy: bool = True,
        store: Optional["SpecOutcomeStore"] = None,
    ) -> None:
        self.enabled = enabled
        self.max_entries = max_entries
        #: When the cache is disabled, key tracking (and its bookkeeping
        #: cost) is only paid if redundancy counting was asked for; with
        #: ``track_redundancy=False`` a disabled cache is a true no-op
        #: baseline apart from incrementing the miss counter.
        self.track_redundancy = track_redundancy
        #: Optional persistent spec-outcome store (:mod:`repro.synth.store`).
        #: Consulted only on in-memory misses of an *enabled* cache -- a
        #: disabled cache is a measurement baseline and must execute -- and
        #: written through whenever an executed outcome is recorded.
        self.store = store
        self.counters = Counters.fromkeys(CACHE_COUNTERS, 0)
        self._entries: "OrderedDict[Tuple, Any]" = OrderedDict()
        #: Representative program node per key.  Keys identify programs by
        #: alpha-key, which cannot be turned back into a program; the store
        #: write-through and the parallel memo export need a real node, so
        #: the first program recorded under a key is remembered (evicted in
        #: lockstep with ``_entries``).
        self._programs: Dict[Tuple, A.Node] = {}

    @staticmethod
    def from_config(config: "SynthConfig") -> "SynthCache":
        return SynthCache(
            enabled=getattr(config, "cache_spec_outcomes", True),
            max_entries=getattr(config, "spec_cache_max_entries", DEFAULT_MAX_ENTRIES),
            track_redundancy=getattr(config, "cache_track_redundancy", True),
        )

    # ------------------------------------------------------------------ keys

    @staticmethod
    def _key(
        kind: str, problem: "SynthesisProblem", program: A.Node, spec: "Spec"
    ) -> Tuple:
        # Programs are keyed by their alpha-key (repro.lang.resolve), not
        # the raw node: bound names are not observable under evaluation, so
        # candidates differing only in let/parameter naming share one
        # outcome entry.  The key is deterministic and hash-seed free, so a
        # parent seeding worker outcomes computes the same keys.
        return (kind, alpha_key(program), spec, problem.class_table.effect_precision)

    # ------------------------------------------------------------------ raw memo

    def _get(self, key: Tuple) -> Any:
        entry = self._entries.get(key, _MISSING)
        if entry is _MISSING:
            return _MISSING
        self._entries.move_to_end(key)
        return entry

    def _put(self, key: Tuple, value: Any, program: Optional[A.Node] = None) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if program is not None and key not in self._programs:
            self._programs[key] = program
        while len(self._entries) > self.max_entries:
            evicted, _ = self._entries.popitem(last=False)
            self._programs.pop(evicted, None)
            self.counters["cache.evictions"] += 1

    # ------------------------------------------------------------------ spec memo

    def lookup_spec(
        self, problem: "SynthesisProblem", program: A.Node, spec: "Spec"
    ) -> Optional["SpecOutcome"]:
        """The memoized outcome of ``(program, spec)``, or ``None`` on a miss.

        On a disabled cache this always returns ``None`` but still counts
        previously-seen keys as redundant executions.
        """

        if not self.enabled and not self.track_redundancy:
            self.counters["cache.spec_misses"] += 1
            return None
        key = self._key("spec", problem, program, spec)
        entry = self._get(key)
        if entry is _MISSING:
            if self.enabled and self.store is not None:
                outcome = self.store.load_spec(problem, program, spec)
                if outcome is not None:
                    self.counters["cache.store_hits"] += 1
                    self._put(key, outcome, program)
                    if trace.TRACER.enabled:
                        trace.TRACER.annotate(src="store")
                    return outcome
                self.counters["cache.store_misses"] += 1
            self.counters["cache.spec_misses"] += 1
            return None
        if not self.enabled:
            self.counters["cache.spec_redundant"] += 1
            return None
        self.counters["cache.spec_hits"] += 1
        if trace.TRACER.enabled:
            trace.TRACER.annotate(src="memo")
        return entry

    def store_spec(
        self,
        problem: "SynthesisProblem",
        program: A.Node,
        spec: "Spec",
        outcome: "SpecOutcome",
    ) -> None:
        if self.enabled and self.store is not None:
            self.store.save_spec(problem, program, spec, outcome)
        if not self.enabled and not self.track_redundancy:
            return
        key = self._key("spec", problem, program, spec)
        self._put(key, outcome if self.enabled else _TRACKED, program)

    # ------------------------------------------------------------------ guard memo

    def lookup_guard(
        self, problem: "SynthesisProblem", program: A.Node, spec: "Spec"
    ) -> Any:
        """The memoized truthiness of a guard program under ``spec``.

        Returns the stored value (``True``/``False``, or ``None`` for a
        crashing guard) or the module sentinel ``MISSING`` on a miss.
        """

        if not self.enabled and not self.track_redundancy:
            self.counters["cache.guard_misses"] += 1
            return _MISSING
        key = self._key("guard", problem, program, spec)
        entry = self._get(key)
        if entry is _MISSING:
            if self.enabled and self.store is not None:
                from repro.synth.store import STORE_MISS

                truth = self.store.load_guard(problem, program, spec)
                if truth is not STORE_MISS:
                    self.counters["cache.store_hits"] += 1
                    self._put(key, truth, program)
                    if trace.TRACER.enabled:
                        trace.TRACER.annotate(src="store")
                    return truth
                self.counters["cache.store_misses"] += 1
            self.counters["cache.guard_misses"] += 1
            return _MISSING
        if not self.enabled:
            self.counters["cache.guard_redundant"] += 1
            return _MISSING
        self.counters["cache.guard_hits"] += 1
        if trace.TRACER.enabled:
            trace.TRACER.annotate(src="memo")
        return entry

    def store_guard(
        self,
        problem: "SynthesisProblem",
        program: A.Node,
        spec: "Spec",
        truthiness: Optional[bool],
    ) -> None:
        if self.enabled and self.store is not None:
            self.store.save_guard(problem, program, spec, truthiness)
        if not self.enabled and not self.track_redundancy:
            return
        key = self._key("guard", problem, program, spec)
        self._put(key, truthiness if self.enabled else _TRACKED, program)

    # ------------------------------------------------------------------ seeding

    def seed_spec(
        self,
        problem: "SynthesisProblem",
        program: A.Node,
        spec: "Spec",
        outcome: Any,
    ) -> None:
        """Adopt an outcome another process executed (parallel absorption).

        Puts the entry exactly as :meth:`store_spec` would -- including the
        disabled-cache tracked-key bookkeeping, so redundancy counting stays
        equivalent to a serial run -- but without touching any counter or
        the store (the executing worker wrote it to the shared store).
        ``outcome`` may be the module sentinel ``_TRACKED`` when absorbing a
        disabled cache's key-tracking export.
        """

        if self.enabled and outcome is _TRACKED:
            # A tracked key carries no outcome; seeding it into an enabled
            # memo would serve the sentinel as a result.
            return
        if not self.enabled and not self.track_redundancy:
            return
        key = self._key("spec", problem, program, spec)
        self._put(key, outcome if self.enabled else _TRACKED, program)

    def seed_guard(
        self,
        problem: "SynthesisProblem",
        program: A.Node,
        spec: "Spec",
        truthiness: Any,
    ) -> None:
        """Adopt a guard truthiness another process executed (see
        :meth:`seed_spec`)."""

        if self.enabled and truthiness is _TRACKED:
            return
        if not self.enabled and not self.track_redundancy:
            return
        key = self._key("guard", problem, program, spec)
        self._put(key, truthiness if self.enabled else _TRACKED, program)

    # ------------------------------------------------------------------ lifecycle

    def clear_memory(self) -> None:
        """Drop the in-memory memo but keep the store intact.

        Used by ``SynthesisSession.clear_memory_caches`` to simulate a fresh
        process: the next lookups miss in memory and fall through to the
        persistent store.  This is *not* an invalidation -- the persisted
        outcomes are still valid.
        """

        self._entries.clear()
        self._programs.clear()

    def invalidate(self) -> None:
        """Drop every memoized outcome (the baseline state changed).

        An attached persistent store is wiped too: its content hashes cannot
        see out-of-band baseline mutations, so stale entries must not
        survive the flush that the memo does not.
        """

        self._entries.clear()
        self._programs.clear()
        if self.store is not None:
            self.store.invalidate()
        self.counters["cache.invalidations"] += 1

    def __len__(self) -> int:
        return len(self._entries)


#: Re-exported miss sentinel for guard lookups.
MISSING = _MISSING

#: Re-exported tracked sentinel (disabled-cache key exports, see
#: :mod:`repro.synth.parallel`).
TRACKED = _TRACKED
