"""Synthesis configuration.

The configuration exposes every knob the paper's evaluation turns:

* ``use_types`` / ``use_effects`` select between the four guidance modes of
  Figure 7 (TE enabled, T only, E only, TE disabled);
* ``effect_precision`` selects between the precise/class/purity annotation
  levels of Figure 8 (applied to the benchmark's class table);
* ``timeout_s`` is the per-benchmark timeout (300 s in the paper; the
  benchmark harness defaults to a smaller value so a full sweep stays cheap);
* ``cache_spec_outcomes`` / ``spec_cache_max_entries`` control the
  evaluation memo of :mod:`repro.synth.cache`: when enabled (the default),
  identical ``(program, spec)`` executions across solution reuse, guard
  search and merge validation are answered from the memo; disabling it
  restores the execute-every-time behavior while still *counting* the
  redundant executions, which ``benchmarks/bench_cache.py`` reports;
* ``snapshot_state`` controls the copy-on-write database snapshot manager
  of :mod:`repro.synth.state`: when enabled (the default) and the problem
  carries its database, the reset closure and each spec's seed inserts are
  replayed once and restored by cheap table swaps afterwards; disabling it
  restores the reset-every-time behavior (the ``no_snapshot`` ablation and
  ``benchmarks/bench_state.py``'s baseline), and ``verify_recordings`` is an
  opt-in debug mode that periodically re-records a replayed spec's setup and
  raises on nondeterminism;
* ``static_pruning`` controls the static effect analyses of
  :mod:`repro.analysis`: pre-evaluation pruning through the normal-form
  outcome memo and the write-pure restore fast-path (disabling them is the
  baseline ``benchmarks/bench_analysis.py`` measures against);
* the remaining limits bound the enumerative search and expose the
  optimizations of Section 4 (solution/guard reuse, negated-guard reuse,
  type narrowing, exploration order) for the ablation benchmarks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.lang.effects import PRECISION_PRECISE


def default_static_pruning() -> bool:
    """The process-default for ``SynthConfig.static_pruning``.

    Honors the ``REPRO_STATIC_PRUNING`` environment variable (CI's ablation
    hook): unset or truthy enables the static analyses,
    ``0``/``false``/``no``/``off`` disables them.
    """

    value = os.environ.get("REPRO_STATIC_PRUNING")
    if value is None:
        return True
    return value.strip().lower() not in ("0", "false", "no", "off", "")


def default_trace_path() -> Optional[str]:
    """The process-default for ``SynthConfig.trace_path``.

    Honors the ``REPRO_TRACE`` environment variable: unset or empty leaves
    tracing off, any other value is the JSONL trace file sessions write (see
    repro.obs.trace).
    """

    return os.environ.get("REPRO_TRACE") or None


#: Exploration orders for the work list (Section 4, "Program Exploration Order").
ORDER_PAPER = "paper"  # passed assertions desc, then size asc
ORDER_SIZE = "size"  # size asc only
ORDER_FIFO = "fifo"  # breadth-first insertion order


@dataclass(frozen=True)
class SynthConfig:
    """Tunable parameters of the synthesis search."""

    # Guidance modes (Figure 7).
    use_types: bool = True
    use_effects: bool = True

    # Effect annotation precision (Figure 8).
    effect_precision: str = PRECISION_PRECISE

    # Resource limits.  Sizes are AST node counts, which is the metric the
    # paper's implementation orders the work list by (Section 4).
    max_size: int = 40
    guard_max_size: int = 10
    max_hash_keys: int = 2
    max_candidates: int = 400_000
    timeout_s: Optional[float] = None

    # Section 4 optimizations / design choices (ablation targets).
    reuse_solutions: bool = True
    try_negated_guards: bool = True
    narrow_types: bool = True
    exploration_order: str = ORDER_PAPER

    # Evaluation caching (repro.synth.cache).  ``cache_spec_outcomes``
    # memoizes spec/guard outcomes per (program, spec, effect precision);
    # ``spec_cache_max_entries`` bounds the memo (LRU eviction beyond it).
    # With the memo disabled, ``cache_track_redundancy`` keeps counting the
    # re-executions the memo would have removed (used by bench_cache.py);
    # turn it off too for a bookkeeping-free baseline (the ablation bench).
    cache_spec_outcomes: bool = True
    spec_cache_max_entries: int = 100_000
    cache_track_redundancy: bool = True

    # State management (repro.synth.state).  ``snapshot_state`` restores the
    # database from copy-on-write snapshots instead of replaying the reset
    # closure and seed inserts on every candidate evaluation; it only takes
    # effect for problems that carry their database.
    snapshot_state: bool = True

    # Static effect analysis (repro.analysis).  When enabled (the default),
    # the search (1) answers evaluations of candidates whose effect-normal
    # form it has already executed from a static memo instead of running
    # them (repro.analysis.prune -- sound by construction, so synthesized
    # programs are byte-identical with the knob off), and (2) fast-paths
    # statically write-pure candidates past the snapshot restore that would
    # otherwise precede the next evaluation of the same spec.  The process
    # default honors the REPRO_STATIC_PRUNING environment variable.
    static_pruning: bool = field(default_factory=default_static_pruning)

    # Opt-in debug mode for the snapshot subsystem's determinism contract:
    # when > 0, every Nth replay of a recorded spec re-runs the full
    # reset+setup instead and diffs the fresh recording (pre-invoke database
    # snapshot, invoke args, scratch state) against the stored one, raising
    # repro.synth.state.NondeterministicSetupError on a mismatch.  0 (the
    # default) disables verification; it exists to catch setups that violate
    # the ``define(..., database=...)`` determinism opt-in, at the cost of a
    # periodic full rebuild.
    verify_recordings: int = 0

    # Structured tracing (repro.obs.trace).  When set, a SynthesisSession
    # built from this config installs a JSONL tracer writing to this path
    # for its lifetime (closed by session.close()); a parallel sweep's
    # workers ship each cell's events back to the parent, tagged by worker
    # id.  ``None`` (the default) keeps the no-op tracer: every
    # instrumentation site then costs a single attribute check.  The
    # process default honors the ``REPRO_TRACE`` environment variable.
    trace_path: Optional[str] = field(default_factory=default_trace_path)

    # ------------------------------------------------------------------ modes

    def with_mode(self, use_types: bool, use_effects: bool) -> "SynthConfig":
        return replace(self, use_types=use_types, use_effects=use_effects)

    def with_timeout(self, timeout_s: Optional[float]) -> "SynthConfig":
        return replace(self, timeout_s=timeout_s)

    def with_precision(self, precision: str) -> "SynthConfig":
        return replace(self, effect_precision=precision)

    @staticmethod
    def full(**overrides) -> "SynthConfig":
        """Type- and effect-guided synthesis (the paper's default)."""

        return SynthConfig(**overrides)

    @staticmethod
    def types_only(**overrides) -> "SynthConfig":
        return SynthConfig(use_types=True, use_effects=False, **overrides)

    @staticmethod
    def effects_only(**overrides) -> "SynthConfig":
        return SynthConfig(use_types=False, use_effects=True, **overrides)

    @staticmethod
    def unguided(**overrides) -> "SynthConfig":
        """Naive term enumeration (TE disabled in Figure 7)."""

        return SynthConfig(use_types=False, use_effects=False, **overrides)

    @property
    def mode_name(self) -> str:
        if self.use_types and self.use_effects:
            return "TE Enabled"
        if self.use_types:
            return "T Only"
        if self.use_effects:
            return "E Only"
        return "TE Disabled"

    def __post_init__(self) -> None:
        if self.exploration_order not in (ORDER_PAPER, ORDER_SIZE, ORDER_FIFO):
            raise ValueError(f"unknown exploration order {self.exploration_order!r}")
        if self.spec_cache_max_entries <= 0:
            raise ValueError("spec_cache_max_entries must be positive")
        if self.verify_recordings < 0:
            raise ValueError("verify_recordings must be >= 0 (0 disables)")
