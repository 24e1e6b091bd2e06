"""Synthesis configuration.

The configuration exposes every knob the paper's evaluation turns:

* ``use_types`` / ``use_effects`` select between the four guidance modes of
  Figure 7 (TE enabled, T only, E only, TE disabled);
* ``effect_precision`` selects between the precise/class/purity annotation
  levels of Figure 8 (applied to the benchmark's class table);
* ``timeout_s`` is the per-benchmark timeout (300 s in the paper; the
  benchmark harness defaults to a smaller value so a full sweep stays cheap);
* ``snapshot_state`` controls the copy-on-write database snapshot manager
  of :mod:`repro.synth.state`: when enabled (the default) and the problem
  carries its database, the reset closure and each spec's seed inserts are
  replayed once and restored by cheap table swaps afterwards; disabling it
  restores the reset-every-time behavior, and ``verify_recordings`` is an
  opt-in debug mode that periodically re-records a replayed spec's setup and
  raises on nondeterminism;
* ``static_pruning`` controls pre-evaluation pruning
  (:mod:`repro.analysis.prune`): a per-search memo that answers a
  candidate whose effect-normal form already ran with that run's outcome;
* the remaining limits bound the enumerative search.

The optimizations of Section 4 have no knob: solution and guard reuse and
negated guards always run, type narrowing runs whenever ``use_types`` is
on, and the work list always orders by passed assertions, then size.

Turning the snapshots or the pruning off must never change a synthesized
program: ``scripts/arm_identity.py`` synthesizes every end-to-end benchmark
with each of them off and compares the programs with
``perfbench/golden.json``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from repro.lang.effects import PRECISION_PRECISE


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

    # State management (repro.synth.state).  ``snapshot_state`` restores the
    # database from copy-on-write snapshots instead of replaying the reset
    # closure and seed inserts on every candidate evaluation; it only takes
    # effect for problems that carry their database.
    snapshot_state: bool = True

    # Pre-evaluation pruning (repro.analysis.prune).  When enabled (the
    # default), spec search answers candidates whose effect-normal form it
    # has already executed from a static memo instead of running them --
    # sound by construction, so synthesized programs are byte-identical
    # with the knob off.  It gates nothing else.
    static_pruning: bool = True

    # Opt-in debug mode for the snapshot subsystem's determinism contract:
    # when > 0, every Nth replay of a recorded spec re-runs the full
    # reset+setup instead and diffs the fresh recording (pre-invoke database
    # snapshot, invoke args, scratch state) against the stored one, raising
    # repro.synth.state.NondeterministicSetupError on a mismatch.  0 (the
    # default) disables verification; it exists to catch setups that violate
    # the ``define(..., database=...)`` determinism opt-in, at the cost of a
    # periodic full rebuild.
    verify_recordings: int = 0

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
        if self.verify_recordings < 0:
            raise ValueError("verify_recordings must be >= 0 (0 disables)")
