"""Static effect analysis over the AST and the class table.

Three passes, all purely static (no interpreter, no database):

* :mod:`repro.analysis.footprint` -- an abstract interpreter computing a
  sound over-approximation of any expression's read/write
  :class:`~repro.lang.effects.EffectPair` from class-table signatures alone;
* :mod:`repro.analysis.soundness` -- a differential checker asserting that
  every *dynamic* effect log the interpreter records is subsumed by the
  static footprint (the gate ``scripts/soundness_sweep.py`` runs in CI);
* :mod:`repro.analysis.lint` -- an annotation linter flagging typo'd effect
  regions, suspicious pure "writers", write-orphaned regions, arity
  mismatches between signatures and their Python impls, and specs whose
  assertions read regions no library method can write.

The search integration (``SynthConfig.static_pruning``) lives in
:mod:`repro.analysis.prune`: a per-search memo over effect-normalized
candidates that answers spec evaluations statically when a semantically
equivalent candidate has already been executed.
"""

from repro.analysis.footprint import TOP_PAIR, footprint, infer, writers_for_effect
from repro.analysis.lint import LintFinding, lint_class_table, lint_problem
from repro.analysis.prune import StaticPruner
from repro.analysis.soundness import SoundnessViolation, check_benchmark, sweep

__all__ = [
    "TOP_PAIR",
    "footprint",
    "infer",
    "writers_for_effect",
    "StaticPruner",
    "LintFinding",
    "lint_class_table",
    "lint_problem",
    "SoundnessViolation",
    "check_benchmark",
    "sweep",
]
