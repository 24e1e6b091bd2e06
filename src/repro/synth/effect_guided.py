"""Effect-guided synthesis (rules S-Eff, S-EffApp, S-EffNil of Figure 5).

When a fully concrete candidate fails a spec assertion, the assertion's read
effect ``e_r`` identifies which abstract state the spec expected to be
different.  Rule S-Eff rewrites the candidate ``e`` of type ``tau`` into::

    let t = e in (<>:e_r ; []:tau)

i.e. the candidate's value is saved, an effect hole demands code that writes
to the read region, and a trailing typed hole restores the candidate's type
(often simply filled with ``t``, as in Figure 2 where ``t0`` is returned).

Effect holes are filled by S-EffApp with calls to methods whose *write*
effect subsumes the hole's effect, or removed entirely by S-EffNil.
"""

from __future__ import annotations

from typing import List, Optional

from repro.lang import ast as A
from repro.lang import types as T
from repro.lang.effects import Effect, subsumed
from repro.analysis.footprint import infer, writers_for_effect
from repro.obs.metrics import Counters
from repro.synth.config import SynthConfig
from repro.synth.enumerate import call_template
from repro.synth.goal import SynthesisProblem
from repro.typesys.typecheck import SynTypeError, check_expr


def insert_effect_hole(
    expr: A.Node,
    read_effect: Effect,
    problem: SynthesisProblem,
    counters: Optional[Counters] = None,
) -> A.Node:
    """Rule S-Eff: wrap a failed candidate with an effect hole.

    ``expr`` must be a hole-free candidate; its type is computed (through
    the footprint pass, sharing its memo) under the problem's parameter
    environment to annotate the trailing typed hole.

    A candidate that *evaluated* far enough to fail an assertion but cannot
    be *typed* signals an annotation or typechecker bug; the wrap used to
    fall back to ``problem.ret_type`` silently, hiding such bugs.  The
    fallback remains (rejecting the wrap would change synthesized programs)
    but every occurrence is now counted on ``search.effect_type_fallbacks``
    so the bench reports and the soundness sweep surface them.
    """

    try:
        expr_type, _ = infer(
            expr, dict(problem.param_env), problem.class_table, counters
        )
    except SynTypeError:
        if counters is not None:
            counters["search.effect_type_fallbacks"] += 1
        expr_type = problem.ret_type
    taken = list(problem.params) + A.bound_names(expr)
    var = A.fresh_name("t", taken)
    return A.Let(
        var,
        expr,
        A.Seq(A.EffectHole(read_effect), A.TypedHole(expr_type)),
    )


def expand_effect_hole(
    expr: A.Node,
    site: A.HoleSite,
    problem: SynthesisProblem,
    config: SynthConfig,
    counters: Optional[Counters] = None,
) -> List[A.Pending]:
    """Rules S-EffApp and S-EffNil: all one-step fillings of an effect hole,
    as :class:`~repro.lang.ast.Pending` entries (built by the narrowing
    re-check, otherwise left to the caller)."""

    assert isinstance(site.hole, A.EffectHole)
    hole = site.hole
    ct = problem.class_table

    replacements: List[A.Node] = []
    # The eligible writers for a given (class table, effect) are memoized by
    # the footprint module, so repeated expansions of holes carrying the
    # same read effect -- the common case, since every failing candidate of
    # one spec tends to miss the same assertion -- skip the method scan.
    # The list arrives most-specific-first (precise-region writers before
    # class-level before ``*``); expansions where that sort changed the
    # declaration order are counted on ``search.writer_reorders``.
    for resolved in writers_for_effect(hole.effect, ct, counters):
        replacements.append(call_template(resolved))

    # S-EffNil removes an unneeded effect hole.
    replacements.append(A.NIL)

    splice = A.Splicer(expr, site.path)
    results: List[A.Pending] = []
    seen: set[A.Node] = set()
    for replacement in replacements:
        if replacement in seen:
            continue
        seen.add(replacement)
        entry = A.Pending(splice, replacement)
        if config.use_types and config.narrow_types:
            try:
                check_expr(entry.build(), dict(problem.param_env), problem.class_table)
            except SynTypeError:
                continue
        results.append(entry)
    return results


def writers_for(
    read_effect: Effect, problem: SynthesisProblem
) -> List[str]:
    """Qualified names of library methods whose write effect covers ``read_effect``.

    Exposed for diagnostics and tests; the search itself uses
    :func:`expand_effect_hole`.
    """

    ct = problem.class_table
    names: List[str] = []
    for resolved in ct.resolved_synthesis_methods():
        if resolved.effects.write.is_pure:
            continue
        if subsumed(read_effect, resolved.effects.write, ct):
            names.append(resolved.sig.qualified_name)
    return sorted(names)
