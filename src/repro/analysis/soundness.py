"""The dynamic-vs-static soundness gate.

The footprint pass (:mod:`repro.analysis.footprint`) claims to compute a
*sound over-approximation* of every expression's runtime effects: whatever
regions an evaluation actually reads or writes must be subsumed by the
static footprint.  Everything built on top of the pass -- the pre-evaluation
pruner's witnessed prefix strips, the snapshot manager's restore fast-path
-- leans on exactly that claim, so this module checks it *differentially*:

1. run a candidate expression against a spec with ``capture_invoke=True``,
   which wraps every ``ctx.invoke`` in an effect capture and returns the
   union of the dynamically observed pairs on ``SpecOutcome.invoke_pair``;
2. compute the expression's static footprint under the problem's parameter
   environment;
3. report a :class:`SoundnessViolation` unless the dynamic read and write
   effects are each ``subsumed`` by their static counterparts.

A crashing candidate still participates: its partial dynamic log is a
prefix of the full execution's effects, so subsumption must still hold.

Checked expressions come from two streams: every candidate the real
work-list search would evaluate (:func:`search_candidates` replays the
enumerator's own expansion rules, so the stream matches what synthesis
runs), and seeded random compositions on top of them
(:func:`generate_expressions`) to reach shapes -- nested lets, dead
sequences -- the type-directed enumerator visits rarely.
``scripts/soundness_sweep.py`` runs :func:`sweep` over all 19 paper
benchmarks in CI and fails on any violation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.lang import ast as A
from repro.lang.effects import EffectPair, subsumed
from repro.analysis.footprint import TOP_PAIR, footprint

__all__ = [
    "SoundnessViolation",
    "check_expr_against_specs",
    "search_candidates",
    "generate_expressions",
    "check_benchmark",
    "sweep",
]


@dataclass
class SoundnessViolation:
    """A dynamic effect observation the static footprint failed to cover."""

    context: str
    spec: str
    expr: A.Node
    static_pair: EffectPair
    dynamic_pair: EffectPair

    def describe(self) -> str:
        from repro.lang.pretty import pretty

        return (
            f"[{self.context}] spec {self.spec!r}: expression "
            f"`{pretty(self.expr)}` dynamically performed "
            f"{self.dynamic_pair} but its static footprint is only "
            f"{self.static_pair}"
        )


def check_expr_against_specs(
    problem,
    expr: A.Node,
    state=None,
    context: str = "",
) -> List[SoundnessViolation]:
    """Differentially check one expression against every spec of ``problem``.

    The expression is run as the whole method body under each spec's setup
    with invoke-effect capture on; any observed read or write the static
    footprint does not subsume is returned as a violation.  Specs whose
    setup never calls ``ctx.invoke`` observe nothing and are skipped.
    """

    from repro.synth.goal import evaluate_spec

    static_pair = footprint(
        expr, dict(problem.param_env), problem.class_table
    )
    ct = problem.class_table
    violations: List[SoundnessViolation] = []
    for spec in problem.specs:
        outcome = evaluate_spec(
            problem,
            problem.make_program(expr),
            spec,
            state=state,
            capture_invoke=True,
        )
        observed = outcome.invoke_pair
        if observed is None:
            continue
        if subsumed(observed.read, static_pair.read, ct) and subsumed(
            observed.write, static_pair.write, ct
        ):
            continue
        violations.append(
            SoundnessViolation(
                context=context or problem.name,
                spec=spec.name,
                expr=expr,
                static_pair=static_pair,
                dynamic_pair=observed,
            )
        )
    return violations


# ---------------------------------------------------------------------------
# Expression streams
# ---------------------------------------------------------------------------


def search_candidates(problem, config=None, limit: int = 200) -> List[A.Node]:
    """Hole-free candidates in the order the work-list enumerator visits them.

    Replays the search's own one-step expansion (type-directed hole filling
    plus S-EffNil, without running specs), so the stream covers exactly the
    expression shapes synthesis evaluates dynamically.
    """

    from repro.synth.config import SynthConfig
    from repro.synth.enumerate import expand_typed_hole

    config = config or SynthConfig.full()
    frontier: List[A.Node] = [A.TypedHole(problem.ret_type)]
    results: List[A.Node] = []
    seen: set = set()
    while frontier and len(results) < limit:
        expr = frontier.pop(0)
        site = A.first_hole(expr)
        if site is None:
            continue
        if isinstance(site.hole, A.EffectHole):
            expansions = [A.replace_at(expr, site.path, A.NIL)]
        else:
            expansions = expand_typed_hole(expr, site, problem, config)
        for candidate in expansions:
            if candidate in seen:
                continue
            seen.add(candidate)
            if A.has_holes(candidate):
                if A.node_count(candidate) <= config.max_size:
                    frontier.append(candidate)
            elif len(results) < limit:
                results.append(candidate)
    return results


def generate_expressions(
    problem,
    count: int = 40,
    seed: int = 0,
    base: Optional[Sequence[A.Node]] = None,
) -> List[A.Node]:
    """Seeded random compositions of enumerated candidates.

    Builds ``Seq``/``Let``/``If``/``Not``/``Or`` combinations over the
    enumerator's own candidates (plus parameters and literals), reaching
    nesting patterns -- dead lets, effectful prefixes, shadowed bindings --
    that synthesis visits rarely but the pruner's rewrites must still treat
    soundly.  Deterministic for a given ``(problem, count, seed)``.
    """

    rng = random.Random(seed)
    pool: List[A.Node] = list(base) if base else search_candidates(problem, limit=60)
    if not pool:
        return []
    leaves: List[A.Node] = [A.Var(name) for name in problem.params] + [
        A.NIL,
        A.TRUE,
        A.FALSE,
        A.IntLit(0),
        A.StrLit(""),
    ]

    def pick() -> A.Node:
        if rng.random() < 0.3:
            return rng.choice(leaves)
        return rng.choice(pool)

    out: List[A.Node] = []
    for i in range(count):
        shape = rng.randrange(5)
        a, b = pick(), pick()
        if shape == 0:
            expr: A.Node = A.Seq(a, b)
        elif shape == 1:
            expr = A.Let(f"v{i}", a, A.Seq(b, A.Var(f"v{i}")))
        elif shape == 2:
            expr = A.Let(f"v{i}", a, b)  # usually a dead binding
        elif shape == 3:
            expr = A.Seq(a, A.Seq(b, pick()))
        else:
            expr = A.Let(f"v{i}", a, A.Let(f"w{i}", b, A.Var(f"v{i}")))
        out.append(expr)
    return out


# ---------------------------------------------------------------------------
# Benchmark-level drivers
# ---------------------------------------------------------------------------


def check_benchmark(
    benchmark_id: str,
    samples: int = 40,
    seed: int = 0,
    search_limit: int = 120,
) -> List[SoundnessViolation]:
    """Run the soundness gate over one registered benchmark.

    Checks every enumerator candidate up to ``search_limit`` plus
    ``samples`` seeded generated compositions, using the problem's snapshot
    manager so the sweep stays fast.
    """

    from repro.benchmarks.registry import get_benchmark

    problem = get_benchmark(benchmark_id).build()
    state = problem.state_manager()
    violations: List[SoundnessViolation] = []
    candidates = search_candidates(problem, limit=search_limit)
    stream: List[A.Node] = candidates + generate_expressions(
        problem, count=samples, seed=seed, base=candidates
    )
    for expr in stream:
        # An expression the typechecker rejects gets the TOP footprint,
        # which subsumes everything -- still checked, trivially sound.
        violations.extend(
            check_expr_against_specs(
                problem,
                expr,
                state=state,
                context=benchmark_id,
            )
        )
    return violations


def sweep(
    benchmark_ids: Optional[Iterable[str]] = None,
    samples: int = 40,
    seed: int = 0,
    search_limit: int = 120,
) -> List[SoundnessViolation]:
    """The full gate: every paper benchmark (or ``benchmark_ids``)."""

    from repro.benchmarks.registry import all_benchmarks

    ids = (
        list(benchmark_ids)
        if benchmark_ids is not None
        else [spec.id for spec in all_benchmarks(tier="paper")]
    )
    violations: List[SoundnessViolation] = []
    for benchmark_id in ids:
        violations.extend(
            check_benchmark(
                benchmark_id,
                samples=samples,
                seed=seed,
                search_limit=search_limit,
            )
        )
    return violations
