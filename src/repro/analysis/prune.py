"""Pre-evaluation pruning: answering spec evaluations statically.

The effect-guided search evaluates many candidates that are *semantically
equivalent* to candidates it has already executed.  The dominant source is
rule S-EffNil: wrapping a failed candidate ``e`` produces
``let t = e in (<>:e_r ; []:tau)``, and discharging the effect hole with
``nil`` then filling the typed hole with ``t`` yields
``let t = e in (nil; t)`` -- observably identical to the ``e`` the search
already ran.  Every such re-evaluation pays a snapshot restore plus a full
interpreter pass for an outcome that is already known.

:class:`StaticPruner` removes these evaluations *soundly*:

1. Every hole-free candidate is **normalized** by effect-directed
   rewrites that preserve evaluation order, value and effects exactly:

   * ``(lit; e)       -> e``         (discarding a literal does nothing)
   * ``let v = e in v -> e``         (eta)
   * ``let v = e in b -> (e; b)``    when ``v`` is not free in ``b``
     (and just ``b`` when ``e`` is a literal)

   Only literal discards are erased -- variables and constant references
   are kept (a ``ConstRef`` can raise on an unknown class), and bound
   computations are never dropped, only unbound from dead names.  The
   rewrites are purely structural, so two candidates with the same normal
   form evaluate identically: same value, same effects, same crashes.

2. A per-search memo maps each normal form -- keyed by its
   :func:`~repro.lang.resolve.alpha_key`, so candidates differing only in
   bound-variable names share one entry -- to the
   :class:`~repro.synth.goal.SpecOutcome` its first representative
   produced.  A later candidate with a known normal form reuses the
   outcome without touching the interpreter or the database -- counted as
   ``search.static_prunes``.  Alpha-keying is sound because bound
   names are not observable: evaluation of alpha-equivalent expressions
   produces the same value, effects and errors (binders resolve to the
   same frame slots under both namings).

3. On top of the memo, a **witnessed prefix strip**: for ``(p; e)`` where
   the memo proves ``p`` completed without crashing (its own outcome is
   recorded with ``error=None``) *and* the static write footprint of ``p``
   is pure, the whole sequence's outcome equals ``e``'s -- evaluation is
   deterministic (the documented contract the memo and snapshot subsystems
   already rely on), so a write-pure completing prefix cannot influence
   the suffix.  This keys ``(e'; t)`` fills back onto earlier candidates
   even when the prefix is not a literal.

Because a reused outcome is byte-for-byte the outcome the evaluation would
have produced, the search's decisions (return, S-Eff wrap, push priority)
are unchanged: synthesis with pruning on and off yields *identical*
programs while skipping a measurable share of dynamic evaluations
(``benchmarks/bench_analysis.py`` gates on >= 15% on the lookup-heavy
cells).  The pruner is per-search (one spec, one baseline), so outcomes
never leak across specs or baselines; ``SynthConfig.static_pruning``
toggles it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, Optional

from repro.lang import ast as A
from repro.lang.resolve import alpha_key
from repro.analysis.footprint import footprint
from repro.obs.metrics import Counters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.synth.goal import SpecOutcome, SynthesisProblem

#: Literal nodes whose evaluation is a no-op when the value is discarded.
_LITERALS = (A.NilLit, A.BoolLit, A.IntLit, A.StrLit, A.SymLit)


class StaticPruner:
    """Normal-form outcome memo for one work-list search (one spec)."""

    def __init__(
        self, problem: "SynthesisProblem", counters: Optional[Counters] = None
    ) -> None:
        self.env = dict(problem.param_env)
        self.ct = problem.class_table
        self.counters = counters
        self._outcomes: Dict[Hashable, "SpecOutcome"] = {}
        self._normal: Dict[A.Node, A.Node] = {}

    # ------------------------------------------------------------------ keys

    def key_for(self, candidate: A.Node) -> Hashable:
        """The candidate's pruning key: its reduced normal form's alpha-key."""

        return alpha_key(self._reduce(self._normalize(candidate)))

    def outcome_for(self, key: Hashable) -> Optional["SpecOutcome"]:
        """The memoized outcome of a candidate with this key, if any."""

        return self._outcomes.get(key)

    def record(self, key: Hashable, outcome: "SpecOutcome") -> None:
        self._outcomes[key] = outcome

    def write_pure(self, candidate: A.Node) -> bool:
        """Whether the candidate's static write footprint is provably pure."""

        return footprint(candidate, self.env, self.ct, self.counters).write.is_pure

    # ------------------------------------------------------------------ normalize

    def _normalize(self, node: A.Node) -> A.Node:
        cached = self._normal.get(node)
        if cached is not None:
            return cached
        result = self._normalize_uncached(node)
        self._normal[node] = result
        return result

    def _normalize_uncached(self, node: A.Node) -> A.Node:
        if isinstance(node, A.Seq):
            first = self._normalize(node.first)
            second = self._normalize(node.second)
            if isinstance(first, _LITERALS):
                return second
            if first is node.first and second is node.second:
                return node
            return A.Seq(first, second)
        if isinstance(node, A.Let):
            value = self._normalize(node.value)
            body = self._normalize(node.body)
            if isinstance(body, A.Var) and body.name == node.var:
                return value
            if node.var not in body._fv:
                # The binding is dead: evaluate the value for its effects,
                # then the body (or just the body for effect-free literals).
                if isinstance(value, _LITERALS):
                    return body
                return self._normalize(A.Seq(value, body))
            if value is node.value and body is node.body:
                return node
            return A.Let(node.var, value, body)
        if isinstance(node, A.MethodCall):
            receiver = self._normalize(node.receiver)
            args = tuple(self._normalize(arg) for arg in node.args)
            if receiver is node.receiver and all(
                a is b for a, b in zip(args, node.args)
            ):
                return node
            return A.MethodCall(receiver, node.name, args)
        if isinstance(node, A.If):
            cond = self._normalize(node.cond)
            then_branch = self._normalize(node.then_branch)
            else_branch = self._normalize(node.else_branch)
            if (
                cond is node.cond
                and then_branch is node.then_branch
                and else_branch is node.else_branch
            ):
                return node
            return A.If(cond, then_branch, else_branch)
        if isinstance(node, A.Not):
            inner = self._normalize(node.expr)
            return node if inner is node.expr else A.Not(inner)
        if isinstance(node, A.Or):
            left = self._normalize(node.left)
            right = self._normalize(node.right)
            if left is node.left and right is node.right:
                return node
            return A.Or(left, right)
        if isinstance(node, A.HashLit):
            entries = tuple(
                (key, self._normalize(value)) for key, value in node.entries
            )
            if all(new is old for (_, new), (_, old) in zip(entries, node.entries)):
                return node
            return A.HashLit(entries)
        return node

    # ------------------------------------------------------------------ reduce

    def _reduce(self, normal: A.Node) -> A.Node:
        """Strip write-pure, witnessed-to-complete prefixes off a sequence.

        For ``(p; e)``: when the memo holds an outcome for ``p`` (reduced)
        with ``error=None`` -- i.e. some earlier candidate equivalent to
        ``p`` ran to completion, possibly failing an assertion *after* the
        invoke -- and ``p``'s static write footprint is pure, deterministic
        evaluation guarantees ``(p; e)`` behaves exactly like ``e``.
        """

        while isinstance(normal, A.Seq):
            prefix = normal.first
            witness = self._outcomes.get(alpha_key(self._reduce(prefix)))
            if witness is None or witness.error is not None:
                break
            if not footprint(prefix, self.env, self.ct, self.counters).write.is_pure:
                break
            normal = normal.second
        return normal
