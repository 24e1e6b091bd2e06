"""Annotation lint: static sanity checks over class-table effect annotations.

Effect-guided synthesis is only as good as the library's type-and-effect
annotations (Section 5.1): a typo'd region silently never matches, a
mutator annotated pure is invisible to rule S-EffApp, and a spec whose
assertions read state no library method can write can never be solved by
an effect wrap.  None of those bugs crash anything -- searches just quietly
time out -- so this linter surfaces them statically:

``unknown-effect-class``
    An effect atom names a class the table does not know (and is not the
    ``self`` placeholder).
``unknown-effect-region``
    An effect atom names a region that does not exist on its class: for ORM
    models the valid regions are ``id`` plus the schema columns, for
    key-value stores the declared keys.
``pure-writer``
    A method whose name promises mutation (``title=``, ``update!``,
    ``create`` ...) carries a pure write annotation *and* has an executable
    implementation -- almost certainly a forgotten annotation.  The builtin
    boolean negation method, literally named ``!``, is exempt.
``impl-arity``
    A method's Python implementation cannot accept ``(interpreter,
    receiver, *declared_args)`` -- the call crashes at synthesis time
    instead of lint time.
``unwritten-region``
    A region some method reads but no method (at any precision) writes:
    assertion failures reading it can never be repaired by S-EffApp.
``unsatisfiable-spec``
    A spec whose observed assertion reads include a region no library
    method's write effect covers -- effect-guided search can never fix a
    failure of that assertion (checked dynamically against a trivial
    ``nil``-body program, statically against the write annotations).

``lint_class_table`` covers the first five (pure static); ``lint_problem``
adds the spec rule.  ``scripts/lint_annotations.py --check`` runs both over
every registered benchmark in CI, and must stay finding-free on the real
apps -- the rules are tuned for zero false positives there, which the test
suite locks in alongside seeded-bug tests proving each rule still fires.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from typing import Iterable, List, Optional, Set, Tuple

from repro.lang.effects import (
    Region,
    SELF_CLASS,
    region_subsumed,
)
from repro.typesys.class_table import ClassTable, MethodSig

__all__ = ["LintFinding", "lint_class_table", "lint_problem"]

#: Method names that promise mutation without the ``=``/``!`` suffix.
_MUTATOR_NAMES = {
    "create",
    "destroy",
    "delete",
    "save",
    "update",
    "update_all",
    "set",
    "clear",
    "push",
    "insert",
    "remove",
}


@dataclass(frozen=True)
class LintFinding:
    """One linter diagnostic: the rule, the offending subject, a message."""

    rule: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.subject}: {self.message}"


# ---------------------------------------------------------------------------
# Class-table rules
# ---------------------------------------------------------------------------


def lint_class_table(ct: ClassTable) -> List[LintFinding]:
    """Run every static annotation rule over one class table."""

    findings: List[LintFinding] = []
    findings.extend(_check_effect_atoms(ct))
    findings.extend(_check_pure_writers(ct))
    findings.extend(_check_impl_arity(ct))
    findings.extend(_check_unwritten_regions(ct))
    return findings


def _method_atoms(sig: MethodSig) -> Iterable[Tuple[str, Region]]:
    """The (kind, atom) pairs of a signature's declared effect annotation."""

    for kind, effect in (("read", sig.effects.read), ("write", sig.effects.write)):
        for region in effect.regions:
            yield kind, region


def _valid_regions(ct: ClassTable, cls: str) -> Optional[Set[str]]:
    """The named regions of ``cls``, or ``None`` when they are open-ended.

    Model classes expose ``id`` plus their schema columns; key-value stores
    expose their declared keys.  Classes without a registered Python class
    (builtins, relations, bases) have no declared region namespace, so
    their regions cannot be validated.
    """

    pyclass = ct.pyclass(cls) if ct.has_class(cls) else None
    if pyclass is None:
        return None
    columns = getattr(pyclass, "columns", None)
    if callable(columns):
        try:
            return set(columns())
        except Exception:  # pragma: no cover - defensively treat as open
            return None
    keys = getattr(pyclass, "keys", None)
    if isinstance(keys, dict):
        return set(keys)
    return None


def _check_effect_atoms(ct: ClassTable) -> List[LintFinding]:
    """Rules ``unknown-effect-class`` and ``unknown-effect-region``."""

    findings: List[LintFinding] = []
    for sig in ct.methods():
        for kind, region in _method_atoms(sig):
            cls = sig.owner if region.cls == SELF_CLASS else region.cls
            if not ct.has_class(cls):
                findings.append(
                    LintFinding(
                        "unknown-effect-class",
                        sig.qualified_name,
                        f"{kind} effect names unknown class {region.cls!r}",
                    )
                )
                continue
            if region.region is None:
                continue
            valid = _valid_regions(ct, cls)
            if valid is not None and region.region not in valid:
                findings.append(
                    LintFinding(
                        "unknown-effect-region",
                        sig.qualified_name,
                        f"{kind} effect names unknown region "
                        f"{cls}.{region.region!r} (known: {sorted(valid)})",
                    )
                )
    return findings


#: Operator method names whose trailing ``=``/``!`` is comparison or
#: negation syntax, not a setter/bang-mutator suffix.
_OPERATOR_NAMES = {"!", "==", "!=", "<=", ">=", "===", "<=>"}


def _looks_like_mutator(name: str) -> bool:
    if name in _OPERATOR_NAMES:
        return False
    return name.endswith("=") or name.endswith("!") or name in _MUTATOR_NAMES


def _check_pure_writers(ct: ClassTable) -> List[LintFinding]:
    """Rule ``pure-writer``: mutator-named methods annotated write-pure."""

    findings: List[LintFinding] = []
    for sig in ct.methods():
        if sig.impl is None or not _looks_like_mutator(sig.name):
            continue
        if ct.resolve(sig).effects.write.is_pure:
            findings.append(
                LintFinding(
                    "pure-writer",
                    sig.qualified_name,
                    "name promises mutation but the write effect is pure",
                )
            )
    return findings


def _check_impl_arity(ct: ClassTable) -> List[LintFinding]:
    """Rule ``impl-arity``: implementations must fit (interp, recv, *args)."""

    findings: List[LintFinding] = []
    for sig in ct.methods():
        if sig.impl is None:
            continue
        try:
            signature = inspect.signature(sig.impl)
        except (TypeError, ValueError):  # pragma: no cover - C callables
            continue
        params = list(signature.parameters.values())
        if any(p.kind is inspect.Parameter.VAR_POSITIONAL for p in params):
            continue
        positional = [
            p
            for p in params
            if p.kind
            in (
                inspect.Parameter.POSITIONAL_ONLY,
                inspect.Parameter.POSITIONAL_OR_KEYWORD,
            )
        ]
        required = len([p for p in positional if p.default is inspect.Parameter.empty])
        expected = 2 + len(ct.resolve(sig).arg_types)
        if required > expected or len(positional) < expected:
            findings.append(
                LintFinding(
                    "impl-arity",
                    sig.qualified_name,
                    f"impl takes {required}..{len(positional)} positional "
                    f"arguments but calls pass {expected} "
                    "(interpreter, receiver and the declared arguments)",
                )
            )
    return findings


def _write_atoms(ct: ClassTable) -> Tuple[List[Region], bool]:
    """All write atoms declared by any method, plus whether any writes ``*``."""

    atoms: List[Region] = []
    star = False
    for sig in ct.methods():
        effects = ct.resolve(sig).effects
        if effects.write.is_star:
            star = True
        atoms.extend(effects.write.regions)
    return atoms, star


def _check_unwritten_regions(ct: ClassTable) -> List[LintFinding]:
    """Rule ``unwritten-region``: read regions no method can write."""

    write_atoms, star_writer = _write_atoms(ct)
    if star_writer:
        return []
    findings: List[LintFinding] = []
    flagged: Set[Region] = set()
    for sig in ct.methods():
        for region in ct.resolve(sig).effects.read.regions:
            if region in flagged:
                continue
            if any(region_subsumed(region, w, ct) for w in write_atoms):
                continue
            flagged.add(region)
            findings.append(
                LintFinding(
                    "unwritten-region",
                    str(region),
                    f"read by {sig.qualified_name} but no method writes it; "
                    "S-EffApp can never repair assertions reading this region",
                )
            )
    return findings


# ---------------------------------------------------------------------------
# Problem-level rule
# ---------------------------------------------------------------------------


def lint_problem(problem) -> List[LintFinding]:
    """Class-table rules plus ``unsatisfiable-spec`` for one problem.

    Each spec is executed once against the trivial ``nil``-body program to
    observe which regions its assertions actually read (the dynamic half);
    any observed read atom no library method's write annotation covers is
    statically unrepairable by the effect-guided rules (the static half).
    """

    from repro.interp.interpreter import Interpreter
    from repro.synth.goal import SpecContext
    from repro.lang import ast as A

    findings = lint_class_table(problem.class_table)
    ct = problem.class_table
    write_atoms, star_writer = _write_atoms(ct)

    program = problem.make_program(A.NIL)
    for spec in problem.specs:
        interpreter = Interpreter(ct)
        ctx = SpecContext(problem, program, interpreter)
        problem.run_reset()
        try:
            spec.setup(ctx)
            spec.postcond(ctx, ctx.result)
        except Exception:  # noqa: BLE001 - the nil program may fail specs
            pass
        if star_writer:
            continue
        seen: Set[Region] = set()
        for pair in ctx.assert_pairs:
            if pair.read.is_star:
                continue
            for region in pair.read.regions:
                if region in seen:
                    continue
                seen.add(region)
                if any(region_subsumed(region, w, ct) for w in write_atoms):
                    continue
                findings.append(
                    LintFinding(
                        "unsatisfiable-spec",
                        spec.name,
                        f"an assertion reads {region} but no library method "
                        "writes it; effect-guided search cannot make this "
                        "assertion pass",
                    )
                )
    # Restore the baseline the specs' setups dirtied.
    problem.run_reset()
    return findings
