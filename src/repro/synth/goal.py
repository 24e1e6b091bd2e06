"""Synthesis goals, specs and spec evaluation.

A synthesis goal (Figure 3) is a method type plus a set of specs; each spec
pairs *setup* code (which calls the method being synthesized) with a
*postcondition* made of assertions.  Specs here are ordinary Python callables
operating on a :class:`SpecContext`, mirroring how RbSyn's specs are ordinary
Ruby blocks: the setup seeds the database and calls ``ctx.invoke(...)``, and
the postcondition calls ``ctx.assert_(lambda: ...)``.

``ctx.assert_`` evaluates its condition inside an effect capture.  When the
condition is falsy the captured read effect travels with the raised
:class:`~repro.interp.errors.AssertionFailure`, which is precisely the
``err(e_r, e_w)`` result of the extended operational semantics (Appendix A.1)
that effect-guided synthesis consumes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.lang import ast as A
from repro.lang import types as T
from repro.lang.effects import EffectPair
from repro.lang.values import truthy, type_of_value
from repro.interp.effect_log import effect_capture
from repro.interp.errors import AssertionFailure
from repro.interp.interpreter import Interpreter
from repro.obs import trace
from repro.obs.metrics import Counters
from repro.synth.state import NondeterministicSetupError
from repro.typesys.class_table import ClassTable
from repro.typesys.sigparser import parse_method_sig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.activerecord.database import Database
    from repro.synth.cache import SynthCache
    from repro.synth.state import StateManager

SetupFn = Callable[["SpecContext"], None]
PostcondFn = Callable[["SpecContext", Any], None]


@dataclass(frozen=True)
class Spec:
    """One test case: a name, a setup block and a postcondition block."""

    name: str
    setup: SetupFn
    postcond: PostcondFn

    def __str__(self) -> str:
        return f"spec({self.name!r})"


class SpecContext:
    """The execution context handed to a spec's setup and postcondition."""

    def __init__(
        self,
        problem: "SynthesisProblem",
        program: A.MethodDef,
        interpreter: Interpreter,
    ) -> None:
        self.problem = problem
        self.program = program
        self.interpreter = interpreter
        self.result: Any = None
        self.passed_asserts = 0
        #: Scratch space for the setup block (plays the role of Ruby's @ivars).
        self.state: Dict[str, Any] = {}
        #: Observer attached by :mod:`repro.synth.state` during a recording
        #: pass; ``None`` everywhere else.
        self._recorder: Any = None
        #: When set (by ``evaluate_spec``), every ``invoke`` runs inside an
        #: effect capture and appends the observed pair here -- the dynamic
        #: side of the static/dynamic soundness gate, and the purity witness
        #: the snapshot manager's restore fast-path consumes.  A crashing
        #: invoke still appends its partial log (a prefix of the full
        #: effects, so subsumption checks remain sound).
        self._capture_invoke = False
        self.invoke_pairs: List["EffectPair"] = []
        #: The read/write pair captured around each ``assert_`` condition,
        #: recorded whether or not the assertion passed (the annotation
        #: linter's unsatisfiable-spec rule reads these).
        self.assert_pairs: List["EffectPair"] = []

    # -- setup helpers ---------------------------------------------------------

    def invoke(self, *args: Any) -> Any:
        """Call the synthesized method (the ``x_r = P(e)`` step of a setup)."""

        if self._recorder is not None:
            self._recorder.before_invoke(self, args)
        if self._capture_invoke:
            with effect_capture() as log:
                try:
                    self.result = self.interpreter.call_program(self.program, *args)
                finally:
                    # Appended even when the candidate crashes: the partial
                    # log is a prefix of the run's effects, which is exactly
                    # what soundness subsumption and the purity fast-path
                    # need (a pure partial log means nothing was written).
                    self.invoke_pairs.append(log.pair)
        else:
            self.result = self.interpreter.call_program(self.program, *args)
        if self._recorder is not None:
            self._recorder.after_invoke(self)
        return self.result

    def __setitem__(self, key: str, value: Any) -> None:
        if self._recorder is not None:
            self._recorder.on_state_write(self)
        self.state[key] = value

    def __getitem__(self, key: str) -> Any:
        return self.state[key]

    # -- postcondition helpers ----------------------------------------------------

    def assert_(self, condition: Callable[[], Any] | Any, message: Optional[str] = None) -> Any:
        """Assert a condition, capturing the effects its evaluation reads.

        The condition is usually a zero-argument callable so its library
        calls run inside the capture window; passing an already-computed
        value is allowed but then no effects can be observed.
        """

        with effect_capture() as log:
            value = condition() if callable(condition) else condition
        self.assert_pairs.append(log.pair)
        if truthy(value):
            self.passed_asserts += 1
            return value
        raise AssertionFailure(log.pair, message, observed=value)

    def assert_equal(self, expected_fn: Callable[[], Any] | Any, actual_fn: Callable[[], Any] | Any) -> Any:
        """Assert equality of two (possibly lazily evaluated) values."""

        def condition() -> bool:
            expected = expected_fn() if callable(expected_fn) else expected_fn
            actual = actual_fn() if callable(actual_fn) else actual_fn
            return expected == actual

        return self.assert_(condition)


@dataclass
class SynthesisProblem:
    """A synthesis goal: name, signature, constants, specs and class table."""

    name: str
    arg_types: Tuple[T.Type, ...]
    ret_type: T.Type
    class_table: ClassTable
    specs: List[Spec] = field(default_factory=list)
    constants: Tuple[Any, ...] = ()
    reset: Callable[[], None] = lambda: None
    #: The database the reset closure restores.  Providing it opts the
    #: problem into copy-on-write snapshot/restore state management
    #: (:mod:`repro.synth.state`) and asserts that ``reset`` and the spec
    #: setups touch only this database, deterministically.
    database: Optional["Database"] = None
    #: Evaluation caches registered against this problem; flushed whenever
    #: the baseline state ``reset`` restores changes (see ``rebind_reset``).
    _caches: List["SynthCache"] = field(
        default_factory=list, init=False, repr=False, compare=False
    )
    #: Lazily-created snapshot manager (see :meth:`state_manager`).
    _state_manager: Optional["StateManager"] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: The problem's counter: ``search.reset_replays``, the reset-closure
    #: invocations (the state-rebuild work the snapshot subsystem removes).
    counters: Counters = field(
        default_factory=lambda: Counters({"search.reset_replays": 0}),
        init=False,
        repr=False,
        compare=False,
    )
    #: The enumerator's S-Const/S-App table, keyed by ``(class-table
    #: generation, hole type, use_types)`` (see
    #: :func:`repro.synth.enumerate.productions`).  Held here, not at module
    #: level, so it is freed with the problem and never keeps a finished
    #: problem's model classes (and their database) alive.
    _productions: Dict[Tuple[Any, ...], Any] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @staticmethod
    def from_signature(
        name: str,
        signature: str,
        class_table: ClassTable,
        constants: Sequence[Any] = (),
        reset: Callable[[], None] = lambda: None,
        database: Optional["Database"] = None,
    ) -> "SynthesisProblem":
        arg_types, ret_type = parse_method_sig(signature)
        return SynthesisProblem(
            name=name,
            arg_types=tuple(arg_types),
            ret_type=ret_type,
            class_table=class_table,
            constants=tuple(constants),
            reset=reset,
            database=database,
        )

    # -- derived views -----------------------------------------------------------

    @property
    def params(self) -> Tuple[str, ...]:
        return tuple(f"arg{i}" for i in range(len(self.arg_types)))

    @property
    def param_env(self) -> Dict[str, T.Type]:
        return dict(zip(self.params, self.arg_types))

    def add_spec(self, name: str, setup: SetupFn, postcond: PostcondFn) -> Spec:
        spec = Spec(name, setup, postcond)
        self.specs.append(spec)
        return spec

    def make_program(self, body: A.Node, name: Optional[str] = None) -> A.MethodDef:
        return A.MethodDef(name or self.name, self.params, body)

    def constant_exprs(self) -> List[Tuple[A.Node, T.Type]]:
        """The constants Sigma as (expression, type) pairs."""

        result: List[Tuple[A.Node, T.Type]] = []
        for value in self.constants:
            result.append(constant_to_expr(value))
        return result

    def library_method_count(self) -> int:
        return len(self.class_table.synthesis_methods())

    def run_reset(self) -> None:
        """Invoke the reset closure (counted so benchmarks can report it)."""

        self.reset()
        self.counters["search.reset_replays"] += 1
        if self._state_manager is not None:
            # A direct reset mutated the database behind the manager's back;
            # its restore fast-path marker (see StateManager.note_eval) must
            # not survive it.
            self._state_manager.note_external_mutation()

    @property
    def reset_replays(self) -> int:
        return self.counters["search.reset_replays"]

    # -- state management --------------------------------------------------------

    def state_manager(self) -> Optional["StateManager"]:
        """The problem's snapshot/restore manager, or ``None`` without a database.

        Created on first use and kept for the problem's lifetime, so the warm
        baseline and spec recordings are shared across repeated runs (e.g. a
        benchmark registry's runs).
        """

        if self.database is None:
            return None
        if self._state_manager is None:
            from repro.synth.state import StateManager

            self._state_manager = StateManager(self.database)
        return self._state_manager

    # -- cache lifecycle ---------------------------------------------------------

    def register_cache(self, cache: "SynthCache") -> None:
        """Attach an evaluation cache so baseline changes can flush it."""

        if cache not in self._caches:
            self._caches.append(cache)

    def unregister_cache(self, cache: "SynthCache") -> None:
        """Detach a cache (a finished run releases its per-run cache)."""

        if cache in self._caches:
            self._caches.remove(cache)

    def invalidate_caches(self) -> None:
        """Flush every registered cache.

        Call this whenever the state ``reset`` restores has changed out of
        band (for example, after mutating the seed rows a reset closure
        re-applies): memoized spec outcomes recorded against the old
        baseline would otherwise go stale.
        """

        for cache in self._caches:
            cache.invalidate()
        if self._state_manager is not None:
            self._state_manager.invalidate()

    def rebind_reset(self, reset: Callable[[], None]) -> None:
        """Replace the reset function and invalidate dependent caches."""

        self.reset = reset
        self.invalidate_caches()


def constant_to_expr(value: Any) -> Tuple[A.Node, T.Type]:
    """Convert a Python-level constant into an AST literal and its type."""

    if value is None:
        return A.NIL, T.NIL
    if value is True:
        return A.TRUE, T.TRUE_CLASS
    if value is False:
        return A.FALSE, T.FALSE_CLASS
    if isinstance(value, int) and not isinstance(value, bool):
        return A.IntLit(value), T.INT
    if isinstance(value, str):
        return A.StrLit(value), T.STRING
    from repro.lang.values import Symbol, is_class_value, class_name_of_value

    if isinstance(value, Symbol):
        return A.SymLit(value.name), T.SymbolType(value.name)
    if is_class_value(value):
        name = class_name_of_value(value)
        return A.ConstRef(name), T.SingletonClassType(name)
    raise ValueError(f"unsupported constant {value!r}")


# ---------------------------------------------------------------------------
# Spec evaluation (EvalProgram of Algorithm 2)
# ---------------------------------------------------------------------------


@dataclass
class SpecOutcome:
    """The result of running one candidate program against one spec."""

    ok: bool
    passed_asserts: int = 0
    failure: Optional[AssertionFailure] = None
    error: Optional[Exception] = None
    value: Any = None
    #: Union of the effect pairs dynamically observed around the setup's
    #: ``ctx.invoke`` calls; only filled under ``capture_invoke`` (the
    #: soundness checker's differential input), ``None`` otherwise.
    invoke_pair: Optional[EffectPair] = None

    @property
    def has_effect_error(self) -> bool:
        return self.failure is not None and not self.failure.read_effect.is_pure


def evaluate_spec(
    problem: SynthesisProblem,
    program: A.MethodDef,
    spec: Spec,
    cache: Optional["SynthCache"] = None,
    state: Optional["StateManager"] = None,
    interpreter: Optional[Interpreter] = None,
    backend: Optional[str] = None,
    static_write_pure: bool = False,
    capture_invoke: bool = False,
) -> SpecOutcome:
    """Reset global state, run the spec's setup, then its postcondition.

    With a ``cache``, identical ``(program, spec)`` pairs (at the same
    effect-annotation precision) return the memoized outcome without
    re-running ``reset``/setup -- the memo of the Section 4 observation
    that unique paths, not tests, should be the bottleneck.

    With a ``state`` manager, the reset closure and the setup's seed work
    are replaced by copy-on-write snapshot restores once the spec has been
    recorded (:mod:`repro.synth.state`).  ``interpreter`` lets callers batch
    several evaluations in one interpreter session (``evaluate_all_specs``).
    ``backend`` accepts only ``None`` or ``"tree"`` (the tree walker is the
    one evaluator) and is kept for callers that still name it; anything else
    raises ``ValueError``.

    ``static_write_pure`` tells the evaluation that the candidate's *static*
    write footprint is pure (:mod:`repro.analysis.footprint`).  The invoke
    then runs inside an effect capture, and when the dynamic log confirms
    the purity, the state manager is told the database still equals the
    spec's pre-invoke snapshot -- letting the *next* replay of the same
    spec skip its restore entirely (``state.pure_skips``).  The
    dynamic confirmation makes the fast-path robust against annotation
    bugs: a lying "pure" annotation costs the skip, never correctness.

    ``capture_invoke`` additionally bypasses the memo (both lookup and
    store) and returns the dynamically observed effect pair on
    ``SpecOutcome.invoke_pair`` -- the soundness checker's probe, which
    must observe a real execution.
    """

    if backend is not None and backend != "tree":
        raise ValueError(f"unknown eval backend {backend!r}; only 'tree' exists")
    tracer = trace.TRACER
    if not tracer.enabled:
        return _evaluate_spec_impl(
            problem,
            program,
            spec,
            cache,
            state,
            interpreter,
            static_write_pure,
            capture_invoke,
        )
    with tracer.span("eval.spec", spec=spec.name):
        outcome = _evaluate_spec_impl(
            problem,
            program,
            spec,
            cache,
            state,
            interpreter,
            static_write_pure,
            capture_invoke,
        )
        tracer.annotate(ok=outcome.ok, passed=outcome.passed_asserts)
        return outcome


def _evaluate_spec_impl(
    problem: SynthesisProblem,
    program: A.MethodDef,
    spec: Spec,
    cache: Optional["SynthCache"] = None,
    state: Optional["StateManager"] = None,
    interpreter: Optional[Interpreter] = None,
    static_write_pure: bool = False,
    capture_invoke: bool = False,
) -> SpecOutcome:
    """The untraced body of :func:`evaluate_spec`.

    Kept separate so the tracing-disabled path costs exactly one attribute
    check, and so ``benchmarks/bench_obs.py`` can time this pre-obs
    baseline directly against the wrapper.
    """

    if cache is not None and not capture_invoke:
        memoized = cache.lookup_spec(problem, program, spec)
        if memoized is not None:
            return memoized
    if interpreter is None:
        interpreter = Interpreter(problem.class_table)
    ctx = SpecContext(problem, program, interpreter)
    capture = capture_invoke or (static_write_pure and state is not None)
    ctx._capture_invoke = capture
    # The state-restore phase is infrastructure: a crashing reset closure or
    # corrupt snapshot must propagate, not be misread (and memoized) as a
    # candidate-induced spec failure.
    if state is not None:
        run_setup = state.begin(problem, spec)
    else:
        problem.run_reset()
        run_setup = spec.setup
    try:
        run_setup(ctx)
        result = ctx.result
        spec.postcond(ctx, result)
        outcome = SpecOutcome(ok=True, passed_asserts=ctx.passed_asserts, value=result)
    except NondeterministicSetupError:
        # The verify_recordings debug mode caught a broken determinism
        # contract: infrastructure, not a candidate failure -- never memoize.
        raise
    except AssertionFailure as failure:
        outcome = SpecOutcome(
            ok=False,
            passed_asserts=ctx.passed_asserts,
            failure=_without_tracebacks(failure),
        )
    except Exception as error:  # noqa: BLE001 - candidate-induced spec crashes
        outcome = SpecOutcome(
            ok=False,
            passed_asserts=ctx.passed_asserts,
            error=_without_tracebacks(error),
        )
    if capture_invoke:
        outcome.invoke_pair = _union_pairs(ctx.invoke_pairs)
    if state is not None:
        # A pure partial log also counts: nothing was written before a crash.
        clean = (
            static_write_pure
            and capture
            and all(pair.write.is_pure for pair in ctx.invoke_pairs)
        )
        state.note_eval(spec, clean)
    if cache is not None and not capture_invoke:
        cache.store_spec(problem, program, spec, outcome)
    return outcome


def _without_tracebacks(error: Exception) -> Exception:
    """``error`` with the tracebacks of it and its chained causes cleared.

    The memo and the static pruner keep failing outcomes for the rest of a
    run, and a traceback would keep every frame of the evaluation alive
    (interpreter, spec context, setup locals).  Nothing reads them: the
    store keeps only the type and message.
    """

    link: Optional[BaseException] = error
    seen = set()  # ``raise y from x`` inside ``except x`` can close a cycle
    while link is not None and id(link) not in seen:
        seen.add(id(link))
        link.__traceback__ = None
        link = link.__cause__ or link.__context__
    return error


def _union_pairs(pairs: Sequence[EffectPair]) -> EffectPair:
    result = EffectPair.pure()
    for pair in pairs:
        result = result.union(pair)
    return result


def evaluate_all_specs(
    problem: SynthesisProblem,
    program: A.MethodDef,
    specs: Optional[Sequence[Spec]] = None,
    cache: Optional["SynthCache"] = None,
    budget: Optional["Budget"] = None,
    state: Optional["StateManager"] = None,
    static_write_pure: bool = False,
) -> bool:
    """Whether ``program`` passes every spec (used by merge validation).

    Checks ``budget`` before each spec execution so the merge phase's
    ordering/validation loops cannot run past the synthesis timeout.

    With a ``state`` manager the whole goal is batched against the candidate
    in a single interpreter session, with snapshot restores between specs,
    instead of paying a fresh interpreter plus reset+setup replay per spec.
    """

    interpreter = Interpreter(problem.class_table) if state is not None else None
    for spec in specs if specs is not None else problem.specs:
        if budget is not None and budget.expired():
            raise SynthesisTimeout(
                f"timeout while validating {program.name!r} against specs"
            )
        outcome = evaluate_spec(
            problem,
            program,
            spec,
            cache=cache,
            state=state,
            interpreter=interpreter,
            static_write_pure=static_write_pure,
        )
        if not outcome.ok:
            return False
    return True


def evaluate_guard(
    problem: SynthesisProblem,
    guard: A.Node,
    spec: Spec,
    expect: bool,
    cache: Optional["SynthCache"] = None,
    state: Optional["StateManager"] = None,
    static_write_pure: bool = False,
) -> bool:
    """Whether ``guard`` (as the whole method body) evaluates to ``expect``.

    This is the check of Section 3.3: under the setup of the spec, a method
    whose body is the guard must return a truthy (``expect=True``) or falsy
    (``expect=False``) value.  Runtime errors simply reject the guard.

    The memo stores the guard's truthiness under the spec (``None`` for a
    crashing guard) independent of ``expect``, so one execution answers
    both the positive and the negated question.
    """

    tracer = trace.TRACER
    if not tracer.enabled:
        return _evaluate_guard_impl(
            problem, guard, spec, expect, cache, state, static_write_pure
        )
    with tracer.span("eval.guard", spec=spec.name, expect=expect):
        accepted = _evaluate_guard_impl(
            problem, guard, spec, expect, cache, state, static_write_pure
        )
        tracer.annotate(accepted=accepted)
        return accepted


def _evaluate_guard_impl(
    problem: SynthesisProblem,
    guard: A.Node,
    spec: Spec,
    expect: bool,
    cache: Optional["SynthCache"] = None,
    state: Optional["StateManager"] = None,
    static_write_pure: bool = False,
) -> bool:
    """The untraced body of :func:`evaluate_guard` (see
    :func:`_evaluate_spec_impl` for why the split exists)."""

    program = problem.make_program(guard)
    if cache is not None:
        from repro.synth.cache import MISSING

        memoized = cache.lookup_guard(problem, program, spec)
        if memoized is not MISSING:
            return memoized is not None and memoized == expect
    interpreter = Interpreter(problem.class_table)
    ctx = SpecContext(problem, program, interpreter)
    # Guards are overwhelmingly read-only, so the static purity fast-path
    # (see evaluate_spec) pays off most in guard search: consecutive guard
    # trials against the same spec skip the restore between them.
    ctx._capture_invoke = static_write_pure and state is not None
    # As in evaluate_spec, restore failures are infrastructure errors and
    # propagate; only the guard's own execution can reject it.
    if state is not None:
        run_setup = state.begin(problem, spec)
    else:
        problem.run_reset()
        run_setup = spec.setup
    truthiness: Optional[bool]
    try:
        run_setup(ctx)
        truthiness = truthy(ctx.result)
    except NondeterministicSetupError:
        raise
    except Exception:  # noqa: BLE001 - a crashing guard is simply rejected
        truthiness = None
    if state is not None:
        clean = (
            static_write_pure
            and ctx._capture_invoke
            and all(pair.write.is_pure for pair in ctx.invoke_pairs)
        )
        state.note_eval(spec, clean)
    if cache is not None:
        cache.store_guard(problem, program, spec, truthiness)
    return truthiness is not None and truthiness == expect


# ---------------------------------------------------------------------------
# Time budget shared across the stages of one synthesis run
# ---------------------------------------------------------------------------


class Budget:
    """A wall-clock budget; ``None`` timeout means unlimited."""

    def __init__(self, timeout_s: Optional[float]) -> None:
        self.start = time.perf_counter()
        self.timeout_s = timeout_s

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def expired(self) -> bool:
        return self.timeout_s is not None and self.elapsed() >= self.timeout_s


class SynthesisTimeout(Exception):
    """Raised internally when the budget expires mid-search."""
