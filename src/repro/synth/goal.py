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
from types import MappingProxyType
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.lang import ast as A
from repro.lang import types as T
from repro.lang.effects import EffectPair
from repro.lang.values import truthy
from repro.interp.effect_log import effect_capture
from repro.interp.errors import AssertionFailure
from repro.interp.interpreter import Interpreter
from repro.obs.metrics import Counters
from repro.synth.state import InfrastructureError
from repro.typesys.class_table import ClassTable
from repro.typesys.sigparser import parse_method_sig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.activerecord.database import Database
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
        #: When set (by ``evaluate_spec(..., capture_invoke=True)``), every
        #: ``invoke`` runs inside an effect capture and appends the observed
        #: pair here -- the dynamic side of the static/dynamic soundness
        #: gate.  A crashing invoke still appends its partial log (a prefix
        #: of the full effects, so subsumption checks remain sound).
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
                    # what soundness subsumption needs.
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
    #: The method's parameter names (``arg0``, ``arg1``, ...) and their
    #: types, derived from ``arg_types`` at construction (and recomputed by
    #: ``dataclasses.replace``).  ``param_env`` is read-only: the type
    #: checker and the footprint only read an env, and copy it for a ``Let``.
    params: Tuple[str, ...] = field(init=False, repr=False, compare=False)
    param_env: Mapping[str, T.Type] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.params = tuple(f"arg{i}" for i in range(len(self.arg_types)))
        self.param_env = MappingProxyType(dict(zip(self.params, self.arg_types)))

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

    def invalidate_caches(self) -> None:
        """Flush the snapshot manager's baseline and recordings.

        Call this whenever the state ``reset`` restores has changed out of
        band (for example, after mutating the seed rows a reset closure
        re-applies): snapshots captured against the old baseline would
        otherwise replay stale state.  The next evaluation re-records.
        """

        if self._state_manager is not None:
            self._state_manager.invalidate()

    def rebind_reset(self, reset: Callable[[], None]) -> None:
        """Replace the reset function and flush the snapshot manager."""

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
    state: Optional["StateManager"] = None,
    interpreter: Optional[Interpreter] = None,
    backend: Optional[str] = None,
    capture_invoke: bool = False,
) -> SpecOutcome:
    """Reset global state, run the spec's setup, then its postcondition.

    Every call executes.  With a ``state`` manager, the reset closure and
    the setup's seed work are replaced by copy-on-write snapshot restores
    once the spec has been recorded (:mod:`repro.synth.state`); every
    replay restores the spec's snapshot, so nothing the previous evaluation
    wrote -- in its invoke or in its postcondition -- is visible to this
    one.  ``interpreter`` lets callers batch several evaluations in one
    interpreter session (``evaluate_all_specs``).
    ``backend`` accepts only ``None`` or ``"tree"`` (the tree walker is the
    one evaluator) and is kept for callers that still name it; anything else
    raises ``ValueError``.

    ``capture_invoke`` runs every ``ctx.invoke`` inside an effect capture
    and returns the dynamically observed effect pair on
    ``SpecOutcome.invoke_pair`` -- the soundness checker's probe.

    A failure of the snapshot machinery (a broken reset closure, a corrupt
    snapshot, a recording that cannot be finalized, a ``verify_recordings``
    mismatch) propagates to the caller; only the candidate's own crashes
    and assertion failures become its outcome.
    """

    if backend is not None and backend != "tree":
        raise ValueError(f"unknown eval backend {backend!r}; only 'tree' exists")
    if interpreter is None:
        interpreter = Interpreter(problem.class_table)
    ctx = SpecContext(problem, program, interpreter)
    ctx._capture_invoke = capture_invoke
    # The state-restore phase is infrastructure: a crashing reset closure or
    # corrupt snapshot must propagate, not be misread as a candidate-induced
    # spec failure.
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
    except InfrastructureError:
        # The snapshot machinery failed (a recording could not be finalized,
        # or verify_recordings caught a broken determinism contract): not a
        # candidate failure.
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
    return outcome


def _without_tracebacks(error: Exception) -> Exception:
    """``error`` with the tracebacks of it and its chained causes cleared.

    The static pruner keeps failing outcomes for the rest of a search, and
    a traceback would keep every frame of the evaluation alive
    (interpreter, spec context, setup locals).  Nothing reads them.
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
    budget: Optional["Budget"] = None,
    state: Optional["StateManager"] = None,
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
            problem, program, spec, state=state, interpreter=interpreter
        )
        if not outcome.ok:
            return False
    return True


def evaluate_guard(
    problem: SynthesisProblem,
    guard: A.Node,
    spec: Spec,
    expect: bool,
    state: Optional["StateManager"] = None,
) -> bool:
    """Whether ``guard`` (as the whole method body) evaluates to ``expect``.

    This is the check of Section 3.3: under the setup of the spec, a method
    whose body is the guard must return a truthy (``expect=True``) or falsy
    (``expect=False``) value.  Runtime errors simply reject the guard,
    under either polarity.
    """

    program = problem.make_program(guard)
    interpreter = Interpreter(problem.class_table)
    ctx = SpecContext(problem, program, interpreter)
    # As in evaluate_spec, restore failures are infrastructure errors and
    # propagate; only the guard's own execution can reject it.
    if state is not None:
        run_setup = state.begin(problem, spec)
    else:
        problem.run_reset()
        run_setup = spec.setup
    try:
        run_setup(ctx)
    except InfrastructureError:
        raise
    except Exception:  # noqa: BLE001 - a crashing guard is simply rejected
        return False
    return truthy(ctx.result) == expect


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
