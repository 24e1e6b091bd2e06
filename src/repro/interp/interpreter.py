"""A definitional interpreter for lambda-syn.

The interpreter evaluates candidate method bodies produced by the
synthesizer.  Method calls are dispatched through the class table using the
*runtime* class of the receiver (walking the superclass chain), the method's
implementation callable performs the actual work against the substrate, and
the method's resolved effect annotation is recorded into any active effect
capture (rule E-MethCall of Appendix A.1).

Since PR 6 the :class:`Interpreter` is the shared *evaluation context* --
class table, call budget, constant lookup and runtime method dispatch --
while the AST traversal itself is delegated to a pluggable
:class:`~repro.interp.backend.EvalBackend`:

* ``backend="tree"`` walks the AST node by node (the definitional
  semantics);
* ``backend="compiled"`` (the default) closes each subtree into a chain of
  cached Python closures
  (:mod:`repro.interp.compile`).

The call budget is shared across *nested* ``eval``/``call_program`` entries:
a method implementation that re-enters the interpreter draws from the same
allowance as the outermost evaluation, and exceeding it raises
:class:`~repro.interp.errors.CallBudgetExceeded` from either backend.

Expressions containing holes are not evaluable; attempting to evaluate one
raises :class:`~repro.interp.errors.SynRuntimeError`, mirroring the
``evaluable`` side condition of Algorithm 2.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Union

from repro.lang import ast as A
from repro.lang import values as V
from repro.lang.values import ClassValue, HashValue
from repro.interp.backend import EvalBackend, resolve_backend
from repro.interp.effect_log import log_effect
from repro.interp.errors import (
    CallBudgetExceeded,
    NoMethodError,
    SynRuntimeError,
)
from repro.typesys.class_table import ClassTable, MethodSig


class Interpreter:
    """Evaluates lambda-syn expressions against a class table."""

    def __init__(
        self,
        class_table: ClassTable,
        max_calls: int = 100_000,
        backend: Union[str, EvalBackend, None] = None,
    ) -> None:
        self.class_table = class_table
        self.max_calls = max_calls
        self.backend = resolve_backend(backend)
        #: Bound once: ``call_program`` is the per-candidate entry point of
        #: the search, so even the ``self.backend.run`` attribute chain is
        #: off the hot path.
        self._backend_run = self.backend.run
        self._calls = 0
        self._depth = 0

    # -- public API ----------------------------------------------------------

    def eval(self, expr: A.Node, env: Optional[Mapping[str, Any]] = None) -> Any:
        """Evaluate ``expr`` in dynamic environment ``env``.

        ``env`` is the caller-facing mapping API; internally it is lowered
        to the slot-frame representation both backends run on -- a scope
        tuple naming the slots plus a fresh frame list holding the values
        (see :mod:`repro.interp.backend`).  The call budget resets only on
        *outermost* entries: nested evaluations (method implementations
        re-entering the interpreter) share the outer evaluation's budget
        instead of silently wiping it.
        """

        if env:
            scope = tuple(env)
            frame = list(env.values())
        else:
            scope = ()
            frame = []
        if self._depth == 0:
            self._calls = 0
        self._depth += 1
        try:
            return self._backend_run(self, expr, scope, frame)
        finally:
            self._depth -= 1

    def call_program(self, program: A.MethodDef, *args: Any) -> Any:
        """Invoke a synthesized method definition with the given arguments."""

        params = program.params
        if len(args) != len(params):
            raise SynRuntimeError(
                f"{program.name} expects {len(params)} arguments, "
                f"got {len(args)}"
            )
        # Inlined ``eval`` (this is the per-candidate entry point of the
        # search): the parameter tuple *is* the frame's scope, so the frame
        # is just the argument list -- no env dict is ever built.
        if self._depth == 0:
            self._calls = 0
        self._depth += 1
        try:
            return self._backend_run(self, program.body, params, list(args))
        finally:
            self._depth -= 1

    # -- shared evaluation context --------------------------------------------

    def charge_call(self) -> None:
        """Charge one method call against the (nesting-shared) budget."""

        self._calls += 1
        if self._calls > self.max_calls:
            raise CallBudgetExceeded(self.max_calls)

    @property
    def calls_charged(self) -> int:
        """Method calls charged so far in the current outermost evaluation."""

        return self._calls

    def _const(self, name: str) -> Any:
        pyclass = self.class_table.pyclass(name)
        if pyclass is not None:
            return pyclass
        if self.class_table.has_class(name):
            return ClassValue(name)
        raise SynRuntimeError(f"unknown constant {name}")

    def call_method(self, receiver: Any, name: str, args: list[Any]) -> Any:
        """Dispatch ``receiver.name(*args)`` through the class table."""

        cls_name = V.class_name_of_value(receiver)
        singleton = V.is_class_value(receiver)
        sig = self._lookup(cls_name, name, singleton)
        if sig is None:
            raise NoMethodError(cls_name, name)

        resolved = self.class_table.resolve(sig, _receiver_type(receiver, cls_name, singleton))
        log_effect(resolved.effects.read, resolved.effects.write)

        if sig.impl is None:
            raise SynRuntimeError(
                f"method {sig.qualified_name} has no implementation"
            )
        try:
            return sig.impl(self, receiver, *args)
        except (SynRuntimeError, NoMethodError):
            raise
        except (TypeError, ValueError, KeyError, AttributeError, IndexError) as exc:
            raise SynRuntimeError(
                f"error calling {sig.qualified_name}: {exc}"
            ) from exc

    def _lookup(self, cls_name: str, name: str, singleton: bool) -> Optional[MethodSig]:
        if self.class_table.has_class(cls_name):
            return self.class_table.lookup(cls_name, name, singleton)
        return None


def _receiver_type(receiver: Any, cls_name: str, singleton: bool):
    from repro.lang import types as T

    if singleton:
        return T.SingletonClassType(cls_name)
    if isinstance(receiver, HashValue):
        return V.type_of_value(receiver)
    return T.ClassType(cls_name)
