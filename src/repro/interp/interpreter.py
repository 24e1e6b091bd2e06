"""A definitional interpreter for lambda-syn.

The interpreter evaluates candidate method bodies produced by the
synthesizer by walking the AST node by node.  Method calls are dispatched
through the class table using the *runtime* class of the receiver (walking
the superclass chain), the method's implementation callable performs the
actual work against the substrate, and the method's resolved effect
annotation is recorded into any active effect capture (rule E-MethCall of
Appendix A.1).

Variables live in a flat positional *frame* (a list of values) described by
a parallel *scope* (the list of binder names from the frame base upward --
parameters first, then enclosing ``let`` binders).  A ``let`` appends one
slot for its body and pops it afterwards, and a variable read scans the
scope innermost-first, so shadowing resolves to the highest matching index.
Every ``eval``/``call_program`` entry starts a fresh frame.

The call budget is shared across *nested* ``eval``/``call_program`` entries:
a method implementation that re-enters the interpreter draws from the same
allowance as the outermost evaluation, and exceeding it raises
:class:`~repro.interp.errors.CallBudgetExceeded`.

Expressions containing holes are not evaluable; attempting to evaluate one
raises :class:`~repro.interp.errors.SynRuntimeError`, mirroring the
``evaluable`` side condition of Algorithm 2.
"""

from __future__ import annotations

from typing import Any, List, Mapping, Optional

from repro.lang import ast as A
from repro.lang import types as T
from repro.lang import values as V
from repro.lang.values import ClassValue, HashValue, Symbol, truthy
from repro.interp.effect_log import log_effect
from repro.interp.errors import (
    CallBudgetExceeded,
    NoMethodError,
    SynRuntimeError,
    UnboundVariableError,
)
from repro.typesys.class_table import ClassTable, MethodSig


class Interpreter:
    """Evaluates lambda-syn expressions against a class table."""

    def __init__(self, class_table: ClassTable, max_calls: int = 100_000) -> None:
        self.class_table = class_table
        self.max_calls = max_calls
        self._calls = 0
        self._depth = 0

    # -- public API ----------------------------------------------------------

    def eval(self, expr: A.Node, env: Optional[Mapping[str, Any]] = None) -> Any:
        """Evaluate ``expr`` in dynamic environment ``env``.

        ``env`` is the caller-facing mapping API; it is lowered to a fresh
        scope/frame pair (the binder names and their values).  The call
        budget resets only on *outermost* entries: nested evaluations
        (method implementations re-entering the interpreter) share the outer
        evaluation's budget instead of silently wiping it.
        """

        if env:
            return self._enter(expr, list(env), list(env.values()))
        return self._enter(expr, [], [])

    def call_program(self, program: A.MethodDef, *args: Any) -> Any:
        """Invoke a synthesized method definition with the given arguments."""

        params = program.params
        if len(args) != len(params):
            raise SynRuntimeError(
                f"{program.name} expects {len(params)} arguments, "
                f"got {len(args)}"
            )
        # The parameter names are the frame's scope and the arguments its
        # values: no env dict is ever built.
        return self._enter(program.body, list(params), list(args))

    @property
    def calls_charged(self) -> int:
        """Method calls charged so far in the current outermost evaluation."""

        return self._calls

    # -- evaluation -----------------------------------------------------------

    def _enter(self, expr: A.Node, scope: List[str], frame: List[Any]) -> Any:
        if self._depth == 0:
            self._calls = 0
        self._depth += 1
        try:
            return self._eval(expr, scope, frame)
        finally:
            self._depth -= 1

    def _eval(self, expr: A.Node, scope: List[str], frame: List[Any]) -> Any:
        if isinstance(expr, A.NilLit):
            return None
        if isinstance(expr, A.BoolLit):
            return expr.value
        if isinstance(expr, A.IntLit):
            return expr.value
        if isinstance(expr, A.StrLit):
            return expr.value
        if isinstance(expr, A.SymLit):
            return Symbol(expr.name)
        if isinstance(expr, A.ConstRef):
            return self._const(expr.name)
        if isinstance(expr, A.Var):
            name = expr.name
            for i in range(len(scope) - 1, -1, -1):
                if scope[i] == name:
                    return frame[i]
            raise UnboundVariableError(name)
        if isinstance(expr, (A.TypedHole, A.EffectHole)):
            raise SynRuntimeError("cannot evaluate an expression containing holes")
        if isinstance(expr, A.Seq):
            self._eval(expr.first, scope, frame)
            return self._eval(expr.second, scope, frame)
        if isinstance(expr, A.Let):
            value = self._eval(expr.value, scope, frame)
            scope.append(expr.var)
            frame.append(value)
            result = self._eval(expr.body, scope, frame)
            scope.pop()
            frame.pop()
            return result
        if isinstance(expr, A.HashLit):
            return HashValue(
                {
                    Symbol(key): self._eval(value, scope, frame)
                    for key, value in expr.entries
                }
            )
        if isinstance(expr, A.MethodCall):
            self._calls += 1
            if self._calls > self.max_calls:
                raise CallBudgetExceeded(self.max_calls)
            receiver = self._eval(expr.receiver, scope, frame)
            args = [self._eval(arg, scope, frame) for arg in expr.args]
            return self.call_method(receiver, expr.name, args)
        if isinstance(expr, A.If):
            if truthy(self._eval(expr.cond, scope, frame)):
                return self._eval(expr.then_branch, scope, frame)
            return self._eval(expr.else_branch, scope, frame)
        if isinstance(expr, A.Not):
            return not truthy(self._eval(expr.expr, scope, frame))
        if isinstance(expr, A.Or):
            left = self._eval(expr.left, scope, frame)
            if truthy(left):
                return left
            return self._eval(expr.right, scope, frame)
        if isinstance(expr, A.MethodDef):
            return self._eval(expr.body, scope, frame)
        raise SynRuntimeError(f"cannot evaluate {expr!r}")

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
    if singleton:
        return T.SingletonClassType(cls_name)
    if isinstance(receiver, HashValue):
        return V.type_of_value(receiver)
    return T.ClassType(cls_name)
