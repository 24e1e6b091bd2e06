"""Pluggable evaluation backends for the lambda-syn interpreter.

The :class:`~repro.interp.interpreter.Interpreter` is the shared *evaluation
context* -- it owns the class table, the call budget and runtime method
dispatch (``call_method``) -- while the actual traversal of a candidate AST
is delegated to an :class:`EvalBackend`:

* :class:`TreeBackend` (``"tree"``) walks the AST with an isinstance
  dispatch chain on every visit, exactly the definitional semantics the
  interpreter always had;
* :class:`~repro.interp.compile.CompiledBackend` (``"compiled"``) closes
  each subtree into a chain of Python closures once per
  binder layout and caches the closures on the node, so the per-node
  dispatch cost is paid once per *shape* instead of once per evaluation.

Both backends evaluate on the same environment representation, resolved by
:mod:`repro.lang.resolve`: a flat positional *frame* (a Python list of
values) described by a parallel *scope* (the tuple of binder names from the
frame base upward -- parameters first, then enclosing ``let`` binders).  A
``let`` appends one slot for its body and truncates it afterwards; shadowing
resolves innermost-first, i.e. to the highest matching index.  The compiled
backend bakes those indices into closures at compile time while the tree
walker scans the scope dynamically, which is exactly what keeps the
differential suite meaningful: a wrong precomputed slot diverges from the
dynamic scan.  Frames are created fresh per outermost evaluation, and both
backends maintain ``len(frame) == len(scope)`` at every node entry.

Both backends route effect logging, call-budget charging, constant lookup
and method dispatch through the same context methods, so they are
observably identical: same values, same effect logs, same raised error
types (``tests/test_interp_backends.py`` holds them to that differentially).

The process-wide default backend is ``"compiled"``; the ``REPRO_EVAL_BACKEND``
environment variable overrides it (used by CI to keep the ``"tree"``
fallback green).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Any, Dict, List, Tuple

from repro.lang import ast as A
from repro.lang.values import HashValue, Symbol, truthy
from repro.interp.errors import SynRuntimeError, UnboundVariableError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.interp.interpreter import Interpreter

#: The backend used when neither the caller nor the config picks one.
DEFAULT_BACKEND = "compiled"

#: Names accepted by :func:`get_backend` / ``SynthConfig.eval_backend``.
BACKEND_NAMES = ("compiled", "tree")


def default_backend_name() -> str:
    """The process default, overridable via ``REPRO_EVAL_BACKEND``."""

    name = os.environ.get("REPRO_EVAL_BACKEND", DEFAULT_BACKEND)
    return name if name in BACKEND_NAMES else DEFAULT_BACKEND


class EvalBackend:
    """Strategy interface: evaluate ``expr`` on a slot frame in context ``rt``.

    ``scope`` names the frame's slots from the base upward; ``frame`` holds
    the corresponding values and is owned by the caller for this entry (the
    backend may grow and shrink it while evaluating ``let`` bodies).
    """

    name: str = "abstract"

    def run(
        self, rt: "Interpreter", expr: A.Node, scope: Tuple[str, ...], frame: List[Any]
    ) -> Any:
        raise NotImplementedError


class TreeBackend(EvalBackend):
    """The definitional tree-walking evaluator (the original semantics)."""

    name = "tree"

    def run(
        self, rt: "Interpreter", expr: A.Node, scope: Tuple[str, ...], frame: List[Any]
    ) -> Any:
        # The walker extends the scope in lockstep with the frame, so it
        # needs a private mutable copy; the frame itself is per-entry.
        return self._eval(rt, expr, list(scope), frame)

    def _eval(
        self, rt: "Interpreter", expr: A.Node, scope: List[str], frame: List[Any]
    ) -> Any:
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
            return rt._const(expr.name)
        if isinstance(expr, A.Var):
            # Dynamic name resolution, innermost binder first -- the
            # behavior the compiled backend's baked slots must reproduce.
            name = expr.name
            for i in range(len(scope) - 1, -1, -1):
                if scope[i] == name:
                    return frame[i]
            raise UnboundVariableError(name)
        if isinstance(expr, (A.TypedHole, A.EffectHole)):
            raise SynRuntimeError("cannot evaluate an expression containing holes")
        if isinstance(expr, A.Seq):
            self._eval(rt, expr.first, scope, frame)
            return self._eval(rt, expr.second, scope, frame)
        if isinstance(expr, A.Let):
            value = self._eval(rt, expr.value, scope, frame)
            scope.append(expr.var)
            frame.append(value)
            result = self._eval(rt, expr.body, scope, frame)
            scope.pop()
            frame.pop()
            return result
        if isinstance(expr, A.HashLit):
            return HashValue(
                {
                    Symbol(key): self._eval(rt, value, scope, frame)
                    for key, value in expr.entries
                }
            )
        if isinstance(expr, A.MethodCall):
            rt.charge_call()
            receiver = self._eval(rt, expr.receiver, scope, frame)
            args = [self._eval(rt, arg, scope, frame) for arg in expr.args]
            return rt.call_method(receiver, expr.name, args)
        if isinstance(expr, A.If):
            if truthy(self._eval(rt, expr.cond, scope, frame)):
                return self._eval(rt, expr.then_branch, scope, frame)
            return self._eval(rt, expr.else_branch, scope, frame)
        if isinstance(expr, A.Not):
            return not truthy(self._eval(rt, expr.expr, scope, frame))
        if isinstance(expr, A.Or):
            left = self._eval(rt, expr.left, scope, frame)
            if truthy(left):
                return left
            return self._eval(rt, expr.right, scope, frame)
        if isinstance(expr, A.MethodDef):
            return self._eval(rt, expr.body, scope, frame)
        raise SynRuntimeError(f"cannot evaluate {expr!r}")


_BACKENDS: Dict[str, EvalBackend] = {}


def get_backend(name: str) -> EvalBackend:
    """The (stateless, shared) backend instance registered under ``name``."""

    backend = _BACKENDS.get(name)
    if backend is not None:
        return backend
    if name == "tree":
        backend = TreeBackend()
    elif name == "compiled":
        from repro.interp.compile import CompiledBackend

        backend = CompiledBackend()
    else:
        raise ValueError(
            f"unknown eval backend {name!r}; expected one of {BACKEND_NAMES}"
        )
    _BACKENDS[name] = backend
    return backend


def resolve_backend(backend: "str | EvalBackend | None") -> EvalBackend:
    """Coerce a backend name (or ``None`` for the default) to an instance."""

    if isinstance(backend, EvalBackend):
        return backend
    return get_backend(backend if backend is not None else default_backend_name())
