"""Runtime errors of the extended calculus (Appendix A.1).

Results of evaluating a spec's postcondition are either a value or an error
``err(e_r, e_w)`` carrying the read/write effects observed while evaluating
the failed assertion.  :class:`AssertionFailure` is that error;
:class:`SynRuntimeError` covers every other runtime fault (calling a method
on ``nil``, unknown methods, substrate errors), which simply disqualifies a
candidate without triggering effect-guided repair.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.lang.effects import PURE, Effect, EffectPair


class SynRuntimeError(Exception):
    """A runtime error while evaluating a candidate or a spec."""


class CallBudgetExceeded(SynRuntimeError):
    """Raised when an evaluation exceeds the interpreter's call budget.

    The budget is shared across nested ``eval``/``call_program`` entries of
    one outermost evaluation (a method implementation that re-enters the
    interpreter draws from the same allowance); every method call charges
    one unit.
    """

    def __init__(self, max_calls: int) -> None:
        super().__init__(f"call budget exhausted (max {max_calls} calls)")
        self.max_calls = max_calls


class NoMethodError(SynRuntimeError):
    """Raised when a receiver has no method of the requested name."""

    def __init__(self, receiver_class: str, method: str) -> None:
        super().__init__(f"undefined method `{method}` for {receiver_class}")
        self.receiver_class = receiver_class
        self.method = method


class UnboundVariableError(SynRuntimeError):
    def __init__(self, name: str) -> None:
        super().__init__(f"unbound variable {name}")
        self.name = name


class AssertionFailure(Exception):
    """``err(e_r, e_w)``: a spec assertion evaluated to a falsy value.

    Carries the read and write effects captured while the assertion's
    condition was evaluated, plus an optional human-readable message and the
    value the assertion saw (for debugging output).
    """

    def __init__(
        self,
        effects: EffectPair = EffectPair(),
        message: Optional[str] = None,
        observed: Any = None,
    ) -> None:
        super().__init__(message or f"assertion failed (read {effects.read})")
        self.effects = effects
        self.message = message
        self.observed = observed

    @property
    def read_effect(self) -> Effect:
        return self.effects.read

    @property
    def write_effect(self) -> Effect:
        return self.effects.write

    @staticmethod
    def pure(message: Optional[str] = None) -> "AssertionFailure":
        return AssertionFailure(EffectPair(PURE, PURE), message)
