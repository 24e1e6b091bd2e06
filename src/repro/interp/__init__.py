"""Operational semantics of lambda-syn and runtime effect capture.

The interpreter evaluates synthesized candidate bodies against the substrate
libraries (the in-memory ORM and app methods) by walking the AST, while the
effect log records the read/write effect annotations of every library call
that executes.  The effect log is what turns a failed spec assertion into
the ``err(e_r, e_w)`` error of the extended calculus (Appendix A.1), which in
turn drives effect-guided synthesis.
"""

from repro.interp.effect_log import EffectLog, current_effect_log, effect_capture, log_effect
from repro.interp.errors import AssertionFailure, CallBudgetExceeded, SynRuntimeError
from repro.interp.interpreter import Interpreter

__all__ = [
    "EffectLog",
    "current_effect_log",
    "effect_capture",
    "log_effect",
    "AssertionFailure",
    "CallBudgetExceeded",
    "SynRuntimeError",
    "Interpreter",
]
