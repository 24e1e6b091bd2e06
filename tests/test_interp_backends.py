"""Outcome fingerprints of the interpreter's error paths.

Hole rejection and call-budget exhaustion are checked on everything
observable about a run: the raised error's type and message, the captured
read/write effects, the logged call count and ``calls_charged``.  Each
outcome must be identical on a fresh interpreter and on one reused after
other evaluations (including an earlier exhaustion), so nothing from a
previous outermost ``eval`` leaks into the next.
"""

from __future__ import annotations

from repro.interp import Interpreter, effect_capture
from repro.lang import ast as A
from repro.lang import types as T
from repro.lang.effects import Effect


def _observe(interp, expr):
    """Evaluate once and fingerprint everything observable about the run."""

    with effect_capture() as log:
        try:
            result = ("value", repr(interp.eval(expr)))
        except Exception as exc:  # noqa: BLE001 - error identity is the point
            result = ("error", type(exc).__name__, str(exc))
    return (result, str(log.read), str(log.write), log.calls, interp.calls_charged)


def _assert_fresh_and_reused_agree(class_table, expr, max_calls=100_000):
    fresh = _observe(Interpreter(class_table, max_calls=max_calls), expr)
    reused = Interpreter(class_table, max_calls=max_calls)
    _observe(reused, expr)
    _observe(reused, A.call(A.IntLit(1), "+", A.IntLit(1)))
    again = _observe(reused, expr)
    assert fresh == again, f"reused interpreter diverges on {expr!r}:\n{fresh}\n{again}"
    return fresh


def test_hole_evaluation_raises_identically(orm_class_table):
    for expr in (
        A.TypedHole(T.STRING),
        A.EffectHole(Effect.of("Post")),
        # A hole inside a compound expression fails the same way.
        A.Seq(A.IntLit(1), A.TypedHole(T.INT)),
    ):
        outcome = _assert_fresh_and_reused_agree(orm_class_table, expr)
        assert outcome[0][:2] == ("error", "SynRuntimeError")
        # Rejected before any library call: nothing charged or logged.
        assert outcome[3:] == (0, 0)


def test_budget_exhaustion_identical(orm_class_table):
    expr = A.IntLit(0)
    for _ in range(4):
        expr = A.call(expr, "+", A.IntLit(1))
    outcome = _assert_fresh_and_reused_agree(orm_class_table, expr, max_calls=2)
    assert outcome[0][:2] == ("error", "CallBudgetExceeded")
    # The third call is charged, and refused, before its receiver runs.
    assert outcome[4] == 3
