"""Runtime effect capture.

Every library call made while a capture is active -- whether through the
lambda-syn interpreter or directly from Python spec code touching the ORM --
records its annotated read/write effect into the innermost active
:class:`EffectLog`.  Spec assertions wrap their condition in a fresh capture
so a failing assertion knows exactly which regions it read (rule
E-AssertFail), which is the input to effect-guided synthesis.
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import Iterator, Optional

from repro.lang.effects import PURE, Effect, EffectPair


class EffectLog:
    """Accumulates the union of effects observed during a capture window."""

    __slots__ = ("read", "write", "calls")

    def __init__(self) -> None:
        self.read: Effect = PURE
        self.write: Effect = PURE
        self.calls: int = 0

    def record(self, read: Effect = PURE, write: Effect = PURE) -> None:
        # Identity fast paths: substrate effects are interned (Effect.region),
        # so after the first log of a region, re-logging it is a pointer test.
        if read is not self.read and read is not PURE:
            self.read = self.read | read
        if write is not self.write and write is not PURE:
            self.write = self.write | write
        self.calls += 1

    def record_pair(self, pair: EffectPair) -> None:
        self.record(pair.read, pair.write)

    @property
    def pair(self) -> EffectPair:
        return EffectPair(self.read, self.write)

    def reset(self) -> None:
        self.read = PURE
        self.write = PURE
        self.calls = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"EffectLog(read={self.read}, write={self.write}, calls={self.calls})"


#: Stack of active effect logs; library calls record into every active log so
#: nested captures (assertion inside spec inside search) all see the effects.
_ACTIVE_LOGS: ContextVar[tuple[EffectLog, ...]] = ContextVar(
    "repro_effect_logs", default=()
)


def current_effect_log() -> Optional[EffectLog]:
    """The innermost active log, or ``None`` when no capture is active."""

    logs = _ACTIVE_LOGS.get()
    return logs[-1] if logs else None


def captures_active() -> bool:
    """Whether any capture window is open.

    Effect-logging call sites that must *build* an effect value before
    logging it (``Effect.region`` interning, memoized but not free) check
    this first so the no-capture path -- every call outside a spec
    assertion -- skips the construction entirely.
    """

    return bool(_ACTIVE_LOGS.get())


def log_effect(read: Effect = PURE, write: Effect = PURE) -> None:
    """Record an effect into every active capture (no-op when none active)."""

    logs = _ACTIVE_LOGS.get()
    for log in logs:
        log.record(read, write)


def log_effect_pair(pair: EffectPair) -> None:
    log_effect(pair.read, pair.write)


@contextlib.contextmanager
def effect_capture(log: Optional[EffectLog] = None) -> Iterator[EffectLog]:
    """Context manager opening a capture window.

    Example::

        with effect_capture() as log:
            post.title          # logs read Post.title
        assert not log.read.is_pure
    """

    log = log if log is not None else EffectLog()
    token = _ACTIVE_LOGS.set(_ACTIVE_LOGS.get() + (log,))
    try:
        yield log
    finally:
        _ACTIVE_LOGS.reset(token)


def active_capture_depth() -> int:
    """Number of nested capture windows (used in tests)."""

    return len(_ACTIVE_LOGS.get())
