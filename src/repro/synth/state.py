"""Copy-on-write database snapshots for spec evaluation.

This module removes the state-rebuilding cost of spec and guard
evaluation.  Without it every spec evaluation replays the problem's reset
closure and the setup block's seed inserts before the candidate program
even runs -- exactly the work the Section 4 observation says should *not*
be the bottleneck (unique program paths should be).

The :class:`StateManager` exploits that a spec's setup is deterministic up to
the ``ctx.invoke(...)`` call: everything before the invoke depends only on
the problem baseline, not on the candidate.  The first time a spec runs, the
manager *records* it --

* the database state right before the invoke (a copy-on-write
  :meth:`~repro.activerecord.database.Database.snapshot`),
* the invoke arguments, and
* the setup's scratch state (``ctx.state``, the @ivars the postcondition
  reads)

-- and every later evaluation of the same spec *replays* the recording: the
database is restored by cheap copy-on-write table swaps
(:meth:`~repro.activerecord.database.Database.restore`) and the candidate is
invoked directly, skipping the reset closure and the seed inserts entirely.
Every replay restores, whatever the previous evaluation did: a restore is
O(tables) and copies no row, and the postcondition, not only the
candidate, may have written.  The candidate gets a fresh copy of the
arguments and scratch state, made by a copy plan the recording builds once
(:func:`copy_plan`) instead of a ``deepcopy`` per replay.
The problem baseline (the state the reset closure produces) is itself
snapshotted once, so even specs that cannot be replayed restore it without
re-running the closure.

Replay is only sound for setups whose observable behavior is fully captured
by the recording, so a recording is finalized only when the setup

* called ``ctx.invoke`` exactly once,
* performed no database writes after the invoke returned,
* wrote no ``ctx.state`` entries after the invoke, and
* passed no assertions of its own.

Anything else (or a setup that raised before completing) falls back to a full
reset+setup replay, preserving the seed semantics exactly; the fallback is
counted (``state.unreplayable``) so the benchmarks can report it.  One class
of setup is inherently undetectable: pure control flow on the candidate's
result after the invoke (``x = ctx.invoke(a); if x is None: raise``) leaves
no observable trace during the recording pass, so such specs must not rely
on replay -- this is part of the determinism contract the ``database``
opt-in asserts.  The opt-in ``SynthConfig.verify_recordings`` debug mode
audits that contract at runtime: every Nth replay of a recorded spec re-runs
the full reset+setup under a fresh recorder and diffs what it captured
against the recording, raising :class:`NondeterministicSetupError` on
divergence.  Restores and
rebuilds surface as ``state.restores``/``state.rebuilds`` in every run's
counters and Table 1, and the ``no_snapshot`` arm of
``scripts/arm_identity.py`` checks that snapshot-off runs synthesize the
same programs on every end-to-end benchmark.

A failure of this machinery is never the candidate's: restore failures
propagate from :meth:`StateManager.begin`, and a failure to finalize a
recording is raised as an :class:`InfrastructureError` (its ``__cause__``
the original error), which spec and guard evaluation re-raise instead of
turning into the candidate's outcome, as they do its subclass
:class:`NondeterministicSetupError`.

Enabling the manager requires the problem to carry its ``database`` (see
``SynthesisProblem.database`` / ``define(..., database=...)``): handing the
database over asserts that the reset closure touches *only* that database
and that setups are deterministic.  Problems without a database keep the
legacy reset-every-time behavior.  The problem holds the manager, so
``SynthesisProblem.invalidate_caches`` and ``rebind_reset`` drop the
baseline and every recording.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterable, Optional, Set, Tuple

from repro.activerecord.database import _ATOMIC
from repro.activerecord.model import Model
from repro.lang.values import HashValue, Symbol
from repro.obs.metrics import Counters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.activerecord.database import Database
    from repro.synth.goal import Spec, SpecContext, SynthesisProblem


def _safely_equal(left: Any, right: Any) -> bool:
    """Equality that treats incomparable values as unequal, never raising."""

    try:
        return bool(left == right)
    except Exception:  # noqa: BLE001 - exotic __eq__ just opts out of replay
        return False


class InfrastructureError(RuntimeError):
    """A failure of the snapshot machinery, never of the candidate.

    Spec and guard evaluation re-raise it instead of recording it as the
    candidate's outcome, so it is never memoized and never rejects an
    innocent candidate.
    """


class NondeterministicSetupError(InfrastructureError):
    """A ``verify_recordings`` pass caught a setup violating determinism.

    Raised when re-recording a spec's setup produced a different pre-invoke
    database snapshot, different invoke arguments or different scratch state
    than the stored recording -- i.e. the setup depends on something outside
    the problem baseline, breaking the ``define(..., database=...)`` replay
    contract.
    """


#: The snapshot manager's counters, owned by each :class:`StateManager`
#: (meanings: ``docs/API.md``, "Metrics").
STATE_COUNTERS = (
    "state.restores",
    "state.rebuilds",
    "state.captures",
    "state.unreplayable",
    "state.invalidations",
    "state.verifications",
)


#: One replay's copy of a recorded value, given the replay's memo (``id`` of
#: a master object -> its copy, as in ``copy.deepcopy``).
_Step = Callable[[Dict[int, Any]], Any]

#: The ``(index or key, step)`` pairs of a container's parts that need a copy.
_Subs = Tuple[Tuple[Any, _Step], ...]

#: Exact types a replay shares with the master copy instead of copying
#: them, as ``copy.deepcopy`` does: the database layer's atoms and the
#: interned symbols.
_SHARED = frozenset(_ATOMIC) | {Symbol}


class _Cycle(Exception):
    """Planning reached a value again on its own path (``args[0]``: its id)."""


class _Planner:
    """Builds the copy steps of one recording (see :func:`copy_plan`).

    One step per distinct value, built once and reused wherever the value
    is reached again.  Every step registers its copy in the replay's memo,
    a mutable one before filling it, as ``deepcopy`` does, so a value
    reached twice -- from the plan or from inside a fallback -- is copied
    once, and a fallback copy that leads back into a planned value finds it.
    """

    def __init__(self) -> None:
        self._steps: Dict[int, Optional[_Step]] = {}
        self._path: Set[int] = set()

    def step(self, value: Any) -> Optional[_Step]:
        """How a replay copies ``value``; ``None`` shares the master."""

        if type(value) in _SHARED:
            return None
        key = id(value)
        if key in self._steps:
            return self._steps[key]
        if key in self._path:
            raise _Cycle(key)
        self._path.add(key)
        try:
            built = self._build(value, key)
        except _Cycle as cycle:
            if cycle.args[0] != key:
                raise
            # ``deepcopy`` keeps the cycle; the plan only rebuilds trees.
            built = functools.partial(copy.deepcopy, value)
        finally:
            self._path.discard(key)
        self._steps[key] = built
        return built

    def _build(self, value: Any, key: int) -> Optional[_Step]:
        kind = type(value)
        if kind is tuple:
            subs = self._subs(enumerate(value))
            # A tuple of shared parts is itself shared, as in ``deepcopy``.
            return _tuple_step(value, subs, key) if subs else None
        if kind is list:
            return _container_step(value, self._subs(enumerate(value)), key)
        if kind is dict and all(type(name) in _SHARED for name in value):
            return _container_step(value, self._subs(value.items()), key)
        if kind is HashValue and all(type(name) in _SHARED for name in value):
            entries = dict(value.items())
            subs = self._subs(entries.items())
            return _container_step(entries, subs, key, HashValue.from_owned)
        if isinstance(value, Model) and vars(value).keys() == {"_attributes"}:
            attributes = vars(value)["_attributes"]
            if type(attributes) is dict:
                return _model_step(kind, self.step(attributes), key)
        return functools.partial(copy.deepcopy, value)

    def _subs(self, items: Iterable[Tuple[Any, Any]]) -> _Subs:
        steps = [(index, self.step(part)) for index, part in items]
        return tuple((index, step) for index, step in steps if step is not None)


def _container_step(
    master: Any, subs: _Subs, key: int, wrap: Optional[Callable[[Any], Any]] = None
) -> _Step:
    """Rebuild a dict or list: a shallow copy with its unshared parts copied.

    ``wrap`` turns the new container into the value's copy (a
    :class:`HashValue` around its new entries); by default it is the copy.
    """

    def step(memo: Dict[int, Any]) -> Any:
        new = memo.get(key)
        if new is None:
            owned = master.copy()
            new = memo[key] = owned if wrap is None else wrap(owned)
            for index, sub in subs:
                owned[index] = sub(memo)
        return new

    return step


def _tuple_step(master: tuple, subs: _Subs, key: int) -> _Step:
    def step(memo: Dict[int, Any]) -> Any:
        new = memo.get(key)
        if new is None:
            parts = list(master)
            for index, sub in subs:
                parts[index] = sub(memo)
            # A fallback copy inside may already have copied this tuple.
            new = memo.setdefault(key, tuple(parts))
        return new

    return step


def _model_step(cls: type, attributes: _Step, key: int) -> _Step:
    def step(memo: Dict[int, Any]) -> Any:
        new = memo.get(key)
        if new is None:
            new = memo[key] = cls.__new__(cls)
            object.__setattr__(new, "_attributes", attributes(memo))
        return new

    return step


def copy_plan(
    state: Dict[str, Any], args: Tuple[Any, ...]
) -> Callable[[], Tuple[Dict[str, Any], Tuple[Any, ...]]]:
    """A function returning a fresh deep copy of ``(state, args)`` per call.

    Built once per recording, so a replay pays for the copy only, never for
    working out what to copy.  The copy equals ``copy.deepcopy((state,
    args))``:

    * atoms (``bool``, ``int``, ``float``, ``str``, ``bytes``, ``None``),
      interned symbols and tuples of nothing else are shared;
    * dicts with atom or symbol keys, lists, :class:`HashValue` objects and
      models whose only attribute is their ``_attributes`` dict are rebuilt
      on every call;
    * anything else -- and any value a reference cycle leads back to -- is
      copied by ``copy.deepcopy``.

    One memo serves each call, the fallbacks included, so an object reached
    from both the state and the arguments stays one object.
    """

    pair = (state, args)
    step = _Planner().step(pair)
    if step is None:  # nothing mutable: a state that is not a dict
        return lambda: pair
    return lambda: step({})


@dataclass(frozen=True)
class SpecRecording:
    """What one spec's setup does, up to the candidate invocation."""

    #: Database state right before ``ctx.invoke`` ran (CoW snapshot).
    snapshot: Dict[str, Any]
    #: The arguments the setup passed to ``ctx.invoke`` (master copy; never
    #: handed to a candidate).
    args: Tuple[Any, ...]
    #: ``ctx.state`` as of the invoke (master copy; never handed out).
    state: Dict[str, Any]
    #: Returns a fresh copy of ``(state, args)`` per replay, so candidates
    #: cannot poison the masters (:func:`copy_plan`).
    plan: Callable[[], Tuple[Dict[str, Any], Tuple[Any, ...]]]


class _Recorder:
    """Observes one recording pass through a spec's setup.

    Attached to the :class:`~repro.synth.goal.SpecContext` of the pass;
    ``invoke`` and ``__setitem__`` call back into it so the manager can
    capture the pre-invoke state and detect setups replay cannot mimic.
    """

    __slots__ = (
        "database",
        "invokes",
        "snapshot",
        "args",
        "state",
        "post_snapshot",
        "state_written_after_invoke",
        "capture_failed",
    )

    def __init__(self, database: "Database") -> None:
        self.database = database
        self.invokes = 0
        self.snapshot: Optional[Dict[str, Any]] = None
        self.args: Optional[Tuple[Any, ...]] = None
        self.state: Optional[Dict[str, Any]] = None
        self.post_snapshot: Optional[Dict[str, Any]] = None
        self.state_written_after_invoke = False
        self.capture_failed = False

    def before_invoke(self, ctx: "SpecContext", args: Tuple[Any, ...]) -> None:
        self.invokes += 1
        if self.invokes != 1:
            return
        try:
            # Captured before the candidate runs, so the recording depends
            # only on the spec -- never on the program being evaluated.
            # State and args are copied jointly so objects shared between
            # them (e.g. a model both stashed and passed in) keep their
            # shared identity, here and again on every replay.
            self.snapshot = self.database.snapshot()
            self.state, self.args = copy.deepcopy((ctx.state, args))
        except Exception:  # noqa: BLE001 - uncopyable setups just opt out
            self.capture_failed = True

    def after_invoke(self, ctx: "SpecContext") -> None:
        if self.invokes == 1 and not self.capture_failed:
            self.post_snapshot = self.database.snapshot()

    def on_state_write(self, ctx: "SpecContext") -> None:
        if self.invokes:
            self.state_written_after_invoke = True


class StateManager:
    """Snapshot/restore service for one problem's spec evaluations.

    One instance lives on the :class:`~repro.synth.goal.SynthesisProblem`
    (lazily created by ``problem.state_manager()``), so the warm baseline and
    spec recordings are shared across every run on that problem --
    including repeated benchmark-registry runs.
    """

    def __init__(self, database: "Database", verify_every: int = 0) -> None:
        self.database = database
        #: When > 0, every Nth replay of a recorded spec runs a verification
        #: pass instead (full reset+setup, diffed against the recording);
        #: set from ``SynthConfig.verify_recordings`` by the synthesizer.
        self.verify_every = verify_every
        self.counters = Counters.fromkeys(STATE_COUNTERS, 0)
        self._baseline: Optional[Dict[str, Any]] = None
        self._recordings: Dict["Spec", SpecRecording] = {}
        self._unreplayable: Set["Spec"] = set()
        self._replay_counts: Dict["Spec", int] = {}

    # ------------------------------------------------------------------ lifecycle

    def invalidate(self) -> None:
        """Drop the baseline and every recording (the reset state changed)."""

        self._baseline = None
        self._recordings.clear()
        self._unreplayable.clear()
        self._replay_counts.clear()
        self.counters["state.invalidations"] += 1

    def recording_for(self, spec: "Spec") -> Optional[SpecRecording]:
        return self._recordings.get(spec)

    def is_unreplayable(self, spec: "Spec") -> bool:
        return spec in self._unreplayable

    # ------------------------------------------------------------------ baseline

    def restore_baseline(self, problem: "SynthesisProblem") -> None:
        """Bring the database to the problem's post-reset baseline.

        The reset closure runs once to produce the baseline; afterwards the
        snapshot is restored instead of replaying the closure.
        """

        if self._baseline is None:
            problem.run_reset()
            self._baseline = self.database.snapshot()
            self.counters["state.captures"] += 1
        else:
            self.database.restore(self._baseline)

    # ------------------------------------------------------------------ setup

    def begin(
        self, problem: "SynthesisProblem", spec: "Spec"
    ) -> Callable[["SpecContext"], None]:
        """Restore the database for one evaluation of ``spec``.

        This is the infrastructure half of an evaluation -- a failure here
        (broken reset closure, corrupt snapshot) is *not* a candidate
        failure and must propagate to the caller, so ``evaluate_spec`` runs
        it outside its candidate-crash handling.  Returns the setup step
        (replay, fallback or recording pass) to run against the context.
        A replay always restores the spec's snapshot: the previous
        evaluation's invoke and postcondition may both have written.
        """

        recording = self._recordings.get(spec)
        if recording is not None:
            if self.verify_every > 0:
                count = self._replay_counts.get(spec, 0) + 1
                self._replay_counts[spec] = count
                if count % self.verify_every == 0:
                    return self._verification_pass(problem, spec, recording)
            self.counters["state.restores"] += 1
            self.database.restore(recording.snapshot)
            # One joint copy so objects shared between the scratch state and
            # the invoke arguments (e.g. a model passed to both) keep their
            # shared identity, as in a real setup run.  Copied here, in the
            # infrastructure phase: a failing copy of our own recording is
            # not a candidate failure.
            state, args = recording.plan()

            def replay(ctx: "SpecContext") -> None:
                ctx.state = state
                ctx.invoke(*args)

            return replay

        self.counters["state.rebuilds"] += 1
        self.restore_baseline(problem)
        if spec in self._unreplayable:
            return spec.setup

        def record(ctx: "SpecContext") -> None:
            recorder = _Recorder(self.database)
            ctx._recorder = recorder
            try:
                spec.setup(ctx)
            finally:
                ctx._recorder = None
            # This runs under the evaluation's candidate-crash handler, so a
            # failure of our own must say it is not the candidate's.  The
            # spec stays neither recorded nor unreplayable.
            try:
                self._finalize(spec, ctx, recorder)
            except Exception as error:
                raise InfrastructureError(
                    f"spec {spec.name!r}: finalizing its recording failed"
                ) from error

        return record

    def _verification_pass(
        self, problem: "SynthesisProblem", spec: "Spec", recording: SpecRecording
    ) -> Callable[["SpecContext"], None]:
        """A full reset+setup run diffed against the stored recording.

        The opt-in ``verify_recordings`` debug mode: instead of replaying,
        restore the baseline and run the real setup under a fresh recorder,
        then compare what it captured *before the invoke* (database
        snapshot, invoke args, scratch state -- all candidate-independent)
        with the recording.  A mismatch means the setup depends on state
        outside the baseline and raises
        :class:`NondeterministicSetupError`; replay would silently evaluate
        candidates against the wrong state.
        """

        self.counters["state.rebuilds"] += 1
        self.restore_baseline(problem)

        def verify(ctx: "SpecContext") -> None:
            recorder = _Recorder(self.database)
            ctx._recorder = recorder
            try:
                spec.setup(ctx)
            finally:
                ctx._recorder = None
            if recorder.capture_failed or recorder.invokes != 1:
                raise NondeterministicSetupError(
                    f"spec {spec.name!r}: setup was recorded as replayable but "
                    f"now invoked {recorder.invokes} time(s)"
                )
            if not _safely_equal(recorder.snapshot, recording.snapshot):
                raise NondeterministicSetupError(
                    f"spec {spec.name!r}: pre-invoke database state diverged "
                    "from its recording (nondeterministic setup)"
                )
            if not _safely_equal(recorder.args, recording.args):
                raise NondeterministicSetupError(
                    f"spec {spec.name!r}: invoke arguments diverged from their "
                    "recording (nondeterministic setup)"
                )
            if not _safely_equal(recorder.state, recording.state):
                raise NondeterministicSetupError(
                    f"spec {spec.name!r}: scratch state diverged from its "
                    "recording (nondeterministic setup)"
                )
            self.counters["state.verifications"] += 1

        return verify

    def _finalize(self, spec: "Spec", ctx: "SpecContext", recorder: _Recorder) -> None:
        """Decide whether the completed recording pass is replayable."""

        replayable = (
            recorder.invokes == 1
            and not recorder.capture_failed
            and not recorder.state_written_after_invoke
            and ctx.passed_asserts == 0
            and recorder.post_snapshot is not None
            # Any database work after the invoke returned belongs to the
            # setup, not the candidate; replay would skip it.
            and _safely_equal(self.database.snapshot(), recorder.post_snapshot)
            # Scratch state mutated in place after the invoke (appending to
            # a list, writing ctx.state directly) would be lost by replay;
            # the pre-invoke copy must still match.  (In-place mutations
            # that compare equal -- e.g. a model whose equality is id-based
            # -- fall under the documented determinism opt-in.)
            and _safely_equal(ctx.state, recorder.state)
        )
        if replayable:
            state = recorder.state or {}
            args = recorder.args or ()
            try:
                plan = copy_plan(state, args)
            except RecursionError:  # nested deeper than planning can walk
                replayable = False
        if replayable:
            assert recorder.snapshot is not None  # invokes == 1 guarantees it
            self._recordings[spec] = SpecRecording(
                snapshot=recorder.snapshot, args=args, state=state, plan=plan
            )
            self.counters["state.captures"] += 1
        else:
            self._unreplayable.add(spec)
            self.counters["state.unreplayable"] += 1
