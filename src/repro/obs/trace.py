"""Structured tracing of the synthesis engine from one table of wrap sites.

The engine holds no tracing code.  :data:`SITES` maps each layer of the
engine to its *wrap sites*: ``"module:Owner.attr"`` names, each the name a
caller looks the function up by (a module global, or a class attribute).
While a tracer is live -- :func:`enable` (a JSONL file) or
:func:`start_collecting` (a worker's in-memory buffer) -- every site is
replaced by a timing wrapper; :func:`disable` and :func:`reset_after_fork`
put the original functions back.  A disabled tracer therefore costs
nothing: no site is wrapped and no engine code checks a flag.  Sites are
resolved at install, so importing this module imports no engine module.

Only the outermost call into a layer is timed; nested calls into the same
layer are counted but not timed again.  A timed call's *self time* is its
duration minus the timed calls directly inside it.

* **Recorded layers** (:data:`RECORDED`: ``session``, ``search``,
  ``merge``).  Each timed call writes one span named after its layer.
* **Tallied layers** (every other layer).  Each call adds to the tallies of
  the innermost open recorded span: its count, and for a timed call its
  self time.  A call made outside every recorded span is not traced.

A span's ``attrs`` hold ``site``; ``spec`` on a spec search, ``positive``
and ``negative`` (spec counts) on a guard search; ``problem``, ``success``
and the run's nonzero ``counters`` on ``session.run``; and ``layers``:
``{layer: {"calls": n, "self_ns": t}}`` for its own layer and every layer
tallied under it.  The self times of all spans sum to the durations of the
root spans.

The JSONL file starts with a schema-versioned header line::

    {"kind": "header", "schema": 2, "clock": "perf_counter_ns", ...}

followed by one line per span, written when its call returns::

    {"kind": "span", "name": ..., "id": ..., "parent": ..., "worker": ...,
     "ts": <ns>, "dur": <ns>, "attrs": {...}}

Timestamps are ``time.perf_counter_ns()`` (monotonic, so a forked worker's
are comparable with its parent's).  Span ids are ``"<worker>:<seq>"``, with
``worker`` ``"0"`` in the parent and ``"w<pid>"`` in pool workers, so ids
never collide across processes.  A worker collects a cell's spans and ships
them back on the cell's result; the parent :meth:`Tracer.absorb`-s them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Bump when the JSONL span schema changes shape.
TRACE_SCHEMA_VERSION = 2

#: layer -> wrap sites, each named where its caller looks it up.
SITES: Dict[str, Tuple[str, ...]] = {
    "session": ("repro.synth.session:SynthesisSession.run",),
    "search": (
        "repro.synth.synthesizer:generate_for_spec",
        "repro.synth.merge:generate_guard",
    ),
    "enumerate": (
        "repro.synth.search:expand_typed_hole",
        "repro.synth.search:expand_effect_hole",
        "repro.synth.search:insert_effect_hole",
    ),
    "typesys": (
        "repro.synth.enumerate:check_expr",
        "repro.synth.effect_guided:check_expr",
        "repro.analysis.footprint:check_expr",
    ),
    "goal": (
        "repro.synth.search:evaluate_spec",
        "repro.synth.search:evaluate_guard",
        "repro.synth.synthesizer:evaluate_spec",
        "repro.synth.merge:evaluate_all_specs",
        "repro.synth.goal:evaluate_guard",
    ),
    "interp": ("repro.interp.interpreter:Interpreter.call_program",),
    "state": (
        "repro.synth.state:StateManager.begin",
        "repro.synth.state:StateManager.restore_baseline",
    ),
    "activerecord": (
        "repro.activerecord.database:Database.query",
        "repro.activerecord.database:Database.bulk_insert",
        "repro.activerecord.database:Database.exists",
        "repro.activerecord.database:Database.count",
    ),
    "merge": ("repro.synth.merge:Merger.merge",),
    "analysis": (
        "repro.analysis.prune:StaticPruner.key_for",
        "repro.analysis.prune:StaticPruner.outcome_for",
    ),
}

#: The layers whose timed calls write spans; the others are tallied.
RECORDED = ("session", "search", "merge")


def _argument(args: tuple, kwargs: Dict[str, Any], index: int, name: str) -> Any:
    return kwargs[name] if name in kwargs else args[index]


#: Span attrs taken from a recorded call's arguments, by site.
_CALL_ATTRS: Dict[str, Callable[[tuple, Dict[str, Any]], Dict[str, Any]]] = {
    "repro.synth.synthesizer:generate_for_spec": lambda args, kwargs: {
        "spec": _argument(args, kwargs, 1, "spec").name,
    },
    "repro.synth.merge:generate_guard": lambda args, kwargs: {
        "positive": len(_argument(args, kwargs, 1, "positive_specs")),
        "negative": len(_argument(args, kwargs, 2, "negative_specs")),
    },
}

#: Span attrs taken from a recorded call's return value, by layer.
_RESULT_ATTRS: Dict[str, Callable[[Any], Dict[str, Any]]] = {
    "session": lambda result: {
        "problem": result.problem.name,
        "success": result.success,
        "counters": {k: v for k, v in sorted(result.counters.items()) if v},
    },
}


def resolve(site: str) -> Tuple[Any, str]:
    """``"pkg.module:Owner.attr"`` -> (owner, attribute name), where the
    attribute is defined on the owner itself (``vars(owner)[attr]``)."""

    module_name, _, path = site.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    vars(owner)[attr]
    return owner, attr


class Span:
    """An open recorded span; written when its call returns."""

    __slots__ = ("name", "attrs", "id", "parent", "start_ns", "layers")

    def __init__(
        self,
        name: str,
        attrs: Dict[str, Any],
        span_id: str,
        parent: Optional["Span"],
        start_ns: int,
    ) -> None:
        self.name = name
        self.attrs = attrs
        self.id = span_id
        self.parent = parent
        self.start_ns = start_ns
        #: layer -> [calls, self_ns] counted while this span is innermost.
        self.layers = {layer: [0, 0] for layer in SITES}


class Tracer:
    """Live tracer writing JSONL to ``path``, or collecting when ``None``."""

    __slots__ = (
        "path", "worker", "current", "_seq", "_frames", "_buffer", "_file",
        "_wrote_header", "_patches",
    )

    def __init__(self, path: Optional[str] = None, worker: str = "0") -> None:
        self.path = path
        self.worker = worker
        #: The innermost open recorded span (``None`` outside every one).
        self.current: Optional[Span] = None
        self._seq = 0
        #: Child-time accumulators (ns) of the open timed calls, innermost last.
        self._frames: List[int] = []
        self._buffer: List[dict] = []
        self._file = None  # lazily opened so fork never inherits an open sink
        self._wrote_header = False
        #: (owner, attribute, original) of every installed wrapper.
        self._patches: List[Tuple[Any, str, Any]] = []

    # --------------------------------------------------------------- wrappers

    def install(self) -> None:
        """Wrap every site of :data:`SITES` (all resolved before any is)."""

        resolved = [
            (layer, site, *resolve(site))
            for layer, sites in SITES.items()
            for site in sites
        ]
        levels = {layer: [0] for layer in SITES}
        for layer, site, owner, attr in resolved:
            original = vars(owner)[attr]
            if layer in RECORDED:
                wrapper = _recorded(self, layer, site, original, levels[layer])
            else:
                wrapper = _tallied(self, layer, original, levels[layer])
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every wrapped site's original function back."""

        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------ spans

    def begin(self, name: str, attrs: Dict[str, Any]) -> Span:
        self._seq += 1
        span = Span(
            name, attrs, f"{self.worker}:{self._seq}", self.current,
            time.perf_counter_ns(),
        )
        self.current = span
        return span

    def finish(self, span: Span, dur: int) -> None:
        self.current = span.parent
        span.attrs["layers"] = {
            layer: {"calls": calls, "self_ns": self_ns}
            for layer, (calls, self_ns) in span.layers.items()
            if calls
        }
        self._emit(
            {
                "kind": "span",
                "name": span.name,
                "id": span.id,
                "parent": span.parent.id if span.parent is not None else None,
                "worker": self.worker,
                "ts": span.start_ns,
                "dur": dur,
                "attrs": span.attrs,
            }
        )

    # ------------------------------------------------------------ merge/export

    def absorb(self, events: List[dict]) -> None:
        """Merge a worker's exported spans into this tracer's stream.

        Spans whose ``parent`` is ``None`` (the worker task's roots) are
        re-parented onto the currently open span.  Worker-internal parent
        links and ids are kept; ids cannot collide because they carry the
        worker tag.
        """

        parent_id = self.current.id if self.current is not None else None
        for event in events:
            if event["parent"] is None:
                event = dict(event, parent=parent_id)
            self._emit(event)

    def export(self) -> List[dict]:
        """Drain buffered spans (collecting mode: ``path is None``)."""

        events, self._buffer = self._buffer, []
        return events

    # ------------------------------------------------------------------- sink

    def _emit(self, event: dict) -> None:
        self._buffer.append(event)
        if self.path is not None and len(self._buffer) >= 256:
            self.flush()

    def header(self) -> dict:
        return {
            "kind": "header",
            "schema": TRACE_SCHEMA_VERSION,
            "clock": "perf_counter_ns",
            "worker": self.worker,
            "pid": os.getpid(),
        }

    def flush(self) -> None:
        if self.path is None:
            return
        if self._file is None:
            self._file = open(self.path, "w")
        if not self._wrote_header:
            self._file.write(json.dumps(self.header()) + "\n")
            self._wrote_header = True
        if self._buffer:
            self._file.write(
                "".join(json.dumps(event) + "\n" for event in self._buffer)
            )
            self._buffer = []
        # Flush eagerly: a later fork must never inherit buffered bytes it
        # would duplicate into the file at child exit.
        self._file.flush()

    def close(self) -> None:
        self.flush()
        if self._file is not None:
            self._file.close()
            self._file = None


def _tallied(
    tracer: Tracer, layer: str, fn: Callable[..., Any], level: List[int]
) -> Callable[..., Any]:
    """``fn`` counted, and timed when outermost, into the innermost span."""

    frames = tracer._frames
    clock = time.perf_counter_ns

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        span = tracer.current
        if span is None:
            return fn(*args, **kwargs)
        tally = span.layers[layer]
        tally[0] += 1
        if level[0]:
            return fn(*args, **kwargs)
        level[0] = 1
        frames.append(0)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = clock() - start
            level[0] = 0
            tally[1] += elapsed - frames.pop()
            frames[-1] += elapsed

    return wrapper


def _recorded(
    tracer: Tracer, layer: str, site: str, fn: Callable[..., Any], level: List[int]
) -> Callable[..., Any]:
    """``fn`` writing one span per outermost call (nested calls counted)."""

    frames = tracer._frames
    clock = time.perf_counter_ns
    call_attrs = _CALL_ATTRS.get(site)
    result_attrs = _RESULT_ATTRS.get(layer)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if level[0]:
            tracer.current.layers[layer][0] += 1
            return fn(*args, **kwargs)
        attrs: Dict[str, Any] = {"site": site}
        if call_attrs is not None:
            attrs.update(call_attrs(args, kwargs))
        level[0] = 1
        span = tracer.begin(layer, attrs)
        tally = span.layers[layer]
        tally[0] += 1
        frames.append(0)
        try:
            result = fn(*args, **kwargs)
            if result_attrs is not None:
                attrs.update(result_attrs(result))
            return result
        finally:
            elapsed = clock() - span.start_ns
            level[0] = 0
            tally[1] += elapsed - frames.pop()
            if frames:
                frames[-1] += elapsed
            tracer.finish(span, elapsed)

    return wrapper


# ---------------------------------------------------------------- module API

#: The process's live tracer, or ``None`` when tracing is off.
TRACER: Optional[Tracer] = None


def _activate(tracer: Tracer) -> Tracer:
    global TRACER
    disable()
    tracer.install()
    TRACER = tracer
    return tracer


def enable(path: str, worker: str = "0") -> Tracer:
    """Trace to the JSONL file ``path``: write its header, wrap every site."""

    tracer = Tracer(path, worker=worker)
    tracer.flush()  # create the file + header immediately
    return _activate(tracer)


def start_collecting(worker: str) -> Tracer:
    """Trace into memory (no file); drain with ``export()``."""

    return _activate(Tracer(None, worker=worker))


def disable() -> None:
    """Unwrap every site and close the live tracer, if any."""

    global TRACER
    tracer, TRACER = TRACER, None
    if tracer is not None:
        tracer.uninstall()
        tracer.close()


def reset_after_fork() -> None:
    """Unwrap every site and drop an inherited tracer without touching its
    (the parent's) file; pool workers call this first."""

    global TRACER
    tracer, TRACER = TRACER, None
    if tracer is not None:
        tracer.uninstall()
