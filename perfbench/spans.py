"""Per-layer spans recorded from outside the engine.

The benchmark adds no tracing to ``src/``.  Instead, for a traced run it
replaces each layer's public entry points -- at the name its caller looks
them up by, listed under ``layers.<name>.wraps`` in ``rationale.json`` --
with a wrapper that times the call.  Only the outermost call into a layer
opens a span (re-entrant calls such as ``evaluate_all_specs`` ->
``evaluate_spec`` are counted but not timed again), and a span's self time
is its duration minus the layer spans nested directly inside it.  Spans are
aggregated in memory per layer, so a traced pass costs a few dict updates
per call rather than one record per call.

Every site is counted on its own, so that a wrapper the engine no longer
reaches (a renamed function, a caller that now looks it up elsewhere) shows
as a site with no calls, and a site that cannot be resolved at all is
listed in ``missing``.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Work counts taken from a wrapped call's return value, keyed by the
#: wrapped callable's name: (count name, value from the result).
_TALLIES: Dict[str, Tuple[str, Callable[[Any], int]]] = {
    "expand_typed_hole": ("candidates", len),
    "expand_effect_hole": ("candidates", len),
    "insert_effect_hole": ("candidates", lambda result: int(result is not None)),
    "outcome_for": ("prune_hits", lambda result: int(result is not None)),
}


def _resolve(site: str) -> Tuple[Any, str]:
    """``"pkg.module:Class.attr"`` -> (owner object, attribute name), where
    the attribute is defined on the owner itself."""

    module_name, _, path = site.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    vars(owner)[attr]
    return owner, attr


class LayerSpans:
    """Installable per-layer wrappers plus their in-memory aggregates."""

    def __init__(self, layers: Dict[str, List[str]]) -> None:
        #: (layer, site, owner, attribute) of every site to wrap.
        self._sites: List[Tuple[str, str, Any, str]] = []
        #: Sites that cannot be resolved in this engine.
        self.missing: List[str] = []
        for layer, sites in layers.items():
            for site in sites:
                try:
                    owner, attr = _resolve(site)
                except (ImportError, AttributeError, KeyError):
                    self.missing.append(site)
                    continue
                self._sites.append((layer, site, owner, attr))
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.site_calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        #: Summed duration of outermost spans (no layer span above them).
        self.top_s = 0.0
        self._depth: Dict[str, int] = defaultdict(int)
        #: Child-time accumulators of the open spans, innermost last.
        self._open: List[float] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    @property
    def sites(self) -> List[str]:
        return [site for _, site, _, _ in self._sites]

    def reset(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.site_calls.clear()
        self.counts.clear()
        self.top_s = 0.0

    # ------------------------------------------------------------- patching

    def install(self) -> None:
        for layer, site, owner, attr in self._sites:
            original = vars(owner)[attr]
            self._patches.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, site, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _wrap(self, layer: str, site: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tally: Optional[Tuple[str, Callable[[Any], int]]] = _TALLIES.get(fn.__name__)
        count_key = f"{layer}.{tally[0]}" if tally else ""
        depth = self._depth
        open_spans = self._open
        calls = self.calls
        site_calls = self.site_calls
        counts = self.counts
        clock = time.perf_counter

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            calls[layer] += 1
            site_calls[site] += 1
            if depth[layer]:
                result = fn(*args, **kwargs)
            else:
                depth[layer] = 1
                open_spans.append(0.0)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    depth[layer] = 0
                    self.self_s[layer] += elapsed - open_spans.pop()
                    if open_spans:
                        open_spans[-1] += elapsed
                    else:
                        self.top_s += elapsed
            if tally:
                counts[count_key] += tally[1](result)
            return result

        return wrapper

    # ------------------------------------------------------------- export

    def summary(self) -> Dict[str, Any]:
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "site_calls": dict(self.site_calls),
            "counts": dict(self.counts),
            "top_s": self.top_s,
        }
