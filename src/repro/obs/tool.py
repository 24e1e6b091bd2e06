"""Trace analysis: a per-layer summary and Chrome trace-event export.

Backs ``scripts/trace_tool.py``.  Works on the JSONL traces
:mod:`repro.obs.trace` writes: one header line, then one line per span.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from repro.obs.trace import TRACE_SCHEMA_VERSION


class TraceError(ValueError):
    """The file is not a well-formed repro.obs trace."""


#: One efficacy line per layer that answers work without doing it:
#: (name, hit counters, miss counters), summed over the runs' counters.
EFFICACY: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("indexes", ("query.index_hits",), ("query.scans",)),
    ("snapshots", ("state.restores",), ("state.rebuilds",)),
    ("static pruning", ("search.static_prunes",), ("search.evaluated",)),
)


def load_trace(path: str) -> Tuple[dict, List[dict]]:
    """Parse a JSONL trace into ``(header, spans)``, validating schema."""

    header: Optional[dict] = None
    spans: List[dict] = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise TraceError(f"{path}:{line_no}: not JSON ({error})") from None
            if header is None:
                if record.get("kind") != "header":
                    raise TraceError(f"{path}: first line is not a trace header")
                if record.get("schema") != TRACE_SCHEMA_VERSION:
                    raise TraceError(
                        f"{path}: schema {record.get('schema')!r} != "
                        f"{TRACE_SCHEMA_VERSION}"
                    )
                header = record
            elif record.get("kind") != "span":
                raise TraceError(f"{path}:{line_no}: unknown kind {record!r}")
            else:
                spans.append(record)
    if header is None:
        raise TraceError(f"{path}: empty trace (no header)")
    return header, spans


def layer_totals(spans: List[dict]) -> Dict[str, Dict[str, Any]]:
    """Per-layer calls and self time, summed over every span's tallies."""

    calls: Dict[str, int] = defaultdict(int)
    self_ns: Dict[str, int] = defaultdict(int)
    for span in spans:
        for layer, tally in span["attrs"].get("layers", {}).items():
            calls[layer] += tally["calls"]
            self_ns[layer] += tally["self_ns"]
    return {
        layer: {"calls": calls[layer], "self_s": self_ns[layer] / 1e9}
        for layer in sorted(calls, key=lambda name: -self_ns[name])
    }


def slowest_searches(spans: List[dict], top: int = 10) -> List[dict]:
    """The ``top`` longest ``search`` spans, spec and guard searches alike."""

    searches = sorted(
        (s for s in spans if s["name"] == "search"), key=lambda s: -s["dur"]
    )
    return [
        {
            "dur_s": s["dur"] / 1e9,
            "worker": s["worker"],
            **{k: v for k, v in s["attrs"].items() if k != "layers"},
        }
        for s in searches[:top]
    ]


def efficacy(spans: List[dict]) -> List[dict]:
    """Hits against misses of each :data:`EFFICACY` pair, summed over the
    ``counters`` of every ``session`` span."""

    totals: Dict[str, int] = defaultdict(int)
    for span in spans:
        for key, value in span["attrs"].get("counters", {}).items():
            totals[key] += value
    lines = []
    for name, hit_keys, miss_keys in EFFICACY:
        hits = sum(totals[key] for key in hit_keys)
        misses = sum(totals[key] for key in miss_keys)
        base = hits + misses
        lines.append(
            {
                "name": name,
                "hits": hits,
                "misses": misses,
                "ratio": hits / base if base else 0.0,
                "zero_hit": bool(base) and not hits,
            }
        )
    return lines


def summarize(path: str, top: int = 10) -> Dict[str, Any]:
    """Full summary dict for one trace file."""

    header, spans = load_trace(path)
    roots = [s for s in spans if s["parent"] is None]
    return {
        "header": header,
        "spans": len(spans),
        "runs": sum(1 for s in spans if s["name"] == "session"),
        "root_s": sum(s["dur"] for s in roots) / 1e9,
        "layers": layer_totals(spans),
        "slowest_searches": slowest_searches(spans, top=top),
        "efficacy": efficacy(spans),
    }


def format_efficacy(line: Dict[str, Any]) -> str:
    """``name = hits / (hits + misses) = ratio`` with perfbench's flags."""

    flag = ""
    if line["zero_hit"]:
        flag = "  ZERO-HIT: layer does work but never hits"
    elif not line["hits"] + line["misses"]:
        flag = "  (unused: no lookups)"
    return (
        f"efficacy {line['name']} = {line['hits']} / "
        f"({line['hits']} + {line['misses']}) = {line['ratio']:.4f}{flag}"
    )


def format_summary(summary: Dict[str, Any]) -> str:
    """Human-readable rendering of :func:`summarize`'s dict."""

    root_s = summary["root_s"]
    lines = [
        f"{summary['spans']} spans, {summary['runs']} runs, "
        f"{root_s:.3f}s in root spans",
        "layer self time:",
    ]
    for layer, entry in summary["layers"].items():
        share = entry["self_s"] / root_s if root_s else 0.0
        lines.append(
            f"  {layer:<13} {entry['self_s']:>9.3f}s ({share * 100:5.1f}%)"
            f"  x{entry['calls']}"
        )
    if summary["slowest_searches"]:
        lines.append("slowest searches:")
        for search in summary["slowest_searches"]:
            if "spec" in search:
                what = f"spec {search['spec']}"
            else:
                what = f"guard +{search['positive']} -{search['negative']}"
            lines.append(f"  {search['dur_s']:>9.3f}s  {what}")
    lines.extend(format_efficacy(line) for line in summary["efficacy"])
    return "\n".join(lines)


def to_chrome(path: str) -> Dict[str, Any]:
    """Convert a trace to Chrome trace-event JSON (Perfetto-loadable).

    Spans become complete events (``ph: "X"``); timestamps are
    microseconds relative to the earliest span so the viewer's origin is
    t=0.  Each worker maps to its own ``tid``.
    """

    header, spans = load_trace(path)
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    origin = min(s["ts"] for s in spans)
    pid = header.get("pid", 1)
    tids: Dict[str, int] = {}
    chrome: List[dict] = []
    for span in spans:
        tid = tids.setdefault(str(span["worker"]), len(tids) + 1)
        chrome.append(
            {
                "name": span["name"],
                "ph": "X",
                "ts": (span["ts"] - origin) / 1000.0,
                "dur": span["dur"] / 1000.0,
                "pid": pid,
                "tid": tid,
                "args": span["attrs"],
            }
        )
    chrome.extend(
        {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": f"worker {worker}"},
        }
        for worker, tid in tids.items()
    )
    return {"traceEvents": chrome, "displayTimeUnit": "ms"}
