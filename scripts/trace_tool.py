#!/usr/bin/env python3
"""Profiling CLI over repro.obs traces (repro.obs.tool).

Two subcommands:

``summarize PATH``
    Per-layer self time and call count, summed over every span of the
    trace (they add up to the root spans' time); the top-N slowest spec and
    guard searches; and one efficacy line per layer that answers work
    without doing it -- memo, indexes, snapshots, static pruning -- as hits
    against misses over the runs' counters, flagged ``ZERO-HIT`` when the
    layer does work but never hits.  ``--json`` prints the raw summary dict
    instead of the human-readable rendering.

``export-chrome PATH``
    Convert the JSONL trace to Chrome trace-event JSON (load in
    ``chrome://tracing`` or Perfetto).  Writes to ``--out`` or stdout.

Usage::

    REPRO_TRACE=run.trace.jsonl PYTHONPATH=src python examples/traced_run.py
    PYTHONPATH=src python scripts/trace_tool.py summarize run.trace.jsonl
    PYTHONPATH=src python scripts/trace_tool.py export-chrome run.trace.jsonl --out run.chrome.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.obs.tool import (  # noqa: E402
    TraceError,
    format_summary,
    summarize,
    to_chrome,
)


def cmd_summarize(args: argparse.Namespace) -> int:
    summary = summarize(args.path, top=args.top)
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(format_summary(summary))
    return 0


def cmd_export_chrome(args: argparse.Namespace) -> int:
    payload = json.dumps(to_chrome(args.path), indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload + "\n")
        print(f"wrote {args.out}", file=sys.stderr)
    else:
        print(payload)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    summarize_cmd = commands.add_parser(
        "summarize", help="per-layer self time, slowest searches, efficacy lines"
    )
    summarize_cmd.add_argument("path", help="JSONL trace file (repro.obs.trace)")
    summarize_cmd.add_argument(
        "--top", type=int, default=10, help="slowest searches to list"
    )
    summarize_cmd.add_argument(
        "--json", action="store_true", help="print the raw summary dict"
    )
    summarize_cmd.set_defaults(func=cmd_summarize)

    chrome_cmd = commands.add_parser(
        "export-chrome", help="convert to Chrome trace-event JSON"
    )
    chrome_cmd.add_argument("path", help="JSONL trace file (repro.obs.trace)")
    chrome_cmd.add_argument("--out", help="write the JSON here instead of stdout")
    chrome_cmd.set_defaults(func=cmd_export_chrome)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except TraceError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like any CLI.
        sys.stderr.close()
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
