#!/usr/bin/env python3
"""Maintenance CLI for persistent spec-outcome stores (repro.synth.store).

Three subcommands:

``info PATH``
    Report the entry counts by kind, file size and load-time diagnostics
    (stale entries dropped, corrupt-file flag).

``compact PATH --max-entries N``
    LRU-style pruning: keep the ``N`` most recently hit entries (lookups
    and writes both refresh an entry's position) and drop the rest -- the
    growth management for stores that outgrow a few MB.

``migrate SRC DST``
    Load a store document written by the retired JSON backend into the
    SQLite store at ``DST``, keeping its last-hit order (the document's
    entry order).  Invalid entries are dropped and counted on
    ``stale_dropped``.  Opening a JSON store directly raises an error that
    names this subcommand; ``SRC`` is left as it is.

Every subcommand exits 2 with an error, creating no file, when a store it
reads (``PATH`` or ``SRC``) does not exist.

Usage::

    PYTHONPATH=src python scripts/store_tool.py info outcomes.sqlite
    PYTHONPATH=src python scripts/store_tool.py compact outcomes.sqlite --max-entries 50000
    PYTHONPATH=src python scripts/store_tool.py migrate outcomes.json outcomes.sqlite
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

from repro.synth.store import SpecOutcomeStore, read_legacy_json  # noqa: E402


class _ToolError(Exception):
    """A user-facing error: printed, exit status 2."""


def _existing(path: str) -> str:
    if not os.path.exists(path):
        raise _ToolError(f"no such store: {path}")
    return path


def _open(path: str) -> SpecOutcomeStore:
    try:
        return SpecOutcomeStore(path)
    except ValueError as error:  # a legacy JSON store
        raise _ToolError(str(error)) from None


def cmd_info(args: argparse.Namespace) -> int:
    store = _open(_existing(args.path))
    kinds = {"spec": 0, "guard": 0}
    for _key, payload in store.raw_entries():
        kind = str(payload.get("kind"))
        kinds[kind] = kinds.get(kind, 0) + 1
    report = {
        "path": store.path,
        "entries": len(store),
        "by_kind": kinds,
        "file_bytes": os.path.getsize(store.path),
        "loaded": store.loaded,
        "stale_dropped": store.counters["store.stale_dropped"],
        "corrupt_file": store.corrupt_file,
    }
    store.close()
    print(json.dumps(report, indent=2))
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    store = _open(_existing(args.path))
    before = len(store)
    pruned = store.compact(args.max_entries)
    after = len(store)
    store.close()
    print(
        json.dumps(
            {
                "path": args.path,
                "entries_before": before,
                "pruned": pruned,
                "entries_after": after,
            },
            indent=2,
        )
    )
    return 0


def cmd_migrate(args: argparse.Namespace) -> int:
    entries = read_legacy_json(_existing(args.src))
    if entries is None:
        raise _ToolError(f"{args.src} is not a JSON spec-outcome store document")
    if os.path.abspath(args.src) == os.path.abspath(args.dst):
        raise _ToolError("source and destination are the same file")
    dst = _open(args.dst)
    # raw_put appends as most recently hit, so putting the entries in
    # document order keeps the pruning order.
    for key, payload in entries:
        dst.raw_put(key, payload)
    dst.close()
    print(
        json.dumps(
            {
                "src": args.src,
                "dst": args.dst,
                "copied": dst.counters["store.writes"],
                "stale_dropped": dst.counters["store.stale_dropped"],
            },
            indent=2,
        )
    )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    info = sub.add_parser("info", help="report store size and diagnostics")
    info.add_argument("path")
    info.set_defaults(func=cmd_info)

    compact = sub.add_parser("compact", help="LRU-prune to --max-entries")
    compact.add_argument("path")
    compact.add_argument("--max-entries", type=int, required=True)
    compact.set_defaults(func=cmd_compact)

    migrate = sub.add_parser(
        "migrate", help="load a legacy JSON store SRC into the SQLite store DST"
    )
    migrate.add_argument("src")
    migrate.add_argument("dst")
    migrate.set_defaults(func=cmd_migrate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ToolError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
