#!/usr/bin/env python3
"""Maintenance CLI for persistent spec-outcome stores (repro.synth.store).

Three subcommands:

``info PATH``
    Report the backend, entry counts by kind, file size and load-time
    diagnostics (stale entries dropped, corrupt-file flag).

``compact PATH --max-entries N``
    LRU-style pruning: keep the ``N`` most recently hit entries (lookups
    and writes both refresh an entry's position) and drop the rest -- the
    ROADMAP growth-management follow-up for stores that outgrow a few MB.

``migrate SRC DST``
    Copy every entry from one store into another, preserving the last-hit
    order.  Backends are chosen by path suffix (``.sqlite``/``.sqlite3``/
    ``.db`` -> SQLite, anything else JSON) or forced with
    ``--src-backend``/``--dst-backend``; migrating JSON -> SQLite is the
    upgrade path for multi-process sweeps, and SQLite -> JSON goes back.

Usage::

    PYTHONPATH=src python scripts/store_tool.py info outcomes.json
    PYTHONPATH=src python scripts/store_tool.py compact outcomes.json --max-entries 50000
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

from repro.synth.store import SpecOutcomeStore  # noqa: E402


def _open(path: str, backend: Optional[str]) -> SpecOutcomeStore:
    return SpecOutcomeStore(path, backend=backend)


def cmd_info(args: argparse.Namespace) -> int:
    store = _open(args.path, args.backend)
    kinds = {"spec": 0, "guard": 0}
    for _key, payload in store.raw_entries():
        kind = str(payload.get("kind"))
        kinds[kind] = kinds.get(kind, 0) + 1
    report = {
        "path": store.path,
        "backend": store.backend,
        "entries": len(store),
        "by_kind": kinds,
        "file_bytes": os.path.getsize(store.path) if os.path.exists(store.path) else 0,
        "loaded": store.loaded,
        "stale_dropped": store.counters["store.stale_dropped"],
        "corrupt_file": store.corrupt_file,
    }
    store.close()
    print(json.dumps(report, indent=2))
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    store = _open(args.path, args.backend)
    before = len(store)
    pruned = store.compact(args.max_entries)
    store.flush()
    after = len(store)
    store.close()
    print(
        json.dumps(
            {
                "path": args.path,
                "backend": store.backend,
                "entries_before": before,
                "pruned": pruned,
                "entries_after": after,
            },
            indent=2,
        )
    )
    return 0


def cmd_migrate(args: argparse.Namespace) -> int:
    if os.path.abspath(args.src) == os.path.abspath(args.dst):
        print("error: source and destination are the same file", file=sys.stderr)
        return 2
    src = _open(args.src, args.src_backend)
    dst = _open(args.dst, args.dst_backend)
    if src.backend == dst.backend:
        print(
            f"note: both stores use the {src.backend} backend; copying anyway",
            file=sys.stderr,
        )
    copied = 0
    # raw_entries yields least-recently-hit first and raw_put appends as
    # most recent, so the pruning order survives the migration.
    for key, payload in src.raw_entries():
        dst.raw_put(key, payload)
        copied += 1
    dst.close()
    src.close()
    print(
        json.dumps(
            {
                "src": {"path": args.src, "backend": src.backend},
                "dst": {"path": args.dst, "backend": dst.backend},
                "copied": copied,
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
    info.add_argument("--backend", choices=("json", "sqlite"))
    info.set_defaults(func=cmd_info)

    compact = sub.add_parser("compact", help="LRU-prune to --max-entries")
    compact.add_argument("path")
    compact.add_argument("--backend", choices=("json", "sqlite"))
    compact.add_argument("--max-entries", type=int, required=True)
    compact.set_defaults(func=cmd_compact)

    migrate = sub.add_parser("migrate", help="copy SRC's entries into DST")
    migrate.add_argument("src")
    migrate.add_argument("dst")
    migrate.add_argument("--src-backend", choices=("json", "sqlite"))
    migrate.add_argument("--dst-backend", choices=("json", "sqlite"))
    migrate.set_defaults(func=cmd_migrate)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
