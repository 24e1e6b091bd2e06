"""Parallel synthesis: spread a registry sweep's cells over worker processes.

Every ``(benchmark, variant)`` cell of a sweep is an independent synthesis
run, so a :class:`~repro.synth.session.SynthesisSession` can own a worker
pool (:mod:`repro.synth.parallel`) and run whole cells in it without
changing any result.  Each cell is a serial run inside its worker.  Workers
share outcomes through a concurrent-safe SQLite spec-outcome store, so a
later process answers everything from disk.

Run with::

    python examples/parallel_sweep.py
"""

from __future__ import annotations

import os
import tempfile

from repro.synth import SynthConfig, SynthesisSession

BENCHMARKS = ["S1", "S4", "S5"]


def main() -> None:
    store_path = os.path.join(tempfile.mkdtemp(), "outcomes.sqlite")
    config = SynthConfig(timeout_s=60)

    # A session with `parallel=2` owns a two-worker pool, and `sweep` runs
    # whole cells in it.  The synthesized programs are identical to a
    # serial sweep's.
    with SynthesisSession(config, store=store_path, parallel=2) as session:
        entries = session.sweep(BENCHMARKS)
        print(f"{len(entries)} cells across 2 workers:")
        for entry in entries:
            status = "ok" if entry.success else "failed"
            print(f"  {entry.label:<4} {status}  {entry.elapsed_s:.3f}s")
        print()
        print(entries[1].result.pretty())

    # The SQLite store outlives the pool: a fresh (serial) session answers
    # spec evaluations from disk instead of re-executing them.
    with SynthesisSession(config, store=store_path) as fresh:
        again = fresh.run("S4")
    print(
        f"\nfresh process re-ran S4 with {again.counters['cache.store_hits']} "
        f"store hits and {again.counters['search.reset_replays']} resets"
    )


if __name__ == "__main__":
    main()
