"""Parallel synthesis: fan a registry sweep out across worker processes.

The paper's per-spec searches are independent until the merge step, so a
:class:`~repro.synth.session.SynthesisSession` can own a worker pool
(:mod:`repro.synth.parallel`) and distribute work without changing any
result: per-spec searches within one run, and whole ``(benchmark, variant)``
cells of a sweep.  Workers share outcomes through a concurrent-safe SQLite
spec-outcome store, so a later process answers everything from disk.

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

    # A session with `parallel=2` owns a two-worker pool.  `run` fans the
    # per-spec searches of a registry benchmark out across the workers;
    # `sweep` distributes whole cells.  Either way the synthesized programs
    # are identical to a serial run's.
    with SynthesisSession(config, store=store_path, parallel=2) as session:
        result = session.run("S4")
        tasks = result.counters["search.parallel_tasks"]
        print(f"S4 across 2 workers ({tasks} tasks):")
        print(result.pretty())
        print()

        entries = session.sweep(BENCHMARKS)
        for entry in entries:
            status = "ok" if entry.success else "failed"
            print(f"  {entry.label:<4} {status}  {entry.elapsed_s:.3f}s")

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
