"""Parallel synthesis: spread a registry sweep's cells over worker processes.

Every ``(benchmark, variant)`` cell of a sweep is an independent synthesis
run, so a :class:`~repro.synth.session.SynthesisSession` can own a worker
pool (:mod:`repro.synth.parallel`) and run whole cells in it without
changing any result.  Each cell is a serial run inside its worker, so the
pool synthesizes exactly the programs a serial sweep does.

Run with::

    python examples/parallel_sweep.py
"""

from __future__ import annotations

from repro.synth import SynthConfig, SynthesisSession

BENCHMARKS = ["S1", "S4", "S5"]


def main() -> None:
    config = SynthConfig(timeout_s=60)

    # A session with `parallel=2` owns a two-worker pool, and `sweep` runs
    # whole cells in it.
    with SynthesisSession(config, parallel=2) as session:
        entries = session.sweep(BENCHMARKS)
        print(f"{len(entries)} cells across 2 workers:")
        for entry in entries:
            status = "ok" if entry.success else "failed"
            print(f"  {entry.label:<4} {status}  {entry.elapsed_s:.3f}s")
        print()
        print(entries[1].result.pretty())

    # The same sweep, serially in this process.
    with SynthesisSession(config) as serial:
        expected = serial.sweep(BENCHMARKS)
    identical = [e.result.program for e in entries] == [
        e.result.program for e in expected
    ]
    print(f"\nprograms identical to serial: {identical}")


if __name__ == "__main__":
    main()
