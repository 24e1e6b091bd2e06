"""Ablation of the Section 4 design choices DESIGN.md calls out.

Not a table/figure of the paper, but the paper's implementation section
motivates several heuristics; this harness measures their impact on a couple
of representative benchmarks:

* exploration order (passed-asserts-then-size vs size-only vs FIFO);
* solution/guard reuse across specs;
* type narrowing during hole filling;
* spec-outcome memoization (the ``no_cache`` variant disables the
  evaluation cache of :mod:`repro.synth.cache`; cache counters are
  recorded in ``extra_info`` for every variant);
* copy-on-write state snapshots (the ``no_snapshot`` variant disables the
  snapshot manager of :mod:`repro.synth.state`, replaying the reset
  closure and seed inserts on every candidate evaluation).
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from conftest import MODE_TIMEOUT_S
from repro.benchmarks import get_benchmark, run_benchmark
from repro.synth.config import ORDER_FIFO, ORDER_SIZE, SynthConfig

ABLATION_BENCHMARKS = ("S6", "A9")

VARIANTS = {
    "baseline": {},
    "order_size_only": {"exploration_order": ORDER_SIZE},
    "order_fifo": {"exploration_order": ORDER_FIFO},
    "no_reuse": {"reuse_solutions": False, "try_negated_guards": False},
    "no_narrowing": {"narrow_types": False},
    # A true cache-free baseline: no memo and no key bookkeeping either.
    "no_cache": {"cache_spec_outcomes": False, "cache_track_redundancy": False},
    # Reset-every-time baseline: no database snapshot/restore.
    "no_snapshot": {"snapshot_state": False},
}


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("benchmark_id", ABLATION_BENCHMARKS)
def test_ablation(benchmark, benchmark_id, variant):
    spec = get_benchmark(benchmark_id)
    config = replace(SynthConfig.full(timeout_s=MODE_TIMEOUT_S), **VARIANTS[variant])

    def run():
        return run_benchmark(spec, config, runs=1)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    benchmark.extra_info["benchmark"] = benchmark_id
    benchmark.extra_info["variant"] = variant
    benchmark.extra_info["success"] = result.success
    c = result.counters
    for name in ("hits", "misses", "redundant"):
        benchmark.extra_info[f"cache_{name}"] = (
            c[f"cache.spec_{name}"] + c[f"cache.guard_{name}"]
        )
    benchmark.extra_info["state_restores"] = c["state.restores"]
    benchmark.extra_info["state_rebuilds"] = c["state.rebuilds"]
    benchmark.extra_info["reset_replays"] = c["search.reset_replays"]
