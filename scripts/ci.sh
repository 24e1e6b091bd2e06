#!/usr/bin/env bash
# Lightweight CI gate: tier-1 tests, the program- and counter-identity
# gates, the cache-, state-, store- and parallel-bench smokes, and the
# static-analysis, ORM and observability gates.
#
#   scripts/ci.sh            # tier-1 pytest + bench --check gates
#   CI_SKIP_TESTS=1 scripts/ci.sh   # bench smokes only
#
# Bench reports are written to BENCH_<subsystem>.json at the repo root and
# checked in per PR, forming the committed bench trajectory the ROADMAP
# asks for.
#
# Each bench smoke synthesizes a fast subset of registry benchmarks with one
# subsystem off and on, writes a JSON report, validates its schema and fails
# unless >= 3 benchmarks meet the subsystem's >= 2x reduction target
# (redundant spec executions for the cache, reset-closure replays for the
# state snapshots) with identical synthesized programs.
#
# The store-persistence gate then runs bench_cache twice more against one
# persistent SQLite spec-outcome store (repro.synth.store): the first pass
# populates it, the second pass -- a separate process -- must answer >= 1
# spec execution from the store while still synthesizing identical programs.
#
# The parallel gates exercise repro.synth.parallel: a --jobs 2 smoke over a
# small registry subset gated purely on program identity with the serial
# run, then the full bench_parallel --check (default --jobs 4) which also
# gates on the >= 1.5x wall-clock speedup target over the synthetic
# registry.
#
# The static analysis gates exercise repro.analysis: the annotation linter
# must stay finding-free over every registered benchmark, the soundness
# sweep must observe zero dynamic effects the static footprint fails to
# subsume, and bench_analysis --check must show >= 15% fewer dynamic
# evaluation operations (interpreter passes + snapshot restores performed)
# with static pruning on, with identical synthesized programs.
#
# The observability gate runs bench_obs --check: with tracing disabled the
# repro.obs instrumentation must cost <= 2% on the hot spec-evaluation path
# (paired A/B bursts against the uninstrumented core), and a traced run of
# each benchmark must produce a well-formed JSONL trace whose phase spans
# cover >= 95% of the root span, with identical synthesized programs.
#
# The program-identity gate synthesizes every end-to-end benchmark workload
# cold (perfbench/child.py --golden) under two string-hash seeds and compares
# the program texts byte for byte with perfbench/golden.json, so neither a
# change to the engine nor a change of hash seed may alter a program.  The
# counter-identity gate does the same for the engine counters of those runs
# (scripts/counter_golden.py against scripts/counter_golden.json): the same
# programs must also cost the same search, memo, snapshot and query work.
# Regenerate that golden only for a change meant to alter engine work.

set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

if [[ "${CI_SKIP_TESTS:-0}" != "1" ]]; then
    echo "== tier-1 tests =="
    python -m pytest -x -q
fi

echo "== program identity gate (perfbench goldens, two hash seeds) =="
GOLDEN_OUT="$(mktemp)"
for seed in 0 12345; do
    PYTHONHASHSEED="$seed" python perfbench/child.py --golden > "$GOLDEN_OUT"
    cmp "$GOLDEN_OUT" perfbench/golden.json
done
rm -f "$GOLDEN_OUT"

echo "== counter identity gate (engine counters, two hash seeds) =="
COUNTERS_OUT="$(mktemp)"
for seed in 0 12345; do
    PYTHONHASHSEED="$seed" python scripts/counter_golden.py > "$COUNTERS_OUT"
    cmp "$COUNTERS_OUT" scripts/counter_golden.json
done
rm -f "$COUNTERS_OUT"

echo "== cache bench smoke =="
REPORT="${CI_BENCH_REPORT:-BENCH_cache.json}"
python benchmarks/bench_cache.py \
    --timeout "${REPRO_BENCH_TIMEOUT:-60}" \
    --out "$REPORT" \
    --min-benchmarks 3 \
    --check

echo "== state bench smoke =="
STATE_REPORT="${CI_STATE_REPORT:-BENCH_state.json}"
python benchmarks/bench_state.py \
    --timeout "${REPRO_BENCH_TIMEOUT:-60}" \
    --out "$STATE_REPORT" \
    --min-benchmarks 3 \
    --check

echo "== store persistence gate =="
STORE_DB="${CI_STORE_DB:-bench_outcome_store.sqlite}"
STORE_REPORT="${CI_STORE_REPORT:-bench_store_report.json}"
rm -f "$STORE_DB" "$STORE_DB-wal" "$STORE_DB-shm"
# Pass 1 populates the store; pass 2 (a fresh process) must hit it.
python benchmarks/bench_cache.py \
    --benchmarks S1 S4 \
    --timeout "${REPRO_BENCH_TIMEOUT:-60}" \
    --store "$STORE_DB" \
    --min-benchmarks 2 \
    --check > /dev/null
python benchmarks/bench_cache.py \
    --benchmarks S1 S4 \
    --timeout "${REPRO_BENCH_TIMEOUT:-60}" \
    --store "$STORE_DB" \
    --out "$STORE_REPORT" \
    --min-benchmarks 2 \
    --min-store-hits 1 \
    --check

echo "== parallel identity smoke (--jobs 2) =="
python benchmarks/bench_parallel.py \
    --benchmarks S1 S4 S5 \
    --jobs 2 \
    --repeat 1 \
    --timeout "${REPRO_BENCH_TIMEOUT:-60}" \
    --min-speedup 0 \
    --check > /dev/null

echo "== parallel speedup gate (--jobs 4) =="
PARALLEL_REPORT="${CI_PARALLEL_REPORT:-BENCH_parallel.json}"
python benchmarks/bench_parallel.py \
    --timeout "${REPRO_BENCH_TIMEOUT:-60}" \
    --out "$PARALLEL_REPORT" \
    --check

echo "== annotation lint gate =="
python scripts/lint_annotations.py --check

echo "== soundness sweep gate =="
python scripts/soundness_sweep.py \
    --check \
    --samples "${CI_SOUNDNESS_SAMPLES:-10}" \
    --search-limit "${CI_SOUNDNESS_SEARCH_LIMIT:-40}"

echo "== static analysis bench gate =="
ANALYSIS_REPORT="${CI_ANALYSIS_REPORT:-BENCH_analysis.json}"
python benchmarks/bench_analysis.py \
    --timeout "${REPRO_BENCH_TIMEOUT:-60}" \
    --out "$ANALYSIS_REPORT" \
    --min-benchmarks 3 \
    --check

echo "== orm index gate (1e5-row lookup battery + seeded scale smoke) =="
ORM_REPORT="${CI_ORM_REPORT:-BENCH_orm.json}"
python benchmarks/bench_orm.py \
    --timeout "${REPRO_BENCH_TIMEOUT:-60}" \
    --out "$ORM_REPORT" \
    --min-benchmarks 3 \
    --check

echo "== observability gate (disabled-tracing overhead + trace validity) =="
OBS_REPORT="${CI_OBS_REPORT:-BENCH_obs.json}"
python benchmarks/bench_obs.py \
    --timeout "${REPRO_BENCH_TIMEOUT:-60}" \
    --out "$OBS_REPORT" \
    --min-benchmarks 3 \
    --check

echo "== ok: reports at $REPORT, $STATE_REPORT, $STORE_REPORT, $PARALLEL_REPORT, $ANALYSIS_REPORT, $ORM_REPORT and $OBS_REPORT =="
