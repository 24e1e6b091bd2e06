#!/usr/bin/env bash
# Lightweight CI gate: tier-1 tests, then the identity and correctness gates.
#
#   scripts/ci.sh                   # tier-1 pytest + every gate below
#   CI_SKIP_TESTS=1 scripts/ci.sh   # the gates only
#
# The program-identity gate synthesizes every end-to-end benchmark workload
# cold (perfbench/child.py --golden) under two string-hash seeds and compares
# the program texts byte for byte with perfbench/golden.json, so neither a
# change to the engine nor a change of hash seed may alter a program.  The
# counter-identity gate does the same for the engine counters of those runs
# (scripts/counter_golden.py against scripts/counter_golden.json): the same
# programs must also cost the same search, memo, snapshot and query work.
# Regenerate that golden only for a change meant to alter engine work.
#
# The arm-identity gate (scripts/arm_identity.py) synthesizes the same 21
# benchmarks once per arm -- memo off, snapshots off, static pruning off,
# ORM indexes off, tracing on, and cold cells over two worker processes --
# under the same two hash seeds, and fails naming every (arm, benchmark)
# whose program differs from perfbench/golden.json.
#
# The static analysis gates exercise repro.analysis: the annotation linter
# must stay finding-free over every registered benchmark, and the soundness
# sweep must observe zero dynamic effects the static footprint fails to
# subsume.

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

echo "== arm identity gate (six arms, two hash seeds) =="
for seed in 0 12345; do
    PYTHONHASHSEED="$seed" python scripts/arm_identity.py
done

echo "== annotation lint gate =="
python scripts/lint_annotations.py --check

echo "== soundness sweep gate =="
python scripts/soundness_sweep.py \
    --check \
    --samples "${CI_SOUNDNESS_SAMPLES:-10}" \
    --search-limit "${CI_SOUNDNESS_SEARCH_LIMIT:-40}"

echo "== ok =="
