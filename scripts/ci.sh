#!/usr/bin/env bash
# Lightweight CI gate: tier-1 tests, then the identity and correctness gates,
# then one traced benchmark pass per workload.
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
# programs must also cost the same search, snapshot and query work.
# Regenerate that golden only for a change meant to alter engine work.
#
# The arm-identity gate (scripts/arm_identity.py) synthesizes the same 21
# benchmarks once per arm -- snapshots off, static pruning off, ORM indexes
# off, tracing on, and cold cells over two worker processes --
# under the same two hash seeds, and fails naming every (arm, benchmark)
# whose program differs from perfbench/golden.json.  Tracing must not change
# engine work either: the traced arm's nonzero counters of every run are
# also compared with scripts/counter_golden.json ("traced-counters"), and
# the gate fails naming each benchmark whose counters differ.
#
# The static analysis gates exercise repro.analysis: the annotation linter
# must stay finding-free over every registered benchmark, and the soundness
# sweep must observe zero dynamic effects the static footprint fails to
# subsume.
#
# The traced benchmark gate runs perfbench/run.py --trace 1 once per
# workload (~8 s paper-cold, ~5 s scale-cold).  A traced run wraps each
# call site that perfbench/rationale.json lists, at the name its caller
# looks it up by; a site that no longer resolves, or that the engine no
# longer reaches through that name (say, a call-time import hoisted to
# module level), makes the run's last line report "correct": false, and
# the gate fails on it.

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

echo "== arm identity gate (five arms and the traced counters, two hash seeds) =="
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

echo "== traced benchmark gate (perfbench --trace 1, both workloads) =="
TRACED_OUT="$(mktemp)"
for workload in paper-cold scale-cold; do
    python perfbench/run.py --workload "$workload" --seed 1 --seconds 1 --trace 1 \
        > "$TRACED_OUT"
    grep "^LOST-SPAN" "$TRACED_OUT" || true
    tail -n 1 "$TRACED_OUT" | python -c '
import json, sys
correct = json.loads(sys.stdin.read())["correct"] is True
print(sys.argv[1], "traced run correct" if correct else "traced run NOT correct")
sys.exit(0 if correct else 1)
' "$workload"
done
rm -f "$TRACED_OUT"

echo "== ok =="
