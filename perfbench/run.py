"""End-to-end synthesis benchmark: cold paper-tier and scale workloads.

Run from the repository root::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 60 --trace 0

Workloads (``BENCHMARK.json`` says why each was chosen, ``rationale.json``
what is out of scope and what each layer should move):

* ``paper-cold`` -- the 19 paper-tier benchmarks, each run with a freshly
  built problem and a fresh ``SynthesisSession``;
* ``scale-cold`` -- SC1 and SC2 (1e5 seeded users), built cold.

Each run starts a fresh interpreter process (``child.py``) that sets up
(imports and one build of every problem) and then runs whole passes over
the workload -- at least two, then as many as end within ``--seconds``.
Six further processes only set up, so that ``setup_s`` is a median of
seven.  ``--seed`` shuffles the benchmark order within each pass and is the
measured processes' ``PYTHONHASHSEED``.

Every time is scaled to a reference host speed by the canaries timed around
it (``canary.py``): ``wall_s * REF_S / canary_s``.  Raw wall times are
printed as diagnostics.  With ``--trace 0`` the last stdout line carries
the end-to-end metrics: ``suite_s`` (sum over benchmarks of the median
synthesis time), ``slowest_s`` (the largest of those medians), ``setup_s``
(process start to first timed synthesis, median over the set-ups) and
``peak_rss_mb`` (of the measuring process).  ``failed_frac`` and
``programs_changed`` are printed as rows above it and fold into
``correct``: a run that fails, or whose program differs from
``golden.json``, makes ``correct`` false.  With
``--trace 1`` traced and untraced passes alternate, and the last line
carries the per-layer metrics plus the tracing overhead and span coverage;
a layer wrap site that cannot be resolved, or that no traced run reaches,
also makes ``correct`` false.

Exits non-zero, printing no result, when the engine sources are missing or
a measuring process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Tuple

from canary import REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per untraced run (the measuring process plus set-up-only
#: processes); ``setup_s`` is their median.  A set-up takes well under a
#: second, and single samples spread by up to half of their median.
SETUPS = 7

#: Wall-clock budget for the whole run, inside the 180 s limit.
DEADLINE_S = 170.0

WORKLOADS = ("paper-cold", "scale-cold")

#: Per-layer metrics read from the engine's own counters of the same name,
#: summed over the benchmarks of a traced pass (median over traced passes).
COUNTER_METRICS = (
    "search.expansions", "search.pushed", "search.evaluated",
    "state.restores", "state.rebuilds",
)

#: Per-layer metrics read from span counts: metric -> (summary field, key).
SPAN_METRICS = {
    "enumerate.candidates": ("counts", "enumerate.candidates"),
    "activerecord.queries": ("site_calls", "repro.activerecord.database:Database.query"),
}


def spawn(workload: str, seed: int, seconds: float, trace: int,
          timeout: float) -> Dict[str, Any]:
    """Run one ``child.py`` process; ``seconds=0`` only sets up."""

    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--t0", repr(time.monotonic()),
    ]
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} process exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def scaled(wall_s: float, canary_s: float) -> float:
    """``wall_s`` on the reference host, given the canary time around it."""

    return wall_s * REF_S / canary_s


def medians(records: List[Dict[str, Any]], raw: bool = False) -> Dict[str, Tuple[float, int]]:
    """benchmark id -> (median scaled, or ``raw`` wall, time; sample count)."""

    times: Dict[str, List[float]] = defaultdict(list)
    for record in records:
        wall = record["wall_s"]
        times[record["id"]].append(wall if raw else scaled(wall, record["host_canary_s"]))
    return {bid: (statistics.median(ts), len(ts)) for bid, ts in sorted(times.items())}


def ratio(name: str, hits: float, misses: float) -> float:
    """hits / (hits + misses), printed with its base; zero hits are flagged."""

    base = hits + misses
    value = hits / base if base else 0.0
    flag = ""
    if base and not hits:
        flag = "  ZERO-HIT: layer does work but never hits"
    elif not base:
        flag = "  (unused: no lookups)"
    print(f"ratio {name} = {hits:g} / ({hits:g} + {misses:g}) = {value:.4f}{flag}")
    return value


def totals(records: List[Dict[str, Any]]) -> Dict[str, float]:
    summed: Dict[str, float] = defaultdict(float)
    for record in records:
        for name, value in record.get("counters", {}).items():
            summed[name] += value
    return summed


def counter_ratios(records: List[Dict[str, Any]]) -> Dict[str, float]:
    """The engine's own hit ratios over ``records``, each printed with its base."""

    c = totals(records)
    return {
        "cache.hit_ratio": ratio(
            "cache.hit_ratio", c["cache.spec_hits"] + c["cache.guard_hits"],
            c["cache.spec_misses"] + c["cache.guard_misses"]),
        "cache.intern_hit_ratio": ratio(
            "cache.intern_hit_ratio", c["cache.intern_hits"], c["cache.intern_misses"]),
        "activerecord.index_hit_ratio": ratio(
            "activerecord.index_hit_ratio", c["query.index_hits"], c["query.scans"]),
    }


def end_to_end(measured: Dict[str, Any], setups: List[float],
               records: List[Dict[str, Any]]) -> Dict[str, float]:
    untraced = [r for r in records if not r["traced"]]
    per_bench = medians(untraced)
    slowest = max(per_bench, key=lambda bid: per_bench[bid][0])
    print(f"slowest benchmark: {slowest}")
    print(f"raw suite_s (unscaled wall time) = "
          f"{sum(m for m, _ in medians(untraced, raw=True).values()):.4f} s")
    return {
        "suite_s": sum(m for m, _ in per_bench.values()),
        "slowest_s": per_bench[slowest][0],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": measured["rss_mb"],
    }


def per_layer(measured: Dict[str, Any], records: List[Dict[str, Any]],
              names: List[str], unreached: List[str]) -> Tuple[Dict[str, float], List[str]]:
    """The declared per-layer metrics, and the wrap sites that could not be
    resolved or that no traced pass reached (other than those ``unreached``
    lists for the workload)."""

    traced = [r for r in records if r["traced"]]
    passes = measured["traced_passes"]
    by_pass: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
    for record in traced:
        by_pass[record["pass"]].append(record)
    pass_counters = [totals(rs) for rs in by_pass.values()]

    def span_median(field: str, key: str) -> float:
        return statistics.median(p[field].get(key, 0) for p in passes)

    print("-- traced passes: engine counters and span counts")
    ratios = counter_ratios(traced)
    hits = sum(p["counts"].get("analysis.prune_hits", 0) for p in passes)
    lookups = sum(p["site_calls"].get("repro.analysis.prune:StaticPruner.outcome_for", 0)
                  for p in passes)
    ratios["analysis.prune_ratio"] = ratio("analysis.prune_ratio", hits, lookups - hits)

    untraced_suite = sum(m for m, _ in medians([r for r in records if not r["traced"]]).values())
    traced_suite = sum(m for m, _ in medians(traced).values())
    covered = sum(p["top_s"] for p in passes)
    wall = sum(r["wall_s"] for r in traced)
    print(f"tracing: traced suite_s {traced_suite:.4f} - untraced suite_s "
          f"{untraced_suite:.4f} = overhead {traced_suite - untraced_suite:.4f} s; "
          f"spans cover {covered:.4f} of {wall:.4f} s run wall time "
          f"({covered / wall:.2%}), {wall - covered:.4f} s unaccounted")
    tracing = {"tracing.overhead_s": traced_suite - untraced_suite,
               "tracing.coverage": covered / wall}

    lost = list(measured["missing_sites"])
    for site in measured["sites"]:
        reached = sum(p["site_calls"].get(site, 0) for p in passes)
        print(f"site {site}: {reached} calls")
        if not reached and site not in unreached:
            lost.append(site)

    metrics: Dict[str, float] = {}
    for name in names:
        layer, _, kind = name.partition(".")
        if name in ratios:
            metrics[name] = ratios[name]
        elif name in tracing:
            metrics[name] = tracing[name]
        elif name in COUNTER_METRICS:
            metrics[name] = statistics.median(c[name] for c in pass_counters)
        elif name in SPAN_METRICS:
            metrics[name] = span_median(*SPAN_METRICS[name])
        elif kind in ("self_s", "calls"):
            metrics[name] = span_median(kind, layer)
        else:
            raise KeyError(f"no source for per-layer metric {name}")
    return metrics, lost


def main() -> int:
    parser = argparse.ArgumentParser(description="End-to-end synthesis benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    started = time.monotonic()
    if not (ROOT / "src" / "repro" / "synth").is_dir():
        print(f"engine sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())

    measured = spawn(args.workload, args.seed, args.seconds, args.trace, DEADLINE_S)
    setup_runs = [measured]
    for _ in range(0 if args.trace else SETUPS - 1):
        remaining = DEADLINE_S - (time.monotonic() - started)
        setup_runs.append(spawn(args.workload, args.seed, 0, 0, remaining))
    setups = [scaled(r["setup_s"], r["setup_canary_s"]) for r in setup_runs]
    print("setup_s samples (raw s / canary s): " + " ".join(
        f"{r['setup_s']:.4f}/{r['setup_canary_s']:.4f}" for r in setup_runs))
    records = measured["records"]
    # The host speed during a run: the mean of the canary timed just before
    # it and the one timed just before the next run (the last run has only
    # its own).  Bracketing the run halved the spread of slowest_s over
    # scaling by the canary before it alone.
    for record, after in zip(records, records[1:] + records[-1:]):
        record["host_canary_s"] = (record["canary_s"] + after["canary_s"]) / 2

    failed = [r for r in records if not (r["ok"] and r["recheck"])]
    changed = sorted({r["id"] for r in records if r["text"] != golden.get(r["id"])})
    for traced in (False, True):
        label = "traced" if traced else "untraced"
        selected = [r for r in records if r["traced"] is traced]
        raw = medians(selected, raw=True)
        for bid, (median, count) in medians(selected).items():
            print(f"bench {bid} {label} median_s={median:.4f} "
                  f"raw_median_s={raw[bid][0]:.4f} n={count}")
    for record in failed:
        print(f"FAILED {record['id']} pass {record['pass']}: ok={record['ok']} "
              f"recheck={record['recheck']} {record.get('error', '')}")
    for bid in changed:
        print(f"CHANGED {bid}: program text differs from golden.json")
    print(f"failed_frac = {len(failed)} / {len(records)} = "
          f"{len(failed) / len(records):.4f} ratio")
    print(f"programs_changed = {len(changed)} count")
    print("-- all passes: engine counters")
    counter_ratios(records)

    lost: List[str] = []
    if args.trace:
        declared = spec["per_layer"]
        rationale = json.loads((HERE / "rationale.json").read_text())
        values, lost = per_layer(measured, records, [m["name"] for m in declared],
                                 rationale["unreached_on"].get(args.workload, []))
        for site in lost:
            print(f"LOST-SPAN {site}: cannot be wrapped or never reached")
    else:
        declared = spec["end_to_end"]
        values = end_to_end(measured, setups, records)
    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"{metric['name']} = {value:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": not failed and not changed and not lost,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
