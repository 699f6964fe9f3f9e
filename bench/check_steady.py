"""Steadiness self-check for the benchmark described by BENCHMARK.json.

    python3 bench/check_steady.py [--runs 10] [--trace-check]

Runs two independent sets of ``--runs`` untraced runs of every workload in
BENCHMARK.json, from the repository root, each run with its own seed
(seeds count up from 1).  For every end-to-end metric it reports, per
set, the median and the spread (the distance between the first and third
quartile as a share of the median).  It fails if a spread exceeds the
metric's bound, or if the two sets' medians differ by more than the bound
in either direction.  Spreads above a third of the bound are flagged.

``--trace-check`` also runs ``--trace 1`` twice per workload with seed 1
and requires every count to repeat exactly and every per-layer metric to
be present.

Every output line of a run is checked against the result contract.
Exits 0 if every check passes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SETS = 2
FIRST_SEED = 1
RUN_TIMEOUT_S = 180


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    expected = SPEC["per_layer" if trace else "end_to_end"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not result.get("correct"):
        problems.append("correct is false")
    if set(result["metrics"]) != {m["name"] for m in expected}:
        problems.append(f"metric names differ: {sorted(set(result['metrics']) ^ {m['name'] for m in expected})}")
    for m in expected:
        got = result["metrics"].get(m["name"], {})
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']} unit {got.get('unit')!r}, expected {m['unit']!r}")
    if problems:
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: " + "; ".join(problems))
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steadiness(runs: int) -> bool:
    ok = True
    values = {}  # (workload, set) -> metric -> [values]
    seed = FIRST_SEED
    for s in range(SETS):
        for w in WORKLOADS:
            per_metric = values.setdefault((w, s), {m["name"]: [] for m in SPEC["end_to_end"]})
            for _ in range(runs):
                result = run_once(w, seed, 0)
                for name, v in result["metrics"].items():
                    per_metric[name].append(v["value"])
                print(f"set {s} {w} seed {seed}: attempted {result['attempted']} failed {result['failed']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                      file=sys.stderr, flush=True)
                seed += 1
    print(f"{'workload':12s} {'metric':12s} {'bound':>6s}  per set: median (spread)")
    for w in WORKLOADS:
        for m in SPEC["end_to_end"]:
            name, bound = m["name"], m["bound"]
            cells, flags, medians = [], [], []
            for s in range(SETS):
                vals = values[(w, s)][name]
                med, spr = statistics.median(vals), spread(vals)
                medians.append(med)
                cells.append(f"{med:.6g} ({spr:.3f})")
                if spr > bound:
                    flags.append(f"set {s} spread > bound")
                elif spr > bound / 3:
                    flags.append(f"set {s} spread > bound/3 (warning)")
            shift = abs(medians[1] - medians[0]) / medians[0]
            cells.append(f"shift {shift:.3f}")
            if shift > bound:
                flags.append("set medians differ by more than bound")
            ok &= all(f.endswith("(warning)") for f in flags)
            print(f"{w:12s} {name:12s} {bound:6.2f}  " + "  ".join(cells)
                  + (f"  <- {'; '.join(flags)}" if flags else ""))
    return ok


def trace_check() -> bool:
    ok = True
    for w in WORKLOADS:
        a, b = (run_once(w, FIRST_SEED, 1)["metrics"] for _ in range(2))
        counted = [k for k, v in a.items() if v["unit"] in ("count", "ratio") and k != "trace.overhead_ratio"]
        differ = [k for k in counted if a[k]["value"] != b[k]["value"]]
        print(f"trace {w} seed {FIRST_SEED}: {len(counted)} counts and ratios, "
              + ("all repeat exactly" if not differ else f"differ: {differ}"))
        ok &= not differ
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--trace-check", action="store_true")
    args = parser.parse_args(argv)
    ok = True
    if args.runs > 0:
        ok = steadiness(args.runs)
    if args.trace_check:
        ok &= trace_check()
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
