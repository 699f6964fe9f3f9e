"""Run one bernshift benchmark workload and print its metrics.

    python3 bench/run.py --workload pushforward --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the package is imported from
``src/`` next to this directory, never from an installed copy.  The last
line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it holds the
run's provenance.  ``--trace 0`` reports the end-to-end metrics and
``--trace 1`` the per-layer metrics of a traced replay of round 0,
whose spans are also written to ``bench/out/``.  Diagnostics go to stderr.

See ``bench/README.md`` for what each workload measures and why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
PACKAGE = ROOT / "src" / "bernshift"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 15
PROBE_TIMEOUT_S = 60


def import_package():
    """Import bernshift from this checkout's ``src/``, or exit non-zero."""
    init = PACKAGE / "__init__.py"
    if not init.is_file():
        sys.exit(f"bench: {init} not found; run from the root of a bernshift checkout")
    sys.path.insert(0, str(PACKAGE.parent))
    import bernshift

    if Path(bernshift.__file__).resolve() != init.resolve():
        sys.exit(f"bench: imported bernshift from {bernshift.__file__}, not {init}")
    return bernshift


def spawn_to_ready(workload: str) -> float:
    """Seconds from spawning a fresh interpreter to the workload being
    ready: ``import bernshift`` plus its descriptors and laws."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload]
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.wait(timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"setup probe exited with {proc.returncode}")
    return elapsed


def provenance(bernshift, wl, args, nproc: int) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(PACKAGE).as_posix().encode())
        digest.update(path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        revision = done.stdout.strip() if done.returncode == 0 else None
    return {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "bernshift": bernshift.__version__,
        "git_revision": revision,
        "source_sha256": digest.hexdigest(),
        "unit": wl.unit,
        "calls": wl.describe(),
    }


class Gate:
    """Runs calls, times them, and applies each call's correctness check.

    ``baseline`` maps the name of each call that is known to fail to the
    kind it fails with.  Any other failure is ``unexpected`` and makes the
    run incorrect; a baseline call that stops failing does not.
    """

    def __init__(self, baseline: dict[str, str]):
        self.baseline = baseline
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures: dict[str, tuple[str, str]] = {}

    def run(self, call, tracer=None) -> tuple[float, int]:
        """Seconds the call took and the units it completed."""
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            result = call.run()
            error = None
        except Exception as exc:  # a raising call is a failed call, not a crash
            error = exc
        finally:
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
        self.attempted += 1
        verdict = (
            ("error", f"{type(error).__name__}: {error}") if error is not None else call.check(result)
        )
        if verdict is not None:
            self.failed += 1
            self.unexpected += self.baseline.get(call.name) != verdict[0]
            self.failures.setdefault(call.name, verdict)
        return elapsed, 0 if error is not None else call.units


def throughput(times: dict, units: dict) -> float:
    """Units completed per second of call time, over every call run."""
    return sum(map(sum, units.values())) / sum(map(sum, times.values()))


def run_calls(calls, gate: Gate, times: dict, units: dict, between=None) -> None:
    for call in calls:
        if between is not None:
            between()
        elapsed, done = gate.run(call)
        times[call.name].append(elapsed)
        units[call.name].append(done)


def run_rounds(wl, gate: Gate, args) -> dict:
    """Closed loop: one client runs rounds back to back, and starts the
    next round only if it should end within ``--seconds`` (the first round
    always runs).

    Untraced runs also measure set-up ``SETUP_REPEATS`` times, after one
    unmeasured spawn that fills the bytecode caches.  The spawns are spread
    between calls over the whole run, so that their median sees the same
    stretch of machine time as the calls do."""
    times, units, durations, setup = defaultdict(list), defaultdict(list), [], []
    repeats = 0 if args.trace else SETUP_REPEATS
    if repeats:
        spawn_to_ready(wl.name)
    begin = time.perf_counter()
    deadline = begin + args.seconds

    def probe_if_due():
        if len(setup) < repeats * (time.perf_counter() - begin) / args.seconds:
            setup.append(spawn_to_ready(wl.name))

    index = 0
    while True:
        start = time.perf_counter()
        run_calls(wl.calls(args.seed, index), gate, times, units, probe_if_due)
        durations.append(time.perf_counter() - start)
        index += 1
        if time.perf_counter() + statistics.median(durations) > deadline:
            break
    while len(setup) < repeats:
        setup.append(spawn_to_ready(wl.name))
    return {
        "rounds": index,
        "times": times,
        "units": units,
        "setup_s": setup,
        "round_s": statistics.median(durations),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def traced_replay(wl, gate: Gate, args, tracing, record: dict | None):
    """Round 0 again under a tracer.  It runs after the untraced rounds,
    when the package's caches hold what round 0 put there, so its counts
    depend only on the seed."""
    tracer = tracing.Tracer()
    extra = {"record": record} if wl.threaded else {}
    start = time.perf_counter()
    for call in wl.calls(args.seed, 0, **extra):
        gate.run(call, tracer)
    return tracer, time.perf_counter() - start


def nproc_pass(wl, gate: Gate, args, serial: dict, threads: int) -> float:
    """Round 0 at ``threads`` workers; every report must match the serial
    one byte for byte.  Returns units per second."""
    times, units = defaultdict(list), defaultdict(list)
    run_calls(wl.calls(args.seed, 0, threads, reference=serial), gate, times, units)
    return throughput(times, units)


def write_trace(path: Path, prov: dict, tracer) -> None:
    t0 = min((span[1] for span in tracer.spans), default=0.0)
    spans = [
        [name, round((start - t0) * 1e6), round((end - t0) * 1e6), parent]
        for name, start, end, parent in tracer.spans
    ]
    path.parent.mkdir(exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"provenance": prov, "span_fields": ["name", "start_us", "end_us", "parent"],
                   "spans": spans, "counts": dict(tracer.counts)}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("pushforward", "property", "window"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    bernshift = import_package()
    import workloads

    if args.setup_probe:
        workloads.WORKLOADS[args.workload]().setup()
        print("ready", flush=True)
        return 0

    wl = workloads.WORKLOADS[args.workload]()
    wl.setup()
    cores = len(os.sched_getaffinity(0))
    prov = provenance(bernshift, wl, args, cores)

    gate = Gate(wl.BASELINE_FAILURES)
    measured = run_rounds(wl, gate, args)
    units_per_s = throughput(measured["times"], measured["units"])
    log = {"rounds": measured["rounds"], "units_per_s": units_per_s}
    if args.trace:
        import tracing

        serial: dict = {}
        tracer, traced_s = traced_replay(wl, gate, args, tracing, serial)
        layers = tracing.layer_metrics(tracer, traced_s / measured["round_s"])
        nproc_rate = nproc_pass(wl, gate, args, serial, cores) if wl.threaded else 0.0
        layers["verify.units_per_s_nproc"] = (nproc_rate, "1/s")
        log["units_per_s_nproc"] = nproc_rate
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        write_trace(OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json", prov, tracer)
    else:
        log["setup_s"] = measured["setup_s"]
        metrics = {
            "setup_s": {"value": statistics.median(measured["setup_s"]), "unit": "s"},
            "units_per_s": {"value": units_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": measured["peak_rss_mb"], "unit": "MB"},
        }

    log["calls_failed_ratio"] = gate.failed / gate.attempted
    log["failures"] = {name: list(v) for name, v in gate.failures.items()}
    log["call_s"] = measured["times"]
    print(json.dumps(log, indent=1), file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps({
        "correct": gate.unexpected == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
