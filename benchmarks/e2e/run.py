#!/usr/bin/env python3
"""The repo's end-to-end + per-layer benchmark (see README.md beside this file).

    python3 benchmarks/e2e/run.py                         # all workloads, timed
    python3 benchmarks/e2e/run.py --trace 1               # all workloads, layer table
    python3 benchmarks/e2e/run.py --workload vqe4_stat --seed 3 --seconds 15 --trace 0
    python3 benchmarks/e2e/run.py --repeat 2              # two sets, compared
    python3 benchmarks/e2e/run.py --compare A.json B.json
    python3 benchmarks/e2e/run.py --selfcheck

Each workload runs in its own single-threaded subprocess (``worker.py``).
With ``--workload`` the last line printed is the result object the benchmark
driver reads: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from worker import E2E_UNITS, THREAD_ENV, now_monotonic  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
E2E = {m["name"]: m for m in SPEC["end_to_end"]}
HISTORY = HERE / "history.jsonl"
#: Set-up is measured in this many extra set-up-only processes per timed run;
#: ``setup_s`` is the median over them and the measuring process itself.
SETUP_PROBES = 2
WORKER_TIMEOUT_S = 170


def unit_of(name: str) -> str:
    """Unit of a metric, from its name."""
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_fraction")):
        return "ratio"
    if name.endswith("bytes_written"):
        return "B"
    if ".events_per_s." in name:
        return "1/s"
    return "count"


# ---------------------------------------------------------------------------
# running workers
# ---------------------------------------------------------------------------

def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_ENV})
    env.pop("REPRO_TELEMETRY", None)
    # String hashing decides set order and dict layout; pin it so two runs
    # of one seed do the same work in the same order.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn_worker(workload: str, seed: int, seconds: float, mode: str, scratch: Path, extra=()):
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--mode", mode, "--scratch", str(scratch),
        "--spawned-at", repr(now_monotonic()), *extra,
    ]
    return subprocess.Popen(
        command, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True
    )


def collect(process: subprocess.Popen) -> dict:
    """Wait for a worker and parse the JSON object on its last line."""
    try:
        stdout, _ = process.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise SystemExit(f"worker timed out after {WORKER_TIMEOUT_S} s")
    if process.returncode != 0:
        raise SystemExit(f"worker exited with code {process.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: int, scratch: Path,
                 spans: str | None = None) -> dict:
    """One benchmark run of one workload: the worker's result, set-up folded in."""
    extra = ("--spans-out", spans) if spans else ()
    if trace:
        return collect(spawn_worker(workload, seed, seconds, "traced", scratch, extra))
    setups = [
        collect(spawn_worker(workload, seed, 0, "setup", scratch))["setup_s"]
        for _ in range(SETUP_PROBES)
    ]
    result = collect(spawn_worker(workload, seed, seconds, "timed", scratch))
    setups.append(result["setup_s"])
    result["setup_samples_s"] = setups
    if result["metrics"]:
        result["metrics"]["setup_s"] = statistics.median(setups)
        result["raw"]["setup_wall_s"] = result["setup_wall_s"]
    return result


def driver_line(result: dict) -> str:
    """The result object of the benchmark contract."""
    return json.dumps({
        "correct": result["failed"] == 0 and bool(result["metrics"]),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit_of(name)}
            for name, value in result["metrics"].items()
        },
    })


def print_result(result: dict, trace: int) -> None:
    name = result["workload"]
    print(f"== {name}  seed={result['seed']}  "
          f"attempted={result['attempted']} failed={result['failed']}")
    for error in result["errors"]:
        print(f"   ERROR {error.strip()}")
    metrics = result["metrics"]
    if trace:
        print_layer_table(result)
        return
    for metric, value in metrics.items():
        note = ""
        if metric.startswith("segment_cpu_ms"):
            note = f"   (n={result['segments_timed']} segments)"
        elif metric == "work_per_cpu_s":
            note = f"   ({result['work_unit']}/s)"
        print(f"   {metric:<22} {value:>14.4f} {unit_of(metric):<5}{note}")
    print("   raw wall, not metrics: " + "  ".join(f"{k}={v:.4f}" for k, v in result["raw"].items()))
    for key, value in result["sim"].items():
        print(f"   {key:<22} {value:>14.6f}       (simulated; first {result['sim_digest_segments']} segments)")
    print(f"   sim_digest             {result['sim_digest']}")


def print_layer_table(result: dict) -> None:
    metrics = result["metrics"]
    if not metrics:
        return
    times = {k: v for k, v in metrics.items() if k.endswith("_ms")}
    wall = result["traced_ms_mean"]
    print(f"   traced segments: {result['traced_segments']}   "
          f"traced p50 {result['traced_ms_p50']:.1f} ms   "
          f"untraced p50 {result['untraced_ms_p50']:.1f} ms")
    print(f"   {'layer self time':<34} {'ms/segment':>11} {'share':>7}")
    for name, value in sorted(times.items(), key=lambda kv: -kv[1]):
        if value > 0:
            print(f"   {name:<34} {value:>11.3f} {value / wall:>7.1%}")
    residual = 1.0 - metrics["trace.attributed_ratio"]
    print(f"   {'(unattributed residual)':<34} {'':>11} {residual:>7.1%}")
    by_layer: dict[str, float] = {}
    for name, value in times.items():
        layer = name.split(".")[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + value
    print("   by layer: " + "  ".join(
        f"{layer} {value / wall:.1%}"
        for layer, value in sorted(by_layer.items(), key=lambda kv: -kv[1]) if value > 0
    ))
    for name, value in metrics.items():
        if not name.endswith("_ms") and value:
            print(f"   {name:<34} {value:>14.4f} {unit_of(name)}")
    if result["missing_targets"]:
        print(f"   not wrapped (absent from the program): {result['missing_targets']}")


# ---------------------------------------------------------------------------
# provenance, recording, comparing
# ---------------------------------------------------------------------------

def provenance(seed: int, seconds: float, trace: int) -> dict:
    import numpy  # already loaded: worker imports calibration

    commit = dirty = None
    git = shutil.which("git")
    if git and (ROOT / ".git").exists():
        def ask(*words):
            return subprocess.run([git, "-C", str(ROOT), *words], capture_output=True, text=True).stdout.strip()
        commit = ask("rev-parse", "HEAD") or None
        # Uncommitted changes to the program or the benchmark: the numbers
        # then belong to no commit.
        dirty = bool(ask("status", "--porcelain", "--", "src", "benchmarks/e2e", "BENCHMARK.json"))
    return {
        "commit": commit,
        "dirty": dirty,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "environment": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "threads": {var: "1" for var in THREAD_ENV},
        },
    }


def record(report: dict) -> None:
    """Append one line per workload to the checked-in trajectory."""
    with HISTORY.open("a") as handle:
        for run_set in report["sets"]:
            for name, result in run_set.items():
                handle.write(json.dumps({
                    **report["provenance"],
                    "workload": name,
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "segments": result.get("segments_timed", result.get("traced_segments")),
                    "sim_digest": result["sim_digest"],
                    "sim": result.get("sim", {}),
                    "metrics": result["metrics"],
                }) + "\n")


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median (None below 2 values)."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))


def compare(sets_a: list[dict], sets_b: list[dict]) -> bool:
    """Print B against A per workload x end-to-end metric; True when none is worse."""
    all_ok = True
    print(f"{'workload':<22} {'metric':<22} {'A median':>12} {'B median':>12} "
          f"{'worse by':>9} {'bound':>6} {'spread':>7}  verdict")
    for workload in WORKLOADS:
        runs_a = [s[workload] for s in sets_a if workload in s]
        runs_b = [s[workload] for s in sets_b if workload in s]
        if not runs_a or not runs_b:
            continue
        for metric, spec in E2E.items():
            a = [r["metrics"][metric] for r in runs_a if metric in r["metrics"]]
            b = [r["metrics"][metric] for r in runs_b if metric in r["metrics"]]
            if not a or not b:
                print(f"{workload:<22} {metric:<22} missing (a run failed)")
                all_ok = False
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worse_by = sign * (med_b - med_a) / abs(med_a)
            spreads = [s for s in (spread(a), spread(b)) if s is not None]
            widest = max(spreads) if spreads else None
            lower = spec["better"] == "lower"
            all_better = max(b) < min(a) if lower else min(b) > max(a)
            all_worse = min(b) > max(a) if lower else max(b) < min(a)
            resolved = widest is None or widest <= spec["bound"]
            if worse_by > spec["bound"] and (resolved or all_worse):
                verdict = "worse"
            elif not resolved and not all_better:
                # Spread wider than the bound: neither "unchanged" nor "worse".
                verdict = "unresolved"
            else:
                verdict = "ok"
            all_ok &= verdict != "worse"
            print(f"{workload:<22} {metric:<22} {med_a:>12.4f} {med_b:>12.4f} "
                  f"{worse_by:>+9.1%} {spec['bound']:>6.0%} "
                  f"{'n/a' if widest is None else format(widest, '.1%'):>7}  {verdict}")
        same = {r["sim_digest"] for r in runs_a} == {r["sim_digest"] for r in runs_b}
        seeds = {r["seed"] for r in runs_a} == {r["seed"] for r in runs_b}
        print(f"{workload:<22} sim_digest {'matches' if same else 'MOVED' if seeds else 'n/a (different seeds)'}")
        all_ok &= same or not seeds
    return all_ok


# ---------------------------------------------------------------------------

def selfcheck() -> int:
    """2 segments per workload, every metric name checked against BENCHMARK.json."""
    scratch = ROOT / ".bench_e2e_work" / f"selfcheck-{os.getpid()}"
    failures: list[str] = []
    try:
        # Not a measurement, so the five workers may share the machine.
        workers = [spawn_worker(w, 1, 0, "selfcheck", scratch / w, ("--segments", "2"))
                   for w in WORKLOADS]
        results = [collect(p) for p in workers]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    declared = {
        "timed": {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        "traced": {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    for name in [*WORKLOADS, *declared["timed"], *declared["traced"]]:
        if not re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name):
            failures.append(f"BENCHMARK.json: {name!r} is not a valid name")
    for result in results:
        name = result["workload"]
        failures += [f"{name}: {e.strip()}" for e in result["errors"]]
        result["timed"]["metrics"]["setup_s"] = result["setup_s"]
        for phase, expected in declared.items():
            emitted = {m: unit_of(m) for m in result[phase]["metrics"]}
            if emitted != expected:
                odd = sorted(set(emitted.items()) ^ set(expected.items()))
                failures.append(f"{name}: {phase} metrics differ from BENCHMARK.json: {odd}")
        print(f"selfcheck {name}: {'ok' if not result['failed'] else 'FAILED'}")
    for failure in failures:
        print("FAIL", failure)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, help="one workload (default: all five)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]),
                        help="measuring time per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: traced run, per-layer metrics; 0: timed run, end-to-end metrics")
    parser.add_argument("--out", help="write the full report (provenance + every run) as JSON")
    parser.add_argument("--spans", help="with --trace 1 --workload: write one traced segment's spans as JSON")
    parser.add_argument("--repeat", type=int, default=1, help="run this many sets and compare the halves")
    parser.add_argument("--record", action="store_true", help=f"append the runs to {HISTORY.name}")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--selfcheck", action="store_true")
    args = parser.parse_args(argv)

    if args.compare:
        sets_a, sets_b = (json.loads(Path(p).read_text())["sets"] for p in args.compare)
        return 0 if compare(sets_a, sets_b) else 1
    if args.selfcheck:
        return selfcheck()
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    names = [args.workload] if args.workload else WORKLOADS
    scratch = ROOT / ".bench_e2e_work" / f"run-{os.getpid()}"
    report = {"provenance": provenance(args.seed, args.seconds, args.trace), "sets": []}
    last = None
    try:
        for _ in range(args.repeat):
            run_set = {}
            for name in names:
                last = run_workload(name, args.seed, args.seconds, args.trace, scratch, args.spans)
                run_set[name] = last
                print_result(last, args.trace)
            report["sets"].append(run_set)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        if scratch.parent.exists() and not any(scratch.parent.iterdir()):
            scratch.parent.rmdir()
    correct = all(r["failed"] == 0 and r["metrics"] for s in report["sets"] for r in s.values())
    if args.repeat > 1 and not args.trace:
        half = args.repeat // 2
        correct &= compare(report["sets"][:half], report["sets"][half:])
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1) + "\n")
    if args.record:
        record(report)
    if args.workload:
        print(driver_line(last))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
