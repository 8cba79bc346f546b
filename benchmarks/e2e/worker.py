"""One workload in one process: set-up, then the timed or the traced loop.

``run.py`` starts this file as a subprocess (single thread, telemetry off)
and reads the one JSON object it prints last.  Timed and traced segments are
never mixed: ``--trace 0`` runs plain segments only and yields the end-to-end
metrics; ``--trace 1`` runs (plain, traced) pairs on the same seeds and yields
the per-layer metrics plus the tracing overhead.

Every time that becomes a metric is a *reference time*: the measured wall
time divided by how slow the host ran around it (``calibration.py`` says why).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter, process_time

from calibration import kernel, slowdown

ROOT = Path(__file__).resolve().parents[2]
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Segments 1..8 define ``sim_digest`` and the ``sim_`` statistics, so they
#: always run, however short ``--seconds`` is.
DIGEST_SEGMENTS = 8
MIN_TRACED_PAIRS = 3
MIN_ATTRIBUTED_RATIO = 0.90
MAX_REPORTED_ERRORS = 5

#: Kernel readings behind the slowdown that ``setup_s`` is divided by.
SETUP_KERNEL_READINGS = 5

E2E_UNITS = {
    "setup_s": "s",
    "segment_cpu_ms_p50": "ms",
    "segment_cpu_ms_p75": "ms",
    "work_per_cpu_s": "1/s",
    "peak_rss_mib": "MiB",
}


def now_monotonic() -> float:
    """CLOCK_MONOTONIC is shared by parent and child, unlike perf_counter's
    unspecified reference point."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Attempt:
    wall: float = 0.0
    cpu: float = 0.0
    #: Host slowdown from the kernel readings taken just before and after.
    slowdown: float = 1.0
    outcome: object = None
    error: str = ""
    layers: tuple | None = None

    @property
    def failed(self) -> bool:
        return bool(self.error)

    @property
    def reference_cpu(self) -> float:
        return self.cpu / self.slowdown

    @property
    def reference_wall(self) -> float:
        return self.wall / self.slowdown


class Session:
    """Runs segments of one workload for one benchmark seed."""

    def __init__(self, workload, seed: int, scratch: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.scratch = scratch

    def segment(self, index: int, tracer=None) -> Attempt:
        seed = self.seed * 1000 + index
        attempt = Attempt()
        gc.collect()  # every segment starts from the same collector state
        kernel_before = kernel()
        if tracer is not None:
            before = _trace_begin(tracer)
        try:
            start, cpu_start = perf_counter(), process_time()
            raw = self.workload.run(seed, self.scratch)
            attempt.wall, attempt.cpu = perf_counter() - start, process_time() - cpu_start
        except Exception:  # a failed operation is counted, not fatal
            attempt.error = f"segment {index}: " + traceback.format_exc(limit=6)
            return attempt
        finally:
            if tracer is not None:
                attempt.layers = _trace_end(tracer, before)
        attempt.slowdown = slowdown(kernel_before, kernel())
        try:
            attempt.outcome = self.workload.inspect(raw, seed, self.scratch)
        except Exception:
            attempt.error = f"segment {index} (inspect): " + traceback.format_exc(limit=6)
            return attempt
        if attempt.outcome.errors:
            attempt.error = f"segment {index}: " + "; ".join(attempt.outcome.errors)
        return attempt


def _trace_begin(tracer) -> dict:
    from repro import shared_program_cache

    tracer.install()
    return dict(shared_program_cache().stats())


def _trace_end(tracer, cache_before: dict) -> tuple:
    from repro import shared_program_cache

    tracer.uninstall()
    cache = shared_program_cache().stats()
    if tracer.dump_to:
        fields = ("id", "name", "start", "end", "parent")
        Path(tracer.dump_to).write_text(
            json.dumps([dict(zip(fields, span)) for span in tracer.spans()])
        )
        tracer.dump_to = None
    self_seconds, span_counts, tallies = tracer.drain()
    counts = {
        "engine.executions": span_counts.get("engine.execute", 0),
        "engine.points": tallies.get("engine.points", 0),
        "engine.cache_hits": cache["hits"] - cache_before["hits"],
        "engine.cache_misses": cache["misses"] - cache_before["misses"],
        "cloud.jobs": span_counts.get("cloud.submit_self", 0),
        "circuit.circuits_bound": span_counts.get("circuit.bind", 0),
        "hamiltonian.exact_loss_calls": span_counts.get("hamiltonian.exact_loss", 0),
        "persist.checkpoint_bytes": tallies.get("persist.checkpoint_bytes", 0),
    }
    return self_seconds, counts


# ---------------------------------------------------------------------------
# timed run: end-to-end metrics
# ---------------------------------------------------------------------------

def timed_phase(session: Session, seconds: float, segments: int | None) -> dict:
    walls: list[float] = []
    reference: list[float] = []
    slowdowns: list[float] = []
    outcomes = []
    errors: list[str] = []
    work = 0
    first_digest = None
    begin = perf_counter()
    index = 0
    while True:
        index += 1
        attempt = session.segment(index)
        if attempt.failed:
            # A failed segment counts as missing every timing.
            errors.append(attempt.error)
        else:
            if index == 1:
                first_digest = attempt.outcome.digest
            walls.append(attempt.wall)
            reference.append(attempt.reference_cpu)
            slowdowns.append(attempt.slowdown)
            work += attempt.outcome.work
            outcomes.append(attempt.outcome)
        if segments is not None:
            if index >= segments:
                break
        elif index >= DIGEST_SEGMENTS and perf_counter() - begin >= seconds:
            break
    attempted = index + 1
    # Nondeterminism is a failed operation: segment 1 must reproduce itself.
    replay = session.segment(1)
    if replay.failed:
        errors.append("replay of " + replay.error)
    elif first_digest is not None and replay.outcome.digest != first_digest:
        errors.append("segment 1 did not reproduce its own digest")

    head = outcomes[:DIGEST_SEGMENTS]
    sim = {
        key: statistics.fmean(o.sim[key] for o in head)
        for key in (head[0].sim if head else ())
    }
    metrics = {}
    raw = {}
    if walls:
        metrics = {
            "segment_cpu_ms_p50": 1000.0 * statistics.median(reference),
            "segment_cpu_ms_p75": 1000.0 * _p75(reference),
            "work_per_cpu_s": work / sum(reference),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        raw = {
            "segment_wall_ms_p50": 1000.0 * statistics.median(walls),
            "segment_wall_ms_p75": 1000.0 * _p75(walls),
            "work_per_wall_s": work / sum(walls),
            "host_slowdown_p50": statistics.median(slowdowns),
        }
    return {
        "attempted": attempted,
        "failed": len(errors),
        "errors": errors[:MAX_REPORTED_ERRORS],
        "segments_timed": len(walls),
        "work_unit": session.workload.work_unit,
        "first_digest": first_digest,
        "sim_digest": _combined_digest(o.digest for o in head),
        "sim_digest_segments": len(head),
        "sim": sim,
        "raw": raw,
        "metrics": metrics,
    }


def _p75(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def _combined_digest(digests) -> str:
    hasher = hashlib.sha256()
    for digest in digests:
        hasher.update(digest.encode())
    return hasher.hexdigest()


# ---------------------------------------------------------------------------
# traced run: per-layer metrics
# ---------------------------------------------------------------------------

def traced_phase(
    session: Session, seconds: float, segments: int | None, spans_out: str | None
) -> dict:
    from tracing import BUCKETS, Tracer
    from workloads import SCHED_POLICIES

    tracer = Tracer()
    tracer.dump_to = spans_out  # the first traced segment's spans
    self_seconds = dict.fromkeys(BUCKETS, 0.0)
    counts: dict[str, float] = {}
    policy_wall = dict.fromkeys(SCHED_POLICIES, 0.0)
    policy_events = dict.fromkeys(SCHED_POLICIES, 0)
    plain_walls: list[float] = []  # reference seconds, like every time below
    traced_walls: list[float] = []
    errors: list[str] = []
    digests: list[str] = []
    begin = perf_counter()
    index = 0
    while True:
        index += 1
        plain = session.segment(index)
        traced = session.segment(index, tracer)
        if plain.failed or traced.failed:
            errors.append(plain.error or traced.error)
        elif plain.outcome.digest != traced.outcome.digest:
            errors.append(f"segment {index}: traced digest differs from the untraced one")
        else:
            plain_walls.append(plain.reference_wall)
            traced_walls.append(traced.reference_wall)
            digests.append(plain.outcome.digest)
            layer_seconds, layer_counts = traced.layers
            for bucket, value in layer_seconds.items():
                self_seconds[bucket] += value / traced.slowdown
            for source in (layer_counts, traced.outcome.counts):
                for name, value in source.items():
                    counts[name] = counts.get(name, 0) + value
            for policy, wall in plain.outcome.policy_wall.items():
                policy_wall[policy] += wall / plain.slowdown
                policy_events[policy] += plain.outcome.policy_events[policy]
        if segments is not None:
            if index >= segments:
                break
        elif index >= MIN_TRACED_PAIRS and perf_counter() - begin >= seconds:
            break

    pairs = len(traced_walls)
    metrics: dict[str, float] = {}
    if pairs:
        for bucket, value in self_seconds.items():
            metrics[f"{bucket}_ms"] = 1000.0 * value / pairs

        def mean(name: str) -> float:
            return counts.get(name, 0) / pairs

        def ratio(part: str, rest: str) -> float:
            total = counts.get(part, 0) + counts.get(rest, 0)
            return counts.get(part, 0) / total if total else 0.0

        for name in (
            "circuit.circuits_bound", "hamiltonian.exact_loss_calls",
            "core.updates", "core.jobs_dispatched", "core.mean_staleness",
            "cloud.jobs", "cloud.circuits", "cloud.failed_jobs",
            "engine.executions", "engine.points",
            "sched.events", "sched.jobs_completed", "sched.jobs_rejected",
            "faults.transient_failures", "faults.retries", "faults.devices_retired",
            "persist.fsyncs", "persist.checkpoints_written", "persist.journal_records",
        ):
            metrics[name] = mean(name)
        metrics["persist.bytes_written"] = mean("persist.checkpoint_bytes") + mean("persist.journal_bytes")
        metrics["transpiler.cache_hit_ratio"] = ratio("transpiler.hits", "transpiler.misses")
        metrics["engine.program_cache_hit_ratio"] = ratio("engine.cache_hits", "engine.cache_misses")
        metrics["sched.rejected_fraction"] = ratio("sched.jobs_rejected", "sched.jobs_completed")
        for policy in SCHED_POLICIES:
            wall = policy_wall[policy]
            metrics[f"sched.events_per_s.{policy}"] = policy_events[policy] / wall if wall else 0.0
        metrics["trace.attributed_ratio"] = sum(self_seconds.values()) / sum(traced_walls)
        metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(plain_walls)
        if segments is None and metrics["trace.attributed_ratio"] < MIN_ATTRIBUTED_RATIO:
            errors.append(
                f"trace.attributed_ratio {metrics['trace.attributed_ratio']:.3f} "
                f"< {MIN_ATTRIBUTED_RATIO}"
            )
    return {
        "attempted": 2 * index,
        "failed": len(errors),
        "errors": errors[:MAX_REPORTED_ERRORS],
        "traced_segments": pairs,
        "traced_ms_p50": 1000.0 * statistics.median(traced_walls) if pairs else None,
        "traced_ms_mean": 1000.0 * statistics.fmean(traced_walls) if pairs else None,
        "untraced_ms_p50": 1000.0 * statistics.median(plain_walls) if pairs else None,
        "missing_targets": tracer.missing,
        "first_digest": digests[0] if digests else None,
        "sim_digest": _combined_digest(digests[:DIGEST_SEGMENTS]),
        "sim_digest_segments": min(pairs, DIGEST_SEGMENTS),
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "traced", "setup", "selfcheck"), required=True)
    parser.add_argument("--segments", type=int, default=None,
                        help="run exactly this many segments instead of --seconds")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken by the parent before the spawn")
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args(argv)

    unpinned = [v for v in THREAD_ENV if os.environ.get(v) != "1"]
    if unpinned or os.environ.get("REPRO_TELEMETRY"):
        parser.error("start this worker through run.py (thread counts pinned to 1, telemetry unset)")

    if not (ROOT / "src" / "repro").is_dir():
        parser.error(f"the program under test is missing: no {ROOT / 'src' / 'repro'}")
    sys.path.insert(0, str(ROOT / "src"))
    import workloads  # imports numpy and repro: part of set-up

    scratch = Path(args.scratch)
    scratch.mkdir(parents=True, exist_ok=True)
    workload = workloads.build(args.workload)
    workload.prepare()
    session = Session(workload, args.seed, scratch)
    # Untimed warm-up on seed index 0: fills the shared program cache, the
    # gate-matrix and bitstring-label memos.
    warm = session.segment(0)
    setup_wall, setup_cpu = now_monotonic() - args.spawned_at, process_time()
    host = slowdown(*(kernel() for _ in range(SETUP_KERNEL_READINGS)))
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "setup_s": setup_cpu / host,
        "setup_wall_s": setup_wall,
    }
    if warm.failed:
        result.update(attempted=1, failed=1, errors=["warm-up " + warm.error], metrics={})
    elif args.mode == "timed":
        result.update(timed_phase(session, args.seconds, args.segments))
    elif args.mode == "traced":
        result.update(traced_phase(session, args.seconds, args.segments, args.spans_out))
    elif args.mode == "selfcheck":
        result.update(selfcheck_phase(session, args.segments or 2))
    print(json.dumps(result))
    return 0


def selfcheck_phase(session: Session, segments: int) -> dict:
    """One traced pair, then timed segments that prove the wrappers are gone."""
    from tracing import TARGETS

    traced = traced_phase(session, 0.0, 1, None)
    timed = timed_phase(session, 0.0, segments)
    errors = traced["errors"] + timed["errors"]
    for _, module_name, class_name, attr in TARGETS:
        module = sys.modules.get(module_name)
        owner = getattr(module, class_name, None) if class_name else module
        if getattr(getattr(owner, attr, None), "e2e_traced", False):
            errors.append(f"{module_name}:{attr} is still wrapped")
    # Segment 1 ran untraced before the wrappers went in and again after
    # they came out; both digests must agree.
    if timed["first_digest"] != traced["first_digest"]:
        errors.append("an untraced segment after the traced run changed its digest")
    return {
        "attempted": timed["attempted"] + traced["attempted"],
        "failed": len(errors),
        "errors": errors[:MAX_REPORTED_ERRORS],
        "timed": timed,
        "traced": traced,
    }


if __name__ == "__main__":
    sys.exit(main())
