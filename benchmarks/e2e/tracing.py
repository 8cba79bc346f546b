"""Span recorder for the traced run.

The benchmark may not edit ``src/``, so the layer boundaries are instrumented
from here: each entry point in :data:`TARGETS` is replaced, for the duration
of one traced segment, by a wrapper that records a span ``(id, bucket, start,
end, parent id)`` with ``perf_counter``.  A bucket's *self* time is the
duration of its spans minus the part their direct child spans cover, so the
buckets partition the traced wall time instead of double counting it.

Time spent in the wrappers themselves lands in the parent span's self time;
``trace.overhead_ratio`` (traced / untraced segment wall) says how much that
is, and traced timings never feed an end-to-end metric.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (bucket, module, class name or None for a module-level function, attribute)
# A bucket is "<layer>.<what>"; the layer is the repro package name.
TARGETS: tuple[tuple[str, str, str | None, str], ...] = (
    ("circuit.bind", "repro.circuit.circuit", "QuantumCircuit", "bind_parameters"),
    ("hamiltonian.measure_build", "repro.hamiltonian.expectation", "EnergyEstimator", "measurement_circuits"),
    ("hamiltonian.counts_to_energy", "repro.hamiltonian.expectation", "EnergyEstimator", "energy_from_counts"),
    ("hamiltonian.exact_loss", "repro.hamiltonian.expectation", "EnergyEstimator", "exact_energy"),
    ("transpiler.transpile", "repro.backends.cache", "TranspileCache", "get_or_transpile"),
    ("core.ensemble_self", "repro.core.ensemble", "EQCEnsemble", "__init__"),
    ("core.ensemble_self", "repro.core.ensemble", "EQCEnsemble", "train"),
    ("core.master_self", "repro.core.master", "EQCMasterNode", "train"),
    ("core.client_self", "repro.core.client", "EQCClientNode", "execute_task"),
    ("core.client_self", "repro.core.objective", "EnergyObjective", "build_job"),
    ("core.client_self", "repro.core.objective", "EnergyObjective", "gradient_from_counts"),
    ("core.pcorrect", "repro.core.client", "EQCClientNode", "current_p_correct"),
    ("cloud.submit_self", "repro.cloud.provider", "CloudProvider", "submit"),
    ("backends.noisy_run_self", "repro.backends.noisy", "NoisyBackend", "run"),
    ("devices.execute_self", "repro.devices.qpu", "QPU", "execute_batch"),
    ("devices.job_clock", "repro.devices.qpu", "QPU", "job_duration_seconds"),
    ("devices.calibration", "repro.devices.qpu", "QPU", "estimated_calibration"),
    ("simulator.mixing_self", "repro.simulator.mixing", None, "noisy_probabilities_batch"),
    ("simulator.sampling", "repro.simulator.sampler", None, "sample_distribution_batch"),
    ("engine.execute", "repro.engine.executor", None, "execute_program"),
    ("engine.compile", "repro.engine.compiler", None, "compile_circuit"),
    ("sched.kernel_self", "repro.sched.kernel", "EventKernel", "run_until"),
    ("sched.kernel_self", "repro.sched.kernel", "EventKernel", "run_until_time"),
    ("sched.kernel_self", "repro.sched.kernel", "EventKernel", "schedule_batch"),
    ("sched.arrival", "repro.sched.queues", "DeviceServiceQueue", "on_arrival"),
    # The per-arrival workload code has no public entry point: the stream
    # class is private to repro.sched.workload.  It is wrapped anyway (and
    # reported under "missing" if a later change renames it) because fire()
    # is where a tenant job is built, ~half of sched_fleet's events.
    ("sched.workload", "repro.sched.workload", "_DeviceArrivalStream", "generate_chunk"),
    ("sched.workload", "repro.sched.workload", "_DeviceArrivalStream", "admit_chunk"),
    ("sched.workload", "repro.sched.workload", "_DeviceArrivalStream", "fire"),
    ("sched.setup", "repro.sched.scheduler", "CloudScheduler", "register_device"),
    ("sched.setup", "repro.sched.scheduler", "CloudScheduler", "submit"),
    ("sched.setup", "repro.sched.tournament", None, "clone_fleet"),
    ("sched.report", "repro.sched.scheduler", "CloudScheduler", "slo_metrics"),
    ("sched.report", "repro.sched.scheduler", "CloudScheduler", "metrics"),
    ("faults.self", "repro.faults.injector", "FaultInjector", "transient_failure"),
    ("faults.self", "repro.faults.injector", "FaultInjector", "result_delay"),
    ("faults.self", "repro.faults.injector", "FaultInjector", "outage_at"),
    ("faults.self", "repro.faults.injector", "FaultInjector", "calibration_blackout_at"),
    ("faults.self", "repro.faults.injector", "FaultInjector", "retry_stream"),
    ("faults.self", "repro.faults.retry", "RetryPolicy", "backoff_seconds"),
    ("faults.self", "repro.faults.health", "DeviceHealthTracker", "allow"),
    ("faults.self", "repro.faults.health", "DeviceHealthTracker", "record_success"),
    ("faults.self", "repro.faults.health", "DeviceHealthTracker", "record_failure"),
    ("persist.checkpoint", "repro.persist.store", "RunStore", "create_run"),
    ("persist.journal", "repro.persist.checkpoint", "TrainingCheckpointer", "record_update"),
    ("persist.checkpoint", "repro.persist.checkpoint", "TrainingCheckpointer", "after_iteration"),
    ("persist.checkpoint", "repro.persist.checkpoint", "TrainingCheckpointer", "finalize"),
    # close() carries the journal's final fsync.
    ("persist.journal", "repro.persist.checkpoint", "TrainingCheckpointer", "close"),
    ("persist.checkpoint", "repro.persist.format", None, "write_checkpoint_file"),
)

#: Every policy class overrides some of these; each override is wrapped.
POLICY_METHODS = ("admit", "next_job", "select_device")

#: Counts read off a wrapped call's return value: attribute -> (count name,
#: measure).  execute_program returns one statevector row per point;
#: write_checkpoint_file returns the container size in bytes.
TALLIES = {
    "execute_program": ("engine.points", len),
    "write_checkpoint_file": ("persist.checkpoint_bytes", int),
}

BUCKETS = tuple(dict.fromkeys(t[0] for t in TARGETS)) + ("sched.policy",)


class Tracer:
    """Installs the span wrappers, records spans, and removes the wrappers."""

    def __init__(self) -> None:
        #: Flat span records, five slots each: id, bucket, start, end, parent
        #: id (-1 at the top).  One flat list of atomic values, not a list of
        #: tuples: 160k tracked tuples per sched_fleet segment drive the
        #: cyclic collector hard enough to double the traced wall.
        self.records: list = []
        self.tallies: dict[str, float] = {}
        #: Targets that no longer exist in the program under test.
        self.missing: list[str] = []
        #: When set, the worker writes the next traced segment's spans here.
        self.dump_to: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _wrap(self, bucket: str, fn, tally=None):
        records, stack, tallies = self.records, self._stack, self.tallies
        tally_name, measure = tally or (None, None)

        def traced(*args, **kwargs):
            span_id = len(records)  # unique and increasing, not dense
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if measure is not None:
                    tallies[tally_name] = tallies.get(tally_name, 0) + measure(result)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                records.extend((span_id, bucket, start, end, parent))

        traced.e2e_traced = True
        return traced

    def _patch_method(self, bucket: str, cls: type, attr: str) -> bool:
        original = vars(cls).get(attr)
        if original is None:
            return False
        setattr(cls, attr, self._wrap(bucket, original))
        self._undo.append((cls, attr, original))
        return True

    def _patch_function(self, bucket: str, module, attr: str) -> bool:
        original = getattr(module, attr, None)
        if original is None:
            return False
        wrapper = self._wrap(bucket, original, TALLIES.get(attr))
        # ``from x import f`` copies the reference into the importer's
        # globals, so every repro module holding it is rebound.
        for name, mod in list(sys.modules.items()):
            if mod is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, original))
        return True

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for bucket, module_name, class_name, attr in TARGETS:
            label = f"{module_name}:{class_name + '.' if class_name else ''}{attr}"
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                ok = False
            else:
                if class_name is None:
                    ok = self._patch_function(bucket, module, attr)
                else:
                    cls = getattr(module, class_name, None)
                    ok = cls is not None and self._patch_method(bucket, cls, attr)
            if not ok and label not in self.missing:  # install() runs per segment
                self.missing.append(label)
        from repro.sched import POLICY_REGISTRY, SchedulingPolicy

        for cls in dict.fromkeys((SchedulingPolicy, *POLICY_REGISTRY.values())):
            for attr in POLICY_METHODS:
                self._patch_method("sched.policy", cls, attr)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def spans(self) -> list[tuple[int, str, float, float, int]]:
        """The recorded spans as ``(id, bucket, start, end, parent id)``."""
        return list(zip(*(self.records[slot::5] for slot in range(5))))

    def drain(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Reduce and clear the recorded spans.

        Returns ``(self seconds per bucket, span count per bucket, tallies)``.
        Spans are recorded when they end, so every child precedes its parent
        and one pass suffices.
        """
        self_seconds: dict[str, float] = {}
        counts: dict[str, int] = {}
        child_seconds: dict[int, float] = {}
        for span_id, bucket, start, end, parent in self.spans():
            duration = end - start
            own = duration - child_seconds.pop(span_id, 0.0)
            self_seconds[bucket] = self_seconds.get(bucket, 0.0) + own
            counts[bucket] = counts.get(bucket, 0) + 1
            if parent >= 0:
                child_seconds[parent] = child_seconds.get(parent, 0.0) + duration
        tallies = dict(self.tallies)
        self.records.clear()
        self.tallies.clear()
        return self_seconds, counts, tallies
