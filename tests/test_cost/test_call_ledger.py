"""The cost ledger: Python calls and objects per training update, by layer.

Four small trainings in the shapes of the benchmark's training workloads
(``vqe4_stat``, ``qaoa10_dispatch``, ``qaoa10_chaos_durable`` and
``vqe4_contended``, at fewer epochs) run once to warm the process-wide
caches, then once more on the same seed under ``sys.setprofile``, with the
tenant-traffic recordings emptied in between so both runs draw their
traffic.  Two counts are taken over the second run:

* named ``repro`` calls by layer: every Python frame whose code lives in
  ``src/repro``, bar frames whose name starts with ``<`` (comprehensions,
  generator expressions, lambdas), keyed by the package under ``repro``;
* ``repro`` objects constructed, by class: a call of the class's own Python
  ``__init__`` (a dataclass's generated one included), or of its own
  ``__new__`` when the class has no Python ``__init__`` (a ``NamedTuple``'s
  is a lambda named ``__new__``).
  An object made by ``cls.__new__(cls)`` from C is not seen.

A seeded run's counts are exact.  The ratchet rule is the length gate's: a
count may not grow, and one that drops by more than 2 % is re-pinned in the
same commit, so :data:`PINNED` only ever falls.  Run this file as a script
to print the measured ledger in :data:`PINNED`'s layout.
"""

from __future__ import annotations

import pathlib
import sys
from collections import Counter

import pytest

from repro import (
    DEFAULT_VQE_FLEET,
    EnergyObjective,
    EQCConfig,
    EQCEnsemble,
    FaultPlan,
    OutageWindow,
    heisenberg_vqe_problem,
    ring_maxcut_qaoa_problem,
)
from repro.sched import workload as workload_module

SRC = str(pathlib.Path(__file__).resolve().parents[2] / "src" / "repro") + "/"
VQE4_FLEET = ("x2", "Belem", "Bogota", "Casablanca")

#: name -> (problem factory, epochs, devices, extra config built from a scratch dir)
CONFIGS = {
    "vqe4_stat": (heisenberg_vqe_problem, 2, VQE4_FLEET, lambda seed, scratch: {}),
    "qaoa10_dispatch": (ring_maxcut_qaoa_problem, 12, DEFAULT_VQE_FLEET, lambda seed, scratch: {}),
    "qaoa10_chaos_durable": (
        ring_maxcut_qaoa_problem,
        6,
        DEFAULT_VQE_FLEET,
        lambda seed, scratch: {
            "fault_plan": FaultPlan(
                seed=seed,
                transient_failure_rate=0.15,
                outages=(OutageWindow("Bogota", 0.0, permanent=True),),
            ),
            "run_store": str(scratch),
            "checkpoint_every": 1,
        },
    ),
    "vqe4_contended": (
        heisenberg_vqe_problem,
        2,
        VQE4_FLEET,
        lambda seed, scratch: {"scheduling_policy": "deadline", "background_tenants": 1000},
    ),
}
SEED = 3


def _constructed(frame, code) -> str | None:
    """The ``repro`` class a constructor frame builds an instance of, if any."""
    first = frame.f_locals.get(code.co_varnames[0]) if code.co_argcount else None
    if code.co_name == "__init__":
        cls = type(first)
        if getattr(cls.__init__, "__code__", None) is not code:
            return None  # a base class's __init__ called from a subclass's
    elif isinstance(first, type) and getattr(first.__init__, "__code__", None) is None:
        cls = first
        if getattr(cls.__new__, "__code__", None) is not code:
            return None
    else:
        return None
    return cls.__qualname__ if cls.__module__.startswith("repro.") else None


def _run(name: str, problem, scratch: pathlib.Path):
    _, epochs, devices, extra = CONFIGS[name]
    config = EQCConfig(device_names=devices, seed=SEED, **extra(SEED, scratch))
    ensemble = EQCEnsemble(EnergyObjective(problem.estimator), config)
    theta0 = problem.random_initial_parameters(seed=SEED)
    return ensemble.train(theta0, num_epochs=epochs)


def measure(name: str, scratch: pathlib.Path) -> dict:
    """``{"updates": n, "calls": {layer: n}, "built": {class: n}}`` of one
    warmed-up training of config ``name``."""
    problem = CONFIGS[name][0]()
    _run(name, problem, scratch / "warm-up")
    workload_module._RECORDINGS = workload_module._RecordingTable()
    calls: Counter = Counter()
    built: Counter = Counter()

    def profile(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code.co_name in ("__init__", "__new__", "<lambda>"):
            cls = _constructed(frame, code)
            if cls is not None:
                built[cls] += 1
        filename = code.co_filename
        if filename.startswith(SRC) and not code.co_name.startswith("<"):
            calls[filename[len(SRC):].split("/")[0].removesuffix(".py")] += 1

    sys.setprofile(profile)
    try:
        history = _run(name, problem, scratch / "measured")
    finally:
        sys.setprofile(None)
    return {
        "updates": history.total_updates,
        "calls": dict(sorted(calls.items())),
        "built": dict(sorted(built.items())),
    }


#: config -> the measured run's updates, calls by layer and objects by class.
PINNED = {
    "qaoa10_chaos_durable": {
        "updates": 12,
        "calls": {
            "_fields": 40, "_streams": 127, "backends": 101, "circuit": 289, "cloud": 363,
            "core": 465, "devices": 291, "engine": 60, "faults": 247, "hamiltonian": 112,
            "noise": 186, "persist": 460, "reduction": 111, "simulator": 76, "vqa": 165,
        },
        "built": {
            "AsgdRule": 1, "BreakerTransition": 1, "CircuitFootprint": 10, "CloudJob": 21,
            "CloudProvider": 1, "CyclicTaskQueue": 1, "DeviceEndpoint": 10,
            "DeviceHealthTracker": 1, "DeviceOutageError": 1, "EQCClientNode": 10,
            "EQCConfig": 1, "EQCEnsemble": 1, "EQCMasterNode": 1, "EnergyObjective": 1,
            "EpochRecord": 6, "FaultInjector": 1, "FaultPlan": 1, "GradientJobSpec": 21,
            "GradientOutcome": 17, "GradientTask": 20, "JournalWriter": 1, "LoopState": 1,
            "MasterTelemetry": 1, "NoiseRecord": 4, "NoisyBackend": 10, "OutageWindow": 1,
            "ParameterSweep": 1, "ParameterVectorState": 1, "QPU": 10, "RunDirectory": 1,
            "RunStore": 1, "TrainingCheckpointer": 1, "TrainingHistory": 1,
            "UtilizationRecord": 10, "WeightingConfig": 1, "_DeviceHealth": 10, "_InFlight": 21,
        },
    },
    "qaoa10_dispatch": {
        "updates": 24,
        "calls": {
            "_fields": 27, "backends": 140, "circuit": 415, "cloud": 476, "core": 555,
            "devices": 385, "engine": 90, "hamiltonian": 167, "noise": 212, "reduction": 139,
            "simulator": 101, "vqa": 270,
        },
        "built": {
            "AsgdRule": 1, "CircuitFootprint": 10, "CloudJob": 33, "CloudProvider": 1,
            "CyclicTaskQueue": 1, "DeviceEndpoint": 10, "EQCClientNode": 10, "EQCConfig": 1,
            "EQCEnsemble": 1, "EQCMasterNode": 1, "EnergyObjective": 1, "EpochRecord": 12,
            "GradientJobSpec": 33, "GradientOutcome": 24, "GradientTask": 33, "LoopState": 1,
            "MasterTelemetry": 1, "NoiseRecord": 6, "NoisyBackend": 10, "ParameterSweep": 1,
            "ParameterVectorState": 1, "QPU": 10, "TrainingHistory": 1, "UtilizationRecord": 10,
            "WeightingConfig": 1, "_InFlight": 33,
        },
    },
    "vqe4_contended": {
        "updates": 32,
        "calls": {
            "_fields": 140, "backends": 138, "circuit": 618, "cloud": 440, "core": 563,
            "devices": 1056, "engine": 171, "hamiltonian": 152, "noise": 463, "reduction": 109,
            "sched": 6234, "simulator": 136, "telemetry": 3, "vqa": 308,
        },
        "built": {
            "AsgdRule": 1, "CircuitFootprint": 4, "CloudJob": 35, "CloudProvider": 1,
            "CloudScheduler": 1, "CyclicTaskQueue": 1, "DeadlinePolicy": 1, "DeviceEndpoint": 4,
            "DeviceServiceQueue": 4, "EQCClientNode": 4, "EQCConfig": 1, "EQCEnsemble": 1,
            "EQCMasterNode": 1, "EnergyObjective": 1, "EpochRecord": 2, "Event": 43,
            "EventKernel": 1, "GradientJobSpec": 35, "GradientOutcome": 32, "GradientTask": 35,
            "LoopState": 1, "MasterTelemetry": 1, "NoiseRecord": 9, "NoisyBackend": 4,
            "ParameterSweep": 1, "ParameterVectorState": 1, "QPU": 4, "SchedJob": 1041,
            "TrainingHistory": 1, "UtilizationRecord": 4, "VirtualClock": 1,
            "WeightingConfig": 1, "WorkloadGenerator": 1, "_ArrivalRecording": 4, "_Chunk": 25,
            "_DeviceArrivalStream": 4, "_InFlight": 35, "_Run": 25,
        },
    },
    "vqe4_stat": {
        "updates": 32,
        "calls": {
            "_fields": 21, "backends": 138, "circuit": 632, "cloud": 484, "core": 563,
            "devices": 657, "engine": 209, "hamiltonian": 155, "noise": 260, "reduction": 120,
            "simulator": 158, "vqa": 308,
        },
        "built": {
            "AsgdRule": 1, "CircuitFootprint": 4, "CloudJob": 35, "CloudProvider": 1,
            "CyclicTaskQueue": 1, "DeviceEndpoint": 4, "EQCClientNode": 4, "EQCConfig": 1,
            "EQCEnsemble": 1, "EQCMasterNode": 1, "EnergyObjective": 1, "EpochRecord": 2,
            "GradientJobSpec": 35, "GradientOutcome": 32, "GradientTask": 35, "LoopState": 1,
            "MasterTelemetry": 1, "NoiseRecord": 11, "NoisyBackend": 4, "ParameterSweep": 1,
            "ParameterVectorState": 1, "QPU": 4, "TrainingHistory": 1, "UtilizationRecord": 4,
            "WeightingConfig": 1, "_InFlight": 35,
        },
    },
}


def _per_update(counts: dict, updates: int) -> str:
    return ", ".join(f"{key} {value / updates:.2f}" for key, value in counts.items())


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_calls_and_objects_per_update_only_fall(name, tmp_path, forget_arrival_recordings):
    measured = measure(name, tmp_path)
    pinned = PINNED[name]
    assert measured["updates"] == pinned["updates"]
    for kind in ("calls", "built"):
        now, then = measured[kind], pinned[kind]
        grown = {k: (then.get(k, 0), n) for k, n in now.items() if n > then.get(k, 0)}
        assert not grown, (
            f"{name}: {kind} grew (pinned, measured): {grown}; per update now: "
            f"{_per_update(now, measured['updates'])}"
        )
        fallen = {k: (n, now.get(k, 0)) for k, n in then.items() if now.get(k, 0) < 0.98 * n}
        assert not fallen, f"{name}: {kind} fell by more than 2 %, re-pin them: {fallen}"


def pinned_literal(ledgers: dict) -> str:
    """``ledgers`` (config -> :func:`measure`) as :data:`PINNED`'s source."""
    lines = ["PINNED = {"]
    for config, ledger in ledgers.items():
        lines += [f'    "{config}": {{', f'        "updates": {ledger["updates"]},']
        for kind in ("calls", "built"):
            items = [f'"{key}": {value},' for key, value in ledger[kind].items()]
            lines.append(f'        "{kind}": {{')
            row = "           "
            for item in items:
                if len(row) + len(item) + 1 > 96:
                    lines.append(row.rstrip())
                    row = "           "
                row += " " + item
            lines += [row.rstrip(), "        },"]
        lines.append("    },")
    return "\n".join([*lines, "}"])


if __name__ == "__main__":  # print the measured ledger as PINNED's source
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        ledgers = {name: measure(name, pathlib.Path(scratch) / name) for name in sorted(CONFIGS)}
    print(pinned_literal(ledgers))
    for name, ledger in ledgers.items():
        updates = ledger["updates"]
        print(f"# {name}: {sum(ledger['calls'].values()) / updates:.1f} calls and "
              f"{sum(ledger['built'].values()) / updates:.2f} objects per update")
