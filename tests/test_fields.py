"""Every numeric constructor parameter of the public surface refuses NaN and ±inf.

The walker enumerates the classes exported by ``repro.__all__`` and every
layer package's ``__all__`` whose constructor takes a numeric parameter
(annotated ``int``/``float``, optionally ``| None``, or defaulting to a
number).  It builds one valid instance — from the defaults, or from the
class's row in ``EXAMPLES`` — and then passes NaN, +inf and -inf to one
field at a time.  Each must raise a ``ValueError`` whose message starts with
the field name, the format of ``repro._fields.require``.  A class with
neither working defaults nor a row fails, so a configuration class added
later is covered without a new test.  The only other way to pass is an
``ALLOWED`` entry with its reason.
"""

from __future__ import annotations

import dataclasses
import enum
import importlib
import inspect
import math
import pkgutil
import re

import numpy as np
import pytest

import repro
from repro._fields import require
from repro.cloud import CloudProvider
from repro.cloud.queueing import queue_model_for
from repro.core import EnergyObjective, EQCClientNode, EQCConfig, EQCEnsemble, EQCMasterNode
from repro.core import WeightingConfig
from repro.devices import build_qpu
from repro.devices.catalog import device_spec
from repro.persist import RunDirectory
from repro.sched import CloudScheduler
from repro.vqa import AsgdRule, vqe_task_cycle

PACKAGES = [repro] + [
    importlib.import_module(f"repro.{info.name}")
    for info in pkgutil.iter_modules(repro.__path__)
    if info.ispkg
]

_NUMERIC = re.compile(r"(int|float)( \| None)?|None \| (int|float)|Optional\[(int|float)\]")

#: Things other than a settings object that carry numbers, by reason.  A key
#: is a class, ``Class.field`` or ``Class.field=value``.
_RECORD = "a record the library builds from checked inputs, not a setting"
_PER_JOB = "a per-job or per-gate record set by the library; it keeps its inline checks"
_STRUCTURE = "a circuit or problem structure; its own constructor checks its sizes"
ALLOWED = {
    "OutageWindow.duration=inf": "a permanent outage",
    "MasterTelemetry": "counters the master increments, not settings",
    "TrainingHistory": "counters and totals the master records, not settings",
    **dict.fromkeys(
        ("GradientTask", "Counts", "CircuitFootprint", "Statevector", "PauliString"), _PER_JOB
    ),
    **dict.fromkeys(
        (
            "BreakerTransition", "CalibrationSnapshot", "CloudJob", "CorrelationReport",
            "EpochRecord", "Event", "ExecutionResult", "Fig1Row", "GateProgram", "GhzPoint",
            "GradientOutcome", "JournalReadResult", "ParameterExpression", "ParameterPlan",
            "RoutingResult", "RunElement", "SchedJob", "ShiftedPair", "SpeedupSummary",
            "TranspilationRow", "TranspileResult", "UtilizationRecord",
        ),
        _RECORD,
    ),
    **dict.fromkeys(
        ("QuantumCircuit", "ParameterVector", "Topology", "Layout", "QNNProblem"), _STRUCTURE
    ),
    "DeviceEndpoint": "built by CloudProvider from its own checked seed",
    "DeviceServiceQueue": "built by CloudScheduler from its own checked downtime and cap",
    "DriftModel": "built by QPU from QPUSpec.seed, which QPUSpec checks",
    "CalibrationGenerator": "built by QPU from QPUSpec.seed, which QPUSpec checks",
    "FaultInjector": "built by EQCEnsemble from EQCConfig.seed, which EQCConfig checks",
}


def _client_row(problem, tmp_path):
    qpu = build_qpu("Belem")
    objective = EnergyObjective(problem.estimator)
    return dict(objective=objective, qpu=qpu, provider=CloudProvider([qpu]))


def _master_row(problem, tmp_path):
    client = EQCClientNode(**_client_row(problem, tmp_path))
    return dict(
        objective=client.objective,
        clients=[client],
        task_queue=vqe_task_cycle(problem.num_parameters),
        rule=AsgdRule(),
        weighting=WeightingConfig(bounds=None),
        initial_parameters=problem.random_initial_parameters(seed=0),
    )


#: One valid instance of each class without working defaults, as keyword
#: arguments built from the 4-qubit VQE problem and a scratch directory.
EXAMPLES = {
    "WeightBounds": lambda problem, tmp_path: dict(low=0.5, high=1.5),
    "OutageWindow": lambda problem, tmp_path: dict(device="Belem"),
    "QubitCalibration": lambda problem, tmp_path: dict(
        t1=1e-4, t2=9e-5, readout_p01=0.01, readout_p10=0.02
    ),
    "GateCalibration": lambda problem, tmp_path: dict(error=1e-3, duration=3.5e-8),
    "MixingNoiseSpec": lambda problem, tmp_path: dict(
        success_probability=0.9, per_qubit_readout=((0.01, 0.02),)
    ),
    "QPUSpec": lambda problem, tmp_path: {
        f.name: getattr(device_spec("Bogota"), f.name)
        for f in dataclasses.fields(device_spec("Bogota"))
    },
    "WorkloadGenerator": lambda problem, tmp_path: dict(num_tenants=10),
    "CloudProvider": lambda problem, tmp_path: dict(qpus=[build_qpu("Belem")]),
    "EQCClientNode": _client_row,
    "EQCMasterNode": _master_row,
    "IdealTrainer": lambda problem, tmp_path: dict(estimator=problem.estimator),
    "SingleDeviceTrainer": lambda problem, tmp_path: dict(
        objective=EnergyObjective(problem.estimator), device_name="Belem"
    ),
    "TrainingCheckpointer": lambda problem, tmp_path: dict(
        run=RunDirectory(tmp_path / "run"), checkpoint_every=1, provider=None
    ),
}


def public_classes() -> dict[str, type]:
    found: dict[str, type] = {}
    for package in PACKAGES:
        for name in package.__all__:
            obj = getattr(package, name)
            # Exceptions and enums carry numbers but are never configured.
            if inspect.isclass(obj) and not issubclass(obj, (BaseException, enum.Enum)):
                assert found.setdefault(obj.__name__, obj) is obj, name
    return found


def numeric_fields(cls: type) -> list[str]:
    try:
        parameters = inspect.signature(cls).parameters.values()
    except (TypeError, ValueError):
        return []
    return [
        p.name
        for p in parameters
        if _NUMERIC.fullmatch(str(getattr(p.annotation, "__name__", p.annotation)))
        or type(p.default) in (int, float)
    ]


CLASSES = {name: cls for name, cls in public_classes().items() if numeric_fields(cls)}
WALKED = sorted(name for name in CLASSES if name not in ALLOWED)


def _close(instance) -> None:
    close = getattr(instance, "close", None)
    if callable(close):
        close()


@pytest.mark.parametrize("name", WALKED)
def test_numeric_fields_reject_non_finite_values(name, vqe_problem, tmp_path):
    cls = CLASSES[name]
    row = EXAMPLES.get(name, lambda problem, tmp_path: {})

    def build(**override):
        _close(cls(**{**row(vqe_problem, tmp_path), **override}))

    try:
        build()
    except Exception as error:  # any failure here is the finding
        pytest.fail(f"{name} has no working defaults and no valid EXAMPLES row: {error!r}")
    failures = []
    for field in numeric_fields(cls):
        if f"{name}.{field}" in ALLOWED:
            continue
        for value in (math.nan, math.inf, -math.inf):
            if f"{name}.{field}={value}" in ALLOWED:
                continue
            try:
                build(**{field: value})
            except ValueError as error:
                if not str(error).startswith(f"{field} "):
                    failures.append(f"{field}={value}: message {str(error)!r}")
            except Exception as error:  # any other exception is the finding
                failures.append(f"{field}={value}: {error!r}")
            else:
                failures.append(f"{field}={value}: accepted")
    assert not failures, f"{name}: " + "; ".join(failures)


def test_every_allowlist_entry_names_a_walked_class_and_field():
    for key in ALLOWED:
        name, _, rest = key.partition(".")
        assert name in CLASSES, f"stale allowlist entry {key!r}"
        field = rest.partition("=")[0]
        assert not field or field in numeric_fields(CLASSES[name]), f"stale entry {key!r}"


def test_the_walker_finds_the_configuration_classes():
    assert {
        "EQCConfig", "QueueModel", "DriftProfile", "NoiseProfile", "QPUSpec", "RetryPolicy",
        "FaultPlan", "WorkloadGenerator", "TournamentConfig", "EQCMasterNode", "CloudProvider",
        "VQEExperimentConfig",
    } <= set(WALKED)


@pytest.mark.parametrize(
    "value, bounds, message",
    [
        (
            np.float64("nan"),
            dict(low=1, integer=True),
            "shots must be an integer >= 1 (got nan; X)",
        ),
        (
            np.float32(1.0),
            dict(low=0, high=1, open_high=True),
            "shots must be finite and within [0, 1) (got 1.0; X)",
        ),
        (np.int64(0), dict(low=0, open_low=True), "shots must be finite and > 0 (got 0; X)"),
        ("8", dict(), "shots must be finite (got 8; X)"),
        (2.5, dict(integer=True), "shots must be an integer (got 2.5; X)"),
    ],
)
def test_require_names_the_field_first_and_the_owner_last(value, bounds, message):
    with pytest.raises(ValueError) as raised:
        require("X", "shots", value, **bounds)
    assert str(raised.value) == message


def test_require_returns_numpy_scalars_in_range_unchanged():
    for value in (np.int64(3), np.float32(0.5), True, 7):
        assert require("X", "shots", value, low=0, high=7) is value


def _ensemble(problem):
    return EQCEnsemble.for_estimator(
        problem.estimator, EQCConfig(device_names=("x2",), shots=64, seed=0)
    )


def _ensemble_train(problem, **arguments):
    theta = np.zeros(problem.estimator.num_parameters)
    _ensemble(problem).train(theta, **{"num_epochs": 1, **arguments})


def _master_train(problem, **arguments):
    ensemble = _ensemble(problem)
    EQCMasterNode(
        objective=ensemble.objective,
        clients=ensemble.clients,
        task_queue=vqe_task_cycle(problem.estimator.num_parameters),
        rule=AsgdRule(0.1),
        weighting=WeightingConfig(),
        initial_parameters=np.zeros(problem.estimator.num_parameters),
    ).train(**arguments)


def _belem_scheduler():
    scheduler = CloudScheduler(policy="fifo")
    scheduler.register_device(build_qpu("Belem"), queue_model_for("Belem"))
    return scheduler


def _inject_outage(problem, *arguments, **keywords):
    _belem_scheduler().inject_outage("Belem", *arguments, **keywords)


def _scheduler_submit(problem, **keywords):
    _belem_scheduler().submit("Belem", **keywords)


def _scale_errors(problem, factor):
    build_qpu("Belem").reported_calibration(0.0).scale_errors(factor)


@pytest.mark.parametrize(
    "call, field",
    [
        (lambda p: _ensemble_train(p, num_epochs=math.nan), "num_epochs"),
        (lambda p: _ensemble_train(p, record_every=math.nan), "record_every"),
        (lambda p: _master_train(p, num_epochs=math.nan), "num_epochs"),
        (lambda p: _master_train(p, target_updates=math.nan), "target_updates"),
        (lambda p: _master_train(p, num_epochs=1, record_every=math.nan), "record_every"),
        (lambda p: _inject_outage(p, 10.0, duration=math.nan), "duration"),
        (lambda p: _inject_outage(p, math.nan), "start"),
        (lambda p: _scheduler_submit(p, duration=math.nan), "duration"),
        (lambda p: _scheduler_submit(p, arrival=math.nan), "arrival"),
        (lambda p: _scheduler_submit(p, num_circuits=math.nan), "num_circuits"),
        (lambda p: _scale_errors(p, math.nan), "factor"),
    ],
    ids=[
        "EQCEnsemble.train-num_epochs", "EQCEnsemble.train-record_every",
        "EQCMasterNode.train-num_epochs", "EQCMasterNode.train-target_updates",
        "EQCMasterNode.train-record_every", "CloudScheduler.inject_outage-duration",
        "CloudScheduler.inject_outage-start", "CloudScheduler.submit-duration",
        "CloudScheduler.submit-arrival", "CloudScheduler.submit-num_circuits",
        "CalibrationSnapshot.scale_errors-factor",
    ],
)
def test_per_call_arguments_refuse_nan_by_name(call, field, vqe_problem):
    """Method arguments are checked like constructor fields: NaN is refused
    up front, by the argument's name (it used to run zero epochs, arm a no-op
    outage, admit a job that failed later in the kernel, or fail later under
    another field's name)."""
    with pytest.raises(ValueError, match=f"^{field} must be "):
        call(vqe_problem)


@pytest.mark.parametrize(
    "field, value",
    [
        ("arrival", -1.0),
        ("arrival", math.inf),
        ("duration", 0.0),
        ("duration", -5.0),
        ("duration", math.inf),
        ("num_circuits", 0),
        ("num_circuits", -3),
        ("num_circuits", 2.5),
    ],
)
def test_scheduler_submit_refuses_out_of_range_by_name(field, value):
    """A job needs a finite arrival >= 0, a finite duration > 0 and a whole
    circuit count >= 1; anything else is refused at submit, by name, and
    the refused job never reaches the queue (a zero or negative circuit count used to be priced
    as a one-circuit job)."""
    scheduler = _belem_scheduler()
    with pytest.raises(ValueError, match=f"^{field} must be "):
        scheduler.submit("Belem", **{field: value})
    job = scheduler.submit("Belem", duration=10.0)
    scheduler.run_until_complete(job)
    assert scheduler.queues["Belem"].completed == [job]
