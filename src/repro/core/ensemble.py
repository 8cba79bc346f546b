"""The EQC ensemble facade: one call from problem to training history.

:class:`EQCEnsemble` wires together the whole stack — Table I devices, the
cloud provider, one client node per device, and the master node — behind a
single ``train`` call, which is the "virtualized quantum backend" interface
the paper proposes.  :class:`EQCConfig` collects every knob the evaluation
sweeps (fleet composition, shots, learning rate, weight bounds, seeds).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

from .._fields import require
from ..backends.cache import shared_transpile_cache
from ..cloud.provider import CloudProvider
from ..cloud.queueing import QueueModel
from ..devices.catalog import DEFAULT_VQE_FLEET, build_fleet
from ..devices.qpu import QPU
from ..faults.health import DeviceHealthTracker
from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan
from ..faults.retry import RetryPolicy
from ..sched.policies import SchedulingPolicy
from ..sched.scheduler import CloudScheduler
from ..sched.workload import WorkloadGenerator
from ..telemetry import TELEMETRY as _telemetry
from ..hamiltonian.expectation import EnergyEstimator
from ..vqa.optimizer import AsgdRule
from ..vqa.tasks import CyclicTaskQueue, vqe_task_cycle
from .client import EQCClientNode
from .history import TrainingHistory
from .master import EQCMasterNode, checked_initial_parameters
from .objective import EnergyObjective, VQAObjective
from .weighting import BOUNDS_MODERATE, WeightBounds, WeightingConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..persist.checkpoint import TrainingCheckpointer

__all__ = ["EQCConfig", "EQCEnsemble"]


@dataclass(frozen=True)
class EQCConfig:
    """Configuration of one EQC training run.

    Attributes:
        device_names: Table I devices forming the ensemble (default: the
            10-device VQE fleet).
        shots: measurement shots per circuit (the paper uses 8192).
        learning_rate: ASGD step size ``alpha`` (the paper uses 0.1).
        weight_bounds: weight normalization band; ``None`` disables weighting.
        refresh_weights: recompute ``PCorrect`` at every job (True) or freeze
            the values captured at ensemble formation (False, ablation).
        seed: seed for the provider's queue randomness.
        label: history label (defaults to an auto-generated description).
        queue_models: optional per-device queue overrides.
        scheduling_policy: a :class:`~repro.sched.policies.SchedulingPolicy`
            (or registry name like ``"fifo"``/``"fair_share"``); any non-None
            value routes jobs through the discrete-event scheduler instead of
            the statistical queue fallback.
        background_tenants: size of the simulated tenant community competing
            for the fleet (>0 implies the scheduler, FIFO unless a policy is
            set).
        tenant_jobs_per_hour: per-tenant submission rate for the background
            workload.
        fault_plan: deterministic chaos scenario (see
            :class:`~repro.faults.FaultPlan`); ``None`` or an empty plan
            keeps the fault-free path bit-exact.  Device-level faults run on
            either clock — with a scheduler the plan's outage windows are
            armed in the event kernel (preempting and holding the device
            queue under tenant contention) while retries, result delays and
            deadlines stay in the provider's one submit loop.
        retry_policy: provider retry/backoff/deadline policy for transient
            failures; ``None`` uses the default when faults are enabled.
        dispatch_deadline: master-side straggler cutoff — a dispatched job
            whose turnaround would exceed this many virtual seconds is cut
            and its task redispatched.
        min_live_devices: training aborts with ``FleetExhaustedError`` when
            fewer devices remain live after retirements.
        checkpoint_every: write a resume-exact checkpoint every this many
            completed epochs (requires ``run_store``); ``None`` (the
            default) disables durability entirely — no journal, no run
            directory, trajectories bit-identical to the seed.  Incompatible
            with the discrete-event scheduler (kernel state lives outside the
            checkpointable surface).
        run_store: root directory of the persistent run store
            (:class:`repro.persist.RunStore`) this run registers into.
        checkpoint_retention: checkpoint generations to keep on disk; older
            generations are deleted after each new checkpoint, and recovery
            falls back one generation when the newest is corrupted.
    """

    device_names: tuple[str, ...] = DEFAULT_VQE_FLEET
    shots: int = 8192
    learning_rate: float = 0.1
    weight_bounds: WeightBounds | None = BOUNDS_MODERATE
    refresh_weights: bool = True
    seed: int = 0
    label: str = ""
    queue_models: dict[str, QueueModel] | None = None
    scheduling_policy: SchedulingPolicy | str | None = None
    background_tenants: int = 0
    tenant_jobs_per_hour: float = 1.0
    fault_plan: FaultPlan | None = None
    retry_policy: RetryPolicy | None = None
    dispatch_deadline: float | None = None
    min_live_devices: int = 1
    checkpoint_every: int | None = None
    run_store: str | None = None
    checkpoint_retention: int = 3

    def __post_init__(self) -> None:
        if not self.device_names:
            raise ValueError("the ensemble needs at least one device")
        require(self, "shots", self.shots, low=1, integer=True)
        require(self, "learning_rate", self.learning_rate, low=0.0, open_low=True)
        if self.weight_bounds is not None and not isinstance(self.weight_bounds, WeightBounds):
            raise ValueError(
                "weight_bounds must be None or a WeightBounds "
                f"(got {type(self.weight_bounds).__name__})"
            )
        require(self, "seed", self.seed, low=0, integer=True)
        require(self, "background_tenants", self.background_tenants, low=0, integer=True)
        require(self, "tenant_jobs_per_hour", self.tenant_jobs_per_hour, low=0.0, open_low=True)
        if self.dispatch_deadline is not None:
            require(self, "dispatch_deadline", self.dispatch_deadline, low=0.0, open_low=True)
        devices = len(self.device_names)
        require(self, "min_live_devices", self.min_live_devices, low=1, high=devices, integer=True)
        if self.retry_policy is not None and not self.faults_enabled:
            raise ValueError(
                "retry_policy requires a fault_plan with device-level faults"
            )
        if self.checkpoint_every is not None:
            require(self, "checkpoint_every", self.checkpoint_every, low=1, integer=True)
        require(self, "checkpoint_retention", self.checkpoint_retention, low=1, integer=True)
        if (self.checkpoint_every is None) != (self.run_store is None):
            raise ValueError(
                "checkpoint_every and run_store must be set together: "
                "the checkpoint cadence needs a run store to write into, "
                "and a run store without a cadence would never checkpoint "
                f"(got checkpoint_every={self.checkpoint_every!r}, "
                f"run_store={self.run_store!r})"
            )
        if self.checkpointing_enabled and self.uses_scheduler:
            raise ValueError(
                "checkpointing is incompatible with the discrete-event "
                "scheduler: the shared event kernel's state lives outside "
                "the checkpointable surface"
            )

    @property
    def faults_enabled(self) -> bool:
        """True when the config injects any fault at all."""
        return self.fault_plan is not None and self.fault_plan.enabled

    @property
    def fault_tolerant(self) -> bool:
        """True when the master should run its resilience machinery."""
        return self.faults_enabled or self.dispatch_deadline is not None

    @property
    def uses_scheduler(self) -> bool:
        """True when jobs go through the event kernel (not the fallback)."""
        return self.scheduling_policy is not None or self.background_tenants > 0

    @property
    def checkpointing_enabled(self) -> bool:
        """True when training writes a durable run (journal + checkpoints)."""
        return self.checkpoint_every is not None

    def describe(self) -> str:
        if self.label:
            return self.label
        weighting = "unweighted" if self.weight_bounds is None else f"weights {self.weight_bounds}"
        return f"EQC[{len(self.device_names)} devices, {weighting}]"


class EQCEnsemble:
    """A virtualized quantum backend built from a fleet of simulated QPUs."""

    def __init__(self, objective: VQAObjective, config: EQCConfig | None = None) -> None:
        self.config = config or EQCConfig()
        self.objective = objective
        self.fleet: list[QPU] = build_fleet(self.config.device_names)
        self.scheduler: CloudScheduler | None = None
        if self.config.uses_scheduler:
            workload = None
            if self.config.background_tenants > 0:
                workload = WorkloadGenerator(
                    num_tenants=self.config.background_tenants,
                    jobs_per_tenant_hour=self.config.tenant_jobs_per_hour,
                )
            self.scheduler = CloudScheduler(
                policy=self.config.scheduling_policy,
                workload=workload,
                seed=self.config.seed,
            )
        #: Fault injection: the injector exists only when the plan injects
        #: anything, so the fault-free provider path is untouched.
        self.fault_injector: FaultInjector | None = None
        if self.config.faults_enabled:
            self.fault_injector = FaultInjector(
                self.config.fault_plan, seed=self.config.seed
            )
        self.provider = CloudProvider(
            self.fleet,
            queue_models=self.config.queue_models,
            seed=self.config.seed,
            shots=self.config.shots,
            scheduler=self.scheduler,
            fault_injector=self.fault_injector,
            retry_policy=self.config.retry_policy,
        )
        if self.scheduler is not None and self.fault_injector is not None:
            # On the kernel clock outages are queue events (preempt, hold,
            # requeue at head); everything else in the plan is drawn by the
            # provider's submit loop exactly as on the statistical clock.
            self.scheduler.apply_fault_plan(self.config.fault_plan)
        #: The process-wide transpile cache the clients read (its counters
        #: are process-lifetime counters, like the program cache's).
        self.transpile_cache = shared_transpile_cache()
        self.clients = [
            EQCClientNode(
                objective=objective,
                qpu=qpu,
                provider=self.provider,
                shots=self.config.shots,
            )
            for qpu in self.fleet
        ]

    # ------------------------------------------------------------------
    @classmethod
    def for_estimator(
        cls, estimator: EnergyEstimator, config: EQCConfig | None = None
    ) -> "EQCEnsemble":
        """Build an ensemble around a VQE/QAOA energy estimator."""
        return cls(EnergyObjective(estimator), config)

    @property
    def device_names(self) -> tuple[str, ...]:
        return tuple(qpu.name for qpu in self.fleet)

    # ------------------------------------------------------------------
    def train(
        self,
        initial_parameters: Sequence[float],
        num_epochs: int,
        task_queue: CyclicTaskQueue | None = None,
        record_every: int = 1,
        _checkpointer: "TrainingCheckpointer | None" = None,
    ) -> TrainingHistory:
        """Run asynchronous ensemble training and return its history.

        With ``config.checkpoint_every`` set the run registers into the
        configured run store, journals every update, and checkpoints at the
        configured epoch cadence — so a killed process can be finished
        bit-exactly with :func:`repro.persist.resume`.  ``_checkpointer`` is
        the resume path's entry point (a restore-loaded
        :class:`~repro.persist.TrainingCheckpointer`); user code never
        passes it.
        """
        require(self, "num_epochs", num_epochs, low=1, integer=True)
        require(self, "record_every", record_every, low=1, integer=True)
        theta = checked_initial_parameters(self.objective, initial_parameters)
        queue = task_queue or vqe_task_cycle(self.objective.num_parameters)
        checkpointer = _checkpointer
        if checkpointer is None and self.config.checkpointing_enabled:
            checkpointer = self._new_checkpointer(theta.tolist(), num_epochs, record_every)
        health = DeviceHealthTracker() if self.config.fault_tolerant else None
        try:
            master = self._new_master(queue, theta, health)
            history = master.train(num_epochs, record_every, checkpointer=checkpointer)
            if self.config.fault_tolerant:
                if self.config.fault_plan is not None:
                    history.metadata["fault_plan"] = self.config.fault_plan.describe()
                history.metadata["provider_faults"] = dict(self.provider.fault_counters)
                if health is not None and _telemetry.enabled:
                    health.publish()
            history.metadata["utilization"] = self.provider.utilization_report()
        finally:
            if checkpointer is not None:
                # Crash-path safety: the journal is flushed/closed even when
                # training raises (the run stays resumable).
                checkpointer.close()
        if self.scheduler is not None:
            history.metadata["scheduler"] = self.scheduler.metrics()
        if _telemetry.enabled:
            self.transpile_cache.publish()
            if self.scheduler is not None:
                self.scheduler.publish()
            for name, stats in history.metadata["utilization"].items():
                _telemetry.registry.gauge("qpu.utilization", device=name).set(stats["utilization"])
        if checkpointer is not None:
            # The final history (ensemble metadata included) and the closing
            # manifest flip land only after a fully successful run.
            checkpointer.finalize(history)
        return history

    def _new_checkpointer(
        self, theta: list[float], num_epochs: int, record_every: int
    ) -> "TrainingCheckpointer":
        """Register a durable run in the configured store and its checkpointer."""
        # Imported lazily: persist builds on core's master/history, so a
        # module-level import would be circular.
        from ..persist.checkpoint import TrainingCheckpointer
        from ..persist.store import RunStore

        run = RunStore(self.config.run_store).create_run(
            config=self.config,
            initial_parameters=theta,
            num_epochs=num_epochs,
            record_every=record_every,
        )
        return TrainingCheckpointer(
            run,
            checkpoint_every=self.config.checkpoint_every,
            retention=self.config.checkpoint_retention,
            provider=self.provider,
            injector=self.fault_injector,
        )

    def _new_master(
        self, queue: CyclicTaskQueue, theta: Sequence[float], health: DeviceHealthTracker | None
    ) -> EQCMasterNode:
        return EQCMasterNode(
            objective=self.objective,
            clients=self.clients,
            task_queue=queue,
            rule=AsgdRule(learning_rate=self.config.learning_rate),
            weighting=WeightingConfig(
                bounds=self.config.weight_bounds,
                refresh_on_every_update=self.config.refresh_weights,
            ),
            initial_parameters=theta,
            label=self.config.describe(),
            health=health,
            dispatch_deadline=self.config.dispatch_deadline,
            min_live_devices=self.config.min_live_devices,
        )
