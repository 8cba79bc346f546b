"""EQC reproduction: Ensembled Quantum Computing for Variational Quantum Algorithms.

A from-scratch Python reproduction of Stein et al., *EQC* (ISCA 2022),
including every substrate the paper depends on: a quantum circuit IR and
statevector/noisy simulators, topology-aware transpilation, simulated IBMQ
devices with calibration drift, a discrete-event cloud, and the EQC
master/client asynchronous training framework with its adaptive
``PCorrect`` weighting.

Quickstart::

    from repro import heisenberg_vqe_problem, EQCEnsemble, EQCConfig, EnergyObjective

    problem = heisenberg_vqe_problem()
    ensemble = EQCEnsemble(EnergyObjective(problem.estimator),
                           EQCConfig(device_names=("x2", "Bogota", "Casablanca")))
    history = ensemble.train(problem.random_initial_parameters(), num_epochs=50)
    print(history.final_loss(), "vs ground", problem.ground_energy)
"""

from .backends import (
    ExecutionBackend,
    NoisyBackend,
    StatevectorBackend,
    TranspileCache,
)
from .baselines import IdealTrainer, SingleDeviceTrainer
from .circuit import (
    Parameter,
    ParameterSweep,
    ParameterVector,
    QuantumCircuit,
    ghz_state,
    hardware_efficient_ansatz,
    qaoa_maxcut_ansatz,
)
from .core import (
    BOUNDS_MODERATE,
    BOUNDS_TIGHT,
    BOUNDS_WIDE,
    EnergyObjective,
    EQCConfig,
    EQCEnsemble,
    EQCClientNode,
    EQCMasterNode,
    QnnObjective,
    TrainingHistory,
    WeightBounds,
    WeightingConfig,
    estimate_p_correct,
    normalize_weights,
)
from .devices import (
    DEFAULT_QAOA_FLEET,
    DEFAULT_VQE_FLEET,
    TABLE_I,
    available_devices,
    build_fleet,
    build_qpu,
)
from .engine import (
    GateProgram,
    ProgramCache,
    compile_circuit,
    execute_program,
    shared_program_cache,
)
from .faults import (
    BreakerState,
    DeviceHealthTracker,
    DeviceOutageError,
    FaultError,
    FaultInjector,
    FaultPlan,
    FleetExhaustedError,
    JobDeadlineExceeded,
    JobRetriesExhausted,
    OutageWindow,
    RetryPolicy,
)
from .hamiltonian import (
    EnergyEstimator,
    PauliString,
    PauliSum,
    heisenberg_square_lattice,
    ring_maxcut_hamiltonian,
)
from .persist import (
    CheckpointCorruptError,
    JournalDivergenceError,
    RunDirectory,
    RunStore,
    TrainingCheckpointer,
    list_runs,
    load_run,
    read_journal,
    resume,
)
from .sched import (
    BackpressurePolicy,
    CalibrationAwarePolicy,
    CloudScheduler,
    DeadlinePolicy,
    EventKernel,
    FairSharePolicy,
    FifoPolicy,
    LeastLoadedPolicy,
    PriorityPolicy,
    SchedulingPolicy,
    StatisticalQueuePolicy,
    TournamentConfig,
    WorkloadGenerator,
    run_tournament,
)
from .simulator import (
    Counts,
    MixingNoiseSpec,
    noisy_probabilities_batch,
    simulate_statevector,
)
from .transpiler import transpile
from .vqa import (
    QAOAProblem,
    QNNProblem,
    VQEProblem,
    heisenberg_vqe_problem,
    make_synthetic_dataset,
    ring_maxcut_qaoa_problem,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # circuits
    "QuantumCircuit",
    "Parameter",
    "ParameterSweep",
    "ParameterVector",
    "hardware_efficient_ansatz",
    "qaoa_maxcut_ansatz",
    "ghz_state",
    # simulators
    "simulate_statevector",
    "Counts",
    "MixingNoiseSpec",
    "noisy_probabilities_batch",
    # compiled execution engine
    "GateProgram",
    "compile_circuit",
    "execute_program",
    "ProgramCache",
    "shared_program_cache",
    # execution backends
    "ExecutionBackend",
    "StatevectorBackend",
    "NoisyBackend",
    "TranspileCache",
    # devices / transpiler
    "TABLE_I",
    "DEFAULT_VQE_FLEET",
    "DEFAULT_QAOA_FLEET",
    "available_devices",
    "build_qpu",
    "build_fleet",
    "transpile",
    # observables
    "PauliString",
    "PauliSum",
    "EnergyEstimator",
    "heisenberg_square_lattice",
    "ring_maxcut_hamiltonian",
    # problems
    "VQEProblem",
    "QAOAProblem",
    "QNNProblem",
    "heisenberg_vqe_problem",
    "ring_maxcut_qaoa_problem",
    "make_synthetic_dataset",
    # EQC core
    "EQCEnsemble",
    "EQCConfig",
    "EQCMasterNode",
    "EQCClientNode",
    "EnergyObjective",
    "QnnObjective",
    "TrainingHistory",
    "WeightBounds",
    "WeightingConfig",
    "estimate_p_correct",
    "normalize_weights",
    "BOUNDS_TIGHT",
    "BOUNDS_MODERATE",
    "BOUNDS_WIDE",
    # baselines
    "IdealTrainer",
    "SingleDeviceTrainer",
    # discrete-event scheduler
    "EventKernel",
    "CloudScheduler",
    "SchedulingPolicy",
    "FifoPolicy",
    "PriorityPolicy",
    "FairSharePolicy",
    "LeastLoadedPolicy",
    "CalibrationAwarePolicy",
    "BackpressurePolicy",
    "DeadlinePolicy",
    "StatisticalQueuePolicy",
    "WorkloadGenerator",
    "TournamentConfig",
    "run_tournament",
    # fault injection and resilience
    "FaultPlan",
    "OutageWindow",
    "FaultInjector",
    "RetryPolicy",
    "DeviceHealthTracker",
    "BreakerState",
    "FaultError",
    "DeviceOutageError",
    "JobRetriesExhausted",
    "JobDeadlineExceeded",
    "FleetExhaustedError",
    # durability / crash recovery
    "RunStore",
    "RunDirectory",
    "TrainingCheckpointer",
    "CheckpointCorruptError",
    "JournalDivergenceError",
    "list_runs",
    "load_run",
    "read_journal",
    "resume",
]
