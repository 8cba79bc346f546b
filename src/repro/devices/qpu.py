"""The simulated QPU: calibration lifecycle, drift, and noisy execution.

A :class:`QPU` plays the role of one IBMQ backend.  It owns:

* a static :class:`QPUSpec` (name, topology, quantum volume, noise and drift
  profiles, speed characteristics — the Table I row),
* a calibration lifecycle: every ``calibration_period_hours`` a fresh
  :class:`~repro.noise.calibration.CalibrationSnapshot` is generated; the
  *reported* snapshot is what clients see, while the *effective* noise drifts
  away from it with calibration age,
* an execution path: given a logical circuit and the footprint of its
  transpiled form, the QPU computes its **true** probability of error-free
  execution (including latent cross-talk and drift the estimator cannot see)
  and produces sampled counts through the analytic mixing executor.

The distinction between *reported* and *effective* calibration is the crux of
the paper's Fig. 4/Fig. 5 observations and of the EQC weighting system: the
estimator works from stale reported data, the hardware behaves according to
its drifted reality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate, groupby
from operator import itemgetter
from typing import NamedTuple, Sequence

import numpy as np

from .._fields import require
from ..circuit.circuit import QuantumCircuit
from ..circuit.sweep import ParameterSweep
from ..noise.calibration import CalibrationSnapshot
from ..noise.drift import DriftModel, DriftProfile
from ..noise.generator import CalibrationGenerator, NoiseProfile
from ..reduction import ordered_row_sums
from ..simulator.mixing import MixingNoiseSpec, NoiseRecord, noisy_probabilities_batch
from ..simulator.result import ExecutionResult
from ..simulator.sampler import checked_distributions, sample_distribution_batch
from .topology import Topology

__all__ = [
    "CircuitFootprint",
    "QPUSpec",
    "QPU",
    "DeferredBatch",
    "resolve_batches",
    "SECONDS_PER_HOUR",
    "job_slot_circuit_seconds",
    "success_probability",
]

SECONDS_PER_HOUR = 3600.0


def job_slot_circuit_seconds(job_duration_seconds: float) -> float:
    """Device-clock seconds one circuit of a batch occupies.

    One device "job slot" (``QPUSpec.base_job_seconds``) covers a
    forward/backward circuit pair, so each circuit advances the clock by half
    a slot.  Both the in-batch noise clock (:meth:`QPU.execute_batch`) and the
    cloud provider's finish-time/busy accounting use this single definition —
    changing the convention here keeps them consistent.
    """
    return job_duration_seconds / 2.0


@dataclass(frozen=True)
class CircuitFootprint:
    """Structural cost of a transpiled circuit on a particular device.

    This is the information the ``PCorrect`` model (paper Eq. 2) consumes:
    single- and two-qubit gate counts after routing, the critical depth, the
    number of measurements, and which physical couplings/qubits are used.
    """

    num_single_qubit_gates: int
    num_two_qubit_gates: int
    critical_depth: int
    num_measurements: int
    used_qubits: tuple[int, ...] = ()
    used_couplings: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        for name in (
            "num_single_qubit_gates",
            "num_two_qubit_gates",
            "critical_depth",
            "num_measurements",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @classmethod
    def from_circuit(
        cls,
        circuit: QuantumCircuit,
        used_qubits: Sequence[int] | None = None,
        used_couplings: Sequence[tuple[int, int]] | None = None,
    ) -> "CircuitFootprint":
        """Footprint of a circuit that is already expressed for the device."""
        return cls(
            num_single_qubit_gates=circuit.num_single_qubit_gates,
            num_two_qubit_gates=circuit.num_two_qubit_gates,
            critical_depth=circuit.critical_depth(),
            num_measurements=circuit.num_measurements,
            used_qubits=tuple(used_qubits or ()),
            used_couplings=tuple(used_couplings or ()),
        )


@dataclass(frozen=True)
class QPUSpec:
    """Static description of one backend — a row of the paper's Table I."""

    name: str
    num_qubits: int
    processor: str
    quantum_volume: int
    topology: Topology
    noise_profile: NoiseProfile = field(default_factory=NoiseProfile)
    drift_profile: DriftProfile = field(default_factory=DriftProfile)
    #: Average wall-clock seconds to run one gradient job (two circuits) once
    #: the job reaches the device, including classical overheads.
    base_job_seconds: float = 30.0
    #: Calibration cadence, hours.
    calibration_period_hours: float = 24.0
    #: How often the provider republishes measured device properties (T1/T2,
    #: readout, gate errors) between full calibrations.  Client-side
    #: ``PCorrect`` estimates can therefore track drift with at most this lag.
    properties_refresh_hours: float = 2.0
    #: Deterministic seed for this device's calibration / drift randomness.
    seed: int = 0

    def __post_init__(self) -> None:
        owner = f"QPUSpec {self.name}"
        require(owner, "num_qubits", self.num_qubits, low=1, integer=True)
        if self.num_qubits != self.topology.num_qubits:
            raise ValueError(
                f"{self.name}: num_qubits={self.num_qubits} does not match "
                f"topology width {self.topology.num_qubits}"
            )
        require(owner, "quantum_volume", self.quantum_volume, low=1, integer=True)
        for name in ("base_job_seconds", "calibration_period_hours", "properties_refresh_hours"):
            require(owner, name, getattr(self, name), low=0.0, open_low=True)
        require(owner, "seed", self.seed, low=0, integer=True)


class _CalibrationRecord:
    """What one spec determines: its generator, its drift model (with the
    per-cycle parameters), each cycle's reported snapshot and table
    (:meth:`QPU._cycle_table`), each ``(cycle, refresh step)``'s estimated
    snapshot.  Pure functions of the spec, built on first use: no RNG
    state, frozen snapshots, read-only tables."""

    def __init__(self, spec: QPUSpec) -> None:
        self.generator = CalibrationGenerator(spec.noise_profile, spec.seed)
        self.drift = DriftModel(spec.drift_profile, spec.seed)
        self.reported: dict[int, CalibrationSnapshot] = {}
        self.tables: dict[int, tuple[np.ndarray, int, int, float, float]] = {}
        self.estimated: dict[tuple[int, int], CalibrationSnapshot] = {}

    def __deepcopy__(self, memo: dict) -> "_CalibrationRecord":
        return self  # a copied device still reads its spec's one record


#: The one calibration record of each spec value in this process.
_calibration_record = lru_cache(maxsize=None)(_CalibrationRecord)


class QPU:
    """A stateful simulated quantum backend.

    Every ``QPU`` of an equal spec reads that spec's one calibration record
    (:data:`_calibration_record`); a device's own state is only its default
    shot stream ``_rng``, built on first read."""

    def __init__(self, spec: QPUSpec) -> None:
        self.spec = spec
        self._record = _calibration_record(spec)
        self._drift = self._record.drift

    @cached_property
    def _rng(self) -> np.random.Generator:
        """The stream of jobs run with no ``rng`` (the provider checkpoints it)."""
        return np.random.default_rng((self.spec.seed, 0xD1CE))

    # ------------------------------------------------------------------
    # identity / convenience
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def num_qubits(self) -> int:
        return self.spec.num_qubits

    @property
    def topology(self) -> Topology:
        return self.spec.topology

    def __repr__(self) -> str:
        return (
            f"QPU({self.name!r}, qubits={self.num_qubits}, "
            f"QV={self.spec.quantum_volume}, topology={self.topology.name!r})"
        )

    # ------------------------------------------------------------------
    # calibration lifecycle
    # ------------------------------------------------------------------
    def calibration_cycle(self, now: float) -> int:
        """Index of the calibration cycle containing simulation time ``now``."""
        period = self.spec.calibration_period_hours * SECONDS_PER_HOUR
        return max(0, int(float(now) // period))

    def hours_since_calibration(self, now: float) -> float:
        """Age of the current calibration, in hours."""
        period = self.spec.calibration_period_hours * SECONDS_PER_HOUR
        return (float(now) % period) / SECONDS_PER_HOUR

    def reported_calibration(self, now: float) -> CalibrationSnapshot:
        """The calibration snapshot the provider publishes at time ``now``.

        This is what EQC client nodes see; it does not change between
        calibration events no matter how far the hardware drifts.  Generated
        once per cycle per spec value in the process (the spec's record),
        so every device of the spec returns the same object.
        """
        cycle = self.calibration_cycle(now)
        reported = self._record.reported
        snapshot = reported.get(cycle)
        if snapshot is None:
            period = self.spec.calibration_period_hours * SECONDS_PER_HOUR
            snapshot = reported[cycle] = self._record.generator.generate(
                device_name=self.name,
                num_qubits=self.num_qubits,
                couplings=self.topology.directed_couplings,
                timestamp=cycle * period,
                cycle=cycle,
            )
        return snapshot

    def effective_calibration(self, now: float) -> CalibrationSnapshot:
        """The device's *actual* noise at time ``now`` (reported + drift)."""
        reported = self.reported_calibration(now)
        factor = self.drift_factor(now)
        return reported.scale_errors(factor)

    def estimated_calibration(self, now: float) -> CalibrationSnapshot:
        """The freshest property data a client can obtain at time ``now``.

        Between full calibrations the provider republishes measured device
        properties every ``properties_refresh_hours``; the estimate therefore
        tracks the true drift with a bounded lag, but it never sees latent
        cross-talk or a burst that started after the last refresh — which is
        the gap the Fig. 4 scatter quantifies.  One snapshot per (cycle,
        refresh step) per spec value in the process: every call in between,
        on any device of the spec, returns the same object.
        """
        refresh = self.spec.properties_refresh_hours
        cycle = self.calibration_cycle(now)
        step = math.floor(self.hours_since_calibration(now) / refresh)
        estimated = self._record.estimated
        snapshot = estimated.get((cycle, step))
        if snapshot is None:
            factor = self._drift.drift_factor(step * refresh, cycle)
            snapshot = estimated[cycle, step] = self.reported_calibration(now).scale_errors(factor)
        return snapshot

    def drift_factor(self, now: float) -> float:
        """Multiplicative error inflation relative to the reported snapshot."""
        return self._drift_at(now)[2]

    def _drift_at(self, now: float) -> tuple[float, int, float]:
        """``(calibration age in hours, cycle, drift factor)`` at ``now``.

        One calibration-period division and one drift-model evaluation; the
        device clock, the execution noise and the result metadata of a
        circuit start are all derived from this triple.
        """
        period = self.spec.calibration_period_hours * SECONDS_PER_HOUR
        now = float(now)
        age = (now % period) / SECONDS_PER_HOUR
        cycle = max(0, int(now // period))
        return age, cycle, self._drift.drift_factor(age, cycle)

    def _slot_seconds(self, factor: float) -> float:
        """Job duration at drift ``factor`` (speed is its reciprocal)."""
        return self.spec.base_job_seconds / max(1.0 / factor, 1e-6)

    # ------------------------------------------------------------------
    # timing
    # ------------------------------------------------------------------
    def job_duration_seconds(self, now: float) -> float:
        """Wall-clock seconds to execute one gradient job starting at ``now``.

        The base device speed is slowed down by the drift model (noisy windows
        come with retries and maintenance) — this is what makes Toronto-style
        devices swing between 6.5 and 0.03 epochs/hour.

        The duration is continuous in ``now`` (the drift factor carries a
        sinusoid of the calibration age), so it is evaluated per start time and
        never tabulated per calibration step: a table would move every seeded
        timeline.  The scheduler prices each tenant job through this call, so
        it spells out :meth:`_drift_at` and :meth:`_slot_seconds` in one frame
        (same float operations, same order).
        """
        spec = self.spec
        period = spec.calibration_period_hours * SECONDS_PER_HOUR
        now = float(now)
        cycle = int(now // period)
        factor = self._drift.drift_factor(
            (now % period) / SECONDS_PER_HOUR, cycle if cycle > 0 else 0
        )
        speed = 1.0 / factor
        return spec.base_job_seconds / (speed if speed > 1e-6 else 1e-6)

    # ------------------------------------------------------------------
    # noisy execution
    # ------------------------------------------------------------------
    def true_success_probability(self, footprint: CircuitFootprint, now: float) -> float:
        """Ground-truth probability the circuit runs without a fault.

        Mirrors the structure of the paper's Eq. 2 but is evaluated on the
        *effective* (drifted) calibration and includes the latent cross-talk
        penalty of dense topologies; the estimator only ever approximates this
        from the reported snapshot.
        """
        calibration = self.effective_calibration(now)
        return success_probability(
            calibration,
            footprint,
            crosstalk=self.spec.noise_profile.crosstalk,
            connectivity=self.topology.average_degree,
        )

    def execution_noise(self, footprint: CircuitFootprint, now: float) -> MixingNoiseSpec:
        """Noise specification for one execution at time ``now``.

        The coherent over-rotation bias grows with the drift factor: a device
        deep into a noisy window not only depolarizes more, it also behaves
        *differently* from its calibrated self, which is what makes learned
        parameters device-biased and what produces Casablanca-style
        post-convergence divergence in the Fig. 6 reproduction.

        The wave pass of device jobs (:func:`_wave_noise`) on one job of one
        row: the spec is bit-identical to the one built from the drifted
        snapshot (pinned by the test suite against
        :meth:`true_success_probability` and :meth:`effective_calibration`).
        A footprint that measures nothing has no register width, so its spec
        reads out every device qubit: it serves any register the device
        holds, and its first pairs are the readout of a job's record.
        """
        width = min(self.num_qubits, footprint.num_measurements or self.num_qubits)
        return _wave_noise([ClockRows(self, footprint, [self._drift_at(now)], width)]).specs()[0]

    def _cycle_table(self, cycle: int) -> tuple[np.ndarray, int, int, float, float]:
        """The ``(7, 1, width)`` calibration table of one cycle, built once
        per spec value, with its qubit and CX counts and the two gate times."""
        entry = self._record.tables.get(cycle)
        if entry is None:
            period = self.spec.calibration_period_hours * SECONDS_PER_HOUR
            snapshot = self.reported_calibration(cycle * period)
            t1s = [q.t1 for q in snapshot.qubits]
            cx_errors = [g.error for g in snapshot.two_qubit_gates.values()]
            rows = (
                t1s,
                [q.t2 for q in snapshot.qubits],
                [2 * t1 for t1 in t1s],
                [q.readout_p01 for q in snapshot.qubits],
                [q.readout_p10 for q in snapshot.qubits],
                [g.error for g in snapshot.single_qubit_gates],
                cx_errors,
            )
            table = np.zeros((len(rows), 1, max(map(len, rows))))
            for target, row in zip(table, rows):
                target[0, : len(row)] = row
            table.setflags(write=False)
            mu_g1 = snapshot.average_single_qubit_gate_time
            mu_g2 = snapshot.average_cx_gate_time or mu_g1
            entry = self._record.tables[cycle] = (table, len(t1s), len(cx_errors), mu_g1, mu_g2)
        return entry

    def _walk_clock(
        self, num_circuits: int, now: float
    ) -> tuple[list[float], list[tuple[float, int, float]]]:
        """The in-batch device clock of one job starting at ``now``.

        Returns each circuit's job duration and the drift triple evaluated at
        its start.  This is the one place the clock advances within a batch:
        circuit ``i`` starts half a job slot (:func:`job_slot_circuit_seconds`)
        per predecessor after ``now``, at the drift-aware speed of its own
        start time.
        """
        durations: list[float] = []
        drifts: list[tuple[float, int, float]] = []
        elapsed = 0.0
        for _ in range(num_circuits):
            drift = self._drift_at(now + elapsed)
            duration = self._slot_seconds(drift[2])
            durations.append(duration)
            drifts.append(drift)
            elapsed += job_slot_circuit_seconds(duration)
        return durations, drifts

    def execute_batch(
        self,
        circuits: Sequence[QuantumCircuit] | ParameterSweep,
        footprint: CircuitFootprint,
        shots: int,
        now: float,
        rng: np.random.Generator | None = None,
        park: "list[DeferredBatch] | None" = None,
    ) -> list[ExecutionResult]:
        """Run a batch of circuits back to back on this device.

        The only execution entry point (one circuit is a one-circuit batch):
        bound circuits or an unbound
        :class:`~repro.circuit.sweep.ParameterSweep` (same job slots, same
        results, nothing bound).  The job's **clock half** runs here
        (:meth:`_walk_clock`: one drift evaluation per circuit start gives
        the durations and the ``calibration_age_hours``/``drift_factor``
        metadata; arithmetic, no RNG) and comes back as results whose
        ``counts`` are ``None``.  Its **physics half** is a
        :class:`DeferredBatch` carrying the job's :class:`ClockRows`, whose
        readout width covers the footprint's measurements, or the measured
        register when the footprint measures nothing: run before returning
        (``park=None``, the one-job case of :func:`resolve_batches`) or
        appended to the caller's ``park`` list, to be resolved later in one
        stacked pass that builds the noise, adds each result's
        ``success_probability`` and fills these same results' counts.  Who
        resolves changes the wall-clock cost, never the physics.  A
        ``k``-circuit job equals ``k`` one-circuit jobs submitted back to
        back on the walked clock (:func:`job_slot_circuit_seconds` apart) in
        counts, durations, metadata and the stream's end state.
        """
        if not len(circuits):
            raise ValueError("a batch needs at least one circuit")
        if shots < 1:
            raise ValueError("shots must be >= 1")
        templates = circuits.templates if isinstance(circuits, ParameterSweep) else circuits
        # Unmeasured: the widest register the mixer samples (measured_register).
        width = min(
            self.num_qubits,
            footprint.num_measurements
            or max(len(circuit.measured_qubits) or circuit.num_qubits for circuit in templates),
        )
        durations, drifts = self._walk_clock(len(circuits), now)
        results = [
            ExecutionResult(
                None,
                shots,
                self.name,
                duration,
                metadata={"calibration_age_hours": age, "drift_factor": factor},
            )
            for duration, (age, _, factor) in zip(durations, drifts)
        ]
        rng = rng if rng is not None else self._rng
        batch = DeferredBatch(circuits, ClockRows(self, footprint, drifts, width), shots, rng, results)
        if park is None:
            resolve_batches([batch])
        else:
            park.append(batch)
        return results


class ClockRows(NamedTuple):
    """What a device job's noise reads of its clock half: the device, the
    footprint, one drift triple ``(age, cycle, factor)`` per circuit start
    (:meth:`QPU._drift_at`) and the readout width."""

    qpu: QPU
    footprint: CircuitFootprint
    drifts: Sequence[tuple[float, int, float]]
    width: int


def _wave_noise(clocks: Sequence[ClockRows]) -> NoiseRecord:
    """The noise record of a wave of jobs: one row per drift triple, in order.

    Element for element this is :meth:`CalibrationSnapshot.scale_errors`
    followed by the snapshot's ``average_*`` sums, without building a
    snapshot.  Each run of a job's rows in one calibration cycle reads that
    cycle's table (:meth:`QPU._cycle_table`); the runs are gathered into one
    zero-padded ``(7, rows, W)`` array, ``W`` the widest table, and one set
    of array calls divides the times by each row's drift factor, scales the
    error rows by it and clips them to ``[0, 1]``.  The averages are row sums
    in the one float-reduction order
    (:func:`~repro.reduction.ordered_row_sums`, which the padding leaves
    unchanged) over the row's qubit or coupling count; a device without
    couplings sums an all-zero CX row to a ``beta`` of ``0.0``.  The Eq. 2
    core stays per row on Python floats, because NumPy's ``exp`` and ``**``
    need not round as libm's do.  The readout rows are the scaled
    ``(p01, p10)`` of the first ``width`` qubits, a width every job of the
    wave shares.
    """
    width = clocks[0].width
    runs = []  # (clock, cycle table entry, row count) per cycle run of a job
    factors: list[float] = []
    for clock in clocks:
        if clock.width != width:
            raise ValueError(f"a wave reads out one width: {clock.width} != {width}")
        for cycle, run in groupby(clock.drifts, key=itemgetter(1)):
            run_factors = [factor for _, _, factor in run]
            runs.append((clock, clock.qpu._cycle_table(cycle), len(run_factors)))
            factors += run_factors
    column = np.array(factors)[:, None]
    table = np.zeros((7, len(factors), max(entry[0].shape[2] for _, entry, _ in runs)))
    start = 0
    for _, entry, count in runs:
        table[:, start : start + count, : entry[0].shape[2]] = entry[0]
        start += count
    t1, t2, t1x2 = table[:3] / column
    errors = np.minimum(np.maximum(table[3:] * column, 0.0), 1.0)
    p01, p10, gammas, betas = errors
    sums = ordered_row_sums(np.array((t1, np.minimum(t2, t1x2), 0.5 * (p01 + p10), gammas, betas)))
    rows = iter(sums.T.tolist())
    success: list[float] = []
    biases: list[float] = []
    for clock, (_, n, n_cx, mu_g1, mu_g2), count in runs:
        noise = clock.qpu.spec.noise_profile
        connectivity = clock.qpu.topology.average_degree
        for _ in range(count):
            t1_sum, t2_sum, omega_sum, gamma_sum, beta_sum = next(rows)
            probability = _success_from_averages(
                clock.footprint,
                mu_g1=mu_g1,
                mu_g2=mu_g2,
                t1=t1_sum / n,
                t2=t2_sum / n,
                gamma=gamma_sum / n,
                beta=beta_sum / max(1, n_cx),
                omega=omega_sum / n,
                crosstalk=noise.crosstalk,
                connectivity=connectivity,
            )
            success.append(probability)
        biases += [noise.coherent_bias] * count
    return NoiseRecord(
        np.array(success),
        np.array(biases) * column[:, 0],
        errors[:2, :, :width].transpose(1, 2, 0),  # (p01, p10) last
        np.zeros(len(success), dtype=bool),
    )


@dataclass(eq=False, slots=True)
class DeferredBatch:
    """The physics half of one device job: ``results`` carry the clock half
    and ``clock`` what its noise reads of it (:class:`ClockRows`, one drift
    triple per circuit, in batch order).  :func:`resolve_batches` builds the
    noise with the rest of the job's wave, writes each result's
    ``success_probability`` metadata and fills the results' ``counts``,
    ``shots`` each, from the job's own ``rng``."""

    circuits: Sequence[QuantumCircuit] | ParameterSweep
    clock: ClockRows
    shots: int
    rng: np.random.Generator
    results: list[ExecutionResult]


#: One sampler call: the jobs, their ``(rows, 2**m)`` distributions, each
#: job's row count, and the results those rows fill.
_Draw = tuple[list[DeferredBatch], np.ndarray, list[int], list[ExecutionResult]]


def resolve_batches(parked: list[DeferredBatch]) -> None:
    """Simulate and sample a wave of device jobs, emptying ``parked``.

    Jobs whose sweeps run the same templates (an ensemble's gradient jobs,
    whatever their devices) form one template wave.  Its noise is **one**
    record built from every job's clock rows in one array pass
    (:func:`_wave_noise`), whose success probabilities go into the results'
    ``success_probability`` metadata; its circuits are **one** sweep over
    the jobs' checked matrices stacked (:meth:`ParameterSweep.stacked`): one
    :func:`~repro.simulator.mixing.noisy_probabilities_batch` pass whose
    ``blocks`` keep each job's rows bit-equal to that job passed alone, as
    any other batch — or a lone job — is.  When ``parked`` is one uniform
    wave (one ``(rows, 2**m)`` matrix), it draws in **one**
    :func:`~repro.simulator.sampler.sample_distribution_batch` call: checked
    once, each job's rows one multinomial draw from its own stream; a job
    that lowered to several structures draws each equal-width run of its
    rows in a call of its own.

    A resolve with several template waves draws job by job, in parked
    order, so every stream draws its jobs in parked order.  Every
    distribution exists and is checked
    (:func:`~repro.simulator.sampler.checked_distributions`) before any
    stream moves, and the jobs leave ``parked`` only with their counts in: a
    pass or a check that raises parks them all.
    """
    waves: dict[object, list[DeferredBatch]] = {}
    for batch in parked:
        sweep = isinstance(batch.circuits, ParameterSweep)
        key = tuple(map(id, batch.circuits.templates)) if sweep else id(batch)
        waves.setdefault(key, []).append(batch)
    draws: list[_Draw] = []
    for wave in waves.values():
        circuits = wave[0].circuits
        if len(wave) > 1:
            circuits = ParameterSweep.stacked([batch.circuits for batch in wave])
        noise = _wave_noise([batch.clock for batch in wave])
        results = [result for batch in wave for result in batch.results]
        for result, success in zip(results, noise.success.tolist()):
            result.metadata["success_probability"] = success
        blocks = [len(batch.results) for batch in wave]
        rows = noisy_probabilities_batch(circuits, noise, blocks=blocks)
        if isinstance(rows, np.ndarray):
            draws.append((wave, rows, blocks, results))
            continue
        for batch, stop in zip(wave, accumulate(blocks)):
            done = 0
            for _, run in groupby(rows[stop - len(batch.results) : stop], key=np.size):
                run = np.stack(list(run))
                draws.append(([batch], run, [len(run)], batch.results[done : done + len(run)]))
                done += len(run)
    if len(waves) > 1:
        position = {id(batch): index for index, batch in enumerate(parked)}
        draws = sorted(_job_by_job(draws), key=lambda draw: position[id(draw[0][0])])
    for _, rows, _, _ in draws[1:]:  # the first call checks its own rows
        checked_distributions(rows, rows.shape[1].bit_length() - 1)
    for jobs, rows, blocks, results in draws:
        shots, streams = [batch.shots for batch in jobs], [batch.rng for batch in jobs]
        drawn = sample_distribution_batch(
            rows, shots, streams, rows.shape[1].bit_length() - 1, blocks=blocks
        )
        for result, counts in zip(results, drawn):
            result.counts = counts
    parked.clear()


def _job_by_job(draws: list[_Draw]):
    """Every draw split into one draw per job."""
    for jobs, rows, blocks, results in draws:
        for batch, size, stop in zip(jobs, blocks, accumulate(blocks)):
            yield [batch], rows[stop - size : stop], [size], results[stop - size : stop]


# ---------------------------------------------------------------------------
# shared success-probability formula
# ---------------------------------------------------------------------------

def success_probability(
    calibration: CalibrationSnapshot,
    footprint: CircuitFootprint,
    crosstalk: float = 0.0,
    connectivity: float = 0.0,
) -> float:
    """Probability of an error-free run given a calibration and a footprint.

    The functional form follows paper Eq. 2:

    ``P = exp(-CD * (mu_g1 + mu_g2)/2 / (T1 * T2 normalized))
        * (1 - gamma)^G1 * (1 - beta)^G2 * (1 - omega)^M``

    with an extra ``(1 - crosstalk * connectivity/4)^G2`` latent term applied
    only by the device truth model (``crosstalk=0`` reproduces Eq. 2 exactly,
    which is what the estimator uses).
    """
    return _success_from_averages(
        footprint,
        mu_g1=calibration.average_single_qubit_gate_time,
        mu_g2=calibration.average_cx_gate_time or calibration.average_single_qubit_gate_time,
        t1=calibration.average_t1,
        t2=calibration.average_t2,
        gamma=calibration.average_single_qubit_error,
        beta=calibration.average_cx_error,
        omega=calibration.average_readout_error,
        crosstalk=crosstalk,
        connectivity=connectivity,
    )


def _success_from_averages(
    footprint: CircuitFootprint,
    *,
    mu_g1: float,
    mu_g2: float,
    t1: float,
    t2: float,
    gamma: float,
    beta: float,
    omega: float,
    crosstalk: float,
    connectivity: float,
) -> float:
    """The Eq. 2 core on scalar calibration averages (see the wrapper above)."""
    g1 = footprint.num_single_qubit_gates
    g2 = footprint.num_two_qubit_gates
    cd = footprint.critical_depth
    m = footprint.num_measurements

    # Decoherence along the critical path: each entangling layer exposes the
    # register for roughly the average gate duration; the decay constant is
    # the geometric combination of T1 and T2 (paper Eq. 2 writes T1*T2 — we
    # use sqrt(T1*T2) so the exponent has dimensions of time over time).
    exposure = cd * 0.5 * (mu_g1 + mu_g2)
    decay_constant = math.sqrt(t1 * t2)
    coherence_term = math.exp(-exposure / decay_constant) if decay_constant > 0 else 0.0

    gate_term = ((1.0 - gamma) ** g1) * ((1.0 - beta) ** g2)
    spam_term = (1.0 - omega) ** m

    crosstalk_term = 1.0
    if crosstalk > 0.0 and g2 > 0:
        per_gate = min(1.0, crosstalk * max(connectivity, 1.0) / 4.0)
        crosstalk_term = (1.0 - per_gate) ** g2

    probability = coherence_term * gate_term * spam_term * crosstalk_term
    return float(min(1.0, max(0.0, probability)))
