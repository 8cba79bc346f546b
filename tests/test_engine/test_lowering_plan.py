"""A sweep's lowering, planned once per template tuple.

``ProgramCache.lowering`` stacks the parameter plans of a sweep's uniform
template groups; ``lower_batch`` then maps a wave's ``(points, P)`` matrix
with one masked multiply-add per group.  The slot angles must be byte-equal
to stacking every template's ``engine_reference.plan_slot_values``, a stale
plan must never be served, and a served plan must count the program-cache
hits the per-template lookups counted.
"""

import gc
import weakref

import numpy as np
import pytest

from _reference import engine as engine_reference
from repro.circuit import Parameter, QuantumCircuit
from repro.circuit.parameters import ParameterExpression
from repro.circuit.sweep import ParameterSweep
from repro.engine import (
    ProgramCache,
    compile_circuit,
    lower_batch,
    parameter_plan,
    shared_program_cache,
)
from repro.telemetry import TELEMETRY, telemetry_session


def _reference_lowering(sweep):
    """The per-template lowering: group, then ``np.stack`` each group's
    ``engine_reference.plan_slot_values`` (what ``lower_batch`` computed on
    every wave)."""
    templates = sweep.templates
    programs = [compile_circuit(template) for template in templates]
    groups: dict[tuple, list[int]] = {}
    for offset, (template, program) in enumerate(zip(templates, programs)):
        shape = (template.num_qubits, template.measured_qubits, program.slot_gates)
        groups.setdefault(shape, []).append(offset)
    stride = len(templates)
    out = []
    for offsets in groups.values():
        slots = [
            engine_reference.plan_slot_values(
                parameter_plan(templates[o], programs[o]), sweep.theta
            )
            for o in offsets
        ]
        out.append(
            (
                np.stack(slots, axis=1).reshape(len(offsets) * len(sweep.theta), -1),
                templates[offsets[0]],
                [start + o for start in range(0, len(sweep), stride) for o in offsets],
            )
        )
    return out


def _affine_family():
    """Expression slots with coefficients and ±0.0 offsets, constant ±0.0
    slots, and a basis-change tail per template."""
    a, b = Parameter("a"), Parameter("b")
    templates = []
    for basis in ("z", "x", "y"):
        circuit = QuantumCircuit(3)
        circuit.ry(ParameterExpression(a, 2.5, -0.0), 0)
        circuit.rx(ParameterExpression(b, -1.25, 0.0), 1)
        circuit.rz(ParameterExpression(a, 0.5, 0.3), 2)
        circuit.rz(-0.0, 0).rx(0.0, 1).cx(0, 1)
        circuit.rzz(ParameterExpression(b, -3.0, -0.0), 1, 2)
        circuit.ry(b, 2)
        for qubit in range(3):
            if basis == "y":
                circuit.add_gate("sdg", [qubit])
            if basis != "z":
                circuit.h(qubit)
        templates.append(circuit.measure_all())
    return templates


def _multi_group_family():
    """One ansatz measured on different registers: three lowered groups."""
    p, q = Parameter("p"), Parameter("q")
    ansatz = QuantumCircuit(3).ry(p, 0).ry(q, 1).cx(0, 1).rz(ParameterExpression(p, 2.0, -0.0), 2)
    whole = ansatz.copy().measure_all()
    pair = ansatz.copy().h(0).measure(0).measure(1)
    other = ansatz.copy().measure(2)
    return [whole, pair, whole.copy().h(2).measure_all(), other, pair.copy()]


FAMILIES = {
    "vqe4": lambda vqe, qaoa: vqe.estimator.template_circuits(),
    "qaoa10": lambda vqe, qaoa: qaoa.estimator.template_circuits(),
    "affine": lambda vqe, qaoa: _affine_family(),
    "multi_group": lambda vqe, qaoa: _multi_group_family(),
}


def _sweep(templates, points=7, seed=3):
    width = len(templates[0].parameters)
    theta = np.random.default_rng(seed).uniform(-np.pi, np.pi, (points, width))
    theta[0, :] = 0.0  # zero products meet the ±0.0 offsets
    if width > 1:
        theta[1, 1] = -0.0
    return ParameterSweep(templates, theta)


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_planned_slots_are_byte_equal_to_stacked_plan_slot_values(
    family, vqe_problem, qaoa_problem
):
    sweep = _sweep(FAMILIES[family](vqe_problem, qaoa_problem))
    reference = _reference_lowering(sweep)
    if family == "multi_group":
        assert len(reference) == 3
    for _ in range(2):  # the plan is built, then served
        lowered = lower_batch(sweep)
        assert len(lowered) == len(reference)
        for (program, slots, representative, positions), (want, circuit, flat) in zip(
            lowered, reference
        ):
            assert slots.shape == want.shape and slots.dtype == want.dtype
            assert slots.tobytes() == want.tobytes()
            assert representative is circuit
            assert positions == flat
            assert program.stride == len(want) // len(sweep.theta)


def test_a_served_plan_is_the_built_plan(vqe_problem):
    cache = ProgramCache()
    templates = tuple(vqe_problem.estimator.template_circuits())
    plan = cache.lowering(templates)
    assert cache.lowering(templates) is plan
    (group,) = plan
    assert group.templates == (0, 1, 2)
    assert group.program is cache.merged([cache.get_or_compile(t) for t in templates])
    assert not group.offset.flags.writeable and not group.bound.flags.writeable


def test_a_mutated_template_gets_a_fresh_plan():
    cache = ProgramCache()
    p = Parameter("p")
    templates = (
        QuantumCircuit(2).ry(p, 0).measure_all(),
        QuantumCircuit(2).rx(p, 1).measure_all(),
    )
    before = cache.lowering(templates)
    templates[0].rz(ParameterExpression(p, 3.0, 0.5), 1)
    after = cache.lowering(templates)
    assert after is not before
    assert [group.templates for group in after] == [(0,), (1,)]
    theta = np.array([[0.7], [-1.1]])
    assert after[0].slot_values(theta).tobytes() == engine_reference.plan_slot_values(
        parameter_plan(templates[0], cache.get_or_compile(templates[0])), theta
    ).tobytes()


def test_clear_drops_the_plan(vqe_problem):
    cache = ProgramCache()
    templates = tuple(vqe_problem.estimator.template_circuits())
    plan = cache.lowering(templates)
    cache.clear()
    assert cache._lowerings == {}
    assert cache.lowering(templates) is not plan


def test_the_memo_keeps_no_template_alive():
    cache = ProgramCache()
    p = Parameter("p")
    templates = (
        QuantumCircuit(2).ry(p, 0).measure_all(),
        QuantumCircuit(2).ry(p, 0).h(0).measure_all(),
    )
    cache.lowering(templates)
    assert len(cache._lowerings) == 1
    refs = [weakref.ref(template) for template in templates]
    del templates
    gc.collect()
    assert all(ref() is None for ref in refs)
    assert cache._lowerings == {}


def test_a_wrong_theta_width_still_raises(vqe_problem):
    sweep = _sweep(vqe_problem.estimator.template_circuits())
    lower_batch(sweep)  # the plan exists; the width is checked when it is served
    (group,) = shared_program_cache().lowering(sweep.templates)
    with pytest.raises(ValueError, match="parameters per point"):
        group.slot_values(sweep.theta[:, :-1])
    sweep.theta = np.zeros((2, sweep.theta.shape[1] + 1))
    with pytest.raises(ValueError, match="parameters per point"):
        lower_batch(sweep)


def test_each_served_plan_counts_one_hit_per_template(vqe_problem, qaoa_problem):
    cache = shared_program_cache()
    for family in ("vqe4", "multi_group"):
        sweep = _sweep(FAMILIES[family](vqe_problem, qaoa_problem))
        lower_batch(sweep)
        hits, misses = cache.hits, cache.misses
        try:
            with telemetry_session():
                for _ in range(3):
                    lower_batch(sweep)
                counters = dict(TELEMETRY.registry.counters())
        finally:
            TELEMETRY.reset()
        assert cache.hits - hits == 3 * len(sweep.templates)
        assert cache.misses == misses
        assert counters["engine.program_cache.hits"] == 3 * len(sweep.templates)
