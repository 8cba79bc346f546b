"""Tests for the symbolic parameter layer."""

import copy
import math
import pickle

import pytest

from repro.circuit.parameters import (
    Parameter,
    ParameterExpression,
    ParameterVector,
    bind_value,
    free_parameters,
)


class TestParameter:
    def test_name_is_stored(self):
        assert Parameter("theta").name == "theta"

    def test_parameters_with_same_name_are_distinct(self):
        a, b = Parameter("theta"), Parameter("theta")
        assert a != b
        assert len({a, b}) == 2

    def test_parameter_equal_to_itself(self):
        p = Parameter("x")
        assert p == p
        assert hash(p) == hash(p)

    def test_hash_is_the_id_tuple_hash_and_survives_copies(self):
        """The hash is computed once; a copy or pickle lands with the same
        name, id and hash, so dict and set order do not change."""
        p = Parameter("x")
        assert hash(p) == hash(("Parameter", p._uid))
        for twin in (copy.deepcopy(p), copy.copy(p), pickle.loads(pickle.dumps(p))):
            assert twin == p and twin.name == "x"
            assert hash(twin) == hash(p) == hash(("Parameter", twin._uid))
            assert {p: 1}[twin] == 1

    def test_bind_returns_value(self):
        p = Parameter("x")
        assert p.bind({p: 0.5}) == pytest.approx(0.5)

    def test_bind_missing_raises_keyerror(self):
        p = Parameter("x")
        with pytest.raises(KeyError):
            p.bind({})

    def test_parameters_property_is_singleton(self):
        p = Parameter("x")
        assert p.parameters == frozenset({p})

    def test_repr_contains_name(self):
        assert "theta" in repr(Parameter("theta"))


class TestParameterExpression:
    def test_addition_builds_expression(self):
        p = Parameter("x")
        expr = p + 1.5
        assert isinstance(expr, ParameterExpression)
        assert expr.bind({p: 2.0}) == pytest.approx(3.5)

    def test_subtraction(self):
        p = Parameter("x")
        assert (p - 0.5).bind({p: 2.0}) == pytest.approx(1.5)

    def test_right_subtraction(self):
        p = Parameter("x")
        assert (1.0 - p).bind({p: 0.25}) == pytest.approx(0.75)

    def test_scaling(self):
        p = Parameter("x")
        assert (3.0 * p).bind({p: 2.0}) == pytest.approx(6.0)

    def test_negation(self):
        p = Parameter("x")
        assert (-p).bind({p: 1.25}) == pytest.approx(-1.25)

    def test_chained_arithmetic(self):
        p = Parameter("x")
        expr = (2.0 * p + 1.0) * 0.5
        assert expr.bind({p: 3.0}) == pytest.approx(3.5)

    def test_expression_parameters(self):
        p = Parameter("x")
        assert (p + math.pi).parameters == frozenset({p})


class TestParameterVector:
    def test_length(self):
        assert len(ParameterVector("t", 5)) == 5

    def test_names_are_indexed(self):
        vec = ParameterVector("t", 3)
        assert [p.name for p in vec] == ["t[0]", "t[1]", "t[2]"]

    def test_getitem(self):
        vec = ParameterVector("t", 3)
        assert vec[1].name == "t[1]"

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            ParameterVector("t", -1)

    def test_params_returns_copy(self):
        vec = ParameterVector("t", 2)
        params = vec.params
        params.append(Parameter("other"))
        assert len(vec) == 2

    def test_zero_length_allowed(self):
        assert len(ParameterVector("t", 0)) == 0


class TestBindValue:
    def test_float_passthrough(self):
        assert bind_value(1.25, {}) == pytest.approx(1.25)

    def test_parameter_binding(self):
        p = Parameter("x")
        assert bind_value(p, {p: 0.7}) == pytest.approx(0.7)

    def test_expression_binding(self):
        p = Parameter("x")
        assert bind_value(p + math.pi / 2, {p: 0.0}) == pytest.approx(math.pi / 2)

    def test_free_parameters_collects_all(self):
        a, b = Parameter("a"), Parameter("b")
        assert free_parameters([a, 1.0, b + 2.0]) == frozenset({a, b})

    def test_free_parameters_empty_for_floats(self):
        assert free_parameters([1.0, 2.0]) == frozenset()
