"""Symbolic parameters for variational quantum circuits.

Variational quantum algorithms optimize circuits whose gate angles are not
fixed numbers but free parameters.  This module provides the small symbolic
layer used throughout the library: :class:`Parameter` (a named free angle),
:class:`ParameterExpression` (a parameter scaled and shifted by constants,
enough to express the parameter-shift rule and QAOA cost layers), and
:class:`ParameterVector` (a convenience factory for ``theta[0] .. theta[n-1]``).

The design intentionally avoids a full symbolic-algebra system: every
expression is affine in exactly one parameter (``coeff * p + offset``), which
covers everything the EQC paper requires (parameter-shift forward/backward
circuits, RZZ cost layers parameterized by a shared angle) while keeping
binding and equality semantics trivial to reason about.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Union

__all__ = [
    "Parameter",
    "ParameterExpression",
    "ParameterVector",
    "ParameterValue",
    "bind_value",
]

_uid_counter = itertools.count()

#: A gate angle is either a concrete float, a free parameter, or an affine
#: expression of a free parameter.
ParameterValue = Union[float, "Parameter", "ParameterExpression"]


class Parameter:
    """A named free parameter of a variational circuit.

    Two parameters are equal only if they are the *same object* (or share the
    same unique id), so distinct parameters may reuse a display name without
    colliding.  Parameters support the small amount of arithmetic needed to
    build shifted/scaled angles: ``theta + 0.5``, ``0.5 * theta``, ``-theta``.
    """

    __slots__ = ("name", "_uid", "_hash")

    def __init__(self, name: str) -> None:
        self.name = str(name)
        self._uid = next(_uid_counter)
        self._hash = hash(("Parameter", self._uid))

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: float) -> "ParameterExpression":
        return ParameterExpression(self, coeff=1.0, offset=float(other))

    __radd__ = __add__

    def __sub__(self, other: float) -> "ParameterExpression":
        return ParameterExpression(self, coeff=1.0, offset=-float(other))

    def __rsub__(self, other: float) -> "ParameterExpression":
        return ParameterExpression(self, coeff=-1.0, offset=float(other))

    def __mul__(self, other: float) -> "ParameterExpression":
        return ParameterExpression(self, coeff=float(other), offset=0.0)

    __rmul__ = __mul__

    def __neg__(self) -> "ParameterExpression":
        return ParameterExpression(self, coeff=-1.0, offset=0.0)

    # -- identity ---------------------------------------------------------
    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Parameter) and other._uid == self._uid

    def __repr__(self) -> str:
        return f"Parameter({self.name!r})"

    # -- binding ----------------------------------------------------------
    def bind(self, values: Mapping["Parameter", float]) -> float:
        """Resolve this parameter to a float using ``values``.

        Raises:
            KeyError: if the parameter is missing from ``values``.
        """
        if self not in values:
            raise KeyError(f"no value bound for parameter {self.name!r}")
        return float(values[self])

    @property
    def parameters(self) -> frozenset["Parameter"]:
        """The set of free parameters (always a singleton for a Parameter)."""
        return frozenset({self})


@dataclass(frozen=True)
class ParameterExpression:
    """An affine expression ``coeff * parameter + offset``.

    This is the only expression form the library needs: the parameter-shift
    rule shifts an angle by a constant, and QAOA layers scale a shared angle
    by a constant edge weight.
    """

    parameter: Parameter
    coeff: float = 1.0
    offset: float = 0.0

    def bind(self, values: Mapping[Parameter, float]) -> float:
        """Resolve the expression to a float using ``values``."""
        return self.coeff * self.parameter.bind(values) + self.offset

    @property
    def parameters(self) -> frozenset[Parameter]:
        """The set of free parameters appearing in the expression."""
        return frozenset({self.parameter})

    # -- arithmetic -------------------------------------------------------
    def __add__(self, other: float) -> "ParameterExpression":
        return ParameterExpression(self.parameter, self.coeff, self.offset + float(other))

    __radd__ = __add__

    def __sub__(self, other: float) -> "ParameterExpression":
        return ParameterExpression(self.parameter, self.coeff, self.offset - float(other))

    def __mul__(self, other: float) -> "ParameterExpression":
        return ParameterExpression(
            self.parameter, self.coeff * float(other), self.offset * float(other)
        )

    __rmul__ = __mul__

    def __neg__(self) -> "ParameterExpression":
        return ParameterExpression(self.parameter, -self.coeff, -self.offset)

    def __repr__(self) -> str:
        return f"{self.coeff}*{self.parameter.name} + {self.offset}"


class ParameterVector:
    """A list of related parameters named ``prefix[0] .. prefix[n-1]``.

    Example:
        >>> theta = ParameterVector("theta", 3)
        >>> [p.name for p in theta]
        ['theta[0]', 'theta[1]', 'theta[2]']
    """

    def __init__(self, prefix: str, length: int) -> None:
        if length < 0:
            raise ValueError("ParameterVector length must be non-negative")
        self.prefix = prefix
        self._params = [Parameter(f"{prefix}[{i}]") for i in range(length)]

    def __len__(self) -> int:
        return len(self._params)

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self._params)

    def __getitem__(self, index):
        return self._params[index]

    def __repr__(self) -> str:
        return f"ParameterVector({self.prefix!r}, {len(self)})"

    @property
    def params(self) -> list[Parameter]:
        """The underlying parameters as a list (copy)."""
        return list(self._params)


def bind_value(value: ParameterValue, values: Mapping[Parameter, float]) -> float:
    """Resolve a gate angle (float, Parameter, or expression) to a float."""
    if isinstance(value, (Parameter, ParameterExpression)):
        return value.bind(values)
    return float(value)


def free_parameters(values: Iterable[ParameterValue]) -> frozenset[Parameter]:
    """Collect the free parameters appearing in an iterable of angles."""
    found: set[Parameter] = set()
    for value in values:
        if isinstance(value, (Parameter, ParameterExpression)):
            found |= value.parameters
    return frozenset(found)
