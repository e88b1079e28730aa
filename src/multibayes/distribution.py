"""Finite discrete distributions and their structural operations."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import add, mul
from typing import Callable, Sequence

from .core import Label, SampleSpace, Scalar, _require_bits, _require_operands, _Vector, format_scalar, label_str
from .errors import (
    EmptyMultisetError,
    FloatRangeError,
    NonConvexWeightsError,
    UnknownElementError,
)
from .multiset import Multiset, multiset_space


class Dist(_Vector):
    """Probability distribution with finite support.

    ``Dist(space, weights)`` takes one weight per element; they must be
    finite, non-negative and sum to one (within FLOAT_SUM_TOL when any
    is a float), else ValueError.  Weights are stored explicitly for
    every declared element (zero entries included); ``support()`` skips
    the zeros.  Two distributions are equal when they assign the same
    weight to every element of either space, so declaring extra
    zero-weight elements does not affect equality.
    """

    __slots__ = ()
    _NORMALISED = True
    _WHAT = "weights"
    _NOUN = "distribution"

    @property
    def weights(self) -> tuple[Scalar, ...]:
        return self._scalars()

    @property
    def is_exact(self) -> bool:
        return self._nums is not None

    def get(self, element: Label) -> Scalar:
        """Weight of an element, zero (0.0 when float) outside the declared space."""
        if element in self._space:
            return self(element)
        return Fraction(0) if self._nums is not None else 0.0

    def support(self) -> tuple[Label, ...]:
        return tuple(x for x, w in zip(self._space.elements, self._raw()) if w != 0)

    def to_float(self) -> "Dist":
        return Dist._from_floats(self._space, self._floats())

    def _padded(self, elements: Sequence[Label]) -> _Vector:
        """The weights on ``elements``, zero outside this distribution's
        space: a vector on no space, and not normalised, since
        ``elements`` need not cover the support."""
        raw = dict(zip(self._space.elements, self._raw()))
        if self._nums is None:
            return _Vector._from_floats(None, [raw.get(x, 0.0) for x in elements])
        return _Vector._from_ints(None, [raw.get(x, 0) for x in elements], self._den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dist):
            return NotImplemented
        if self._space == other._space:
            return self._same_values(other)
        elements = tuple(dict.fromkeys(self._space.elements + other._space.elements))
        return self._padded(elements)._same_values(other._padded(elements))

    __hash__ = None  # equality ranges over weights on either space; not hashable

    def __str__(self) -> str:
        return " + ".join(f"{format_scalar(w)}|{label_str(x)}>" for x, w in self.items())

    def __repr__(self) -> str:
        return f"Dist({self})"


def dirac(element: Label, space: SampleSpace) -> Dist:
    """Point distribution concentrated on one element."""
    weights = [0] * len(space)
    weights[space.index(element)] = 1
    return Dist._from_ints(space, weights, 1)


def uniform(space: SampleSpace) -> Dist:
    """Equal weights; an empty space raises the ValueError of ``Dist``."""
    return Dist._from_ints(space, (1,) * len(space), len(space)) if len(space) else Dist(space, ())


def flrn(phi: Multiset) -> Dist:
    """Frequentist learning: normalise a nonempty multiset of counts."""
    _require_operands((phi,), Multiset, "frequentist learning arguments")
    size = phi.size
    if size == 0:
        raise EmptyMultisetError("cannot normalise the empty multiset")
    return Dist._from_ints(phi.space, phi.counts, size)


class _Weights(_Vector):
    """Mixture weights: ``_Weights(None, weights)`` is a vector on no
    space that raises NonConvexWeightsError unless the weights are
    convex."""

    __slots__ = ()
    _NORMALISED = True
    _ERROR = NonConvexWeightsError
    _WHAT = "mixture weights"


def convex_sum(weights: Sequence[Scalar], dists: Sequence[Dist]) -> Dist:
    """Mixture sum_i r_i * omega_i of distributions on one space."""
    if len(weights) != len(dists) or not dists:
        raise NonConvexWeightsError("need matching, nonempty weights and distributions")
    weights = _Weights(None, weights)
    return _mix(_require_operands(dists, Dist, "mixture components"), weights, dists)


def _mix(space: SampleSpace, weights: _Weights, dists: Sequence[Dist]) -> Dist:
    """``weights @ dists``, convex weights times distributions on
    ``space``, added row by row: on ints over the lcm of the row
    denominators when every operand is exact, else one ``math.fsum``
    per column of the float rows times the float weights."""
    if weights._nums is not None and all(d._nums is not None for d in dists):
        den = math.lcm(*[d._den for d in dists])
        total = None
        for w, d in zip(weights._nums, dists):
            scaled = map(mul, itertools.repeat(w * (den // d._den)), d._nums)
            total = list(scaled) if total is None else list(map(add, total, scaled))
        return Dist._from_ints(space, total, weights._den * den)
    # convex weights times distribution values: a column sums to at
    # most (1 + FLOAT_SUM_TOL)**2, so math.fsum cannot overflow
    rows = [map(mul, itertools.repeat(w), d._floats()) for w, d in zip(weights._floats(), dists)]
    return Dist._from_floats(space, list(map(math.fsum, zip(*rows))))


def tensor(omega: Dist, rho: Dist) -> Dist:
    """Product distribution on pairs: (x, y) -> omega(x) * rho(y)."""
    _require_operands((omega,), Dist, "tensor arguments")
    _require_operands((rho,), Dist, "tensor arguments")
    return Dist._outer(omega.space.product(rho.space), (omega, rho))


def tensor_power(omega: Dist, n: int) -> Dist:
    """n-fold product of a distribution with itself, on n-tuples."""
    _require_operands((omega,), Dist, "tensor arguments")
    return Dist._outer(omega.space.power(n), (omega,) * n)


def push_function(f: Callable[[Label], Label], omega: Dist, cod: SampleSpace | None = None) -> Dist:
    """Pushforward along a function, merging weights of equal images.

    ``f`` must be total on the support; zero-weight elements are not
    evaluated.  Without a declared codomain the result space lists the
    images in first-occurrence order.
    """
    _require_operands((omega,), Dist, "pushforward arguments")
    zero = 0 if omega._nums is not None else 0.0
    merged: dict[Label, int | float] = {}
    for x, w in zip(omega.space.elements, omega._raw()):
        if w:
            y = f(x)
            merged[y] = merged.get(y, zero) + w
    if cod is None:
        cod = SampleSpace(merged.keys())
    else:
        for y in merged:
            if y not in cod:
                raise UnknownElementError(f"image {y!r} is not in the declared codomain")
    values = [merged.get(y, zero) for y in cod]
    return Dist._from_floats(cod, values) if omega._nums is None else Dist._from_ints(cod, values, omega._den)


def marginal(tau: Dist, index: int) -> Dist:
    """Marginalise a distribution on tuples to one coordinate.

    The result keeps every coordinate label of the product space, so
    zero-probability columns survive marginalisation.  An index that is
    not an int, or a label that is not a tuple with that coordinate,
    raises ValueError.
    """
    space = _require_operands((tau,), Dist, "pushforward arguments")  # before its elements are read
    if not isinstance(index, int) or isinstance(index, bool) or not all(
        isinstance(x, tuple) and -len(x) <= index < len(x) for x in space.elements
    ):
        raise ValueError(f"marginal index must pick a coordinate of every tuple label, got {index!r}")
    cod = SampleSpace(dict.fromkeys(pair[index] for pair in space.elements))
    return push_function(lambda pair: pair[index], tau, cod=cod)


def copy_dist(omega: Dist, n: int = 2) -> Dist:
    """Pushforward along the n-fold copy map x -> (x, ..., x)."""
    space = _require_operands((omega,), Dist, "pushforward arguments")  # before its space is read
    return push_function(lambda x: (x,) * n, omega, cod=space.power(n))


def multinomial(size: int, omega: Dist) -> Dist:
    """Distribution of draws-with-replacement of a fixed size.

    Assigns coefm(phi) * prod_x omega(x)^phi(x) to every multiset phi
    of the given size; the weights sum to one exactly in exact mode,
    where each is an int over the common denominator ``den**size``.
    """
    space = multiset_space(_require_operands((omega,), Dist, "multinomial arguments"), size)
    exact = omega._nums is not None
    if exact:
        _require_bits("multinomial", ((omega._top(), size),))
    try:
        weights = [math.prod(map(pow, omega._raw(), phi.counts), start=phi.coefficient()) for phi in space]
    except OverflowError:  # only a float weight overflows
        raise FloatRangeError("a multinomial coefficient is too large for a float") from None
    return Dist._from_ints(space, weights, omega._den**size) if exact else Dist._from_floats(space, weights)
