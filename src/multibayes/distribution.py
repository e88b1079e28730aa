"""Finite discrete distributions and their structural operations."""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

from .core import Label, SampleSpace, Scalar, _Vector, format_scalar, label_str
from .errors import (
    EmptyMultisetError,
    NonConvexWeightsError,
    SpaceMismatchError,
    UnknownElementError,
)
from .multiset import Multiset, coefm, multiset_space

_ZERO = Fraction(0)
_ONE = Fraction(1)


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

    @property
    def weights(self) -> tuple[Scalar, ...]:
        return self._scalars()

    @property
    def is_exact(self) -> bool:
        return self._nums is not None

    def get(self, element: Label) -> Scalar:
        """Weight of an element, zero when outside the declared space."""
        return self(element) if element in self._space else _ZERO

    def support(self) -> tuple[Label, ...]:
        return tuple(x for x, w in zip(self._space.elements, self._raw()) if w != 0)

    def to_float(self) -> "Dist":
        return Dist._from_floats(self._space, self._floats())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dist):
            return NotImplemented
        if self._space == other._space:
            return self._same_values(other)
        elements = dict.fromkeys(self._space.elements)
        elements.update(dict.fromkeys(other._space.elements))
        return all(self.get(x) == other.get(x) for x in elements)

    __hash__ = None  # equality ranges over weights on either space; not hashable

    def __str__(self) -> str:
        return " + ".join(f"{format_scalar(w)}|{label_str(x)}>" for x, w in self.items())

    def __repr__(self) -> str:
        return f"Dist({self})"


def dirac(element: Label, space: SampleSpace) -> Dist:
    """Point distribution concentrated on one element."""
    index = space.index(element)
    return Dist(space, tuple(_ONE if i == index else _ZERO for i in range(len(space))))


def uniform(space: SampleSpace) -> Dist:
    return Dist(space, (Fraction(1, len(space)),) * len(space))


def flrn(phi: Multiset) -> Dist:
    """Frequentist learning: normalise a nonempty multiset of counts."""
    size = phi.size
    if size == 0:
        raise EmptyMultisetError("cannot normalise the empty multiset")
    return Dist(phi.space, tuple(Fraction(c, size) for c in phi.counts))


class _Weights(_Vector):
    """Mixture weights, for :func:`_mix`: ``_Weights(None, weights)`` is
    a vector on no space that raises NonConvexWeightsError unless the
    weights are convex."""

    __slots__ = ()
    _NORMALISED = True
    _ERROR = NonConvexWeightsError
    _WHAT = "mixture weights"


def _mix(space: SampleSpace, weights: _Vector, dists: Sequence[Dist]) -> Dist:
    """``sum_k weights[k] * dists[k]`` on ``space``, for convex weights and
    components on ``space``: on ints when all are exact, else on floats."""
    if weights._nums is not None and all(d._nums is not None for d in dists):
        common = math.lcm(*(d._den for d in dists))
        scales = [n * (common // d._den) for n, d in zip(weights._nums, dists)]
        columns = zip(*(d._nums for d in dists))
        return Dist._from_ints(space, [sum(map(mul, scales, col)) for col in columns], weights._den * common)
    floats = weights._floats()
    columns = zip(*(d._floats() for d in dists))
    return Dist._from_floats(space, [sum(map(mul, floats, col)) for col in columns])


def convex_sum(weights: Sequence[Scalar], dists: Sequence[Dist]) -> Dist:
    """Mixture sum_i r_i * omega_i of distributions on one space."""
    if len(weights) != len(dists) or not dists:
        raise NonConvexWeightsError("need matching, nonempty weights and distributions")
    weights = _Weights(None, weights)
    space = dists[0].space
    for d in dists[1:]:
        if d.space != space:
            raise SpaceMismatchError("mixture components live on different spaces")
    return _mix(space, weights, dists)


def tensor(omega: Dist, rho: Dist) -> Dist:
    """Product distribution on pairs: (x, y) -> omega(x) * rho(y)."""
    return Dist._outer(omega.space.product(rho.space), (omega, rho))


def tensor_power(omega: Dist, n: int) -> Dist:
    """n-fold product of a distribution with itself, on n-tuples."""
    return Dist._outer(omega.space.power(n), (omega,) * n)


def push_function(f: Callable[[Label], Label], omega: Dist, cod: SampleSpace | None = None) -> Dist:
    """Pushforward along a function, merging weights of equal images.

    ``f`` must be total on the support; zero-weight elements are not
    evaluated.  Without a declared codomain the result space lists the
    images in first-occurrence order.
    """
    merged: dict[Label, Scalar] = {}
    for x, w in omega.items():
        if w == 0:
            continue
        y = f(x)
        merged[y] = merged.get(y, _ZERO) + w
    if cod is None:
        cod = SampleSpace(merged.keys())
    else:
        for y in merged:
            if y not in cod:
                raise UnknownElementError(f"image {y!r} is not in the declared codomain")
    return Dist(cod, tuple(merged.get(y, _ZERO) for y in cod))


def marginal(tau: Dist, index: int) -> Dist:
    """Marginalise a distribution on tuples to one coordinate.

    The result keeps every coordinate label of the product space, so
    zero-probability columns survive marginalisation.
    """
    cod = SampleSpace(dict.fromkeys(pair[index] for pair in tau.space.elements))
    return push_function(lambda pair: pair[index], tau, cod=cod)


def copy_dist(omega: Dist, n: int = 2) -> Dist:
    """Pushforward along the n-fold copy map x -> (x, ..., x)."""
    return push_function(lambda x: (x,) * n, omega, cod=omega.space.power(n))


def multinomial(size: int, omega: Dist) -> Dist:
    """Distribution of draws-with-replacement of a fixed size.

    Assigns coefm(phi) * prod_x omega(x)^phi(x) to every multiset phi
    of the given size; the weights sum to one exactly in exact mode.
    """
    space = multiset_space(omega.space, size)
    weights = []
    for phi in space.elements:
        w: Scalar = coefm(phi)
        for x, c in phi.items():
            if c:
                w = w * omega(x) ** c
        weights.append(w)
    return Dist(space, weights)
