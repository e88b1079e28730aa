"""Finite discrete distributions and their structural operations."""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

from .core import (
    FLOAT_SUM_TOL,
    Label,
    SampleSpace,
    Scalar,
    _checked_ints,
    _Vector,
    as_scalar,
    format_scalar,
    label_str,
)
from .errors import (
    EmptyMultisetError,
    NonConvexWeightsError,
    SpaceMismatchError,
    UnknownElementError,
)
from .multiset import Multiset, coefm, multiset_space

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _probabilities(
    weights: tuple[Scalar, ...], error: type[Exception] = ValueError, what: str = "weights"
) -> tuple[tuple[int, ...], int] | None:
    """The one normalisation check, for distributions and mixture weights.

    Weights must be finite, non-negative and sum to one: exactly when all
    are exact, within FLOAT_SUM_TOL otherwise.  Returns all-exact weights
    as ``(nums, den)``, None for float or mixed ones.
    """
    ints = _checked_ints(weights, error, "negative probability {!r}", "non-finite probability {!r}")
    if ints is None:
        total = sum(weights)
        if abs(total - 1.0) > FLOAT_SUM_TOL:
            raise error(f"{what} sum to {total!r}, expected 1 within {FLOAT_SUM_TOL}")
    elif sum(ints[0]) != ints[1]:
        raise error(f"{what} sum to {Fraction(sum(ints[0]), ints[1])}, expected 1")
    return ints


class Dist(_Vector):
    """Probability distribution with finite support.

    Weights are stored explicitly for every declared element (zero
    entries included); ``support()`` skips the zeros.  Two
    distributions are equal when they assign the same weight to every
    element of either space, so declaring extra zero-weight elements
    does not affect equality.
    """

    __slots__ = ()
    _NORMALISED = True

    def __init__(self, space: SampleSpace, weights: Sequence[Scalar]):
        weights = tuple(as_scalar(w) for w in weights)
        if len(weights) != len(space):
            raise ValueError("weights must align with the sample space")
        self._init(space, weights, _probabilities(weights))

    @classmethod
    def from_weights(cls, space: SampleSpace, weights: dict[Label, Scalar]) -> "Dist":
        for elem in weights:
            if elem not in space:
                raise UnknownElementError(f"{elem!r} is not in the sample space")
        return cls(space, tuple(weights.get(x, _ZERO) for x in space))

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


def _mixture_weights(weights: Sequence[Scalar]) -> _Vector:
    """Mixture weights as a vector (on no space), for :func:`_mix`;
    raises NonConvexWeightsError unless they are convex."""
    weights = tuple(as_scalar(w) for w in weights)
    vector = _Vector.__new__(_Vector)
    vector._init(None, weights, _probabilities(weights, NonConvexWeightsError, "mixture weights"))
    return vector


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
    weights = _mixture_weights(weights)
    space = dists[0].space
    for d in dists[1:]:
        if d.space != space:
            raise SpaceMismatchError("mixture components live on different spaces")
    return _mix(space, weights, dists)


def tensor(omega: Dist, rho: Dist) -> Dist:
    """Product distribution on pairs: (x, y) -> omega(x) * rho(y)."""
    space = omega.space.product(rho.space)
    weights = [wx * wy for wx in omega.weights for wy in rho.weights]
    return Dist(space, weights)


def tensor_power(omega: Dist, n: int) -> Dist:
    """n-fold product of a distribution with itself, on n-tuples."""
    space = omega.space.power(n)
    weights = []
    for combo in space.elements:
        w: Scalar = _ONE
        for x in combo:
            w = w * omega(x)
        weights.append(w)
    return Dist(space, weights)


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
        w: Scalar = Fraction(coefm(phi))
        for x, c in phi.items():
            if c:
                w = w * omega(x) ** c
        weights.append(w)
    return Dist(space, weights)
