"""Factors, predicates and multiset evidence with their algebra."""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from itertools import repeat
from operator import add as _add, mul, truediv
from typing import Iterable, Iterator, Sequence

from .core import Label, SampleSpace, Scalar, _Vector, as_scalar, format_scalar, is_exact, label_str
from .core import _fsum, _product, _require_bits, _require_naturals, _require_operands
from .errors import (
    EmptyEvidenceError,
    FloatRangeError,
    NotAPredicateError,
    ZeroPowerError,
)
from .multiset import Multiset, _Counted


#: How many counts' powers a factor keeps for the conjunction.
_POWER_COUNTS = 8


class Factor(_Vector):
    """Non-negative function on a sample space; the unit of evidence.

    ``Factor(space, values)`` takes one finite, non-negative value per
    element, else ValueError.  A factor bounded by one is a predicate;
    a predicate with values in {0, 1} is sharp.  Factors compare and
    hash by pointwise values, so two factors built differently but
    extensionally equal are the same evidence key.

    A factor keeps ``[prior, normaliser, posterior]`` for the last prior
    it met (the same object, not an equal one), filled as the update
    rules and validities need them (see ``validity._entry``), and its
    powers for the last _POWER_COUNTS counts the conjunction met (see
    :meth:`_power`).
    """

    __slots__ = ()
    _WHAT = "factor values"
    _NOUN = "factor"

    @property
    def values(self) -> tuple[Scalar, ...]:
        return self._scalars()

    @property
    def is_predicate(self) -> bool:
        den = self._den
        return all(v <= den for v in self._raw())

    @property
    def is_sharp(self) -> bool:
        den = self._den
        return all(v == 0 or v == den for v in self._raw())

    def _power(self, count: int) -> list | tuple:
        """The ints raised to ``count`` (over ``_den**count``) when exact,
        else the floats raised to it: :meth:`_raw` itself for a count of
        one, else a list.  The lists of the last _POWER_COUNTS counts are
        kept, oldest dropped first, and never changed; an error (such as
        OverflowError) keeps nothing."""
        if count == 1:
            return self._raw()
        powers = self._powers
        if powers is None:
            powers = self._powers = {}
        else:
            cached = powers.get(count)
            if cached is not None:
                return cached
        result = list(map(pow, self._raw(), repeat(count)))
        if len(powers) == _POWER_COUNTS:
            del powers[next(iter(powers))]
        powers[count] = result
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Factor):
            return NotImplemented
        return (self._space is other._space or self._space == other._space) and self._same_values(other)

    def __hash__(self) -> int:
        return hash((self._space, self.values))

    # operator sugar; the named module functions are the primary surface
    def __and__(self, other: "Factor") -> "Factor":
        return conj(self, other)

    def __add__(self, other: "Factor") -> "Factor":
        return add(self, other)

    def __rmul__(self, s: Scalar) -> "Factor":
        return scale(s, self)

    def __invert__(self) -> "Factor":
        return ortho(self)

    def __pow__(self, exponent) -> "Factor":
        """Iterated conjunction.  The exponent is read as :func:`as_scalar`
        reads a scalar, so a bool raises TypeError.  An exact integer,
        such as ``2``, ``Fraction(2)`` or ``"2"``, gives the conjunction
        of that many copies, which shares the powers :meth:`_power`
        keeps; a negative one, the powers of the reciprocals.  Any
        other exponent gives a float-mode factor of the float values'
        powers, so a zero value gives 1.0 for ``0.0``, as an int does;
        an exponent beyond the float range is read as an infinite one of
        its sign.  A negative power of a zero value raises
        ZeroPowerError, a float overflow FloatRangeError, and an exact
        power of more than MAX_EXACT_BITS bits SizeLimitError."""
        if type(exponent) is not int:
            exponent = as_scalar(exponent)
            if is_exact(exponent) and exponent.denominator == 1:
                exponent = exponent.numerator
        if exponent < 0 and 0 in self._raw():
            raise ZeroPowerError("negative power of a factor with a zero value")
        if type(exponent) is not int:
            try:
                exponent = float(exponent)
            except OverflowError:  # an exact exponent beyond the float range
                exponent = math.inf if exponent > 0 else -math.inf
            try:
                values = tuple(map(pow, self._floats(), repeat(exponent)))
            except OverflowError:
                values = (math.inf,)
            if math.inf in values:  # where a finite exponent overflows, an infinite one gives inf
                raise FloatRangeError("factor power overflows the float range")
            return Factor._from_floats(self._space, values)
        base = self
        if exponent < 0 and self._nums is not None:
            # the reciprocals den / n over the lcm of the numerators
            common = math.lcm(*self._nums)
            base = Factor._from_ints(self._space, [self._den * (common // n) for n in self._nums], common)
            exponent = -exponent
        return _and_conj(self._space, ((base, exponent),), "factor power")

    def __str__(self) -> str:
        return " + ".join(f"{format_scalar(v)}*1{{{label_str(x)}}}" for x, v in self.items())

    def __repr__(self) -> str:
        return f"Factor({self})"


def truth(space: SampleSpace) -> Factor:
    return Factor._from_ints(space, (1,) * len(space), 1)


def falsity(space: SampleSpace) -> Factor:
    return Factor._from_ints(space, (0,) * len(space), 1)


def indicator(subset: Iterable[Label], space: SampleSpace) -> Factor:
    """Sharp predicate that is one exactly on the given subset."""
    members = set()
    for elem in subset:
        space.index(elem)
        members.add(elem)
    return Factor._from_ints(space, [int(x in members) for x in space], 1)


def point_pred(element: Label, space: SampleSpace) -> Factor:
    """Sharp predicate that is one exactly at ``element``."""
    nums = [0] * len(space)
    nums[space.index(element)] = 1
    return Factor._from_ints(space, nums, 1)


def conj(p: Factor, q: Factor) -> Factor:
    """Pointwise product; the sequential conjunction of factors, as :func:`and_conj`."""
    return _and_conj(_require_operands((p, q), Factor, "conjuncts"), ((p, 1), (q, 1)), "conjunction")


def tensor_factor(p: Factor, q: Factor) -> Factor:
    """Parallel conjunction on the product space: (x, y) -> p(x) * q(y)."""
    _require_operands((p,), Factor, "tensor arguments")
    _require_operands((q,), Factor, "tensor arguments")
    return Factor._outer(p.space.product(q.space), (p, q))


def add(p: Factor, q: Factor) -> Factor:
    """Pointwise sum; a float overflow raises FloatRangeError."""
    space = _require_operands((p, q), Factor, "summands")
    if p._nums is not None and q._nums is not None:
        den = math.lcm(p._den, q._den)
        ps, qs = den // p._den, den // q._den
        return Factor._from_ints(space, [a * ps + b * qs for a, b in zip(p._nums, q._nums)], den)
    return Factor._from_floats(space, map(_add, p._floats(), q._floats()))


def scale(s: Scalar, p: Factor) -> Factor:
    """Pointwise multiple; a float overflow raises FloatRangeError."""
    s = as_scalar(s)
    if not 0 <= s < math.inf:
        raise ValueError("factor scaling needs a finite non-negative scalar")
    _require_operands((p,), Factor, "scaling arguments")
    if isinstance(s, Fraction) and p._nums is not None:
        return Factor._from_ints(p.space, [n * s.numerator for n in p._nums], p._den * s.denominator)
    try:
        s = float(s)
    except OverflowError:
        raise FloatRangeError("scalar too large for a float") from None
    return Factor._from_floats(p.space, map(mul, repeat(s), p._floats()))


def ortho(p: Factor) -> Factor:
    """Orthosupplement 1 - p; defined for predicates only."""
    _require_operands((p,), Factor, "orthosupplement arguments")
    if not p.is_predicate:
        raise NotAPredicateError("orthosupplement needs values bounded by one")
    if p._nums is not None:
        return Factor._from_ints(p.space, [p._den - n for n in p._nums], p._den)
    return Factor._from_floats(p.space, [1.0 - v for v in p._floats()])


class Evidence(_Counted):
    """Multiset of factors over one sample space.

    Factors that are pointwise equal are merged on construction, into a
    float one if any of them is float; the distinct factors keep their
    first-seen order, which fixes the factor order used by parallel
    conjunctions.  The iterated conjunction is computed once, by the
    first :func:`and_conj`; being a factor kept on the evidence, it
    keeps its own normaliser and posterior for the last prior it met, as
    each factor does.  A member that is not a Factor raises TypeError.
    ``_space`` is the factors' space, None when the evidence is empty.
    """

    __slots__ = ("_factors", "_conj", "_space")
    _NOUN = "evidence multiset"

    def __init__(self, pairs: Iterable[tuple[Factor, int]]):
        members: list[Factor] = []
        factors: list[Factor] = []
        counts: list[int] = []
        for factor, count in pairs:
            _require_naturals((count,), "evidence multiplicity")
            members.append(factor)
            if count == 0:
                continue
            # not list.index: its ValueError formats the whole factor
            for pos, seen in enumerate(factors):
                if seen is factor or seen == factor:
                    counts[pos] += count
                    if factor._nums is None and seen._nums is not None:
                        factors[pos] = factor  # float as soon as one is
                    break
            else:
                factors.append(factor)
                counts.append(count)
        space = _require_operands(members, Factor, "evidence members")
        self._space = space if factors else None
        self._factors = tuple(factors)
        self._counts = tuple(counts)
        self._conj: Factor | None = None

    @property
    def factors(self) -> tuple[Factor, ...]:
        return self._factors

    @property
    def space(self) -> SampleSpace:
        if self._space is None:
            raise EmptyEvidenceError("empty evidence has no underlying space")
        return self._space

    def items(self) -> Iterator[tuple[Factor, int]]:
        return zip(self._factors, self._counts)

    def __call__(self, factor: Factor) -> int:
        _require_operands((factor,), Factor, "evidence lookups", self._space)
        for f, c in self.items():
            if f == factor:
                return c
        return 0

    def __len__(self) -> int:
        return len(self._factors)

    def __add__(self, other: "Evidence") -> "Evidence":
        _require_operands((other,), Evidence, "evidence summands")
        return Evidence(list(self.items()) + list(other.items()))

    def scale(self, n: int) -> "Evidence":
        _require_naturals((n,), "scaling factor")
        return Evidence((f, n * c) for f, c in self.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Evidence):
            return NotImplemented
        return dict(self.items()) == dict(other.items())


def point_evidence(phi: Multiset) -> Evidence:
    """Interpret a multiset over X as evidence made of point predicates."""
    _require_operands((phi,), Multiset, "point evidence arguments")
    return Evidence((point_pred(x, phi.space), c) for x, c in phi.items() if c)


def _require_nonempty(psi: Evidence) -> SampleSpace:
    """The operand check of evidence that must hold a factor: TypeError
    unless ``psi`` is evidence, else EmptyEvidenceError when it is
    empty.  Returns its space."""
    space = _require_operands((psi,), Evidence, "evidence arguments")
    if space is None:
        raise EmptyEvidenceError("operation needs nonempty evidence")
    return space


def and_conj(psi: Evidence) -> Factor:
    """Iterated sequential conjunction: x -> prod_p p(x)^count(p).

    Exact factors before the first float one multiply exactly; from
    there on the product runs on floats, an exact factor's power
    rounded once as a Fraction would be.  Where an exact value is too
    large for a float, each value's product is taken exactly instead
    and rounded once.  A float overflow raises FloatRangeError, and
    exact powers of more than MAX_EXACT_BITS bits
    in all raise SizeLimitError before they are computed.  Each factor
    keeps its powers (see ``Factor._power``), so other evidence that
    holds it at the same count reuses them.  The result is kept in
    ``psi``, so later calls return the same object.
    """
    _require_nonempty(psi)
    if psi._conj is None:
        psi._conj = _and_conj(psi._space, list(psi.items()), "conjunction")
    return psi._conj


def _and_conj(space: SampleSpace, items: Sequence[tuple[Factor, int]], what: str) -> Factor:
    """The one conjunction kernel of and_conj, conj and an int ``p ** k``: x -> prod p(x)**count."""
    _require_bits(what, [(f._top(), count) for f, count in items if f._nums is not None])
    nums, den, exact = None, 1, 0
    for factor, count in items:
        if factor._nums is None:
            break
        powers = factor._power(count)
        nums = powers if nums is None else list(map(mul, nums, powers))
        den *= factor._den**count
        exact += 1
    if exact == len(items):
        return Factor._from_ints(space, nums, den)
    try:
        try:
            values = list(map(truediv, nums, repeat(den))) if exact else None
            for factor, count in items[exact:]:
                if factor._nums is None:
                    powers = factor._power(count)
                else:
                    powers = map(truediv, factor._power(count), repeat(factor._den**count))
                values = powers if values is None else list(map(mul, values, powers))
        except OverflowError:  # an exact value too large for a float: each value's product by _product
            columns = [[Fraction(n, den) for n in nums]] if exact else []
            for factor, count in items[exact:]:
                powers = factor._power(count)
                columns.append(powers if factor._nums is None else [Fraction(n, factor._den**count) for n in powers])
            values = list(map(_product, zip(*columns)))
    except OverflowError:
        raise FloatRangeError(f"{what} overflows the float range") from None
    return Factor._from_floats(space, values)


def tensor_conj(psi: Evidence) -> Factor:
    """Iterated parallel conjunction on the K-fold product space.

    Factors are laid out in the evidence's fixed factor order, each
    repeated by its multiplicity.
    """
    space = _require_nonempty(psi).power(psi.size)
    return Factor._outer(space, [f for f, count in psi.items() for _ in range(count)])


def frac_conj(psi: Evidence) -> Factor:
    """Geometric-mean conjunction: x -> prod_p p(x)^(count(p)/K), float mode.

    Zero factor values stay zero under fractional exponents, so no NaN
    can escape.
    """
    space = _require_nonempty(psi)
    total = psi.size
    values = None
    for factor, count in psi.items():
        powers = map(pow, factor._floats(), repeat(count / total))
        values = list(powers) if values is None else list(map(mul, values, powers))
    return Factor._from_floats(space, values)


class MatchStatus(enum.Enum):
    NO_MATCH = "no-match"
    MATCH = "match"
    PERFECT_MATCH = "perfect-match"


def match_status(psi: Evidence) -> MatchStatus:
    """Classify evidence by the pointwise sum of its distinct factors.

    The sum runs over the support only; multiplicities do not enter.
    A perfect match sums to one everywhere, a match stays below one.
    The sums are exact when every factor is, else on the float views.
    """
    if _require_operands((psi,), Evidence, "match arguments") is None:
        return MatchStatus.MATCH
    if all(f._nums is not None for f in psi.factors):
        one = math.lcm(*(f._den for f in psi.factors))
        totals = [sum(column) for column in zip(*([n * (one // f._den) for n in f._nums] for f in psi.factors))]
    else:
        one = 1.0
        totals = [_fsum(column) for column in zip(*(f._floats() for f in psi.factors))]
    if all(t == one for t in totals):
        return MatchStatus.PERFECT_MATCH
    if all(t <= one for t in totals):
        return MatchStatus.MATCH
    return MatchStatus.NO_MATCH
