"""Dual-mode scalars (exact rational / float) and finite sample spaces.

Scalars are plain Python numbers: :class:`fractions.Fraction` for exact
mode and :class:`float` for float mode, so there is no wrapper class,
only helpers for parsing, formatting and logarithms.  Distributions,
factors and mixture weights share one constructor and one range check
in :class:`_Vector`, which is exact or float: int numerators over one
denominator when every value is exact, one float tuple as soon as one
value is a float, each exact value rounded once (as ``float(Fraction)``
rounds).  Each kernel picks its path by that form: exact only when
every operand is exact, float as soon as one is, with an exact
operand's values converted to float once instead of by numeric-tower
contagion element by element.  Three results are the exceptions: they
multiply the exact operands in front of the first float one exactly,
and only then go on in float.  They are the one conjunction kernel
(``and_conj``, ``conj`` and an integer ``p ** k``), the two evidence
validities and ``iterated_pearl_validity``.
"""

from __future__ import annotations

import itertools
import math
import reprlib
from decimal import Context, Decimal, ROUND_HALF_EVEN
from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Sequence, Union

from .errors import FloatRangeError, NonPositiveLogError, SizeLimitError, SpaceMismatchError, UnknownElementError

Scalar = Union[Fraction, float]
Label = Hashable

#: Product spaces, multiset enumerations and grids larger than this are
#: refused (desk-scale guard).
MAX_PRODUCT_ELEMENTS = 10**6

#: Exact results (conjunctions, factor powers, tensor products,
#: evidence validities, multinomial coefficients and weights) estimated
#: to need more bits than this are refused before they are computed.
#: 10,000 bits are about 3,000 decimal digits, within Python's default
#: limit of 4,300 digits for printing an int.
MAX_EXACT_BITS = 10_000

#: Absolute tolerance for float-mode normalisation checks.
FLOAT_SUM_TOL = 1e-9


def _require_size(size: int, what: str) -> None:
    """Refuse to build ``what`` when it would have more than
    MAX_PRODUCT_ELEMENTS elements."""
    if size > MAX_PRODUCT_ELEMENTS:
        raise SizeLimitError(f"{what} with {size} elements refused")


def _require_doublings(doublings: int, what: str) -> None:
    """Refuse to build ``what`` when its size is at least ``2**doublings``
    and that is more than MAX_PRODUCT_ELEMENTS, before its size, which
    may be an int too large to compute or to print, is computed."""
    if doublings >= MAX_PRODUCT_ELEMENTS.bit_length():
        raise SizeLimitError(f"{what} with more than {MAX_PRODUCT_ELEMENTS} elements refused")


def _require_naturals(values: Iterable, what: str, error: type[Exception] = ValueError) -> None:
    """The one natural-number check: ``error`` naming ``what`` unless
    every value is an int that is not a bool and not negative."""
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise error(f"{what} must be a natural number, got {v!r}")


def _require_operands(values: Iterable, cls: type, what: str, space: SampleSpace | None = None) -> SampleSpace | None:
    """The one operand check: TypeError naming ``what`` unless every
    value is a ``cls``, SpaceMismatchError unless every value lives on
    ``space``, else on the first value's.  Returns that space."""
    for v in values:
        if not isinstance(v, cls):
            raise TypeError(f"{what} must be {cls._NOUN}s, not {type(v).__name__}")
        if space is None:
            space = v._space
        elif v._space is not space and v._space != space:
            spaces = f"{reprlib.repr(space)} and {reprlib.repr(v._space)}"
            raise SpaceMismatchError(f"{what} must live on one sample space, not {spaces}")
    return space


def _require_bits(what: str, powers: Iterable[tuple[int, int]], counts: Sequence[int] = ()) -> None:
    """The one size guard of exact results: refuse ``what`` when its ints
    are estimated at more than MAX_EXACT_BITS bits.  A ``(top, count)``
    power of ints up to ``top`` counts ``count * ceil(log2(top))`` bits,
    at most one short.  The multinomial coefficient of ``counts`` is
    below ``len(counts)**sum(counts)``; only when that bound is too
    large is its size taken from ``lgamma``."""
    bits = 0
    for top, count in powers:
        bits += count * (top - 1).bit_length()
    if counts:
        bound = bits + sum(counts) * (len(counts) - 1).bit_length()
        if bound > MAX_EXACT_BITS:
            try:
                bound = bits + (math.lgamma(sum(counts) + 1) - sum([math.lgamma(c + 1) for c in counts])) / math.log(2)
            except OverflowError:  # counts beyond the float range
                pass
        bits = bound
    if bits > MAX_EXACT_BITS:
        raise SizeLimitError(f"{what} with about {_abridged(int(bits))} bits refused")


def is_exact(value: Scalar) -> bool:
    """True for exact-mode scalars (Fractions and ints)."""
    return isinstance(value, (Fraction, int)) and not isinstance(value, bool)


def as_scalar(value: Scalar | int | str) -> Scalar:
    """Coerce to a scalar: ints become Fractions, strings are parsed.
    Anything else raises TypeError, which shows the value abridged."""
    # float first: a failed isinstance check against Fraction, an ABC, is slow
    if isinstance(value, (float, Fraction)):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    # reprlib: a large list or object is named, not echoed in full
    raise TypeError(f"cannot interpret {reprlib.repr(value)} as a scalar")


def scalar_ln(value: Scalar) -> float:
    """Natural logarithm; always float mode.  An exact value is read as
    ``ln(numerator) - ln(denominator)``, so every positive one has a
    finite logarithm, however large or small; a float inf or NaN raises
    FloatRangeError.

    Raises NonPositiveLogError when ``value <= 0``.
    """
    if value <= 0:
        raise NonPositiveLogError(f"ln undefined for {_abridged(value)}")
    if isinstance(value, float):
        return _check_finite(math.log(value), "ln")
    return math.log(value.numerator) - math.log(value.denominator)


def parse_scalar(text: str) -> Scalar:
    """Parse ``"p/q"`` and integer literals as exact, decimals as float.
    Other text raises ValueError, which shows the text abridged."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {reprlib.repr(text)}")
        return Fraction(int(num), int(den))
    if any(c in text for c in ".eE"):
        try:
            return float(text)
        except ValueError:  # its message holds the whole text
            raise ValueError(f"could not convert string to float: {reprlib.repr(text)}") from None
    return Fraction(int(text))


def format_scalar(value: Scalar) -> str:
    """Exact scalars render as ``p/q`` (or ``n`` for integers), floats as decimals."""
    if is_exact(value):  # ints have a numerator and denominator too
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return repr(float(value))


_TWELVE_DIGITS = Context(prec=12, rounding=ROUND_HALF_EVEN)


def format_decimal12(value: Scalar) -> str:
    """Decimal rendering with 12 significant digits, round-half-even."""
    if is_exact(value):
        dec = _TWELVE_DIGITS.divide(Decimal(value.numerator), Decimal(value.denominator))
    else:
        dec = _TWELVE_DIGITS.plus(Decimal(float(value)))
    return str(dec)


def _abridged(value: Scalar) -> str:
    """``str(value)`` for a message, or its 12 significant digits when it
    is exact with more than 64 digits: a message stays short, and no int
    of more digits than Python prints is formatted."""
    if type(value) is float or value.numerator.bit_length() + value.denominator.bit_length() <= 212:
        return str(value)
    return format_decimal12(value)


class SampleSpace:
    """Finite ordered collection of distinct, hashable labels.

    The label order is fixed at construction and drives every
    enumeration and serialisation downstream.  Labels are usually
    strings; product spaces use tuples and multiset spaces use
    :class:`~multibayes.multiset.Multiset` labels.
    """

    __slots__ = ("_elements", "_index")

    def __init__(self, elements: Iterable[Label]):
        elems = tuple(elements)
        index: dict[Label, int] = {}
        for pos, elem in enumerate(elems):
            if elem in index:
                raise ValueError(f"duplicate element {elem!r} in sample space")
            index[elem] = pos
        self._elements = elems
        self._index = index

    @property
    def elements(self) -> tuple[Label, ...]:
        return self._elements

    def __len__(self) -> int:
        return len(self._elements)

    def __iter__(self) -> Iterator[Label]:
        return iter(self._elements)

    def __contains__(self, element: Label) -> bool:
        return element in self._index

    def index(self, element: Label) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise UnknownElementError(f"{element!r} is not in the sample space") from None

    def __eq__(self, other: object) -> bool:
        return self is other or isinstance(other, SampleSpace) and self._elements == other._elements

    def __hash__(self) -> int:
        return hash(self._elements)

    def __repr__(self) -> str:
        inner = ", ".join(repr(e) for e in self._elements)
        return f"SampleSpace({{{inner}}})"

    def product(self, other: "SampleSpace") -> "SampleSpace":
        """Space of pairs ``(x, y)``, x-major in this space's order."""
        _require_size(len(self) * len(other), "product space")
        return SampleSpace((x, y) for x in self._elements for y in other._elements)

    def power(self, n: int) -> "SampleSpace":
        """Space of ``n``-tuples in lexicographic (first-coordinate-major) order."""
        _require_naturals((n,), "power")
        if len(self) > 1:
            _require_doublings(n, "power space")
        _require_size(len(self) ** n, "power space")
        return SampleSpace(itertools.product(self._elements, repeat=n))


def _fsum(values: Iterable[float]) -> float:
    """``math.fsum``: the correctly rounded sum, so the same on every
    Python; inf, as ``sum`` gives, where a sum of finite values overflows."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _check_range(values: tuple, den: int | None, normalised: bool, error: type[Exception], what: str) -> None:
    """The one range check of vector values: int numerators over ``den``,
    or floats when ``den`` is None.

    One ``min`` and one ``sum`` prove the values finite and non-negative
    (a NaN or inf makes a float sum NaN or inf; without them ``min`` is
    exact), and only a failure walks them, to name the bad one.  When
    ``normalised``, the sum must be one: exactly for ints, within
    FLOAT_SUM_TOL for floats.  Failures raise ``error``.
    """
    total = sum(values)
    if not (total < math.inf and min(values, default=0) >= 0):
        for v in values:
            if not 0 <= v < math.inf:
                raise error(f"{what}: {v if den is None else _abridged(Fraction(v, den))} is not finite and non-negative")
    if not normalised:
        return
    if den is None:
        if abs(total - 1.0) > FLOAT_SUM_TOL:
            raise error(f"{what}: sum is {total}, expected 1 within {FLOAT_SUM_TOL}")
    elif total != den:
        raise error(f"{what}: sum is {_abridged(Fraction(total, den))}, expected 1")


def _check_finite(value: Scalar, what: str) -> Scalar:
    """The one finiteness check of a scalar result: ``value`` itself,
    unless it is a float that is not finite (FloatRangeError)."""
    if type(value) is float and not math.isfinite(value):
        raise FloatRangeError(f"{what} overflows the float range")
    return value


class _Vector:
    """Scalars indexed by the elements of a sample space, exact or float.

    All-exact values are stored as int numerators ``_nums`` over one
    denominator ``_den`` in lowest common terms, ``gcd(den, *nums) == 1``,
    so equal vectors hold equal tuples and exact kernels run on ints.
    Their Fractions are built each time they are read, and not kept;
    their float view ``_flt``, which float kernels run on, is built when
    first needed.  Values that hold any float are the one float tuple
    ``_flt``, with ``_nums`` None.  ``_memo`` is None until a factor
    keeps what it computed for a prior there, and ``_powers`` until it
    keeps its powers (see ``Factor``).
    """

    __slots__ = ("_space", "_nums", "_den", "_flt", "_memo", "_powers")

    #: Whether the values must sum to one (distributions, mixture weights).
    _NORMALISED = False
    #: The error class and the name of the values in constructor errors.
    _ERROR: type[Exception] = ValueError
    _WHAT = "values"

    def __init__(self, space: SampleSpace | None, values: Iterable[Scalar | int | str]):
        """Read ``values`` as :func:`as_scalar` does and check them.

        All-exact values are stored as ints; values that hold any float
        are stored as floats, each exact one rounded once as
        ``float(Fraction)`` rounds (FloatRangeError when it is too large
        for a float).  Values out of range raise the class's error.
        """
        values = tuple(values)
        if not set(map(type, values)) <= {Fraction, int, float}:  # these are read as they are
            values = tuple(map(as_scalar, values))
        if space is not None and len(values) != len(space):
            raise ValueError(f"{self._WHAT} must align with the sample space")
        try:
            den = math.lcm(*[v.denominator for v in values])
        except AttributeError:  # floats have no denominator
            den = None
            try:
                values = tuple(map(float, values))
            except OverflowError:
                raise FloatRangeError(f"{self._WHAT}: an exact value too large for a float") from None
        else:
            values = tuple([v.numerator * (den // v.denominator) for v in values])
        _check_range(values, den, self._NORMALISED, self._ERROR, self._WHAT)
        self._space, self._memo, self._powers = space, None, None
        if den is None:
            self._nums, self._den, self._flt = None, 1, values
        else:
            self._nums, self._den, self._flt = values, den, None

    @classmethod
    def _from_ints(cls, space: SampleSpace, nums: Iterable[int], den: int):
        """Trusted constructor for kernel results: only the gcd reduction."""
        nums = tuple(nums)
        divisor = math.gcd(den, *nums)
        if divisor != 1:
            den //= divisor
            nums = tuple([n // divisor for n in nums])
        vector = cls.__new__(cls)
        vector._space, vector._nums, vector._den, vector._flt = space, nums, den, None
        vector._memo = vector._powers = None
        return vector

    @classmethod
    def _from_floats(cls, space: SampleSpace, values: Iterable[float]):
        """Trusted constructor for float kernel results: no conversion,
        the one range check, and FloatRangeError for a result out of range."""
        values = tuple(values)
        _check_range(values, None, cls._NORMALISED, FloatRangeError, "float result")
        vector = cls.__new__(cls)
        vector._space, vector._nums, vector._den, vector._flt = space, None, 1, values
        vector._memo = vector._powers = None
        return vector

    @classmethod
    def _outer(cls, space: SampleSpace, vectors: Sequence["_Vector"]):
        """Products of one value of each vector, in ``itertools.product``
        order over ``space``: on the ints when all are exact (refused by
        :func:`_require_bits`), else on the float views."""
        if all(v._nums is not None for v in vectors):
            _require_bits("tensor product", [(v._top(), 1) for v in vectors])
            nums = map(math.prod, itertools.product(*[v._nums for v in vectors]))
            return cls._from_ints(space, nums, math.prod([v._den for v in vectors]))
        return cls._from_floats(space, map(math.prod, itertools.product(*[v._floats() for v in vectors])))

    @property
    def space(self) -> SampleSpace:
        return self._space

    def _scalars(self) -> tuple[Scalar, ...]:
        if self._nums is None:
            return self._flt
        den = self._den
        return tuple([Fraction(n, den) for n in self._nums])

    def _top(self) -> int:
        """The largest int of this exact vector, its denominator or a
        numerator: what :func:`_require_bits` raises to a power."""
        return max((self._den, *self._nums))

    def _raw(self) -> tuple:
        """The ints when exact, the floats otherwise: either has the
        values' zero pattern."""
        return self._flt if self._nums is None else self._nums

    def _floats(self) -> tuple[float, ...]:
        """Each value as the nearest float: an all-float vector's own
        tuple, or built once and cached.

        Integer true division is correctly rounded, so ``n / den`` equals
        ``float(Fraction(n, den))``.  A value too large for a float
        raises FloatRangeError.
        """
        flt = self._flt
        if flt is None:
            den = self._den
            try:
                flt = self._flt = tuple([n / den for n in self._nums])
            except OverflowError:
                raise FloatRangeError("value too large for a float") from None
        return flt

    def _same_values(self, other: "_Vector") -> bool:
        """Pointwise equality of the values, for vectors on one space."""
        if self._nums is not None and other._nums is not None:
            return self._den == other._den and self._nums == other._nums
        return self._scalars() == other._scalars()

    def __call__(self, element: Label) -> Scalar:
        index = self._space.index(element)
        if self._nums is None:
            return self._flt[index]
        return Fraction(self._nums[index], self._den)

    def items(self) -> Iterator[tuple[Label, Scalar]]:
        return zip(self._space.elements, self._scalars())


def label_str(label: Label) -> str:
    """Human-readable rendering of a space label (tuples without quotes)."""
    if isinstance(label, tuple):
        return "(" + ",".join(label_str(part) for part in label) + ")"
    return str(label)
