"""Dual-mode scalars (exact rational / float) and finite sample spaces.

Scalars are plain Python numbers: :class:`fractions.Fraction` for exact
mode and :class:`float` for float mode.  Python's numeric tower already
gives the contagion rule we need -- arithmetic between two Fractions
stays exact, anything touching a float becomes float -- so there is no
wrapper class, only helpers for parsing, formatting and logarithms.
"""

from __future__ import annotations

import math
from decimal import Context, Decimal, ROUND_HALF_EVEN
from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Sequence, Union

from .errors import NonPositiveLogError, SizeLimitError, UnknownElementError

Scalar = Union[Fraction, float]
Label = Hashable

#: Product spaces, multiset enumerations and grids larger than this are
#: refused (desk-scale guard).
MAX_PRODUCT_ELEMENTS = 10**6

#: Absolute tolerance for float-mode normalisation checks.
FLOAT_SUM_TOL = 1e-9


def _require_size(size: int, what: str) -> None:
    """Refuse to build ``what`` when it would have more than
    MAX_PRODUCT_ELEMENTS elements."""
    if size > MAX_PRODUCT_ELEMENTS:
        raise SizeLimitError(f"{what} with {size} elements refused")


def is_exact(value: Scalar) -> bool:
    """True for exact-mode scalars (Fractions and ints)."""
    return isinstance(value, (Fraction, int)) and not isinstance(value, bool)


def as_scalar(value: Scalar | int | str) -> Scalar:
    """Coerce to a scalar: ints become Fractions, strings are parsed."""
    # float first: a failed isinstance check against Fraction, an ABC, is slow
    if isinstance(value, (float, Fraction)):
        return value
    if isinstance(value, bool):
        raise TypeError("booleans are not scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_scalar(value)
    raise TypeError(f"cannot interpret {value!r} as a scalar")


def scalar_ln(value: Scalar) -> float:
    """Natural logarithm; always float mode.

    Raises NonPositiveLogError when ``value <= 0``.
    """
    if value <= 0:
        raise NonPositiveLogError(f"ln undefined for {value}")
    return math.log(value)


def parse_scalar(text: str) -> Scalar:
    """Parse ``"p/q"`` and integer literals as exact, decimals as float."""
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(int(num), int(den))
    if any(c in text for c in ".eE") and not text.lstrip("+-").isdigit():
        return float(text)
    return Fraction(int(text))


def format_scalar(value: Scalar) -> str:
    """Exact scalars render as ``p/q`` (or ``n`` for integers), floats as decimals."""
    if is_exact(value):
        value = Fraction(value)
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    return repr(float(value))


_TWELVE_DIGITS = Context(prec=12, rounding=ROUND_HALF_EVEN)


def format_decimal12(value: Scalar) -> str:
    """Decimal rendering with 12 significant digits, round-half-even."""
    if is_exact(value):
        frac = Fraction(value)
        dec = _TWELVE_DIGITS.divide(Decimal(frac.numerator), Decimal(frac.denominator))
    else:
        dec = _TWELVE_DIGITS.plus(Decimal(float(value)))
    return str(dec)


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
        return isinstance(other, SampleSpace) and self._elements == other._elements

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
        if n < 0:
            raise ValueError("power requires n >= 0")
        _require_size(len(self) ** n if len(self) else int(n == 0), "power space")
        import itertools

        return SampleSpace(itertools.product(self._elements, repeat=n))


def _exact_ints(values: Sequence[Scalar]) -> tuple[tuple[int, ...], int] | None:
    """All-exact values as int numerators over their least common
    denominator, which leaves ``gcd(den, *nums) == 1``; None when any
    value is a float."""
    try:
        den = math.lcm(*[v.denominator for v in values])
    except AttributeError:  # floats have no denominator
        return None
    return tuple(v.numerator * (den // v.denominator) for v in values), den


def _checked_ints(
    values: Sequence[Scalar], error: type[Exception], negative: str, non_finite: str
) -> tuple[tuple[int, ...], int] | None:
    """:func:`_exact_ints` of values that must be non-negative and finite.

    The first value that is not raises ``error`` with the ``negative``
    or ``non_finite`` template, formatted with the value.
    """
    ints = _exact_ints(values)
    if ints is None or min(ints[0], default=0) < 0:
        inf = math.inf
        for v in values:
            if not 0 <= v < inf:
                raise error((negative if v < 0 else non_finite).format(v))
    return ints


class _Vector:
    """Scalars indexed by the elements of a sample space.

    All-exact values are stored as int numerators ``_nums`` over one
    denominator ``_den`` in lowest common terms, ``gcd(den, *nums) == 1``,
    so equal vectors hold equal tuples and exact kernels run on ints.
    Their Fraction tuple ``_seq`` is built only when read.  Float and
    mixed values keep their tuple in ``_seq``, with ``_nums`` None.
    """

    __slots__ = ("_space", "_nums", "_den", "_seq")

    def _init(self, space: SampleSpace, values: tuple[Scalar, ...], ints) -> None:
        self._space = space
        self._seq = values
        self._nums, self._den = ints if ints is not None else (None, 1)

    @classmethod
    def _from_ints(cls, space: SampleSpace, nums: Iterable[int], den: int):
        """Trusted constructor for kernel results: only the gcd reduction."""
        nums = tuple(nums)
        divisor = math.gcd(den, *nums)
        if divisor != 1:
            den //= divisor
            nums = tuple([n // divisor for n in nums])
        vector = cls.__new__(cls)
        vector._space, vector._nums, vector._den, vector._seq = space, nums, den, None
        return vector

    @property
    def space(self) -> SampleSpace:
        return self._space

    def _scalars(self) -> tuple[Scalar, ...]:
        seq = self._seq
        if seq is None:
            den = self._den
            seq = self._seq = tuple([Fraction(n, den) for n in self._nums])
        return seq

    def _raw(self) -> tuple:
        """The ints when exact, the scalars otherwise: either has the
        values' zero pattern."""
        return self._seq if self._nums is None else self._nums

    def _floats(self) -> list[float]:
        """Each value as the nearest float.  Integer true division is
        correctly rounded, so ``n / den`` equals ``float(Fraction(n, den))``."""
        if self._nums is None:
            return [float(v) for v in self._seq]
        den = self._den
        return [n / den for n in self._nums]

    def _same_values(self, other: "_Vector") -> bool:
        """Pointwise equality of the values, for vectors on one space."""
        if self._nums is not None and other._nums is not None:
            return self._den == other._den and self._nums == other._nums
        return self._scalars() == other._scalars()

    def __call__(self, element: Label) -> Scalar:
        index = self._space.index(element)
        if self._seq is not None:
            return self._seq[index]
        return Fraction(self._nums[index], self._den)

    def items(self) -> Iterator[tuple[Label, Scalar]]:
        return zip(self._space.elements, self._scalars())


def label_str(label: Label) -> str:
    """Human-readable rendering of a space label (tuples without quotes)."""
    if isinstance(label, tuple):
        return "(" + ",".join(label_str(part) for part in label) + ")"
    return str(label)
