"""Natural-number multisets: accumulation, coefficients, enumeration."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .core import Label, SampleSpace, label_str
from .core import _require_bits, _require_doublings, _require_naturals, _require_operands, _require_size


class _Counted:
    """What multisets and evidence share: the natural ``_counts`` of the
    members :meth:`items` pairs them with, their sum and the ket text,
    zeros left out."""

    __slots__ = ("_counts",)

    @property
    def counts(self) -> tuple[int, ...]:
        return self._counts

    @property
    def size(self) -> int:
        return sum(self._counts)

    def __str__(self) -> str:
        parts = [f"{c}|{label_str(x)}>" for x, c in self.items() if c]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"

    def coefficient(self) -> int:
        """Multinomial coefficient K!/prod(c!) of the counts, refused when
        it has more than MAX_EXACT_BITS bits."""
        _require_bits("multinomial coefficient", (), self._counts)
        return _binomial_product(self._counts)


class Multiset(_Counted):
    """Finite map from sample-space elements to natural multiplicities.

    Counts are stored as a tuple aligned with the space's element
    order, so multisets are hashable and can themselves serve as
    sample-space labels (as draws of a fixed size do).
    """

    __slots__ = ("_space",)
    _NOUN = "multiset"

    def __init__(self, space: SampleSpace, counts: Sequence[int]):
        counts = tuple(counts)
        if len(counts) != len(space):
            raise ValueError("counts must align with the sample space")
        _require_naturals(counts, "multiplicity")
        self._space = space
        self._counts = counts

    @classmethod
    def from_counts(cls, space: SampleSpace, counts: Mapping[Label, int]) -> "Multiset":
        for elem in counts:
            space.index(elem)  # UnknownElementError for an element outside the space
        return cls(space, tuple(counts.get(x, 0) for x in space))

    @property
    def space(self) -> SampleSpace:
        return self._space

    def __call__(self, element: Label) -> int:
        return self._counts[self._space.index(element)]

    def support(self) -> tuple[Label, ...]:
        return tuple(x for x, c in self.items() if c)

    def items(self) -> Iterator[tuple[Label, int]]:
        return zip(self._space.elements, self._counts)

    def __add__(self, other: "Multiset") -> "Multiset":
        _require_operands((self, other), Multiset, "multiset summands")
        return Multiset(self._space, tuple(a + b for a, b in zip(self._counts, other._counts)))

    def scale(self, n: int) -> "Multiset":
        _require_naturals((n,), "scaling factor")
        return Multiset(self._space, tuple(n * c for c in self._counts))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Multiset)
            and self._space == other._space
            and self._counts == other._counts
        )

    def __hash__(self) -> int:
        return hash((self._space, self._counts))


def acc(seq: Iterable[Label], space: SampleSpace) -> Multiset:
    """Accumulate a sequence into the multiset of its occurrence counts."""
    counts = [0] * len(space)
    for element in seq:
        counts[space.index(element)] += 1
    return Multiset(space, counts)


def _binomial_product(counts: Sequence[int]) -> int:
    """The multinomial coefficient of ``counts`` as a product of
    binomials, so no intermediate exceeds the result; unchecked: each
    caller runs its own size check first."""
    total = sum(counts)
    result = 1
    for c in counts:
        result *= math.comb(total, c)
        total -= c
    return result


def coefm(phi: Multiset) -> int:
    """Number of sequences that accumulate to ``phi``."""
    _require_operands((phi,), Multiset, "coefm arguments")
    return phi.coefficient()


def _count_vectors(n: int, total: int) -> Iterator[tuple[int, ...]]:
    # Colexicographic: the count of the last element grows outermost, so
    # the printed listings stay in the conventional draw order.
    if n == 0:
        if total == 0:
            yield ()
        return
    if n == 1:
        yield (total,)
        return
    for last in range(total + 1):
        for rest in _count_vectors(n - 1, total - last):
            yield rest + (last,)


def enumerate_multisets(space: SampleSpace, size: int) -> list[Multiset]:
    """All multisets of exactly ``size`` over the space, in a fixed order.

    The order is colexicographic on count vectors under the space's
    element order; there are C(len(space)+size-1, size) of them.
    """
    _require_naturals((size,), "size")
    if len(space) > 1 and size:
        # C(n-1+size, size) is at least n-1+size and at least 2**min(n-1, size)
        top = len(space) - 1 + size
        _require_doublings(max(top.bit_length() - 1, min(len(space) - 1, size)), "multiset enumeration")
    count = math.comb(len(space) + size - 1, size) if len(space) else int(size == 0)
    _require_size(count, "multiset enumeration")
    return [Multiset(space, v) for v in _count_vectors(len(space), size)]


@lru_cache(maxsize=256, typed=True)  # True and 2.0 must not hit the entries of 1 and 2
def multiset_space(space: SampleSpace, size: int) -> SampleSpace:
    """Sample space whose labels are all multisets of the given size."""
    return SampleSpace(enumerate_multisets(space, size))
