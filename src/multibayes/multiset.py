"""Natural-number multisets: accumulation, coefficients, enumeration."""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator, Mapping, Sequence

from .core import Label, SampleSpace, _require_size, label_str
from .errors import UnknownElementError


class Multiset:
    """Finite map from sample-space elements to natural multiplicities.

    Counts are stored as a tuple aligned with the space's element
    order, so multisets are hashable and can themselves serve as
    sample-space labels (as draws of a fixed size do).
    """

    __slots__ = ("_space", "_counts")

    def __init__(self, space: SampleSpace, counts: Sequence[int]):
        counts = tuple(counts)
        if len(counts) != len(space):
            raise ValueError("counts must align with the sample space")
        for c in counts:
            if not isinstance(c, int) or isinstance(c, bool) or c < 0:
                raise ValueError(f"multiplicities must be natural numbers, got {c!r}")
        self._space = space
        self._counts = counts

    @classmethod
    def from_counts(cls, space: SampleSpace, counts: Mapping[Label, int]) -> "Multiset":
        for elem in counts:
            if elem not in space:
                raise UnknownElementError(f"{elem!r} is not in the sample space")
        return cls(space, tuple(counts.get(x, 0) for x in space))

    @property
    def space(self) -> SampleSpace:
        return self._space

    @property
    def counts(self) -> tuple[int, ...]:
        return self._counts

    @property
    def size(self) -> int:
        return sum(self._counts)

    def __call__(self, element: Label) -> int:
        return self._counts[self._space.index(element)]

    def support(self) -> tuple[Label, ...]:
        return tuple(x for x, c in self.items() if c)

    def items(self) -> Iterator[tuple[Label, int]]:
        return zip(self._space.elements, self._counts)

    def __add__(self, other: "Multiset") -> "Multiset":
        if self._space != other._space:
            raise UnknownElementError("multisets over different spaces cannot be added")
        return Multiset(self._space, tuple(a + b for a, b in zip(self._counts, other._counts)))

    def scale(self, n: int) -> "Multiset":
        if n < 0:
            raise ValueError("scaling factor must be a natural number")
        return Multiset(self._space, tuple(n * c for c in self._counts))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Multiset)
            and self._space == other._space
            and self._counts == other._counts
        )

    def __hash__(self) -> int:
        return hash((self._space, self._counts))

    def __str__(self) -> str:
        parts = [f"{c}|{label_str(x)}>" for x, c in self.items() if c]
        return " + ".join(parts) if parts else "0"

    def __repr__(self) -> str:
        return f"Multiset({self})"


def acc(seq: Iterable[Label], space: SampleSpace) -> Multiset:
    """Accumulate a sequence into the multiset of its occurrence counts."""
    counts = [0] * len(space)
    for element in seq:
        counts[space.index(element)] += 1
    return Multiset(space, counts)


def coefm_counts(counts: Iterable[int]) -> int:
    """Multinomial coefficient K!/prod(c!) of a multiplicity vector."""
    counts = tuple(counts)
    result = math.factorial(sum(counts))
    for c in counts:
        result //= math.factorial(c)
    return result


def coefm(phi: Multiset) -> int:
    """Number of sequences that accumulate to ``phi``."""
    return coefm_counts(phi.counts)


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
    if size < 0:
        raise ValueError("size must be a natural number")
    count = math.comb(len(space) + size - 1, size) if len(space) else int(size == 0)
    _require_size(count, "multiset enumeration")
    return [Multiset(space, v) for v in _count_vectors(len(space), size)]


@lru_cache(maxsize=256)
def multiset_space(space: SampleSpace, size: int) -> SampleSpace:
    """Sample space whose labels are all multisets of the given size."""
    return SampleSpace(enumerate_multisets(space, size))
