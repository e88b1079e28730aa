"""Channels (conditional probability tables) and their transformations."""

from __future__ import annotations

import math
from operator import mul
from typing import Sequence

from .core import Label, SampleSpace, _fsum
from .distribution import Dist, dirac, multinomial
from .errors import FloatRangeError, SpaceMismatchError, ZeroValidityError
from .evidence import Evidence, Factor, point_pred
from .multiset import multiset_space
from .update import _posterior


class Channel:
    """Map from domain elements to distributions on a codomain.

    A channel is immutable, so the matrices that :func:`push` and
    :func:`pull` run on are built once, on first use: the exact rows
    over their common denominator with the columns of that matrix, and
    the columns of the rows' float views.
    """

    __slots__ = ("_dom", "_cod", "_rows", "_exact", "_float_columns")

    def __init__(self, dom: SampleSpace, cod: SampleSpace, rows: Sequence[Dist]):
        rows = tuple(rows)
        if len(rows) != len(dom):
            raise ValueError("need one row per domain element")
        for row in rows:
            if row.space != cod:
                raise SpaceMismatchError("every row must be a distribution on the codomain")
        self._dom = dom
        self._cod = cod
        self._rows = rows
        self._exact = None
        self._float_columns = None

    @property
    def dom(self) -> SampleSpace:
        return self._dom

    @property
    def cod(self) -> SampleSpace:
        return self._cod

    @property
    def rows(self) -> tuple[Dist, ...]:
        return self._rows

    def row(self, x: Label) -> Dist:
        return self._rows[self._dom.index(x)]

    def __call__(self, x: Label) -> Dist:
        return self.row(x)

    def _exact_matrix(self) -> tuple[int, tuple, tuple] | None:
        """``(den, rows, columns)``: the rows' ints over their common
        denominator ``den`` and the columns of that matrix; None when a
        row is float."""
        if self._exact is None:
            rows = self._rows
            if all(row._nums is not None for row in rows):
                den = math.lcm(*(row._den for row in rows))
                scaled = tuple([tuple([n * (den // row._den) for n in row._nums]) for row in rows])
                self._exact = (den, scaled, tuple(zip(*scaled)))
            else:
                self._exact = ()
        return self._exact or None

    def _floats_by_column(self) -> tuple[tuple[float, ...], ...]:
        """The columns of the rows' float views."""
        if self._float_columns is None:
            self._float_columns = tuple(zip(*(row._floats() for row in self._rows)))
        return self._float_columns

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Channel):
            return NotImplemented
        return self._dom == other._dom and self._rows == other._rows

    def __repr__(self) -> str:
        lines = ", ".join(f"{x!r} -> {row}" for x, row in zip(self._dom, self._rows))
        return f"Channel({lines})"


def identity_channel(space: SampleSpace) -> Channel:
    return Channel(space, space, tuple(dirac(x, space) for x in space))


def push(c: Channel, omega: Dist) -> Dist:
    """Pushforward (prediction): y -> sum_x omega(x) * c(x)(y).

    On exact operands, one int dot product per column of the channel's
    common-denominator matrix; else one float sum per column.
    """
    if omega.space != c.dom:
        raise SpaceMismatchError("distribution must live on the channel domain")
    matrix = c._exact_matrix() if omega._nums is not None else None
    if matrix is not None:
        den, _, columns = matrix
        return Dist._from_ints(c.cod, [sum(map(mul, omega._nums, col)) for col in columns], omega._den * den)
    floats = omega._floats()
    return Dist._from_floats(c.cod, [_fsum(map(mul, floats, col)) for col in c._floats_by_column()])


def pull(c: Channel, q: Factor) -> Factor:
    """Pullback of a factor: x -> sum_y c(x)(y) * q(y).

    On exact operands, one int dot product per row of the channel's
    common-denominator matrix; else one float sum per row on the float
    views, as a float validity is (an overflow raises FloatRangeError).
    """
    if q.space != c.cod:
        raise SpaceMismatchError("factor must live on the channel codomain")
    matrix = c._exact_matrix() if q._nums is not None else None
    if matrix is not None:
        den, rows, _ = matrix
        return Factor._from_ints(c.dom, [sum(map(mul, row, q._nums)) for row in rows], den * q._den)
    floats = q._floats()
    values = [_fsum(map(mul, row._floats(), floats)) for row in c.rows]
    if math.inf in values:
        raise FloatRangeError("validity overflows the float range")
    return Factor._from_floats(c.dom, values)


def triple_pull(c: Channel, psi: Evidence) -> Evidence:
    """Pull evidence factor-wise along the channel.

    Factors that become pointwise equal after pulling are merged by
    adding their multiplicities.
    """
    return Evidence((pull(c, q), count) for q, count in psi.items())


def dagger(c: Channel, omega: Dist) -> Channel:
    """Bayesian inversion of the channel at a prior distribution.

    Each codomain element maps to the prior conditioned on the pulled
    point predicate; a codomain element that the prediction gives zero
    probability has no well-defined row and raises ZeroValidityError.
    """
    rows = []
    for y in c.cod:
        row = _posterior(omega, pull(c, point_pred(y, c.cod)))
        if row is None:
            raise ZeroValidityError(f"prediction gives zero probability to {y!r}")
        rows.append(row)
    return Channel(c.cod, c.dom, rows)


def multinomial_channel(c: Channel, size: int) -> Channel:
    """Channel of draws: each domain element maps to the distribution of
    size-``size`` draws from its row."""
    cod = multiset_space(c.cod, size)
    return Channel(c.dom, cod, tuple(multinomial(size, row) for row in c.rows))
