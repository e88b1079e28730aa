"""Channels (conditional probability tables) and their transformations."""

from __future__ import annotations

import math
from operator import mul
from typing import Sequence

from .core import Label, SampleSpace, _check_finite, _fsum, _require_operands
from .distribution import Dist, dirac, multinomial
from .errors import ZeroValidityError
from .evidence import Evidence, Factor, point_pred
from .multiset import multiset_space
from .validity import _entry, _products


class Channel:
    """Map from domain elements to distributions on a codomain.

    A channel is immutable, so it keeps what :func:`push` and
    :func:`pull` reuse.  When every row is exact, ``_den`` is the lcm of
    the row denominators and ``_columns`` the columns as ints over it,
    both built here (else both None).  The float columns are built on
    the first float push.  A row that is not a Dist raises TypeError.
    """

    __slots__ = ("_dom", "_cod", "_rows", "_den", "_columns", "_float_columns")
    _NOUN = "channel"

    def __init__(self, dom: SampleSpace, cod: SampleSpace, rows: Sequence[Dist]):
        rows = tuple(rows)
        if len(rows) != len(dom):
            raise ValueError("need one row per domain element")
        _require_operands(rows, Dist, "channel rows", cod)
        self._dom = dom
        self._cod = cod
        self._rows = rows
        self._den = self._columns = self._float_columns = None
        if all(row._nums is not None for row in rows):
            den = self._den = math.lcm(*[row._den for row in rows])
            self._columns = list(zip(*[[n * (den // row._den) for n in row._nums] for row in rows]))

    @property
    def _space(self) -> SampleSpace:
        """The space the operand rule returns for a channel: its domain."""
        return self._dom

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
    """Pushforward (prediction): y -> sum_x omega(x) * c(x)(y), the
    mixture of the rows weighted by ``omega``: one dot product per
    column, on ints when every operand is exact, else one ``math.fsum``."""
    _require_operands((omega,), Dist, "push arguments", _require_operands((c,), Channel, "push arguments"))
    if omega._nums is not None and c._den is not None:
        nums = omega._nums
        return Dist._from_ints(c._cod, [sum(map(mul, nums, col)) for col in c._columns], omega._den * c._den)
    if c._float_columns is None:
        c._float_columns = tuple(zip(*[row._floats() for row in c._rows]))
    floats = omega._floats()  # convex weights: math.fsum cannot overflow
    return Dist._from_floats(c._cod, [math.fsum(map(mul, floats, col)) for col in c._float_columns])


def pull(c: Channel, q: Factor) -> Factor:
    """Pullback of a factor: x -> sum_y c(x)(y) * q(y), the validity of
    ``q`` in each row (a float one beyond the float range raises
    FloatRangeError)."""
    _require_operands((c,), Channel, "pull arguments")
    _require_operands((q,), Factor, "pull arguments", c._cod)
    if q._nums is not None and c._den is not None:
        nums, den = q._nums, c._den
        values = [sum(map(mul, row._nums, nums)) * (den // row._den) for row in c._rows]
        return Factor._from_ints(c._dom, values, den * q._den)
    values = [_fsum(_products(row, q)) for row in c._rows]
    _check_finite(max(values, default=0.0), "validity")  # a sum of finite products may overflow
    return Factor._from_floats(c._dom, values)


def triple_pull(c: Channel, psi: Evidence) -> Evidence:
    """Pull evidence factor-wise along the channel.

    Factors that become pointwise equal after pulling are merged by
    adding their multiplicities.
    """
    _require_operands((c,), Channel, "triple pull arguments")
    _require_operands((psi,), Evidence, "triple pull arguments")
    return Evidence((pull(c, q), count) for q, count in psi.items())


def dagger(c: Channel, omega: Dist) -> Channel:
    """Bayesian inversion of the channel at a prior distribution.

    Each codomain element maps to the prior conditioned on the pulled
    point predicate; a codomain element that the prediction gives zero
    probability has no well-defined row and raises ZeroValidityError.
    """
    _require_operands((omega,), Dist, "priors", _require_operands((c,), Channel, "dagger arguments"))
    rows = []
    for y in c.cod:
        row = _entry(omega, pull(c, point_pred(y, c.cod)), True)[2]
        if row is None:
            raise ZeroValidityError(f"prediction gives zero probability to {y!r}")
        rows.append(row)
    return Channel(c.cod, c.dom, rows)


def multinomial_channel(c: Channel, size: int) -> Channel:
    """Channel of draws: each domain element maps to the distribution of
    size-``size`` draws from its row."""
    _require_operands((c,), Channel, "multinomial channel arguments")
    cod = multiset_space(c.cod, size)
    return Channel(c.dom, cod, tuple(multinomial(size, row) for row in c.rows))
