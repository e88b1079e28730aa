"""Validity (expected value) of factors and of multiset evidence.

What the update rules and the validities compute per factor depends
only on the prior and the factor, so it is kept on the factor: for the
last prior it met, each factor keeps its normaliser ``omega |= p`` and,
once a rule has built it, its posterior ``omega|p``.  :func:`_entry` is
the one place a normaliser is computed, range-checked and kept.
:func:`validity`, :func:`covariance`, the rules and every evidence over
one prior that holds the factor read it; Pearl's rule reads its
conjunction's the same way.
"""

from __future__ import annotations

import math
import reprlib
import sys
from fractions import Fraction
from itertools import repeat
from operator import mul, truediv
from typing import Iterable

from .core import Scalar, _check_finite, _fsum, _product, _require_bits, _require_operands, scalar_ln
from .distribution import Dist
from .errors import FloatRangeError, ZeroValidityError
from .evidence import Evidence, Factor, and_conj, _require_nonempty
from .multiset import _binomial_product


def _norm(omega: Dist, p: Factor) -> int | float:
    """The normaliser of ``omega`` and ``p`` on one space: the validity
    as the kernels compute it, an int over ``omega._den * p._den`` when
    both are exact, else a float (inf when the sum overflows)."""
    if omega._nums is not None and p._nums is not None:
        return sum(map(mul, omega._nums, p._nums))
    return _fsum(_products(omega, p))


def _products(omega: Dist, p: Factor) -> list[float]:
    """Each ``omega(x) * p(x)`` as a float, on the float views, or each by
    :func:`_product` where a value of ``p`` is beyond the float range."""
    try:
        return list(map(mul, omega._floats(), p._floats()))
    except FloatRangeError:  # a value of p beyond the float range
        return [_product(((w, 1), (v, 1)), "validity") for w, v in zip(omega._floats(), p._scalars())]


def _read(omega: Dist, p: Factor, norm: int | float) -> Scalar:
    """The validity whose normaliser is ``norm``: a Fraction when exact."""
    return Fraction(norm, omega._den * p._den) if type(norm) is int else norm


def _update(omega: Dist, p: Factor) -> tuple[Dist | None, int | float]:
    """Bayes update of ``omega`` with ``p`` on one space and its
    normaliser; the update is None when the normaliser is zero, or a
    float beyond the float range."""
    if omega._nums is not None and p._nums is not None:
        products = list(map(mul, omega._nums, p._nums))
        total = sum(products)
        return (Dist._from_ints(omega._space, products, total) if total else None), total
    products = _products(omega, p)
    norm = _fsum(products)
    if not 0 < norm < math.inf:
        return None, norm
    return Dist._from_floats(omega._space, map(truediv, products, repeat(norm))), norm


def validity(omega: Dist, p: Factor) -> Scalar:
    """Expected value sum_x omega(x) * p(x); exact when the inputs are.
    A float validity beyond the float range raises FloatRangeError."""
    space = _require_operands((omega,), Dist, "priors")
    _require_operands((p,), Factor, "validity arguments", space)
    return _read(omega, p, _entry(omega, p)[1])


def _entry(omega: Dist, p: Factor, posterior: bool = False) -> list:
    """The memo ``[omega, normaliser, posterior]`` of ``p``, a new one
    unless ``omega`` is the very prior ``p`` last met, with the
    normaliser filled and, when ``posterior``, the posterior too (None
    when the normaliser is zero).  The one place a normaliser is
    computed and checked: a float one beyond the float range raises
    FloatRangeError and is not stored.  The caller has checked that
    ``omega`` is a distribution on the space of ``p``."""
    memo = p._memo
    if memo is None or memo[0] is not omega:
        memo = p._memo = [omega, None, None]
    if memo[1] is None or (posterior and memo[2] is None and memo[1] != 0):
        update, norm = _update(omega, p) if posterior else (None, _norm(omega, p))
        memo[2], memo[1] = update, _check_finite(norm, "validity")
    return memo


def _per_factor(omega: Dist, psi: Evidence, posteriors: bool) -> list:
    """Each evidence factor's posterior when ``posteriors``, else its
    normaliser, in order, read from the factors' memos.

    Each is computed when first asked for, factor by factor: a caller
    that stops at a factor computes no later one, and an error raised
    at a factor is raised again by the next caller.  A factor with zero
    validity raises ZeroValidityError naming the factor (abridged), and
    a float validity beyond the float range FloatRangeError.
    """
    _require_operands((omega,), Dist, "priors", _require_nonempty(psi))
    result = []
    for index, p in enumerate(psi.factors):
        _, norm, posterior = _entry(omega, p, posteriors)
        if norm == 0:
            raise ZeroValidityError(f"evidence factor #{index} ({reprlib.repr(p)}) has zero validity")
        result.append(posterior if posteriors else norm)
    return result


def _coefficient_times(psi: Evidence, powers: Iterable[tuple[Scalar, int]]) -> Scalar:
    """The multinomial coefficient of ``psi`` times ``prod base**count``;
    exact when every base is, on the ints with one reduction at the end
    (not one gcd per factor), else by :func:`_product`.  An exact one
    estimated at more than MAX_EXACT_BITS bits raises SizeLimitError
    before it is computed.  A float one raises FloatRangeError beyond
    the float range, and where a coefficient beyond it meets a float
    base of 0.0, which may be a value that underflowed."""
    powers = list(powers)
    tops = [(max(b.numerator, b.denominator), count) for b, count in powers if type(b) is Fraction]
    _require_bits("validity of the evidence", tops, psi.counts)
    result = _binomial_product(psi.counts)
    if all(type(base) is Fraction for base, _ in powers):
        den = 1
        for base, count in powers:
            result *= base.numerator**count
            den *= base.denominator**count
        return Fraction(result, den)
    if result > sys.float_info.max and any(type(base) is float and not base for base, _ in powers):
        raise FloatRangeError("validity of the evidence overflows the float range")
    return _product([(result, 1), *powers], "validity of the evidence")


def jeffrey_validity(omega: Dist, psi: Evidence) -> Scalar:
    """Independent likelihood of evidence: multinomial coefficient times
    the product of per-factor validities raised to their multiplicities."""
    _require_operands((omega,), Dist, "priors", _require_nonempty(psi))
    validities = [_read(omega, p, _entry(omega, p)[1]) for p in psi.factors]
    return _coefficient_times(psi, zip(validities, psi.counts))


def pearl_validity(omega: Dist, psi: Evidence) -> Scalar:
    """Dependent likelihood of evidence: multinomial coefficient times
    the validity of the iterated conjunction of all factors."""
    conj = and_conj(psi)
    _require_operands((omega,), Dist, "priors", conj._space)
    return _coefficient_times(psi, [(_read(omega, conj, _entry(omega, conj)[1]), 1)])


def covariance(omega: Dist, p1: Factor, p2: Factor) -> Scalar:
    """Covariance of two factors under a distribution.  A float result
    that is not finite raises FloatRangeError."""
    _require_operands((p1, p2), Factor, "covariance arguments", _require_operands((omega,), Dist, "priors"))
    joint = validity(omega, p1 & p2)
    return joint - _product(((validity(omega, p1), 1), (validity(omega, p2), 1)), "covariance")


def log_likelihood_score(omega: Dist, omega_prime: Dist, psi: Evidence) -> float:
    """Frequency-weighted expected log-ratio of per-factor validities.

    Non-positive exactly when the Jeffrey validity of the evidence in
    ``omega`` does not exceed the one in ``omega_prime``; the
    multinomial coefficient cancels in the ratio.
    """
    norms = _per_factor(omega, psi, False)
    norms_prime = _per_factor(omega_prime, psi, False)
    total = psi.size
    score = 0.0
    for (factor, count), norm, norm_prime in zip(psi.items(), norms, norms_prime):
        log_ratio = scalar_ln(_read(omega, factor, norm)) - scalar_ln(_read(omega_prime, factor, norm_prime))
        score += (count / total) * log_ratio
    return score
