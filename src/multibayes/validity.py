"""Validity (expected value) of factors and of multiset evidence."""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Iterable

from .core import Scalar, _fsum, _power_bits, _require_coefficient_bits
from .distribution import Dist
from .errors import FloatRangeError, SpaceMismatchError, ZeroValidityError
from .evidence import Evidence, Factor, and_conj, _require_nonempty


def validity(omega: Dist, p: Factor) -> Scalar:
    """Expected value sum_x omega(x) * p(x); exact when the inputs are.
    A float validity beyond the float range raises FloatRangeError."""
    if omega.space != p.space:
        raise SpaceMismatchError("validity needs a distribution and factor on one space")
    if omega._nums is not None and p._nums is not None:
        return Fraction(sum(map(mul, omega._nums, p._nums)), omega._den * p._den)
    total = _fsum(map(mul, omega._floats(), p._floats()))
    if total == math.inf:
        raise FloatRangeError("validity overflows the float range")
    return total


def _coefficient_times(psi: Evidence, powers: Iterable[tuple[Scalar, int]]) -> Scalar:
    """The multinomial coefficient of ``psi`` times ``prod base**count``;
    exact when every base is.  A float product that overflows raises
    FloatRangeError; an exact one estimated at more than MAX_EXACT_BITS
    bits raises SizeLimitError before it is computed."""
    powers = list(powers)
    bits = sum([_power_bits(max(b.numerator, b.denominator), count) for b, count in powers if type(b) is Fraction])
    _require_coefficient_bits(psi.counts, "validity of the evidence", bits)
    result = psi.coefficient()
    try:
        for base, count in powers:
            result = result * base**count
    except OverflowError:
        result = math.inf
    if isinstance(result, float) and not result < math.inf:
        raise FloatRangeError("validity of the evidence overflows the float range")
    return result


def jeffrey_validity(omega: Dist, psi: Evidence) -> Scalar:
    """Independent likelihood of evidence: multinomial coefficient times
    the product of per-factor validities raised to their multiplicities."""
    _require_nonempty(psi)
    return _coefficient_times(psi, [(validity(omega, factor), count) for factor, count in psi.items()])


def pearl_validity(omega: Dist, psi: Evidence) -> Scalar:
    """Dependent likelihood of evidence: multinomial coefficient times
    the validity of the iterated conjunction of all factors."""
    _require_nonempty(psi)
    return _coefficient_times(psi, [(validity(omega, and_conj(psi)), 1)])


def covariance(omega: Dist, p1: Factor, p2: Factor) -> Scalar:
    """Covariance of two factors under a distribution.  A float result
    that is not finite raises FloatRangeError."""
    result = validity(omega, p1 & p2) - validity(omega, p1) * validity(omega, p2)
    if isinstance(result, float) and not math.isfinite(result):
        raise FloatRangeError(f"covariance {result} is not a finite float")
    return result


def log_likelihood_score(omega: Dist, omega_prime: Dist, psi: Evidence) -> float:
    """Frequency-weighted expected log-ratio of per-factor validities.

    Non-positive exactly when the Jeffrey validity of the evidence in
    ``omega`` does not exceed the one in ``omega_prime``; the
    multinomial coefficient cancels in the ratio.
    """
    _require_nonempty(psi)
    total = psi.size
    score = 0.0
    for factor, count in psi.items():
        val = validity(omega, factor)
        val_prime = validity(omega_prime, factor)
        if val <= 0 or val_prime <= 0:
            raise ZeroValidityError(f"zero validity for evidence factor {factor}")
        score += (count / total) * math.log(float(val) / float(val_prime))
    return score
