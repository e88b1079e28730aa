"""Validity (expected value) of factors and of multiset evidence."""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul

from .core import Scalar
from .distribution import Dist
from .errors import SpaceMismatchError, ZeroValidityError
from .evidence import Evidence, Factor, and_conj, _require_nonempty

_ZERO = Fraction(0)


def validity(omega: Dist, p: Factor) -> Scalar:
    """Expected value sum_x omega(x) * p(x); exact when the inputs are."""
    if omega.space != p.space:
        raise SpaceMismatchError("validity needs a distribution and factor on one space")
    if omega._nums is not None and p._nums is not None:
        return Fraction(sum(map(mul, omega._nums, p._nums)), omega._den * p._den)
    return sum((w * v for w, v in zip(omega.weights, p.values)), _ZERO)


def jeffrey_validity(omega: Dist, psi: Evidence) -> Scalar:
    """Independent likelihood of evidence: multinomial coefficient times
    the product of per-factor validities raised to their multiplicities."""
    _require_nonempty(psi)
    result: Scalar = Fraction(psi.coefficient())
    for factor, count in psi.items():
        result = result * validity(omega, factor) ** count
    return result


def pearl_validity(omega: Dist, psi: Evidence) -> Scalar:
    """Dependent likelihood of evidence: multinomial coefficient times
    the validity of the iterated conjunction of all factors."""
    _require_nonempty(psi)
    return Fraction(psi.coefficient()) * validity(omega, and_conj(psi))


def covariance(omega: Dist, p1: Factor, p2: Factor) -> Scalar:
    """Covariance of two factors under a distribution."""
    return validity(omega, p1 & p2) - validity(omega, p1) * validity(omega, p2)


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
