"""Updating distributions with factors and with multiset evidence.

Four rules live here: plain Bayesian conditioning on one factor,
Jeffrey's mixture of single-factor updates, Pearl's single update with
the full conjunction, and the variational-free-energy (VFE) update
with the geometric-mean conjunction.  Everything stays exact except
the VFE rule, which is inherently float.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Callable, Sequence

from .core import Scalar
from .distribution import Dist, _mix, _mixture_weights, convex_sum
from .divergence import kl_divergence
from .errors import NonConvexWeightsError, SpaceMismatchError, ZeroValidityError
from .evidence import Evidence, Factor, and_conj, frac_conj, _require_nonempty
from .validity import validity


def _posterior(omega: Dist, p: Factor) -> Dist | None:
    """Bayes update of ``omega`` with ``p``, None when ``p`` has zero validity."""
    if omega._nums is not None and p._nums is not None:
        if omega.space != p.space:
            raise SpaceMismatchError("validity needs a distribution and factor on one space")
        products = list(map(mul, omega._nums, p._nums))
        total = sum(products)
        return Dist._from_ints(omega.space, products, total) if total else None
    norm = validity(omega, p)
    if norm == 0:
        return None
    return Dist(omega.space, tuple(w * v / norm for w, v in zip(omega.weights, p.values)))


def bayes_update(omega: Dist, p: Factor) -> Dist:
    """Condition a distribution on a factor: x -> omega(x)*p(x) / (omega |= p)."""
    posterior = _posterior(omega, p)
    if posterior is None:
        raise ZeroValidityError(f"cannot update: validity of {p} is zero")
    return posterior


def _per_factor(omega: Dist, psi: Evidence, evaluate: Callable) -> list:
    """``evaluate(omega, factor)`` for each evidence factor, in order.

    A zero or None result means the factor has zero validity, which
    raises ZeroValidityError naming the factor.
    """
    _require_nonempty(psi)
    results = []
    for index, factor in enumerate(psi.factors):
        result = evaluate(omega, factor)
        if result is None or result == 0:
            raise ZeroValidityError(f"evidence factor #{index} ({factor}) has zero validity")
        results.append(result)
    return results


def iterated_pearl_validity(omega: Dist, ps: Sequence[Factor]) -> Scalar:
    """Chained dependent validity: each factor is evaluated in the
    distribution already updated with all previous ones.

    Equals the validity of the conjunction of all factors, in any
    order.  Raises ZeroValidityError naming the failing prefix when a
    mid-chain validity hits zero.
    """
    if not ps:
        raise ValueError("need at least one factor")
    current = omega
    result: Scalar = Fraction(1)
    for index, p in enumerate(ps):
        val = validity(current, p)
        if val == 0:
            raise ZeroValidityError(
                f"validity vanished at factor #{index} after updating with the first {index}"
            )
        result = result * val
        if index + 1 < len(ps):
            current = bayes_update(current, p)
    return result


def jeffrey_update(omega: Dist, psi: Evidence) -> Dist:
    """Mixture of single-factor updates, weighted by evidence frequencies."""
    posteriors = _per_factor(omega, psi, _posterior)
    total = psi.size
    return convex_sum([Fraction(count, total) for count in psi.counts], posteriors)


def jeffrey_update_weighted(omega: Dist, weighted_factors: Sequence[tuple[Factor, Scalar]]) -> Dist:
    """Jeffrey update with real-valued, pre-normalised factor weights.

    Extension of :func:`jeffrey_update` beyond natural multiplicities;
    the weights must be non-negative and sum to one.
    """
    if not weighted_factors:
        raise NonConvexWeightsError("need at least one weighted factor")
    weights, ints = _mixture_weights([w for _, w in weighted_factors])
    posteriors = [bayes_update(omega, factor) for factor, _ in weighted_factors]
    return _mix(omega.space, weights, ints, posteriors)


def pearl_update(omega: Dist, psi: Evidence) -> Dist:
    """Single Bayesian update with the conjunction of all evidence factors.

    A zero validity of the conjunction signals inconsistent evidence.
    """
    _require_nonempty(psi)
    return bayes_update(omega, and_conj(psi))


def vfe_update(omega: Dist, psi: Evidence) -> Dist:
    """Update with the geometric-mean conjunction of the evidence (float).

    Preconditions: every support factor has nonzero validity, and so
    does the fractional conjunction itself.
    """
    _per_factor(omega, psi, validity)
    return bayes_update(omega.to_float(), frac_conj(psi))


def vfe_update_softmax(omega: Dist, psi: Evidence) -> Dist:
    """Softmax form of the VFE update: normalised exponentials of the
    frequency-weighted expected log-posteriors.

    Agrees with :func:`vfe_update` up to float rounding; kept as an
    independent route for cross-checking.
    """
    posteriors = _per_factor(omega, psi, _posterior)
    total = psi.size
    raw = []
    for x in omega.space:
        if omega(x) == 0:
            raw.append(0.0)
            continue
        log_sum = 0.0
        for (_, count), posterior in zip(psi.items(), posteriors):
            weight = posterior(x)
            if weight == 0:
                log_sum = -math.inf
                break
            log_sum += (count / total) * math.log(float(weight))
        raw.append(math.exp(log_sum) if log_sum > -math.inf else 0.0)
    norm = sum(raw)
    if norm == 0:
        raise ZeroValidityError("softmax normalisation vanished")
    return Dist(omega.space, tuple(v / norm for v in raw))


def free_energy_objective(rho: Dist, omega: Dist, psi: Evidence) -> float:
    """Frequency-weighted divergence from the single-factor posteriors.

    Computes sum_p freq(p) * KL(rho, omega|p); the VFE update is its
    argmin over rho, and the objective exceeds the minimum by exactly
    KL(rho, vfe_update(omega, psi)).
    """
    _require_nonempty(psi)
    total = psi.size
    objective = 0.0
    for factor, count in psi.items():
        posterior = bayes_update(omega, factor)
        objective += (count / total) * kl_divergence(rho, posterior)
    return objective

