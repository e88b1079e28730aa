"""Updating distributions with factors and with multiset evidence.

Four rules live here: plain Bayesian conditioning on one factor,
Jeffrey's mixture of single-factor updates, Pearl's single update with
the full conjunction, and the variational-free-energy (VFE) update
with the geometric-mean conjunction.  Everything stays exact except
the VFE rule, which is inherently float.
"""

from __future__ import annotations

import math
import reprlib
from typing import Sequence

from .core import Scalar, _check_finite, _fsum, _product, _require_operands
from .distribution import Dist, _mix, _Weights
from .divergence import kl_divergence
from .errors import EmptyEvidenceError, ZeroValidityError
from .evidence import Evidence, Factor, and_conj, frac_conj
from .validity import _entry, _per_factor, _read


def _posterior(omega: Dist, p: Factor) -> Dist:
    """:func:`bayes_update` of operands already checked, kept in the
    memo of ``p``."""
    posterior = _entry(omega, p, True)[2]
    if posterior is None:
        raise ZeroValidityError(f"cannot update: validity of {reprlib.repr(p)} is zero")
    return posterior


def bayes_update(omega: Dist, p: Factor) -> Dist:
    """Condition a distribution on a factor: x -> omega(x)*p(x) / (omega |= p);
    a zero validity raises ZeroValidityError naming ``p`` (abridged)."""
    space = _require_operands((omega,), Dist, "priors")
    _require_operands((p,), Factor, "update arguments", space)
    return _posterior(omega, p)


def iterated_pearl_validity(omega: Dist, ps: Sequence[Factor]) -> Scalar:
    """Chained dependent validity: each factor is evaluated in the
    distribution already updated with all previous ones.

    Equals the validity of the conjunction of all factors, in any
    order.  Raises ZeroValidityError naming the failing prefix when a
    mid-chain validity hits zero.
    """
    if not ps:
        raise EmptyEvidenceError("need at least one factor")
    _require_operands(ps, Factor, "validity arguments", _require_operands((omega,), Dist, "priors"))
    current, last = omega, len(ps) - 1
    validities = []
    for index, p in enumerate(ps):
        # one pass gives the normaliser and the posterior, kept in the memo of p
        _, norm, posterior = _entry(current, p, index < last)
        val = _read(current, p, norm)
        if val == 0:
            raise ZeroValidityError(
                f"validity vanished at factor #{index} after updating with the first {index}"
            )
        validities.append(val)
        current = posterior
    try:
        result = _product(validities)
    except OverflowError:
        result = math.inf
    return _check_finite(result, "iterated validity")


def jeffrey_update(omega: Dist, psi: Evidence) -> Dist:
    """Mixture of single-factor updates, weighted by evidence frequencies."""
    posteriors = _per_factor(omega, psi, True)
    return _mix(omega._space, _Weights._from_ints(None, psi.counts, psi.size), posteriors)


def pearl_update(omega: Dist, psi: Evidence) -> Dist:
    """Single Bayesian update with the conjunction of all evidence factors.

    A zero validity of the conjunction signals inconsistent evidence.
    """
    conj = and_conj(psi)
    _require_operands((omega,), Dist, "priors", conj._space)
    return _posterior(omega, conj)


def vfe_update(omega: Dist, psi: Evidence) -> Dist:
    """Update with the geometric-mean conjunction of the evidence (float).

    Preconditions: every support factor has nonzero validity, and so
    does the fractional conjunction itself.
    """
    _per_factor(omega, psi, False)
    return _posterior(omega, frac_conj(psi))


def vfe_update_softmax(omega: Dist, psi: Evidence) -> Dist:
    """Softmax form of the VFE update: normalised exponentials of the
    frequency-weighted expected log-posteriors.

    Agrees with :func:`vfe_update` up to float rounding; kept as an
    independent route for cross-checking.
    """
    frequencies, posteriors = zip(*_factor_posteriors(omega, psi))
    raw = []
    for floats in zip(*(p._floats() for p in posteriors)):
        if 0.0 in floats:  # where the prior is zero, or an exact weight underflows as a float
            raw.append(0.0)
            continue
        log_sum = 0.0
        for frequency, weight in zip(frequencies, floats):
            log_sum += frequency * math.log(weight)
        raw.append(math.exp(log_sum))
    norm = _fsum(raw)
    if norm == 0:
        raise ZeroValidityError("softmax normalisation vanished")
    return Dist._from_floats(omega.space, [v / norm for v in raw])


def free_energy_objective(rho: Dist, omega: Dist, psi: Evidence) -> float:
    """Frequency-weighted divergence from the single-factor posteriors.

    Computes sum_p freq(p) * KL(rho, omega|p); the VFE update is its
    argmin over rho, and the objective exceeds the minimum by exactly
    KL(rho, vfe_update(omega, psi)).
    """
    return _free_energy(rho, _factor_posteriors(omega, psi))


def _factor_posteriors(omega: Dist, psi: Evidence) -> list[tuple[float, Dist]]:
    """(freq(p), omega|p) for each factor p of psi, in its order."""
    posteriors = _per_factor(omega, psi, True)
    total = psi.size
    return [(count / total, posterior) for count, posterior in zip(psi.counts, posteriors)]


def _free_energy(rho: Dist, posteriors: list[tuple[float, Dist]]) -> float:
    """The objective from :func:`_factor_posteriors`, added left to right."""
    objective = 0.0
    for freq, posterior in posteriors:
        objective += freq * kl_divergence(rho, posterior)
    return objective
