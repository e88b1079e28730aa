"""Kullback-Leibler divergence between finite distributions."""

from __future__ import annotations

import math
from itertools import compress, repeat
from operator import mul, truediv

from .channel import Channel
from .core import _check_finite, _fsum, _require_operands
from .distribution import Dist
from .errors import LogBaseError, SupportMismatchError


def _exact_term(w: float, r: float, n: int, m: int, den: int, rho_den: int) -> float:
    """The term ``w * ln(w / r)`` of the exact weights ``n / den`` and
    ``m / rho_den``, whose floats are ``w`` and ``r``: on the floats, as
    for any other term, unless ``w`` or ``w / r`` is not a positive
    finite float; then the logarithm is read from the ints, as
    :func:`scalar_ln` reads an exact value."""
    ratio = w / r if r else 0.0
    if w > 0 and 0 < ratio < math.inf:
        return w * math.log(ratio)
    return w * (math.log(n) - math.log(den) - math.log(m) + math.log(rho_den))


def kl_divergence(sigma: Dist, rho: Dist, base: float | None = None) -> float:
    """Divergence sum_x sigma(x) * ln(sigma(x) / rho(x)), with 0*ln(0) = 0.

    Support inclusion supp(sigma) <= supp(rho) is checked on the exact
    weights before any float conversion.  ``base`` switches the
    logarithm base (e.g. 2 for bits); the default is the natural log.
    A base that is not a finite positive number other than one raises
    LogBaseError, and a divergence beyond the float range FloatRangeError.
    When both operands are exact, a term whose weight or ratio leaves the
    float range is read from exact logarithms, so the divergence is
    finite.  In every mode, a ``sigma`` weight whose float is 0.0 adds
    no term.
    """
    _require_operands((sigma,), Dist, "divergence arguments")
    _require_operands((rho,), Dist, "divergence arguments")
    if base is not None and not (0 < base < math.inf and base != 1):
        raise LogBaseError(f"logarithm base must be positive, finite and not 1, got {base!r}")
    if rho._space is not sigma._space and rho._space != sigma._space:
        rho = rho._padded(sigma._space._elements)
    rho_raw, rho_floats = rho._raw(), rho._floats()
    sigma_raw = sigma._raw()
    if 0 in compress(rho_raw, sigma_raw):  # only a failure walks the elements, to name the first
        for x, w, r in zip(sigma.space, sigma_raw, rho_raw):
            if w != 0 and r == 0:
                raise SupportMismatchError(f"divergence undefined: {x!r} outside second support")
    # the terms of sigma's float support, in order: a weight that rounds to 0.0 adds 0.0
    terms = sigma._floats()
    sigma_floats = list(compress(terms, terms))
    try:
        ratios = map(truediv, sigma_floats, compress(rho_floats, terms))
        total = _fsum(map(mul, sigma_floats, map(math.log, ratios)))
    except (ZeroDivisionError, ValueError):  # an exact rho weight that rounds to 0.0
        total = math.nan
    if not total < math.inf and sigma._nums is not None and rho._nums is not None:
        total = _fsum(map(_exact_term, sigma_floats, compress(rho_floats, terms), compress(sigma._nums, terms),
                          compress(rho._nums, terms), repeat(sigma._den), repeat(rho._den)))
    if base is not None:
        total /= math.log(base)
    return _check_finite(total, "divergence")


def expected_channel_divergence(sigma: Dist, rho: Dist, c: Channel, base: float | None = None) -> float:
    """Average divergence of ``rho`` from the channel rows under ``sigma``.

    Computes sum_z sigma(z) * KL(rho, c(z)); it bounds the divergence
    from the pushforward KL(rho, c >> sigma) from above.  ``sigma``
    lives on the channel's domain.
    """
    _require_operands((sigma,), Dist, "divergence arguments", _require_operands((c,), Channel, "divergence arguments"))
    total = 0.0
    for z, w, weight in zip(sigma.space, sigma._raw(), sigma._floats()):
        if w:
            total += weight * kl_divergence(rho, c.row(z), base=base)
    return total
