"""Properties of distributions: copying, multinomial draws and their accumulation."""

from __future__ import annotations

from fractions import Fraction

from ..distribution import copy_dist, dirac, multinomial, push_function, tensor, tensor_power
from ..multiset import acc
from . import _dist, _law, _prior, _register, _space


@_register("copy-iff-dirac", "distribution")
def _copy_iff_dirac(rng):
    space = _space(rng, max_size=4)
    if rng.random() < 0.3:
        omega = dirac(rng.choice(space.elements), space)
    else:
        omega = _dist(rng, space)
    copied = copy_dist(omega)
    product = tensor(omega, omega)
    is_dirac = len(omega.support()) == 1
    _law(not is_dirac or copied == product, "copy of point distribution {} differs from its square", omega)
    _law(is_dirac or copied != product, "copy equals square for non-point {}", omega)


@_register("multinomial-sums-to-one", "distribution", max_trials=400)
def _multinomial_sums_to_one(rng):
    _, omega = _prior(rng, max_size=4, full_support=False)
    size = rng.randint(0, 5)
    total = sum(multinomial(size, omega).weights, Fraction(0))
    _law(total == 1, "multinomial({}, {}) sums to {}", size, omega, total)


@_register("multinomial-acc-pushforward", "distribution", max_trials=300)
def _multinomial_acc_pushforward(rng):
    space, omega = _prior(rng, max_size=3, full_support=False)
    size = rng.randint(0, 3)
    pushed = push_function(lambda t: acc(t, space), tensor_power(omega, size))
    _law(pushed == multinomial(size, omega), "accumulated {}-fold power of {} != draw distribution", size, omega)
