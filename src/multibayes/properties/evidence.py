"""Properties of predicates and evidence: orthosupplement, the conjunctions and weakening."""

from __future__ import annotations

import math
from fractions import Fraction

from ..distribution import marginal, tensor_power
from ..evidence import and_conj, conj, falsity, frac_conj, ortho, tensor_conj, tensor_factor, truth
from ..validity import validity
from ._registry import _COD_LABELS, _dist, _evidence, _factor, _feq, _law, _register, _space


@_register("ortho-laws", "evidence")
def _ortho_laws(rng):
    space = _space(rng)
    p = _factor(rng, space)
    _law(ortho(ortho(p)) == p, "double orthosupplement changed {}", p)
    _law(p + ortho(p) == truth(space), "p + ~p != truth for {}", p)


@_register("conj-commutative-associative", "evidence")
def _conj_comm_assoc(rng):
    space = _space(rng)
    p, q, r = (_factor(rng, space, bound=2) for _ in range(3))
    _law(conj(p, q) == conj(q, p), "conjunction is not commutative")
    _law(conj(conj(p, q), r) == conj(p, conj(q, r)), "conjunction is not associative")
    _law(conj(p, truth(space)) == p and conj(p, falsity(space)) == falsity(space), "truth/falsity units broken")


@_register("weakening-marginal", "evidence")
def _weakening_marginal(rng):
    xs = _space(rng, max_size=3)
    ys = _space(rng, max_size=3, labels=_COD_LABELS)
    tau = _dist(rng, xs.product(ys), full_support=False)
    p = _factor(rng, xs)
    weakened = tensor_factor(p, truth(ys))
    _law(validity(tau, weakened) == validity(marginal(tau, 0), p), "weakening broke for tau={}, p={}", tau, p)


@_register("and-conj-additive", "evidence")
def _and_conj_additive(rng):
    space = _space(rng)
    psi = _evidence(rng, space, positive=False)
    chi = _evidence(rng, space, positive=False)
    _law(and_conj(psi + chi) == conj(and_conj(psi), and_conj(chi)),
         "conjunction of {} + {} is not multiplicative", psi, chi)


@_register("frac-conj-power", "evidence")
def _frac_conj_power(rng):
    space = _space(rng)
    psi = _evidence(rng, space, positive=False)
    lifted = frac_conj(psi) ** psi.size
    reference = and_conj(psi)
    for x in space:
        _law(_feq(float(lifted(x)), float(reference(x))), "frac-conj^K differs from full conjunction at {!r}", x)


@_register("tensor-conj-validity", "evidence", max_trials=300)
def _tensor_conj_validity(rng):
    space = _space(rng, max_size=3)
    psi = _evidence(rng, space, max_factors=2, max_size=4, positive=False)
    omega = _dist(rng, space, full_support=False)
    lhs = validity(tensor_power(omega, psi.size), tensor_conj(psi))
    rhs = math.prod(
        (validity(omega, p) ** c for p, c in psi.items()), start=Fraction(1)
    )
    _law(lhs == rhs, "product-space validity of {} != product of validities", psi)
