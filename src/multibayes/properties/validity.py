"""Properties of validity: its laws, the Jeffrey and Pearl evidence validities and the paper's gaps."""

from __future__ import annotations

from fractions import Fraction

from ..core import SampleSpace
from ..distribution import Dist, copy_dist, flrn, multinomial, tensor, uniform
from ..evidence import Evidence, Factor, conj, falsity, ortho, point_evidence, point_pred, scale, tensor_factor, truth
from ..models import grid_values, medical_grid_spec
from ..multiset import acc, enumerate_multisets
from ..validity import covariance, jeffrey_validity, log_likelihood_score, pearl_validity, validity
from . import (
    FLOAT_SLACK,
    _COD_LABELS,
    _dist,
    _evidence,
    _factor,
    _figures,
    _law,
    _perfect_pack,
    _point_multiset,
    _prior,
    _register,
    _register_run,
    _space,
    _sweep,
)


@_register("validity-laws", "validity")
def _validity_laws(rng):
    space = _space(rng, max_size=4)
    other = _space(rng, max_size=3, labels=_COD_LABELS)
    omega = _dist(rng, space, full_support=False)
    rho = _dist(rng, other, full_support=False)
    p = _factor(rng, space)
    q = _factor(rng, space)
    x = rng.choice(space.elements)
    s = Fraction(rng.randint(0, 24), 12)
    _law(validity(omega, truth(space)) == 1 and validity(omega, falsity(space)) == 0,
         "truth/falsity validities broken")
    _law(validity(omega, point_pred(x, space)) == omega(x), "point-predicate validity differs from weight at {!r}", x)
    _law(validity(omega, p + q) == validity(omega, p) + validity(omega, q), "validity is not additive")
    _law(validity(omega, scale(s, p)) == s * validity(omega, p), "validity is not homogeneous")
    _law(validity(omega, p + q) >= validity(omega, p), "validity is not monotone")
    _law(validity(omega, ortho(p)) == 1 - validity(omega, p), "orthosupplement validity law broken")
    q_other = _factor(rng, other)
    _law(validity(tensor(omega, rho), tensor_factor(p, q_other)) == validity(omega, p) * validity(rho, q_other),
         "tensor validity law broken")
    _law(validity(omega, conj(p, q)) == validity(copy_dist(omega), tensor_factor(p, q)),
         "copy/conjunction validity law broken")


@_register("matching-bounds", "validity")
def _matching_bounds(rng):
    space = _space(rng)
    parts = rng.randint(2, 3)
    pack = _perfect_pack(rng, space, parts + 1)[:parts]  # drop one part: still a match
    if len(set(pack)) < parts:
        return None  # equal parts merge into one factor of the evidence
    counts = [rng.randint(1, 2) for _ in pack]
    psi = Evidence(zip(pack, counts))
    omega = _dist(rng, space, full_support=False)
    jv = jeffrey_validity(omega, psi)
    pv = pearl_validity(omega, psi)
    _law(0 <= jv <= 1, "Jeffrey validity {} outside the unit interval", jv)
    _law(0 <= pv <= 1, "Pearl validity {} outside the unit interval", pv)


@_register("perfect-match-normalisation", "validity")
def _perfect_match_normalisation(rng):
    space = _space(rng, max_size=5)
    parts = rng.randint(2, 3)
    pack = _perfect_pack(rng, space, parts)
    if len(set(pack)) < parts:
        return None  # equal parts merge, and the evidence over the index counts them twice
    omega = _dist(rng, space, full_support=False)
    size = rng.randint(1, 4)
    index = SampleSpace(range(parts))
    j_total = Fraction(0)
    p_total = Fraction(0)
    for phi in enumerate_multisets(index, size):
        psi = Evidence((pack[i], c) for i, c in phi.items() if c)
        j_total += jeffrey_validity(omega, psi)
        p_total += pearl_validity(omega, psi)
    _law(j_total == 1, "Jeffrey validities over size-{} evidence sum to {}", size, j_total)
    _law(p_total == 1, "Pearl validities over size-{} evidence sum to {}", size, p_total)


@_register("single-factor-dominance", "validity")
def _single_factor_dominance(rng):
    space, omega = _prior(rng, full_support=False)
    p = _factor(rng, space)
    n = rng.randint(1, 6)
    psi = Evidence(((p, n),))
    _law(jeffrey_validity(omega, psi) <= pearl_validity(omega, psi),
         "(omega |= p)^{} exceeded omega |= p^{} for p={}", n, n, p)


@_register("covariance-identity", "validity")
def _covariance_identity(rng):
    space, omega = _prior(rng, full_support=False)
    p1 = _factor(rng, space)
    p2 = _factor(rng, space)
    if p1 == p2:
        return None  # equal factors merge into 2|p> and the halving law changes
    _law(covariance(omega, p1, truth(space)) == 0, "covariance against truth is nonzero")
    psi = Evidence(((p1, 1), (p2, 1)))
    gap = (pearl_validity(omega, psi) - jeffrey_validity(omega, psi)) / 2
    _law(covariance(omega, p1, p2) == gap, "covariance != half the Pearl-Jeffrey gap for {}, {}", p1, p2)


@_register("log-likelihood-order", "validity")
def _log_likelihood_order(rng):
    space, omega = _prior(rng)
    omega_prime = _dist(rng, space)
    psi = _evidence(rng, space)
    score = log_likelihood_score(omega, omega_prime, psi)
    jv = jeffrey_validity(omega, psi)
    jv_prime = jeffrey_validity(omega_prime, psi)
    _law(not (jv <= jv_prime and score > FLOAT_SLACK),
         "score {} positive although validities are ordered the other way", score)
    _law(not (jv >= jv_prime and score < -FLOAT_SLACK),
         "score {} negative although validities are ordered the other way", score)


@_register("point-evidence-bridge", "validity")
def _point_evidence_bridge(rng):
    space, omega = _prior(rng, max_size=4, full_support=False)
    size = rng.randint(1, 4)
    phi = _point_multiset(rng, space, size)
    draws = multinomial(size, omega)
    _law(jeffrey_validity(omega, point_evidence(phi)) == draws(phi),
         "point-evidence validity != draw probability of {}", phi)


@_register_run("point-evidence-argmax", "validity", max_trials=1000)
def _point_evidence_argmax(trials, rng):
    def unbeaten(phi, den):
        psi = point_evidence(phi)
        best = jeffrey_validity(flrn(phi), psi)
        for cand in _sweep(rng, phi.space, den, trials):
            _law(jeffrey_validity(cand, psi) <= best, "candidate {} beats the frequency distribution", cand,
                 trials=trials)

    unbeaten(acc("aabab", SampleSpace("ab")), 100)
    unbeaten(_point_multiset(rng, SampleSpace("abc"), 6), 20)
    return True, trials, None


@_register("nonmatching-escape", "validity", max_trials=1)
def _nonmatching_escape(rng):
    space = SampleSpace("ab")
    omega = uniform(space)
    p = Factor(space, (Fraction(1), Fraction(1, 2)))
    q = Factor(space, (Fraction(4, 5), Fraction(1, 2)))
    psi = Evidence(((p, 2), (q, 3)))
    jv = jeffrey_validity(omega, psi)
    pv = pearl_validity(omega, psi)
    _law(jv == Fraction(19773, 12800), "non-matching Jeffrey validity {} != 19773/12800", jv)
    _law(pv == Fraction(2173, 800), "non-matching Pearl validity {} != 2173/800", pv)
    _law(1 < jv < 2 and pv > 2, "escape magnitudes unexpected")


@_register("jeffrey-pearl-gap-examples", "validity", max_trials=1)
def _jeffrey_pearl_gap_examples(rng):
    space = SampleSpace("abc")
    omega = Dist(space, (Fraction(3, 10), Fraction(3, 10), Fraction(2, 5)))
    p = Factor(space, (Fraction(1, 100), Fraction(1, 100), Fraction(49, 50)))
    psi = Evidence(((p, 1), (ortho(p), 1)))
    jv, pv = float(jeffrey_validity(omega, psi)), float(pearl_validity(omega, psi))
    _law(_figures((jv, "0.479"), (pv, "0.028")), "wide-gap pair ({:.4f}, {:.4f}) != (0.479, 0.028)", jv, pv)
    omega2 = Dist(space, (Fraction(1, 5), Fraction(1, 5), Fraction(3, 5)))
    q = Factor(space, (Fraction(3, 10), Fraction(1, 5), Fraction(9, 10)))
    chi = Evidence(((q, 1), (ortho(q), 4)))
    jv2, pv2 = float(jeffrey_validity(omega2, chi)), float(pearl_validity(omega2, chi))
    _law(_figures((jv2, "0.054"), (pv2, "0.154")), "reversal pair ({:.4f}, {:.4f}) != (0.054, 0.154)", jv2, pv2)
    _law(jv2 < pv2, "expected Pearl above Jeffrey in the reversal pair")


@_register_run("jeffrey-pearl-grid-gap", "validity", max_trials=1)
def _jeffrey_pearl_grid_gap(trials, rng):
    j_cells = grid_values(medical_grid_spec("jeffrey-validity"))
    p_cells = grid_values(medical_grid_spec("pearl-validity"))
    worst = max(abs(float(jv - pv)) for (_, _, jv), (_, _, pv) in zip(j_cells, p_cells))
    _law(not (worst >= 0.033), "validity gap {} >= 0.033 somewhere on the grid", worst)
    return True, 1, f"max gap {worst:.4f}"
