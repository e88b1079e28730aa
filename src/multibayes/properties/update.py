"""Properties of the update rules: Bayes, Jeffrey, Pearl and VFE, with the paper's fixed instances."""

from __future__ import annotations

import math
from fractions import Fraction

from ..core import SampleSpace
from ..distribution import convex_sum, dirac, flrn
from ..divergence import kl_divergence
from ..evidence import Evidence, and_conj, conj, point_evidence, point_pred, scale, truth
from ..models import medical_model
from ..update import (
    _factor_posteriors,
    _free_energy,
    bayes_update,
    iterated_pearl_validity,
    jeffrey_update,
    pearl_update,
    vfe_update,
    vfe_update_softmax,
)
from ..validity import jeffrey_validity, pearl_validity, validity
from . import (
    FLOAT_SLACK,
    _dist,
    _evidence,
    _exists,
    _factor,
    _feq,
    _figures,
    _forall,
    _law,
    _point_multiset,
    _prior,
    _register,
    _register_run,
    _space,
    _sweep,
)


@_register("bayes-laws", "update")
def _bayes_laws(rng):
    space, omega = _prior(rng)
    p = _factor(rng, space, positive=True)
    q = _factor(rng, space, positive=True)
    s = Fraction(rng.randint(1, 24), 12)
    _law(bayes_update(omega, truth(space)) == omega, "conditioning on truth changed the distribution")
    _law(bayes_update(omega, conj(p, q)) == bayes_update(bayes_update(omega, p), q),
         "conjunction update != successive updates")
    x = rng.choice(omega.support())
    _law(bayes_update(omega, point_pred(x, space)) == dirac(x, space),
         "conditioning on a point predicate missed dirac({!r})", x)
    _law(bayes_update(omega, scale(s, p)) == bayes_update(omega, p), "scaling the factor changed the update")


@_register("product-bayes-rules", "update")
def _product_bayes_rules(rng):
    space, omega = _prior(rng)
    p = _factor(rng, space, positive=True)
    q = _factor(rng, space, positive=True)
    posterior = bayes_update(omega, p)
    _law(validity(posterior, q) == validity(omega, conj(p, q)) / validity(omega, p), "product rule broken")
    bayes_rhs = (
        validity(bayes_update(omega, q), p) * validity(omega, q) / validity(omega, p)
    )
    _law(validity(posterior, q) == bayes_rhs, "Bayes' rule broken")


@_register("iterated-update-validity", "update")
def _iterated_update_validity(rng):
    space, omega = _prior(rng)
    ps = [_factor(rng, space, positive=True) for _ in range(rng.randint(1, 4))]
    chained = iterated_pearl_validity(omega, ps)
    conjunction = ps[0]
    for p in ps[1:]:
        conjunction = conj(conjunction, p)
    _law(chained == validity(omega, conjunction), "chained validity != conjunction validity")
    shuffled = ps[:]
    rng.shuffle(shuffled)
    _law(iterated_pearl_validity(omega, shuffled) == chained, "chained validity depends on the order")


@_register("validity-gain", "update")
def _validity_gain(rng):
    space, omega = _prior(rng)
    p = _factor(rng, space, positive=True)
    _law(validity(bayes_update(omega, p), p) >= validity(omega, p), "update decreased the validity of {}", p)
    ps = [_factor(rng, space, positive=True) for _ in range(rng.randint(2, 3))]
    mixture = convex_sum(
        [Fraction(1, len(ps))] * len(ps), [bayes_update(omega, p) for p in ps]
    )
    before = math.prod((validity(omega, p) for p in ps), start=Fraction(1))
    after = math.prod((validity(mixture, p) for p in ps), start=Fraction(1))
    _law(after >= before, "uniform mixture of updates decreased the validity product")


def _increases(rng, rule: str, update, evidence_validity):
    """One trial of the theorem that ``update`` does not lower ``evidence_validity``;
    the callers look both up at call time, so a rebound module name runs."""
    space, omega = _prior(rng)
    psi = _evidence(rng, space)
    _law(evidence_validity(update(omega, psi), psi) >= evidence_validity(omega, psi),
         "{} update decreased {} validity for {}", rule, rule, psi)


@_register("jeffrey-increases", "update")
def _jeffrey_increases(rng):
    _increases(rng, "Jeffrey", jeffrey_update, jeffrey_validity)


@_register("jeffrey-dkl-decrease", "update")
def _jeffrey_dkl_decrease(rng):
    space, omega = _prior(rng)
    phi = _point_multiset(rng, space, rng.randint(1, 6))
    psi = point_evidence(phi)
    posterior = jeffrey_update(omega, psi)
    target = flrn(phi)
    _law(not (kl_divergence(target, posterior) > kl_divergence(target, omega) + FLOAT_SLACK),
         "divergence increased for point evidence {}", phi)


@_register("jeffrey-scale-invariant", "update")
def _jeffrey_scale_invariant(rng):
    space, omega = _prior(rng)
    psi = _evidence(rng, space)
    n = rng.randint(1, 4)
    _law(jeffrey_update(omega, psi.scale(n)) == jeffrey_update(omega, psi),
         "{}-fold evidence changed the Jeffrey update", n)


@_register_run("jeffrey-order", "update")
def _jeffrey_order(trials, rng):
    model = medical_model()
    psi = model.three_tests
    chi = model.evidence(1, 2)
    first = jeffrey_update(jeffrey_update(model.prior, psi), chi)
    second = jeffrey_update(jeffrey_update(model.prior, chi), psi)
    d1, d2 = float(first("d")), float(second("d"))
    _law(_figures((d1, "0.059"), (d2, "0.061")), "fixed order pair ({:.4f}, {:.4f}) != (0.059, 0.061)", d1, d2)
    _law(first != second, "fixed instance unexpectedly order-insensitive")

    def probe(rng):
        space, omega = _prior(rng, max_size=4)
        a = _evidence(rng, space, max_factors=2, max_size=3)
        b = _evidence(rng, space, max_factors=2, max_size=3)
        differ = jeffrey_update(jeffrey_update(omega, a), b) != jeffrey_update(jeffrey_update(omega, b), a)
        return space.elements if differ else None

    found, ran, elements = _exists(trials, rng, probe)
    _law(found, "no random order-sensitivity witness found", trials=trials)
    return True, ran, f"fixed pair 0.059/0.061 reproduced; random witness at trial {ran}: updates differ on {elements}"


@_register("jeffrey-self-no-op", "update")
def _jeffrey_self_no_op(rng):
    phi = _point_multiset(rng, _space(rng), rng.randint(1, 12))
    omega = flrn(phi)
    _law(jeffrey_update(omega, point_evidence(phi)) == omega, "updating {} with its own frequencies changed it", omega)


@_register("jeffrey-convex-combination", "update")
def _jeffrey_convex_combination(rng):
    # the update with a sum of evidence mixes the separate updates, each weighted by the data it brings
    space, omega = _prior(rng)
    psis = [_evidence(rng, space, max_factors=2, max_size=3) for _ in range(rng.randint(2, 3))]
    ns = [rng.randint(1, 3) for _ in psis]
    total = sum(n * psi.size for n, psi in zip(ns, psis))
    mixture = convex_sum(
        [Fraction(n * psi.size, total) for n, psi in zip(ns, psis)],
        [jeffrey_update(omega, psi) for psi in psis],
    )
    combined = sum((psi.scale(n) for n, psi in zip(ns, psis)), Evidence(()))
    _law(mixture == jeffrey_update(omega, combined), "convex sum of Jeffrey updates != update with combined evidence")


@_register("pearl-increases", "update")
def _pearl_increases(rng):
    _increases(rng, "Pearl", pearl_update, pearl_validity)


@_register("pearl-product-bayes", "update")
def _pearl_product_bayes(rng):
    # the product/Bayes rules for evidence hold for the conjunction
    # validities; the multinomial coefficients are made explicit here
    space, omega = _prior(rng)
    psi = _evidence(rng, space, max_size=3)
    chi = _evidence(rng, space, max_size=3)
    cv = lambda w, ev: validity(w, and_conj(ev))
    posterior = pearl_update(omega, psi)
    _law(cv(posterior, chi) == cv(omega, psi + chi) / cv(omega, psi), "evidence-level product rule broken")
    bayes_rhs = cv(pearl_update(omega, chi), psi) * cv(omega, chi) / cv(omega, psi)
    _law(cv(posterior, chi) == bayes_rhs, "evidence-level Bayes rule broken")
    coefficient_ratio = Fraction(
        psi.coefficient() * chi.coefficient(), (psi + chi).coefficient()
    )
    lhs = pearl_validity(posterior, chi)
    rhs = pearl_validity(omega, psi + chi) / pearl_validity(omega, psi)
    _law(lhs == coefficient_ratio * rhs, "coefficient bookkeeping of the evidence product rule broken")


@_register("pearl-composes", "update")
def _pearl_composes(rng):
    space, omega = _prior(rng)
    psi = _evidence(rng, space, max_size=3)
    chi = _evidence(rng, space, max_size=3)
    combined = pearl_update(omega, psi + chi)
    _law(pearl_update(pearl_update(omega, psi), chi) == combined, "successive Pearl updates != combined update")
    _law(pearl_update(pearl_update(omega, chi), psi) == combined, "Pearl updates are order-sensitive")


@_register("pearl-uniform-no-op", "update")
def _pearl_uniform_no_op(rng):
    space, omega = _prior(rng, full_support=False)
    factors = [
        scale(Fraction(rng.randint(1, 24), 12), truth(space))
        for _ in range(rng.randint(1, 3))
    ]
    psi = Evidence((f, rng.randint(1, 2)) for f in factors)
    _law(pearl_update(omega, psi) == omega, "scaled-truth evidence changed the distribution")


@_register("cross-rule-decrease", "update", max_trials=1)
def _cross_rule_decrease(rng):
    model = medical_model()
    psi = model.three_tests
    omega = model.prior
    j_prior = jeffrey_validity(omega, psi)
    p_prior = pearl_validity(omega, psi)
    j_after_pearl = jeffrey_validity(pearl_update(omega, psi), psi)
    p_after_jeffrey = pearl_validity(jeffrey_update(omega, psi), psi)
    _law(_figures((j_after_pearl, "0.3081"), (j_prior, "0.3116")), "crossed Jeffrey numbers off")
    _law(_figures((p_after_jeffrey, "0.2847"), (p_prior, "0.2858")), "crossed Pearl numbers off")
    _law(j_after_pearl < j_prior and p_after_jeffrey < p_prior, "crossed updates did not decrease the validities")


@_register("vfe-forms-agree", "update")
def _vfe_forms_agree(rng):
    space, omega = _prior(rng)
    psi = _evidence(rng, space)
    direct = vfe_update(omega, psi)
    softmax = vfe_update_softmax(omega, psi)
    for x in space:
        _law(_feq(float(direct(x)), float(softmax(x))), "softmax and conjunction forms differ at {!r}", x)


@_register_run("vfe-sandwich", "update")
def _vfe_sandwich(trials, rng):
    model = medical_model()
    chi = model.evidence(1, 1)
    j_before = float(jeffrey_validity(model.prior, chi))
    j_after = float(jeffrey_validity(vfe_update(model.prior, chi), chi))
    _law(_figures((j_before, "0.489"), (j_after, "0.486")), "fixed pair ({:.4f}, {:.4f}) != (0.489, 0.486)",
         j_before, j_after)
    _law(j_before > j_after, "expected a Jeffrey-validity decrease under the VFE update")

    def check(rng):
        space, omega = _prior(rng)
        psi = _evidence(rng, space)
        base = float(pearl_validity(omega, psi))
        via_vfe = float(pearl_validity(vfe_update(omega, psi), psi))
        via_pearl = float(pearl_validity(pearl_update(omega, psi), psi))
        _law(not (base > via_vfe + FLOAT_SLACK), "VFE update decreased the Pearl validity")
        _law(not (via_vfe > via_pearl + FLOAT_SLACK), "VFE update beat the Pearl update on Pearl validity")

    passed, ran, detail = _forall(trials, rng, check)
    if passed:
        detail = "fixed Jeffrey counterexample 0.489 > 0.486 reproduced"
    return passed, ran, detail


@_register_run("vfe-argmin", "update", max_trials=1000)
def _vfe_argmin(trials, rng):
    model = medical_model()
    psi = model.three_tests
    posterior = vfe_update(model.prior, psi)
    posteriors = _factor_posteriors(model.prior, psi)
    minimum = _free_energy(posterior, posteriors)
    for cand in _sweep(rng, model.prior.space, 100, trials):
        value = _free_energy(cand, posteriors)
        _law(not (value < minimum - FLOAT_SLACK), "candidate {} beat the VFE update", cand, trials=trials)
        # objective excess over the minimum equals the divergence from the update
        _law(_feq(value - minimum, kl_divergence(cand, posterior), 1e-7), "objective gap != divergence for {}", cand,
             trials=trials)
    space3 = SampleSpace("abc")
    omega3 = _dist(rng, space3)
    psi3 = _evidence(rng, space3)
    posterior3 = vfe_update(omega3, psi3)
    posteriors3 = _factor_posteriors(omega3, psi3)
    minimum3 = _free_energy(posterior3, posteriors3)
    for cand in _sweep(rng, space3, 100, 0):
        _law(not (_free_energy(cand, posteriors3) < minimum3 - FLOAT_SLACK), "grid candidate {} beat the VFE update",
             cand, trials=trials)
    return True, trials, None
