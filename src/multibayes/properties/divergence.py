"""Properties of the KL divergence: its sign, asymmetry, order equivalence and the VFE failure grid."""

from __future__ import annotations

from ..channel import push
from ..distribution import flrn
from ..divergence import expected_channel_divergence, kl_divergence
from ..evidence import Evidence, point_evidence
from ..models import grid_values, medical_grid_spec, medical_model
from ..multiset import Multiset
from ..update import free_energy_objective, jeffrey_update, vfe_update
from ..validity import jeffrey_validity
from ._registry import (
    FLOAT_SLACK,
    TIE_SKIP,
    _channel,
    _dist,
    _evidence,
    _exists,
    _figures,
    _law,
    _point_multiset,
    _prior,
    _register,
    _register_run,
    _space,
)


@_register("dkl-nonneg-zero-iff", "divergence")
def _dkl_nonneg_zero_iff(rng):
    space, sigma = _prior(rng, unit=24)
    rho = _dist(rng, space, unit=24)
    value = kl_divergence(sigma, rho)
    _law(not (value < -1e-15), "divergence {} negative", value)
    _law(sigma != rho or value == 0.0, "divergence of equal distributions is nonzero")
    _law(not (sigma != rho and value <= 1e-12), "divergence {} vanished for distinct distributions", value)


@_register_run("dkl-asymmetry-witness", "divergence")
def _dkl_asymmetry_witness(trials, rng):
    def probe(rng):
        space, sigma = _prior(rng, unit=24)
        rho = _dist(rng, space, unit=24)
        return (sigma, rho) if kl_divergence(sigma, rho) != kl_divergence(rho, sigma) else None

    found, ran, _ = _exists(trials, rng, probe)
    _law(found, "divergence looked symmetric on every trial", trials=trials)
    return True, ran, f"asymmetric pair found at trial {ran}"


@_register("kl-order-equivalence", "divergence")
def _kl_order_equivalence(rng):
    space = _space(rng)
    phi = _point_multiset(rng, space, rng.randint(1, 6))
    support = phi.support()
    if len(support) < 2:
        return None
    # both distributions share the support of the draws
    def supported():
        counts = [rng.randint(1, 12) if x in support else 0 for x in space]
        return flrn(Multiset(space, counts))

    omega, omega_prime = supported(), supported()
    target = flrn(phi)
    jv = jeffrey_validity(omega, point_evidence(phi))
    jv_prime = jeffrey_validity(omega_prime, point_evidence(phi))
    div = kl_divergence(target, omega)
    div_prime = kl_divergence(target, omega_prime)
    if abs(div - div_prime) <= TIE_SKIP:
        return None  # numerically tied; the exact order is not decidable in float
    _law(not (jv <= jv_prime and div < div_prime - TIE_SKIP), "low validity paired with low divergence")
    _law(not (jv >= jv_prime and div > div_prime + TIE_SKIP), "high validity paired with high divergence")


@_register("channel-dkl-lower-bound", "divergence")
def _channel_dkl_lower_bound(rng):
    c, sigma = _channel(rng, full_support=False)
    rho = _dist(rng, c.cod, full_support=False)
    expected = expected_channel_divergence(sigma, rho, c)
    _law(not (expected < kl_divergence(rho, push(c, sigma)) - FLOAT_SLACK),
         "expected row divergence fell below the pushforward divergence")
    omega = _dist(rng, c.cod)
    psi = _evidence(rng, c.cod)
    objective = free_energy_objective(rho, omega, psi)
    _law(not (objective < kl_divergence(rho, jeffrey_update(omega, psi)) - FLOAT_SLACK),
         "free-energy objective fell below the Jeffrey-update divergence")


@_register_run("vfe-divergence-failure-grid", "divergence", max_trials=1)
def _vfe_divergence_failure_grid(trials, rng):
    cells = grid_values(medical_grid_spec("vfe-dkl-delta"))
    positives = sum(1 for _, _, v in cells if v > 0)
    _law(positives == 37, "{} cells with increased divergence, expected 37", positives)
    model = medical_model()
    psi11 = Evidence(((model.pos_test, 1), (model.neg_test, 1)))
    observed = flrn(Multiset(model.test_space, (1, 1)))
    prior_div = kl_divergence(observed, push(model.test_channel, model.prior), base=2)
    post = vfe_update(model.prior, psi11)
    post_div = kl_divergence(observed, push(model.test_channel, post), base=2)
    _law(_figures((prior_div, "0.0164"), (post_div, "0.0208")), "(1,1) divergences ({:.4f}, {:.4f}) off",
         prior_div, post_div)
    return True, 1, f"37 failures; (1,1) divergence {prior_div:.4f} -> {post_div:.4f}"
