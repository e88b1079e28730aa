"""Properties along channels: adjunction, pulled-back evidence, the dagger and the draw channels."""

from __future__ import annotations

from ..channel import Channel, dagger, identity_channel, multinomial_channel, pull, push, triple_pull
from ..distribution import flrn, multinomial
from ..divergence import kl_divergence
from ..evidence import Evidence, point_evidence, point_pred
from ..models import medical_model
from ..update import bayes_update, jeffrey_update, pearl_update
from ..validity import jeffrey_validity, pearl_validity, validity
from . import (
    FLOAT_SLACK,
    _channel,
    _evidence,
    _factor,
    _forall,
    _law,
    _point_multiset,
    _prior,
    _register,
    _register_run,
)


def _pull_injective(c: Channel, psi: Evidence) -> bool:
    pulled = [pull(c, q) for q, _ in psi.items()]
    return len(set(pulled)) == len(pulled)


@_register("channel-adjunction", "channel")
def _channel_adjunction(rng):
    c, omega = _channel(rng, full_rows=False, full_support=False)
    q = _factor(rng, c.cod)
    _law(validity(push(c, omega), q) == validity(omega, pull(c, q)), "pushforward validity != pulled-back validity")


@_register("jeffrey-along-channel", "channel")
def _jeffrey_along_channel(rng):
    c, omega = _channel(rng)
    psi = _evidence(rng, c.cod, max_factors=2, max_size=4)
    if not _pull_injective(c, psi):
        return None  # merged factors change the coefficient; skip degenerate pull
    _law(jeffrey_validity(omega, triple_pull(c, psi)) == jeffrey_validity(push(c, omega), psi),
         "Jeffrey validity along the channel broke")


@_register_run("pearl-along-channel-fails", "channel", max_trials=100)
def _pearl_along_channel_fails(trials, rng):
    model = medical_model()
    point_psi = Evidence(zip(model.outcomes, (2, 1)))
    fixed_lhs = pearl_validity(model.prior, triple_pull(model.test_channel, point_psi))
    fixed_rhs = pearl_validity(push(model.test_channel, model.prior), point_psi)
    _law(fixed_lhs != fixed_rhs, "expected the fixed point-evidence instance to disagree")

    found = 0

    def check(rng):
        nonlocal found
        c, omega = _channel(rng)
        psi = _evidence(rng, c.cod, max_factors=2, max_size=3)
        found += pearl_validity(omega, triple_pull(c, psi)) != pearl_validity(push(c, omega), psi)

    _forall(trials, rng, check)
    _law(found != 0, "Pearl validity never disagreed along random channels", trials=trials)
    return True, trials, f"fixed disagreement plus {found} random disagreements in {trials} trials"


@_register("point-evidence-multinomial", "channel", max_trials=600)
def _point_evidence_multinomial(rng):
    c, omega = _channel(rng, 3, full_support=False)
    size = rng.randint(1, 3)
    phi = _point_multiset(rng, c.cod, size)
    psi = point_evidence(phi)
    if not _pull_injective(c, psi):
        return None
    pulled = triple_pull(c, psi)
    _law(jeffrey_validity(omega, pulled) == multinomial(size, push(c, omega))(phi),
         "channel Jeffrey validity != draw probability of the prediction")
    _law(pearl_validity(omega, pulled) == push(multinomial_channel(c, size), omega)(phi),
         "channel Pearl validity != pushforward draw-channel probability")


@_register("dagger-jeffrey", "channel")
def _dagger_jeffrey(rng):
    c, omega = _channel(rng)
    phi = _point_multiset(rng, c.cod, rng.randint(1, 5))
    psi = point_evidence(phi)
    reversed_channel = dagger(c, omega)
    _law(push(reversed_channel, flrn(phi)) == jeffrey_update(omega, triple_pull(c, psi)),
         "dagger pushforward != Jeffrey update along the channel")


@_register("multinomial-channel-pearl", "channel", max_trials=600)
def _multinomial_channel_pearl(rng):
    c, omega = _channel(rng, 3)
    size = rng.randint(1, 3)
    phi = _point_multiset(rng, c.cod, size)
    draws = multinomial_channel(c, size)
    via_pull = bayes_update(omega, pull(draws, point_pred(phi, draws.cod)))
    _law(pearl_update(omega, triple_pull(c, point_evidence(phi))) == via_pull,
         "Pearl update along channel != update with the draw-channel pullback")


@_register("channel-divergence-decrease", "channel")
def _channel_divergence_decrease(rng):
    c, omega = _channel(rng)
    phi = _point_multiset(rng, c.cod, rng.randint(1, 5))
    posterior = jeffrey_update(omega, triple_pull(c, point_evidence(phi)))
    target = flrn(phi)
    before = kl_divergence(target, push(c, omega))
    after = kl_divergence(target, push(c, posterior))
    _law(not (after > before + FLOAT_SLACK), "prediction divergence increased for point evidence {}", phi)


@_register("identity-channel-neutral", "channel")
def _identity_channel_neutral(rng):
    space, omega = _prior(rng, full_support=False)
    c = identity_channel(space)
    _law(push(c, omega) == omega, "identity channel moved the distribution")
    psi = _evidence(rng, space, positive=False)
    _law(triple_pull(c, psi) == psi, "identity channel changed the evidence")
