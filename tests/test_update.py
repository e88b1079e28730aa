"""Bayesian, Jeffrey, Pearl and VFE updating."""

import importlib
import random
import sys
import weakref
from fractions import Fraction

import pytest

from multibayes import (
    Dist,
    Evidence,
    Factor,
    FloatRangeError,
    MultibayesError,
    SampleSpace,
    SpaceMismatchError,
    ZeroValidityError,
    and_conj,
    bayes_update,
    convex_sum,
    covariance,
    dirac,
    free_energy_objective,
    indicator,
    iterated_pearl_validity,
    jeffrey_update,
    jeffrey_validity,
    kl_divergence,
    log_likelihood_score,
    pearl_update,
    pearl_validity,
    point_pred,
    truth,
    uniform,
    validity,
    vfe_update,
    vfe_update_softmax,
)
from multibayes.models import medical_model, physics_model

MEDICAL = medical_model()
OMEGA, PT, NT = MEDICAL.prior, MEDICAL.pos_test, MEDICAL.neg_test
PSI = Evidence(((PT, 2), (NT, 1)))


class TestBayesUpdate:
    def test_positive_test_posterior(self):
        assert bayes_update(OMEGA, PT) == Dist(OMEGA.space, (Fraction(9, 85), Fraction(76, 85)))

    def test_negative_test_posterior(self):
        assert bayes_update(OMEGA, NT) == Dist(
            OMEGA.space, (Fraction(1, 115), Fraction(114, 115))
        )

    def test_pipes_blocked_and_throttled(self):
        pipes = physics_model()
        blocked = bayes_update(pipes.flow, pipes.middle_blocked)
        assert blocked == Dist(pipes.pipe_space, (Fraction(3, 4), Fraction(0), Fraction(1, 4)))
        throttled = bayes_update(pipes.flow, pipes.taps)
        assert throttled == Dist(
            pipes.pipe_space, (Fraction(12, 19), Fraction(4, 19), Fraction(3, 19))
        )

    def test_zero_validity_rejected(self):
        with pytest.raises(ZeroValidityError):
            bayes_update(dirac("d", OMEGA.space), point_pred("~d", OMEGA.space))


class TestSpacesBuiltApart:
    def test_equal_spaces_are_one_space_and_differing_ones_are_refused(self):
        twin, swapped = SampleSpace(OMEGA.space.elements), SampleSpace(reversed(OMEGA.space.elements))
        assert twin is not OMEGA.space
        pt = Factor(twin, PT.values)
        psi = Evidence(((pt, 2), (Factor(twin, NT.values), 1)))
        assert bayes_update(OMEGA, pt) == bayes_update(OMEGA, PT)
        assert jeffrey_update(OMEGA, psi) == jeffrey_update(OMEGA, PSI)
        assert pearl_update(OMEGA, psi) == pearl_update(OMEGA, PSI)
        on_twin = Dist(twin, OMEGA.weights)
        assert pearl_update(on_twin, PSI) == pearl_update(OMEGA, PSI)
        other = Evidence(((Factor(swapped, PT.values), 2), (Factor(swapped, NT.values), 1)))
        for rule, evidence in ((bayes_update, other.factors[0]), (jeffrey_update, other), (pearl_update, other)):
            with pytest.raises(SpaceMismatchError):
                rule(OMEGA, evidence)


class TestJeffreyUpdate:
    def test_medical_posterior(self):
        assert jeffrey_update(OMEGA, PSI) == Dist(
            OMEGA.space, (Fraction(431, 5865), Fraction(5434, 5865))
        )

    def test_singleton_equals_bayes(self):
        assert jeffrey_update(OMEGA, Evidence(((PT, 1),))) == bayes_update(OMEGA, PT)

    def test_inconsistent_evidence_superposes(self):
        space = SampleSpace("abcd")
        omega = Dist(space, (Fraction(1, 8), Fraction(3, 8), Fraction(1, 4), Fraction(1, 4)))
        inside = indicator(("a", "b"), space)
        outside = indicator(("c", "d"), space)
        psi = Evidence(((inside, 1), (outside, 1)))
        expected = convex_sum(
            (Fraction(1, 2), Fraction(1, 2)),
            (bayes_update(omega, inside), bayes_update(omega, outside)),
        )
        assert jeffrey_update(omega, psi) == expected

    def test_zero_validity_names_factor(self):
        space = SampleSpace("ab")
        omega = dirac("a", space)
        psi = Evidence(((point_pred("b", space), 1), (truth(space), 1)))
        with pytest.raises(ZeroValidityError, match="#0"):
            jeffrey_update(omega, psi)

    def test_weighted_entry_point_matches_counts(self):
        """Jeffrey's rule over weighted predicates is a mixture of Bayes updates."""
        weighted = convex_sum((Fraction(2, 3), Fraction(1, 3)), [bayes_update(OMEGA, PT), bayes_update(OMEGA, NT)])
        assert weighted == jeffrey_update(OMEGA, PSI)

    def test_a_zero_count_drops_the_factor_a_zero_weight_does_not(self):
        space = SampleSpace("abc")
        omega = Dist(space, (Fraction(1, 2), Fraction(1, 2), Fraction(0)))
        pt_a, pt_c = point_pred("a", space), point_pred("c", space)
        assert jeffrey_update(omega, Evidence([(pt_a, 1), (pt_c, 0)])) == dirac("a", space)
        # the composition updates on every factor, so a zero weight does not excuse a zero validity
        with pytest.raises(ZeroValidityError):
            convex_sum((1, 0), [bayes_update(omega, pt_a), bayes_update(omega, pt_c)])


class TestPearlUpdate:
    def test_medical_posterior(self):
        assert pearl_update(OMEGA, PSI) == Dist(
            OMEGA.space, (Fraction(27, 635), Fraction(608, 635))
        )

    def test_singleton_equals_bayes(self):
        assert pearl_update(OMEGA, Evidence(((NT, 1),))) == bayes_update(OMEGA, NT)

    def test_equals_successive_updates(self):
        assert pearl_update(OMEGA, PSI) == bayes_update(
            bayes_update(bayes_update(OMEGA, PT), PT), NT
        )

    def test_inconsistent_evidence_rejected(self):
        space = SampleSpace("ab")
        omega = uniform(space)
        psi = Evidence(((point_pred("a", space), 1), (point_pred("b", space), 1)))
        with pytest.raises(ZeroValidityError):
            pearl_update(omega, psi)


class TestVfeUpdate:
    def test_medical_one_pos_one_neg(self):
        posterior = vfe_update(OMEGA, Evidence(((PT, 1), (NT, 1))))
        assert float(posterior("d")) == pytest.approx(0.031, abs=5e-4)
        assert float(posterior("~d")) == pytest.approx(0.969, abs=5e-4)

    @pytest.mark.parametrize("count", [1, 5])
    def test_single_factor_equals_bayes(self, count):
        posterior = vfe_update(OMEGA, Evidence(((PT, count),)))
        reference = bayes_update(OMEGA, PT)
        for x in OMEGA.space:
            assert float(posterior(x)) == pytest.approx(float(reference(x)), abs=1e-9)

    def test_softmax_form_agrees(self):
        direct = vfe_update(OMEGA, PSI)
        softmax = vfe_update_softmax(OMEGA, PSI)
        for x in OMEGA.space:
            assert float(direct(x)) == pytest.approx(float(softmax(x)), abs=1e-9)

    def test_zero_validity_rejected(self):
        space = SampleSpace("ab")
        psi = Evidence(((point_pred("b", space), 1),))
        with pytest.raises(ZeroValidityError):
            vfe_update(dirac("a", space), psi)

    def test_jointly_inconsistent_evidence_rejected(self):
        # each factor is individually updatable, but the geometric-mean
        # conjunction vanishes everywhere
        space = SampleSpace("ab")
        psi = Evidence(((point_pred("a", space), 1), (point_pred("b", space), 1)))
        with pytest.raises(ZeroValidityError):
            vfe_update(uniform(space), psi)


WIDE = SampleSpace(f"x{i}" for i in range(3000))


@pytest.mark.parametrize(
    "update, prefix",
    [(bayes_update, "cannot update: validity of Factor("),
     (lambda omega, dead: jeffrey_update(omega, Evidence(((truth(WIDE), 1), (dead, 2)))), "evidence factor #1 (Factor("),
     (lambda omega, dead: vfe_update(omega, Evidence(((truth(WIDE), 1), (dead, 2)))), "evidence factor #1 (Factor(")],
    ids=["bayes", "jeffrey", "vfe"],
)
def test_zero_validity_message_abridges_the_factor(update, prefix):
    dead = Factor(WIDE, [0] * len(WIDE))
    with pytest.raises(ZeroValidityError) as info:
        update(uniform(WIDE), dead)
    message = str(info.value)
    assert message.startswith(prefix) and len(message) < 200


class TestFreeEnergyObjective:
    def test_single_factor_posterior_reaches_zero(self):
        psi = Evidence(((PT, 1),))
        assert free_energy_objective(bayes_update(OMEGA, PT), OMEGA, psi) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_gap_equals_divergence_from_update(self):
        posterior = vfe_update(OMEGA, PSI)
        minimum = free_energy_objective(posterior, OMEGA, PSI)
        for rho in (
            Dist(OMEGA.space, (Fraction(1, 2), Fraction(1, 2))),
            Dist(OMEGA.space, (Fraction(1, 10), Fraction(9, 10))),
            bayes_update(OMEGA, PT),
        ):
            gap = free_energy_objective(rho, OMEGA, PSI) - minimum
            assert gap == pytest.approx(kl_divergence(rho, posterior), abs=1e-9)

    def test_update_minimises(self):
        posterior = vfe_update(OMEGA, PSI)
        minimum = free_energy_objective(posterior, OMEGA, PSI)
        for k in range(0, 101, 10):
            rho = Dist(OMEGA.space, (Fraction(k, 100), Fraction(100 - k, 100)))
            assert free_energy_objective(rho, OMEGA, PSI) >= minimum - 1e-12

    def test_support_mismatch_rejected(self):
        from multibayes import SupportMismatchError

        space = SampleSpace("abc")
        omega = Dist(space, (Fraction(1, 2), Fraction(1, 2), Fraction(0)))
        psi = Evidence(((indicator(("a", "b"), space), 1),))
        rho = Dist(space, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
        with pytest.raises(SupportMismatchError):
            free_energy_objective(rho, omega, psi)


# -- what the rules share for one prior and one evidence -----------------------
#
# The rules applied to one prior share each factor's normaliser and
# posterior, and the conjunction's, through the factors.  A memo-served
# result must be the result on a fresh evidence (with fresh factors),
# bit for bit, errors included.

RULES = {
    "jeffrey_update": lambda omega, psi, rho: jeffrey_update(omega, psi),
    "pearl_update": lambda omega, psi, rho: pearl_update(omega, psi),
    "vfe_update": lambda omega, psi, rho: vfe_update(omega, psi),
    "jeffrey_validity": lambda omega, psi, rho: jeffrey_validity(omega, psi),
    "pearl_validity": lambda omega, psi, rho: pearl_validity(omega, psi),
    "free_energy_objective": lambda omega, psi, rho: free_energy_objective(rho, omega, psi),
    "vfe_update_softmax": lambda omega, psi, rho: vfe_update_softmax(omega, psi),
}


def canonical(value):
    """A value by its exact contents: Fractions by numerator and
    denominator, floats by bit pattern, errors by class and message."""
    if isinstance(value, Exception):
        return type(value), str(value)
    if isinstance(value, Dist):
        return tuple(canonical(w) for w in value.weights)
    if isinstance(value, float):
        return "float", value.hex()
    return "exact", Fraction(value).numerator, Fraction(value).denominator


def run_rule(name, omega, psi, rho):
    try:
        return canonical(RULES[name](omega, psi, rho))
    except MultibayesError as error:
        return canonical(error)


def fresh(psi):
    return Evidence((Factor(f.space, f.values), count) for f, count in psi.items())


def memo_cases():
    """(prior, evidence) pairs: exact, float and mixed, with zero-validity
    factors, and one whose float validity overflows."""
    rng = random.Random(2024)
    cases = []
    for _ in range(30):
        s = SampleSpace(f"x{i}" for i in range(rng.randint(2, 6)))
        exact = rng.random() < 0.5
        counts = [rng.choice((0, 1, 2, 5)) for _ in s]
        counts[rng.randrange(len(s))] += 1
        omega = Dist(s, [Fraction(c, sum(counts)) for c in counts])
        if not exact:
            omega = omega.to_float()
        factors = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                factors.append(Factor(s, [Fraction(rng.randint(0, 4), rng.choice((1, 3, 4))) for _ in s]))
            else:
                factors.append(Factor(s, [rng.choice((0.0, rng.random(), 2 * rng.random())) for _ in s]))
        cases.append((omega, Evidence((f, rng.randint(1, 3)) for f in factors)))
    s = SampleSpace("ab")
    huge = Factor(s, (1.7976931348623157e308, 1.7976931348623157e308))
    cases.append((Dist(s, (0.5 + 4e-10, 0.5 + 4e-10)), Evidence(((truth(s), 1), (huge, 1)))))
    return cases


def rho_for(omega, psi):
    try:
        return vfe_update(omega, fresh(psi))
    except MultibayesError:
        return omega


class TestSharedMemo:
    @pytest.mark.parametrize("order", [list(RULES), list(reversed(RULES))], ids=["forward", "reversed"])
    def test_memo_served_results_equal_fresh_ones(self, order):
        for omega, psi in memo_cases():
            rho = rho_for(omega, psi)
            for name in order:
                assert run_rule(name, omega, psi, rho) == run_rule(name, omega, fresh(psi), rho), name
            # a second pass is served from the memo throughout
            for name in order:
                assert run_rule(name, omega, psi, rho) == run_rule(name, omega, fresh(psi), rho), name

    def test_overflow_is_raised_again_on_a_hit(self):
        omega, psi = memo_cases()[-1]
        for _ in range(2):
            with pytest.raises(FloatRangeError, match="validity overflows"):
                jeffrey_validity(omega, psi)
            with pytest.raises(FloatRangeError, match="validity overflows"):
                vfe_update(omega, psi)
            with pytest.raises(FloatRangeError, match="validity overflows"):
                jeffrey_update(omega, psi)

    def test_equal_priors_do_not_share_the_memo(self, monkeypatch):
        validity_module = importlib.import_module("multibayes.validity")
        calls = []
        norm = validity_module._norm
        monkeypatch.setattr(validity_module, "_norm", lambda omega, p: calls.append(omega) or norm(omega, p))
        omega = Dist(OMEGA.space, OMEGA.weights)
        assert omega == OMEGA and omega is not OMEGA
        psi = fresh(PSI)
        expected = jeffrey_validity(OMEGA, psi)
        assert len(calls) == 2 and all(prior is OMEGA for prior in calls)
        assert jeffrey_validity(OMEGA, psi) == expected
        assert len(calls) == 2
        assert jeffrey_validity(omega, psi) == expected
        assert len(calls) == 4 and calls[2] is omega and calls[3] is omega

    def test_alternating_priors(self):
        s = OMEGA.space
        priors = [OMEGA, Dist(s, (Fraction(1, 3), Fraction(2, 3))), OMEGA.to_float()]
        psi = fresh(PSI)
        for omega in priors + priors[::-1] + priors:
            for name in RULES:
                assert run_rule(name, omega, psi, omega) == run_rule(name, omega, fresh(psi), omega), name

    @pytest.mark.parametrize("first", ["jeffrey_validity", "jeffrey_update", "vfe_update"])
    def test_zero_validity_factor_on_a_hit(self, first):
        space = SampleSpace("abc")
        omega = Dist(space, (Fraction(1, 2), Fraction(1, 2), Fraction(0)))
        psi = Evidence(((truth(space), 1), (point_pred("c", space), 2), (point_pred("a", space), 1)))
        run_rule(first, omega, psi, omega)
        for _ in range(2):
            with pytest.raises(ZeroValidityError, match="#1"):
                jeffrey_update(omega, psi)
            with pytest.raises(ZeroValidityError, match="#1"):
                vfe_update(omega, psi)
            assert jeffrey_validity(omega, psi) == 0

    def test_validities_are_shared_with_the_updates(self, monkeypatch):
        validity_module = importlib.import_module("multibayes.validity")
        original = validity_module.validity
        calls = {"validity": 0, "_norm": 0}

        def counting_validity(omega, p):
            calls["validity"] += 1
            return original(omega, p)

        for module in list(sys.modules.values()):
            if module is not None and module.__name__.startswith("multibayes"):
                if getattr(module, "validity", None) is original:
                    monkeypatch.setattr(module, "validity", counting_validity)
        norm = validity_module._norm

        def counting_norm(omega, p):
            calls["_norm"] += 1
            return norm(omega, p)

        monkeypatch.setattr(validity_module, "_norm", counting_norm)
        for omega in (OMEGA, OMEGA.to_float()):
            psi = fresh(PSI)
            jeffrey_update(omega, psi)
            pearl_update(omega, psi)
            calls.update(validity=0, _norm=0)
            jeffrey_validity(omega, psi)
            vfe_update(omega, psi)
            pearl_validity(omega, psi)
            assert calls == {"validity": 0, "_norm": 0}
        # the counter is live: a validity on its own is counted
        validity_module.validity(OMEGA, PT)
        assert calls["validity"] == 1


def counting(monkeypatch, name):
    """The calls of ``validity.<name>``, counted from now on."""
    validity_module = importlib.import_module("multibayes.validity")
    calls = []
    original = getattr(validity_module, name)
    monkeypatch.setattr(validity_module, name, lambda omega, p: calls.append(p) or original(omega, p))
    return calls


class TrackedDist(Dist):
    """A distribution that can be weakly referenced."""

    __slots__ = ("__weakref__",)


class TestFactorMemo:
    def test_evidences_sharing_a_factor_build_its_posterior_once(self, monkeypatch):
        updates = counting(monkeypatch, "_update")
        p, q = Factor(OMEGA.space, PT.values), Factor(OMEGA.space, NT.values)
        first = jeffrey_update(OMEGA, Evidence([(p, 2), (q, 1)]))
        assert updates == [p, q]
        second = jeffrey_update(OMEGA, Evidence([(q, 1), (p, 5)]))
        assert updates == [p, q]
        assert first == jeffrey_update(OMEGA, fresh(PSI))
        assert second == jeffrey_update(OMEGA, fresh(Evidence([(NT, 1), (PT, 5)])))

    def test_an_equal_factor_does_not_share_the_memo(self, monkeypatch):
        updates = counting(monkeypatch, "_update")
        p = Factor(OMEGA.space, PT.values)
        twin = Factor(OMEGA.space, PT.values)
        assert twin == p and twin is not p
        jeffrey_update(OMEGA, Evidence([(p, 1)]))
        jeffrey_update(OMEGA, Evidence([(twin, 1)]))
        assert updates == [p, twin]

    def test_errors_are_raised_again_from_another_evidence(self):
        space = SampleSpace("abc")
        omega = Dist(space, (Fraction(1, 2), Fraction(1, 2), Fraction(0)))
        zero = point_pred("c", space)
        with pytest.raises(ZeroValidityError, match="#0"):
            jeffrey_update(omega, Evidence([(zero, 1), (truth(space), 1)]))
        for rule in (jeffrey_update, vfe_update):
            with pytest.raises(ZeroValidityError, match="#1"):
                rule(omega, Evidence([(truth(space), 1), (zero, 2)]))
        overflow_prior, overflow_psi = memo_cases()[-1]
        huge = overflow_psi.factors[1]
        with pytest.raises(FloatRangeError, match="validity overflows"):
            jeffrey_validity(overflow_prior, Evidence([(huge, 1)]))
        with pytest.raises(FloatRangeError, match="validity overflows"):
            vfe_update(overflow_prior, Evidence([(truth(huge.space), 1), (huge, 1)]))
        with pytest.raises(FloatRangeError, match="validity overflows"):
            jeffrey_update(overflow_prior, Evidence([(huge, 2)]))

    def test_alternating_priors_re_key_the_memo(self, monkeypatch):
        updates = counting(monkeypatch, "_update")
        p = Factor(OMEGA.space, PT.values)
        other = Dist(OMEGA.space, (Fraction(1, 3), Fraction(2, 3)))
        for omega, built in ((OMEGA, 1), (other, 2), (OMEGA, 3), (OMEGA, 3), (other, 4)):
            assert bayes_update(omega, p) == bayes_update(omega, Factor(p.space, p.values))
            assert sum(q is p for q in updates) == built

    def test_a_second_prior_frees_the_first_and_its_posterior(self, monkeypatch):
        validity_module = importlib.import_module("multibayes.validity")
        update = validity_module._update

        def tracked_update(omega, p):
            posterior, norm = update(omega, p)
            return TrackedDist(posterior.space, posterior.weights), norm

        monkeypatch.setattr(validity_module, "_update", tracked_update)
        p = Factor(OMEGA.space, PT.values)
        prior = TrackedDist(OMEGA.space, OMEGA.weights)
        posterior = bayes_update(prior, p)
        refs = weakref.ref(prior), weakref.ref(posterior)
        del prior, posterior
        assert all(ref() is not None for ref in refs)  # the memo keeps them
        bayes_update(OMEGA, p)
        assert all(ref() is None for ref in refs)

    def test_pearl_shares_the_conjunction_normaliser(self, monkeypatch):
        posterior, likelihood = pearl_update(OMEGA, fresh(PSI)), pearl_validity(OMEGA, fresh(PSI))
        norms, updates = counting(monkeypatch, "_norm"), counting(monkeypatch, "_update")
        psi = fresh(PSI)
        assert pearl_update(OMEGA, psi) == posterior
        assert pearl_validity(OMEGA, psi) == likelihood
        assert len(updates) == 1 and updates[0] is and_conj(psi) and norms == []


#: each reader of a normaliser, on a prior, a factor p and the evidence {p: 1}
NORMALISER_READERS = {
    "validity": lambda omega, p, psi: validity(omega, p),
    "covariance": lambda omega, p, psi: covariance(omega, p, truth(p.space)),
    "bayes_update": lambda omega, p, psi: bayes_update(omega, p),
    "jeffrey_update": lambda omega, p, psi: jeffrey_update(omega, psi),
    "pearl_update": lambda omega, p, psi: pearl_update(omega, psi),
    "vfe_update": lambda omega, p, psi: vfe_update(omega, psi),
    "vfe_update_softmax": lambda omega, p, psi: vfe_update_softmax(omega, psi),
    "free_energy_objective": lambda omega, p, psi: free_energy_objective(omega, omega, psi),
    "jeffrey_validity": lambda omega, p, psi: jeffrey_validity(omega, psi),
    "pearl_validity": lambda omega, p, psi: pearl_validity(omega, psi),
    "iterated_pearl_validity": lambda omega, p, psi: iterated_pearl_validity(omega, [p]),
    "log_likelihood_score": lambda omega, p, psi: log_likelihood_score(omega, omega, psi),
}

BIG = int(sys.float_info.max)
HALVES = Dist(SampleSpace("ab"), (Fraction(1, 2), Fraction(1, 2)))
#: what each reader returns on HALVES and the exact factor (BIG, BIG)
EXACT_VALUES = {
    "validity": BIG,
    "covariance": 0,
    "bayes_update": HALVES,
    "jeffrey_update": HALVES,
    "pearl_update": HALVES,
    "vfe_update": HALVES.to_float(),
    "vfe_update_softmax": HALVES.to_float(),
    "free_energy_objective": 0.0,
    "jeffrey_validity": BIG,
    "pearl_validity": BIG,
    "iterated_pearl_validity": BIG,
    "log_likelihood_score": 0.0,
}


class TestOneNormaliserCheck:
    """Every reader of a normaliser gets it from ``validity._entry``,
    which range-checks it before it keeps it."""

    @pytest.mark.parametrize("name", list(NORMALISER_READERS))
    def test_a_normaliser_beyond_the_float_range_fails_as_the_validity(self, name):
        space = SampleSpace("ab")
        omega = Dist(space, (0.5, 0.5 + 5e-10))
        p = Factor(space, (sys.float_info.max, sys.float_info.max))
        for _ in range(2):  # a failure is not kept, so the next call raises again
            with pytest.raises(FloatRangeError, match="^validity overflows the float range$"):
                NORMALISER_READERS[name](omega, p, Evidence([(p, 1)]))

    @pytest.mark.parametrize("name", list(NORMALISER_READERS))
    def test_the_exact_twin_returns_its_value(self, name):
        p = Factor(HALVES.space, (BIG, BIG))
        for _ in range(2):
            assert NORMALISER_READERS[name](HALVES, p, Evidence([(p, 1)])) == EXACT_VALUES[name]

    def test_two_validities_on_one_prior_sum_once(self, monkeypatch):
        norms = counting(monkeypatch, "_norm")
        for omega in (OMEGA, OMEGA.to_float()):
            p = Factor(OMEGA.space, PT.values)
            assert validity(omega, p) == validity(omega, p)
            assert sum(q is p for q in norms) == 1
