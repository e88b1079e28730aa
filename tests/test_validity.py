"""Plain, Jeffrey and Pearl validity with the worked numeric instances."""

import importlib
import sys
from fractions import Fraction

import pytest

from multibayes import (
    Dist,
    Evidence,
    Factor,
    FloatRangeError,
    SampleSpace,
    SpaceMismatchError,
    ZeroValidityError,
    covariance,
    iterated_pearl_validity,
    jeffrey_update,
    jeffrey_validity,
    log_likelihood_score,
    pearl_validity,
    point_pred,
    truth,
    uniform,
    validity,
)
from multibayes.models import medical_model, validity_examples

MEDICAL = medical_model()
OMEGA, PT, NT, PSI = MEDICAL.prior, MEDICAL.pos_test, MEDICAL.neg_test, MEDICAL.three_tests
validity_module = importlib.import_module("multibayes.validity")  # the package's ``validity`` is the function


class TestValidity:
    def test_positive_test_probability(self):
        assert validity(OMEGA, PT) == Fraction(17, 40)

    def test_negative_test_probability(self):
        assert validity(OMEGA, NT) == Fraction(23, 40)

    def test_truth_and_point(self):
        assert validity(OMEGA, truth(OMEGA.space)) == 1
        assert validity(OMEGA, point_pred("d", OMEGA.space)) == OMEGA("d")

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            validity(OMEGA, truth(SampleSpace("ab")))

    def test_equal_spaces_built_apart_are_one_space(self):
        twin, swapped = SampleSpace(OMEGA.space.elements), SampleSpace(reversed(OMEGA.space.elements))
        assert twin is not OMEGA.space
        pt = Factor(twin, PT.values)
        psi = Evidence(((pt, 2), (Factor(twin, NT.values), 1)))
        assert validity(OMEGA, pt) == Fraction(17, 40)
        assert validity(Dist(twin, OMEGA.weights), PT) == Fraction(17, 40)
        assert jeffrey_validity(OMEGA, psi) == Fraction(19941, 64000)
        assert pearl_validity(OMEGA, psi) == pearl_validity(OMEGA, PSI)
        with pytest.raises(SpaceMismatchError):
            validity(OMEGA, Factor(swapped, PT.values))


class TestJeffreyValidity:
    def test_medical_prior(self):
        assert jeffrey_validity(OMEGA, PSI) == Fraction(19941, 64000)
        assert float(jeffrey_validity(OMEGA, PSI)) == pytest.approx(0.3116, abs=5e-4)

    def test_truth_evidence(self):
        assert jeffrey_validity(OMEGA, Evidence(((truth(OMEGA.space), 1),))) == 1

    def test_wide_gap_pair(self):
        omega, psi = validity_examples().wide_gap
        assert float(jeffrey_validity(omega, psi)) == pytest.approx(0.479, abs=5e-4)
        assert float(pearl_validity(omega, psi)) == pytest.approx(0.028, abs=5e-4)

    def test_reversal_pair(self):
        omega, chi = validity_examples().reversal
        jv = jeffrey_validity(omega, chi)
        pv = pearl_validity(omega, chi)
        assert float(jv) == pytest.approx(0.054, abs=5e-4)
        assert float(pv) == pytest.approx(0.154, abs=5e-4)
        assert jv < pv


class TestPearlValidity:
    def test_medical_prior(self):
        assert pearl_validity(OMEGA, PSI) == Fraction(1143, 4000)
        assert float(pearl_validity(OMEGA, PSI)) == pytest.approx(0.2858, abs=5e-4)

    def test_repeated_factor_dominates_jeffrey(self):
        psi = Evidence(((PT, 4),))
        assert jeffrey_validity(OMEGA, psi) <= pearl_validity(OMEGA, psi)

    def test_non_matching_escape(self):
        omega, psi = validity_examples().nonmatching
        assert jeffrey_validity(omega, psi) == Fraction(19773, 12800)
        assert pearl_validity(omega, psi) == Fraction(2173, 800)


class TestIteratedValidity:
    def test_medical_chain(self):
        assert iterated_pearl_validity(OMEGA, (PT, PT, NT)) == Fraction(381, 4000)

    def test_single_factor(self):
        assert iterated_pearl_validity(OMEGA, (PT,)) == validity(OMEGA, PT)

    def test_permutation_invariance(self):
        for order in ((PT, NT, PT), (NT, PT, PT)):
            assert iterated_pearl_validity(OMEGA, order) == Fraction(381, 4000)

    def test_reproduces_pearl_validity(self):
        assert 3 * iterated_pearl_validity(OMEGA, (PT, PT, NT)) == pearl_validity(OMEGA, PSI)

    def test_zero_chain_reports_prefix(self):
        space = SampleSpace("ab")
        omega = uniform(space)
        with pytest.raises(ZeroValidityError, match="#1"):
            iterated_pearl_validity(
                omega, (point_pred("a", space), point_pred("b", space))
            )


    @pytest.mark.parametrize("to_float", [False, True], ids=["exact", "float"])
    def test_each_factor_is_summed_once(self, monkeypatch, to_float):
        calls = {"_norm": 0, "_update": 0}
        for name in calls:
            original = getattr(validity_module, name)
            monkeypatch.setattr(validity_module, name,
                                lambda omega, p, name=name, original=original: calls.update({name: calls[name] + 1})
                                or original(omega, p))
        omega = OMEGA.to_float() if to_float else OMEGA
        factors = tuple(Factor(f.space, f.values) for f in (PT, PT, NT))  # fresh, with no memo
        expected = Fraction(381, 4000)
        assert iterated_pearl_validity(omega, factors) == (float(expected) if to_float else expected)
        # one update per factor before the last, which needs only its normaliser
        assert calls == {"_norm": 1, "_update": 2}

    def test_operands_are_checked_at_entry(self, monkeypatch):
        monkeypatch.setattr(validity_module, "_update", lambda omega, p: pytest.fail("a factor was summed"))
        with pytest.raises(TypeError, match="^validity arguments must be factors, not Dist$"):
            iterated_pearl_validity(OMEGA, (PT, OMEGA))
        with pytest.raises(SpaceMismatchError):
            iterated_pearl_validity(OMEGA, (PT, truth(SampleSpace("ab"))))

    def test_a_normaliser_beyond_the_float_range_fails_as_the_validity(self):
        # the weights sum to one within the float tolerance, not exactly
        omega = Dist(OMEGA.space, (0.5, 0.5 + 5e-10))
        huge = Factor(OMEGA.space, (sys.float_info.max,) * 2)
        for factors in ((huge, PT), (huge,)):  # before the last factor, and as the last
            with pytest.raises(FloatRangeError, match="^validity overflows the float range$"):
                iterated_pearl_validity(omega, factors)


class TestCovariance:
    def test_against_truth_is_zero(self):
        assert covariance(OMEGA, PT, truth(OMEGA.space)) == 0

    def test_half_gap_identity(self):
        psi = MEDICAL.evidence(1, 1)
        gap = pearl_validity(OMEGA, psi) - jeffrey_validity(OMEGA, psi)
        assert covariance(OMEGA, PT, NT) == gap / 2

    def test_self_covariance_value(self):
        # direct expansion: omega |= pt&pt minus the squared validity
        expected = (
            Fraction(1, 20) * Fraction(9, 10) ** 2
            + Fraction(19, 20) * Fraction(2, 5) ** 2
            - Fraction(17, 40) ** 2
        )
        assert expected == Fraction(19, 1600)
        assert covariance(OMEGA, PT, PT) == Fraction(19, 1600)


class TestLogLikelihood:
    def test_equal_distributions_score_zero(self):
        assert log_likelihood_score(OMEGA, OMEGA, PSI) == 0.0

    def test_medical_prior_vs_posterior_is_negative(self):
        posterior = jeffrey_update(OMEGA, PSI)
        assert log_likelihood_score(OMEGA, posterior, PSI) < 0
        assert jeffrey_validity(OMEGA, PSI) < jeffrey_validity(posterior, PSI)

    def test_zero_validity_rejected(self):
        space = SampleSpace("ab")
        omega = uniform(space)
        dead = Factor(space, (Fraction(0), Fraction(0)))
        with pytest.raises(ZeroValidityError, match="evidence factor #0"):
            log_likelihood_score(omega, omega, Evidence(((dead, 1),)))
