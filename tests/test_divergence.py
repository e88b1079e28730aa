"""Kullback-Leibler divergence and the channel lower bound."""

import json
import math
from fractions import Fraction

import pytest

from multibayes import (
    Channel,
    Dist,
    FloatRangeError,
    LogBaseError,
    SampleSpace,
    SupportMismatchError,
    dirac,
    expected_channel_divergence,
    flrn,
    kl_divergence,
    push,
    uniform,
    vfe_update,
)
from multibayes.cli import main
from multibayes.modelfile import builtin_medical_model, serialize_model
from multibayes.multiset import Multiset
from multibayes.models import medical_model

MEDICAL = medical_model()
AB = SampleSpace("ab")
HALF = Dist(AB, (Fraction(1, 2), Fraction(1, 2)))
#: Exact weights whose floats are 0.0 and 1.0.
TINY = Dist(AB, (Fraction(1, 10**400), 1 - Fraction(1, 10**400)))


class TestKlDivergence:
    def test_equal_distributions_give_zero(self):
        omega = Dist(AB, (Fraction(1, 3), Fraction(2, 3)))
        assert kl_divergence(omega, omega) == 0.0

    def test_zero_times_log_zero_convention(self):
        narrow = dirac("a", AB)
        wide = uniform(AB)
        assert kl_divergence(narrow, wide) == pytest.approx(0.6931471805599453, abs=1e-12)

    @pytest.mark.parametrize("weights", [(0.25, 0.25, 0.5), (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))])
    def test_second_distribution_on_a_larger_space(self, weights):
        rho = Dist(SampleSpace("abc"), weights)
        assert kl_divergence(Dist(AB, (0.5, 0.5)), rho) == math.log(2)
        assert kl_divergence(uniform(AB), rho) == math.log(2)
        with pytest.raises(SupportMismatchError):
            kl_divergence(uniform(SampleSpace("abd")), rho)

    @pytest.mark.parametrize("weights", [(0.25, 0.75), (Fraction(1, 4), Fraction(3, 4))])
    def test_spaces_built_apart_are_matched_by_element(self, weights):
        sigma = Dist(AB, (Fraction(1, 2), Fraction(1, 2)))
        expected = kl_divergence(sigma, Dist(AB, weights))
        assert kl_divergence(sigma, Dist(SampleSpace("ab"), weights)) == expected
        assert kl_divergence(sigma, Dist(SampleSpace("ba"), weights[::-1])) == expected

    def test_support_violation(self):
        with pytest.raises(SupportMismatchError):
            kl_divergence(uniform(AB), dirac("a", AB))

    @pytest.mark.parametrize("to_float", [False, True], ids=["exact", "float"])
    def test_support_violation_names_the_first_bad_element(self, to_float):
        space = SampleSpace("abcd")
        sigma = Dist(space, (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2), Fraction(0)))
        rho = Dist(space, (Fraction(1, 2), Fraction(0), Fraction(0), Fraction(1, 2)))
        if to_float:
            sigma, rho = sigma.to_float(), rho.to_float()
        with pytest.raises(SupportMismatchError, match=r"^divergence undefined: 'b' outside second support$"):
            kl_divergence(sigma, rho)

    def test_asymmetry_instance(self):
        sigma = Dist(AB, (Fraction(1, 4), Fraction(3, 4)))
        rho = uniform(AB)
        assert kl_divergence(sigma, rho) != kl_divergence(rho, sigma)

    def test_medical_prediction_divergences_in_bits(self):
        observed = flrn(Multiset(MEDICAL.test_space, (1, 1)))
        prior_prediction = push(MEDICAL.test_channel, MEDICAL.prior)
        assert kl_divergence(observed, prior_prediction, base=2) == pytest.approx(
            0.0164, abs=5e-4
        )
        posterior = vfe_update(MEDICAL.prior, MEDICAL.evidence(1, 1))
        posterior_prediction = push(MEDICAL.test_channel, posterior)
        assert kl_divergence(observed, posterior_prediction, base=2) == pytest.approx(
            0.0208, abs=5e-4
        )

    def test_base_two_is_scaled_natural_log(self):
        sigma = Dist(AB, (Fraction(1, 4), Fraction(3, 4)))
        rho = Dist(AB, (Fraction(2, 5), Fraction(3, 5)))
        import math

        assert kl_divergence(sigma, rho, base=2) == pytest.approx(
            kl_divergence(sigma, rho) / math.log(2), abs=1e-15
        )

    @pytest.mark.parametrize("base", [1, 1.0, 0, -2, float("inf"), float("nan")])
    def test_bad_base_rejected(self, base):
        sigma = Dist(AB, (Fraction(1, 4), Fraction(3, 4)))
        with pytest.raises(LogBaseError):
            kl_divergence(sigma, sigma, base=base)
        c = Channel(AB, AB, (sigma, sigma))
        with pytest.raises(LogBaseError):
            expected_channel_divergence(sigma, sigma, c, base=base)

    @pytest.mark.parametrize("base", [0.5, Fraction(1, 2), 10])
    def test_bases_below_and_above_one_accepted(self, base):
        import math

        sigma = Dist(AB, (Fraction(1, 4), Fraction(3, 4)))
        rho = Dist(AB, (Fraction(2, 5), Fraction(3, 5)))
        assert kl_divergence(sigma, rho, base=base) == kl_divergence(sigma, rho) / math.log(base)


class TestExactWeightsBeyondTheFloatRange:
    """A term whose float weight or ratio is not a positive finite float
    is read from exact logarithms when both operands are exact."""

    def test_a_second_weight_below_the_float_range(self):
        # 1/2 ln(10**400 / 2) + 1/2 ln(1/2): the first ratio is 0.5 / 0.0 as floats
        assert kl_divergence(HALF, TINY) == pytest.approx(200 * math.log(10) - math.log(2), rel=1e-15)

    def test_a_first_weight_below_the_float_range(self):
        # the term of 1/10**400 rounds to zero, the other one is ln 2
        assert kl_divergence(TINY, HALF) == pytest.approx(math.log(2), rel=1e-15)
        assert kl_divergence(TINY, TINY) == 0.0

    def test_a_first_weight_below_the_float_range_in_every_mode(self):
        # a first weight whose float is 0.0 adds no term, whatever the second operand is
        pairs = [(sigma, rho) for sigma in (TINY, TINY.to_float()) for rho in (HALF, HALF.to_float())]
        assert {kl_divergence(sigma, rho) for sigma, rho in pairs} == {math.log(2)}

    def test_a_ratio_beyond_the_float_range(self):
        # 1e-320 is a subnormal float, and 0.5 / 1e-320 overflows
        subnormal = Dist(AB, (Fraction(1, 10**320), 1 - Fraction(1, 10**320)))
        assert kl_divergence(HALF, subnormal) == pytest.approx(160 * math.log(10) - math.log(2), rel=1e-15)
        with pytest.raises(FloatRangeError):
            kl_divergence(HALF.to_float(), subnormal.to_float())

    def test_a_float_operand_keeps_the_float_rule(self):
        with pytest.raises(FloatRangeError):
            kl_divergence(HALF.to_float(), TINY)
        with pytest.raises(FloatRangeError):
            kl_divergence(HALF, Dist(AB, (1e-320, 1.0)))

    def test_eval_prints_the_divergences(self, tmp_path, capsys):
        model = json.loads(serialize_model(builtin_medical_model()))
        model["distributions"]["prior"]["weights"] = [f"1/{10**400}", f"{10**400 - 1}/{10**400}"]
        model["distributions"]["half"] = {"space": "D", "weights": ["1/2", "1/2"]}
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        for expr, expected in (("kl_divergence(half, prior)", 200 * math.log(10) - math.log(2)),
                               ("kl_divergence(prior, half)", math.log(2))):
            assert main(["eval", "--model", str(path), "--expr", expr]) == 0, expr
            assert float(capsys.readouterr().out) == pytest.approx(expected, rel=1e-15)


class TestExpectedChannelDivergence:
    def test_constant_channel_reduces_to_row_divergence(self):
        row = Dist(AB, (Fraction(1, 3), Fraction(2, 3)))
        constant = Channel(AB, AB, (row, row))
        sigma = Dist(AB, (Fraction(1, 5), Fraction(4, 5)))
        rho = Dist(AB, (Fraction(1, 2), Fraction(1, 2)))
        assert expected_channel_divergence(sigma, rho, constant) == pytest.approx(
            kl_divergence(rho, row), abs=1e-12
        )

    def test_lower_bound_instance(self):
        c = Channel(
            AB,
            AB,
            (
                Dist(AB, (Fraction(1, 4), Fraction(3, 4))),
                Dist(AB, (Fraction(2, 3), Fraction(1, 3))),
            ),
        )
        sigma = Dist(AB, (Fraction(2, 5), Fraction(3, 5)))
        rho = Dist(AB, (Fraction(1, 2), Fraction(1, 2)))
        assert expected_channel_divergence(sigma, rho, c) >= kl_divergence(
            rho, push(c, sigma)
        ) - 1e-12
