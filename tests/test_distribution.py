"""Distributions and their structural operations."""

from fractions import Fraction

import pytest

from multibayes import (
    Dist,
    Factor,
    NonConvexWeightsError,
    SampleSpace,
    SpaceMismatchError,
    UnknownElementError,
    acc,
    bayes_update,
    convex_sum,
    copy_dist,
    dirac,
    flrn,
    marginal,
    multinomial,
    multiset_space,
    push_function,
    tensor,
    tensor_power,
    uniform,
)
from multibayes.models import medical_model

AB = SampleSpace("ab")
COIN = SampleSpace(("H", "T"))
FAIR = Dist(COIN, (Fraction(1, 2), Fraction(1, 2)))
MEDICAL_PRIOR = medical_model().prior


class TestInvariants:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Dist(AB, (Fraction(1, 2), Fraction(1, 3)))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Dist(AB, (Fraction(3, 2), Fraction(-1, 2)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError):
            Dist(AB, (bad, 0.5))

    def test_float_mode_tolerance(self):
        Dist(AB, (0.5, 0.5 + 1e-12))
        with pytest.raises(ValueError):
            Dist(AB, (0.5, 0.51))

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError, match="sum is 0"):
            Dist(SampleSpace([]), [])
        with pytest.raises(ValueError, match="sum is 0"):
            uniform(SampleSpace([]))

    def test_messages_abridge_values_of_many_digits(self):
        # the sum, about 3**-4000, has a denominator of 5289 digits, more than Python prints
        with pytest.raises(ValueError, match=r"^weights: sum is 3.27326465787E-1909, expected 1$"):
            Dist(AB, (Fraction(1, 3**4000), Fraction(1, 7**4000)))
        with pytest.raises(ValueError, match=r"^factor values: -1.00000000000E\+5000 is not finite and non-negative$"):
            Factor(AB, (Fraction(-10**5000), 1))

    def test_equality_on_union_of_spaces(self):
        wide = Dist(SampleSpace("abc"), (Fraction(1), Fraction(0), Fraction(0)))
        narrow = Dist(SampleSpace("a"), (Fraction(1),))
        assert wide == narrow
        assert narrow != Dist(AB, (Fraction(1, 2), Fraction(1, 2)))

    def test_get_outside_the_space_is_a_zero_of_the_mode(self):
        assert FAIR.get("E") == 0 and type(FAIR.get("E")) is Fraction
        assert FAIR.to_float().get("E") == 0 and type(FAIR.to_float().get("E")) is float
        assert FAIR.get("H") == Fraction(1, 2) and FAIR.to_float().get("H") == 0.5


class TestDirac:
    def test_point_weight(self):
        assert dirac("a", AB)("a") == 1
        assert dirac("a", AB)("b") == 0

    def test_unknown_element(self):
        with pytest.raises(UnknownElementError):
            dirac("z", AB)

    def test_update_of_point_distribution(self):
        from multibayes import Factor

        p = Factor(AB, (Fraction(1, 3), Fraction(2, 3)))
        assert bayes_update(dirac("a", AB), p) == dirac("a", AB)

    def test_flrn_of_singleton(self):
        assert flrn(acc(("a",), AB)) == dirac("a", AB)


class TestConvexSum:
    def test_worked_mixture(self):
        d1 = Dist(AB, (Fraction(1, 2), Fraction(1, 2)))
        d2 = Dist(AB, (Fraction(1, 4), Fraction(3, 4)))
        mixed = convex_sum((Fraction(1, 3), Fraction(2, 3)), (d1, d2))
        assert mixed == Dist(AB, (Fraction(1, 3), Fraction(2, 3)))

    def test_identity_mixture(self):
        d = Dist(AB, (Fraction(2, 5), Fraction(3, 5)))
        assert convex_sum((Fraction(1),), (d,)) == d

    def test_uniform_from_point_masses(self):
        mixed = convex_sum((Fraction(1, 2), Fraction(1, 2)), (dirac("a", AB), dirac("b", AB)))
        assert mixed == Dist(AB, (Fraction(1, 2), Fraction(1, 2)))

    def test_bad_weights(self):
        d = Dist(AB, (Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(NonConvexWeightsError):
            convex_sum((Fraction(1, 2), Fraction(1, 3)), (d, d))

    def test_space_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            convex_sum(
                (Fraction(1, 2), Fraction(1, 2)),
                (Dist(AB, (1, 0)), Dist(COIN, (1, 0))),
            )


class TestTensor:
    def test_two_coins(self):
        product = tensor(FAIR, FAIR)
        assert all(w == Fraction(1, 4) for w in product.weights)

    def test_marginal_recovers_factor(self):
        rho = Dist(AB, (Fraction(1, 3), Fraction(2, 3)))
        assert marginal(tensor(rho, dirac("H", COIN)), 0) == rho

    def test_power_one_keeps_weights(self):
        assert tensor_power(FAIR, 1).weights == FAIR.weights


class TestPushFunction:
    def test_copy_differs_from_product(self):
        copied = copy_dist(FAIR)
        assert copied == Dist(
            SampleSpace((("H", "H"), ("T", "T"))), (Fraction(1, 2), Fraction(1, 2))
        )
        assert copied != tensor(FAIR, FAIR)

    def test_projection_recovers_marginal(self):
        rho = Dist(AB, (Fraction(1, 4), Fraction(3, 4)))
        assert marginal(tensor(rho, FAIR), 0) == rho
        assert marginal(tensor(FAIR, rho), -1) == rho

    @pytest.mark.parametrize(
        "tau, index",
        [(MEDICAL_PRIOR, 0), (tensor(MEDICAL_PRIOR, MEDICAL_PRIOR), 2), (multinomial(2, MEDICAL_PRIOR), 0),
         (tensor(FAIR, FAIR), True), (tensor(FAIR, FAIR), 0.0)],
        ids=["string-labels", "index-past-the-tuple", "multiset-labels", "bool-index", "float-index"],
    )
    def test_marginal_needs_a_coordinate_of_every_tuple_label(self, tau, index):
        # a string label was sliced, a short tuple raised IndexError and a multiset TypeError
        with pytest.raises(ValueError, match="marginal index must pick a coordinate"):
            marginal(tau, index)

    def test_identity_function(self):
        rho = Dist(AB, (Fraction(1, 4), Fraction(3, 4)))
        assert push_function(lambda x: x, rho) == rho

    def test_an_image_outside_the_declared_codomain_is_refused(self):
        rho = Dist(AB, (Fraction(1, 4), Fraction(3, 4)))
        with pytest.raises(UnknownElementError, match="image 'z' is not in the declared codomain"):
            push_function(lambda x: "z" if x == "b" else x, rho, cod=AB)


class TestMultinomial:
    def test_three_draws_exact_table(self):
        space = SampleSpace("RGB")
        omega = Dist(space, (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)))
        draws = multinomial(3, omega)
        expected = [
            Fraction(1, 8), Fraction(1, 4), Fraction(1, 6), Fraction(1, 27),
            Fraction(1, 8), Fraction(1, 6), Fraction(1, 18), Fraction(1, 24),
            Fraction(1, 36), Fraction(1, 216),
        ]
        assert list(draws.weights) == expected

    def test_zero_draws_is_point_mass(self):
        omega = Dist(AB, (Fraction(1, 3), Fraction(2, 3)))
        draws = multinomial(0, omega)
        assert draws.weights == (Fraction(1),)

    def test_one_draw_mirrors_distribution(self):
        omega = Dist(AB, (Fraction(1, 3), Fraction(2, 3)))
        draws = multinomial(1, omega)
        by_element = {phi.support()[0]: w for phi, w in draws.items()}
        assert by_element == {"a": Fraction(1, 3), "b": Fraction(2, 3)}

    def test_sums_to_one_exactly(self):
        omega = Dist(SampleSpace("abcd"), (Fraction(1, 7), Fraction(2, 7), Fraction(4, 7), 0))
        for size in range(6):
            assert sum(multinomial(size, omega).weights, Fraction(0)) == 1

    def test_equals_accumulated_power(self):
        omega = Dist(AB, (Fraction(2, 5), Fraction(3, 5)))
        for size in range(4):
            pushed = push_function(
                lambda t: acc(t, AB), tensor_power(omega, size), cod=multiset_space(AB, size)
            )
            assert pushed == multinomial(size, omega)
