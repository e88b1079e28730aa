"""Factors, predicates and evidence multisets."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from multibayes import (
    Dist,
    EmptyEvidenceError,
    Evidence,
    Factor,
    FloatRangeError,
    MatchStatus,
    NotAPredicateError,
    SampleSpace,
    SpaceMismatchError,
    UnknownElementError,
    ZeroPowerError,
    and_conj,
    conj,
    falsity,
    frac_conj,
    indicator,
    iterated_pearl_validity,
    jeffrey_update,
    jeffrey_validity,
    match_status,
    ortho,
    pearl_update,
    pearl_validity,
    point_pred,
    tensor_conj,
    tensor_factor,
    tensor_power,
    truth,
    validity,
    vfe_update,
    vfe_update_softmax,
)
from multibayes.core import label_str
from multibayes.evidence import add, scale
from multibayes.multiset import multiset_space

D = SampleSpace(("d", "~d"))
PT = Factor(D, (Fraction(9, 10), Fraction(2, 5)))
NT = Factor(D, (Fraction(1, 10), Fraction(3, 5)))
LMR = SampleSpace(("L", "M", "R"))

#: Each reader of evidence that needs at least one factor, on a prior and
#: the empty evidence.
EMPTY_EVIDENCE_READERS = {
    "space": lambda omega, psi: psi.space,
    "frac_conj": lambda omega, psi: frac_conj(psi),
    "tensor_conj": lambda omega, psi: tensor_conj(psi),
    "jeffrey_validity": jeffrey_validity,
    "pearl_validity": pearl_validity,
    "jeffrey_update": jeffrey_update,
    "pearl_update": pearl_update,
    "vfe_update": vfe_update,
    "iterated_pearl_validity": lambda omega, psi: iterated_pearl_validity(omega, psi.factors),
}

unit_values = st.fractions(min_value=0, max_value=1, max_denominator=24)


class TestConstructors:
    def test_indicator_values(self):
        assert indicator(("L", "R"), LMR).values == (1, 0, 1)

    def test_indicator_is_ortho_of_point(self):
        assert indicator(("L", "R"), LMR) == ortho(point_pred("M", LMR))

    def test_truth_is_ortho_of_falsity(self):
        assert truth(D) == ortho(falsity(D))

    @pytest.mark.parametrize(
        "space, element",
        [
            pytest.param(space, x, id=label_str(x))
            for space in (D, LMR.product(D), multiset_space(D, 2))
            for x in space
        ],
    )
    def test_point_pred_is_singleton_indicator(self, space, element):
        pred = point_pred(element, space)
        assert pred == indicator((element,), space) and pred._den == 1
        with pytest.raises(UnknownElementError) as by_indicator:
            indicator(("zz",), space)
        with pytest.raises(UnknownElementError) as by_point:
            point_pred("zz", space)
        assert str(by_point.value) == str(by_indicator.value)

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            Factor(D, (Fraction(-1, 2), Fraction(1, 2)))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(ValueError):
            Factor(D, (bad, 1))

    def test_predicate_and_sharp_flags(self):
        assert PT.is_predicate and not PT.is_sharp
        assert indicator(("d",), D).is_sharp
        assert not Factor(D, (Fraction(3, 2), Fraction(0))).is_predicate


class TestAlgebra:
    def test_triple_conjunction_table(self):
        ppnt = conj(conj(PT, PT), NT)
        assert ppnt.values == (Fraction(81, 1000), Fraction(12, 125))

    def test_truth_falsity_units(self):
        assert conj(PT, truth(D)) == PT
        assert conj(PT, falsity(D)) == falsity(D)

    def test_test_predicates_sum_to_truth(self):
        assert add(PT, NT) == truth(D)
        assert ortho(PT) == NT

    def test_scale_and_operators(self):
        assert scale(Fraction(1, 2), PT).values == (Fraction(9, 20), Fraction(1, 5))
        assert (PT & NT) == conj(PT, NT)
        assert (PT + NT) == truth(D)
        assert (~PT) == NT
        assert (PT**2).values == (Fraction(81, 100), Fraction(4, 25))

    @pytest.mark.parametrize("exponent", [True, False])
    def test_boolean_exponent_rejected(self, exponent):
        # as as_scalar refuses booleans; float(True) would give a float-mode copy
        with pytest.raises(TypeError, match="booleans"):
            PT**exponent

    @pytest.mark.parametrize(
        "exponent, values",
        [
            (2, (Fraction(1, 4), Fraction(1))),
            (Fraction(2), (Fraction(1, 4), Fraction(1))),
            ("2", (Fraction(1, 4), Fraction(1))),
            (0, (Fraction(1), Fraction(1))),
            (-2, (Fraction(4), Fraction(1))),
            (Fraction(-2), (Fraction(4), Fraction(1))),
            ("-2", (Fraction(4), Fraction(1))),
            (0.5, (0.5**0.5, 1.0)),
            ("1/2", (0.5**0.5, 1.0)),
            (2.0, (0.25, 1.0)),
        ],
        ids=repr,
    )
    def test_exponents_are_read_as_scalars(self, exponent, values):
        # an exact integer exponent gives an exact factor, as ** 2 does; others give floats
        result = Factor(SampleSpace("ab"), (Fraction(1, 2), 1)) ** exponent
        assert [(type(v), v) for v in result.values] == [(type(v), v) for v in values]

    @pytest.mark.parametrize(
        "values, exponent, expected",
        [
            ((0, Fraction(1, 2)), 0, (Fraction(1), Fraction(1))),
            ((0, Fraction(1, 2)), 0.0, (1.0, 1.0)),
            ((0.0, 0.5), 0, (1.0, 1.0)),
            ((0, Fraction(1, 2)), 0.5, (0.0, 0.5**0.5)),
            ((0, Fraction(1, 2)), -1, ZeroPowerError),
            ((0, Fraction(1, 2)), -1.0, ZeroPowerError),
            ((0, Fraction(1, 2)), Fraction(-1, 2), ZeroPowerError),
            ((0.0, 0.5), -1, ZeroPowerError),
            ((0.0, 0.5), -0.5, ZeroPowerError),
        ],
        ids=repr,
    )
    def test_a_zero_value_agrees_across_modes(self, values, exponent, expected):
        # 0 ** 0 is 1 and 0 ** -1 has no value, whether the base or the exponent is float;
        # the typed error is a ZeroDivisionError too, as Python's own 0 ** -1 raises
        p = Factor(SampleSpace("ab"), values)
        if expected is ZeroPowerError:
            with pytest.raises(ZeroPowerError, match="^negative power of a factor with a zero value$") as info:
                p**exponent
            assert isinstance(info.value, ZeroDivisionError)
        else:
            assert [(type(v), v) for v in (p**exponent).values] == [(type(v), v) for v in expected]

    @pytest.mark.parametrize("exponent", [2, Fraction(2), "2"], ids=repr)
    def test_an_exact_integer_exponent_keeps_its_powers(self, exponent):
        p = Factor(SampleSpace("ab"), (Fraction(1, 2), 1))
        p**exponent
        assert list(p._powers) == [2]  # the powers the conjunction shares

    def test_ortho_requires_predicate(self):
        with pytest.raises(NotAPredicateError):
            ortho(Factor(D, (Fraction(2), Fraction(1))))

    def test_conj_requires_shared_space(self):
        with pytest.raises(SpaceMismatchError):
            conj(PT, truth(LMR))

    @given(values=st.lists(unit_values, min_size=2, max_size=2))
    def test_ortho_involution(self, values):
        p = Factor(D, values)
        assert ortho(ortho(p)) == p
        assert add(p, ortho(p)) == truth(D)


class TestEvidence:
    def test_merging_of_equal_factors(self):
        rebuilt = Factor(D, (Fraction(9, 10), Fraction(2, 5)))
        psi = Evidence(((PT, 1), (rebuilt, 1), (NT, 1)))
        assert psi.counts == (2, 1)
        assert psi.size == 3
        assert psi.coefficient() == 3

    @pytest.mark.parametrize("float_first", [False, True])
    def test_an_exact_and_an_equal_float_factor_merge_into_the_float_one(self, float_first):
        # float as soon as one is: the order of the members does not choose the mode
        ab = SampleSpace("ab")
        exact = Factor(ab, (Fraction(1, 2), Fraction(1, 4)))
        floats = Factor(ab, (0.5, 0.25))
        members = [(floats, 1), (exact, 2)] if float_first else [(exact, 2), (floats, 1)]
        psi = Evidence(members)
        assert psi.factors[0] is floats and psi.counts == (3,)
        assert (Evidence(members[:1]) + Evidence(members[1:])).factors[0] is floats
        omega = Dist(ab, (Fraction(1, 3), Fraction(2, 3)))
        only_floats = Evidence(((Factor(ab, (0.5, 0.25)), 3),))
        for fn in (jeffrey_validity, pearl_validity, jeffrey_update, pearl_update, vfe_update, vfe_update_softmax):
            got, want = fn(omega, psi), fn(omega, only_floats)
            if isinstance(got, Dist):
                got, want = got.weights, want.weights
            assert repr(got) == repr(want)
        assert repr(and_conj(psi).values) == repr(and_conj(only_floats).values)

    def test_spaces_equal_but_built_apart_are_one_space(self):
        twin = SampleSpace(("d", "~d"))
        rebuilt = Factor(twin, PT.values)
        psi = Evidence(((PT, 1), (rebuilt, 2), (NT, 1)))
        assert psi.factors == (PT, NT) and psi.counts == (3, 1)
        assert Evidence(((rebuilt, 1), (NT, 1))).counts == (1, 1)
        with pytest.raises(SpaceMismatchError):
            Evidence(((PT, 1), (Factor(SampleSpace(("~d", "d")), NT.values), 1)))

    def test_the_same_factor_twice_merges(self):
        psi = Evidence(((PT, 2), (NT, 1), (PT, 3)))
        assert psi.factors == (PT, NT) and psi.counts == (5, 1)

    def test_zero_counts_dropped(self):
        psi = Evidence(((PT, 0), (NT, 2)))
        assert psi.factors == (NT,)

    def test_addition_merges(self):
        psi = Evidence(((PT, 2),)) + Evidence(((PT, 1), (NT, 1)))
        assert psi(PT) == 3 and psi(NT) == 1

    def test_str_and_repr(self):
        psi = Evidence(((PT, 2), (NT, 1)))
        text = "2|9/10*1{d} + 2/5*1{~d}> + 1|1/10*1{d} + 3/5*1{~d}>"
        assert (str(psi), repr(psi)) == (text, f"Evidence({text})")
        assert repr(Evidence(((Factor(D, (0.5, 1.0)), 1),))) == "Evidence(1|0.5*1{d} + 1.0*1{~d}>)"
        for empty in (Evidence(()), Evidence(((PT, 0),))):
            assert (str(empty), repr(empty)) == ("0", "Evidence(0)")

    def test_size_counts_and_scale(self):
        psi = Evidence(((PT, 2), (NT, 1)))
        assert psi.counts == (2, 1) and psi.size == 3
        tripled = psi.scale(3)
        assert tripled.factors == (PT, NT) and tripled.counts == (6, 3) and tripled.size == 9
        assert psi.scale(0) == Evidence(()) and psi.scale(0).counts == () and psi.scale(0).size == 0
        with pytest.raises(ValueError, match="scaling factor must be a natural number"):
            psi.scale(-1)

    def test_a_distribution_is_not_an_evidence_member(self):
        omega = Dist(D, (Fraction(1, 2), Fraction(1, 2)))
        with pytest.raises(TypeError, match="evidence members must be factors, not Dist"):
            pearl_update(omega, Evidence([(omega, 2)]))

    def test_a_tuple_is_not_an_evidence_member(self):
        with pytest.raises(TypeError, match="evidence members must be factors, not tuple"):
            Evidence([((1, 2), 1)])

    def test_evidence_is_not_hashable(self):
        with pytest.raises(TypeError):
            hash(Evidence(((PT, 1),)))


class TestConjunctions:
    def test_and_conj_is_iterated_product(self):
        q = Factor(D, (Fraction(1, 2), Fraction(1, 3)))
        r = Factor(D, (Fraction(1, 5), Fraction(1, 7)))
        psi = Evidence(((q, 2), (r, 3)))
        expected = conj(conj(q, q), conj(r, conj(r, r)))
        assert and_conj(psi) == expected

    def test_and_conj_singleton(self):
        assert and_conj(Evidence(((PT, 1),))) == PT

    def test_and_conj_medical_conjunction(self):
        psi = Evidence(((PT, 2), (NT, 1)))
        assert and_conj(psi).values == (Fraction(81, 1000), Fraction(12, 125))

    def test_and_conj_empty_rejected(self):
        with pytest.raises(EmptyEvidenceError):
            and_conj(Evidence(()))

    @pytest.mark.parametrize("read", EMPTY_EVIDENCE_READERS.values(), ids=EMPTY_EVIDENCE_READERS)
    def test_every_reader_of_empty_evidence_raises_the_same_error(self, read):
        with pytest.raises(EmptyEvidenceError):
            read(Dist(D, (Fraction(1, 20), Fraction(19, 20))), Evidence(()))

    def test_tensor_conj_matches_iterated_tensor(self):
        q = Factor(D, (Fraction(1, 2), Fraction(1, 3)))
        r = Factor(D, (Fraction(1, 5), Fraction(1, 7)))
        psi = Evidence(((q, 2), (r, 3)))
        expected = tensor_factor(q, q)
        for nxt in (r, r, r):
            expected = tensor_factor(expected, nxt)
        flattened = Factor(
            psi.space.power(5),
            tuple(expected.values),
        )
        assert tensor_conj(psi).values == flattened.values

    def test_tensor_conj_validity_in_power(self):
        omega = Dist(D, (Fraction(1, 4), Fraction(3, 4)))
        psi = Evidence(((PT, 2), (NT, 2)))
        lhs = validity(tensor_power(omega, 4), tensor_conj(psi))
        rhs = validity(omega, PT) ** 2 * validity(omega, NT) ** 2
        assert lhs == rhs

    def test_frac_conj_single_and_repeated_factor(self):
        assert frac_conj(Evidence(((PT, 1),))).values == tuple(float(v) for v in PT.values)
        assert frac_conj(Evidence(((PT, 4),))).values == pytest.approx(
            tuple(float(v) for v in PT.values)
        )

    def test_frac_conj_power_recovers_conjunction(self):
        psi = Evidence(((PT, 2), (NT, 1)))
        lifted = frac_conj(psi) ** 3
        for got, want in zip(lifted.values, and_conj(psi).values):
            assert float(got) == pytest.approx(float(want), abs=1e-9)

    def test_frac_conj_zero_stays_zero(self):
        psi = Evidence(((point_pred("d", D), 1), (truth(D), 1)))
        assert frac_conj(psi)("~d") == 0.0


BIG = Factor(D, (1e200, 1.0))
OVERFLOWING = {
    "power": Evidence(((BIG, 2),)),
    "product": Evidence(((BIG, 1), (Factor(D, (1e199, 1.0)), 1))),
    "exact prefix": Evidence(((Factor(D, (10**200, 1)), 1), (BIG, 1))),
}


class TestFloatOverflow:
    """Float overflow is a typed error, never a traceback or an inf result."""

    OMEGA = Dist(D, (Fraction(1, 2), Fraction(1, 2)))

    @pytest.mark.parametrize("case", OVERFLOWING)
    def test_conjunction_and_validities(self, case):
        psi = OVERFLOWING[case]
        for operation in (
            and_conj,
            lambda e: pearl_update(self.OMEGA, e),
            lambda e: pearl_validity(self.OMEGA, e),
            lambda e: jeffrey_validity(self.OMEGA, e),
        ):
            with pytest.raises(FloatRangeError):
                operation(psi)

    def test_exact_value_too_large_for_a_float(self):
        with pytest.raises(FloatRangeError):
            frac_conj(Evidence(((Factor(D, (10**400, 1)), 1),)))

    @pytest.mark.parametrize("exponent", [Fraction(10**400, 3), "1" * 400 + "/3"], ids=["Fraction", "str"])
    def test_non_integer_exponent_beyond_the_float_range(self, exponent):
        with pytest.raises(FloatRangeError, match="^factor power overflows the float range$"):
            PT**exponent

    def test_large_but_finite_results_pass(self):
        psi = Evidence(((Factor(D, (1e100, 1.0)), 3),))
        assert and_conj(psi).values == (1e300, 1.0)
        assert jeffrey_validity(self.OMEGA, psi) == (0.5e100 + 0.5) ** 3


class TestMatchStatus:
    def test_medical_perfect_match(self):
        assert match_status(Evidence(((PT, 2), (NT, 1)))) is MatchStatus.PERFECT_MATCH

    def test_truth_alone_is_perfect(self):
        assert match_status(Evidence(((truth(D), 1),))) is MatchStatus.PERFECT_MATCH

    def test_non_matching_pair(self):
        space = SampleSpace("ab")
        p = Factor(space, (Fraction(1), Fraction(1, 2)))
        q = Factor(space, (Fraction(4, 5), Fraction(1, 2)))
        assert match_status(Evidence(((p, 2), (q, 3)))) is MatchStatus.NO_MATCH

    def test_plain_match(self):
        space = SampleSpace("ab")
        p = Factor(space, (Fraction(1, 3), Fraction(1, 2)))
        q = Factor(space, (Fraction(1, 3), Fraction(1, 4)))
        assert match_status(Evidence(((p, 5), (q, 5)))) is MatchStatus.MATCH
