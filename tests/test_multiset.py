"""Multisets: accumulation, learning, coefficients, enumeration."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from multibayes import (
    Channel,
    Dist,
    EmptyMultisetError,
    Multiset,
    SampleSpace,
    SizeLimitError,
    UnknownElementError,
    acc,
    coefm,
    dirac,
    enumerate_multisets,
    flrn,
    multinomial,
    multinomial_channel,
    multiset_space,
    uniform,
)
from multibayes import core

ABC = SampleSpace("abc")


def ms(space, **counts):
    return Multiset.from_counts(space, counts)


class TestAcc:
    def test_paper_style_sequence(self):
        assert acc("cbaaba", ABC) == ms(ABC, a=3, b=2, c=1)

    def test_empty_sequence(self):
        phi = acc((), ABC)
        assert phi.size == 0
        assert phi.support() == ()

    def test_singleton(self):
        assert acc(("a",), ABC) == ms(ABC, a=1)

    def test_unknown_element(self):
        with pytest.raises(UnknownElementError):
            acc(("z",), ABC)

    @given(st.lists(st.sampled_from("abc"), max_size=10), st.randoms(use_true_random=False))
    def test_permutation_invariant_with_matching_size(self, seq, rnd):
        phi = acc(seq, ABC)
        assert phi.size == len(seq)
        shuffled = list(seq)
        rnd.shuffle(shuffled)
        assert acc(shuffled, ABC) == phi


class TestFlrn:
    def test_urn_normalisation(self):
        phi = ms(ABC, a=3, b=4, c=5)
        assert flrn(phi) == Dist(ABC, (Fraction(1, 4), Fraction(1, 3), Fraction(5, 12)))

    def test_singleton_gives_point_distribution(self):
        assert flrn(ms(ABC, a=1)) == dirac("a", ABC)

    def test_two_element_normalisation(self):
        space = SampleSpace(("p", "n"))
        assert flrn(ms(space, p=2, n=1)) == Dist(space, (Fraction(2, 3), Fraction(1, 3)))

    def test_empty_rejected(self):
        with pytest.raises(EmptyMultisetError):
            flrn(acc((), ABC))


class TestCoefm:
    def test_two_positive_one_negative(self):
        space = SampleSpace(("pt", "nt"))
        assert coefm(ms(space, pt=2, nt=1)) == 3

    def test_five_choose_two_three(self):
        space = SampleSpace(("p", "q"))
        assert coefm(ms(space, p=2, q=3)) == math.factorial(5) // (2 * 6)

    @pytest.mark.parametrize("k", [1, 2, 7])
    def test_single_element(self, k):
        assert coefm(ms(ABC, b=k)) == 1

    def test_counts_sequences_brute_force(self):
        space = SampleSpace("ab")
        for size in range(5):
            tallies = {}
            for seq in itertools.product(space.elements, repeat=size):
                key = acc(seq, space)
                tallies[key] = tallies.get(key, 0) + 1
            for phi in enumerate_multisets(space, size):
                assert tallies.get(phi, 0) == coefm(phi)


class TestEnumerate:
    def test_three_colours_size_three(self):
        space = SampleSpace("RGB")
        found = enumerate_multisets(space, 3)
        assert len(found) == math.comb(5, 3)
        assert len(set(found)) == len(found)
        assert all(phi.size == 3 for phi in found)

    def test_size_zero(self):
        assert enumerate_multisets(ABC, 0) == [acc((), ABC)]

    def test_two_element_listing(self):
        space = SampleSpace("ab")
        assert [phi.counts for phi in enumerate_multisets(space, 2)] == [(2, 0), (1, 1), (0, 2)]

    def test_empty_space(self):
        empty = SampleSpace(())
        assert enumerate_multisets(empty, 0) == [Multiset(empty, ())]
        assert enumerate_multisets(empty, 3) == []


class TestSizeGuard:
    # the limit is lowered so that no test ever starts a large enumeration

    def test_enumeration_above_the_limit_refused(self, monkeypatch):
        monkeypatch.setattr(core, "MAX_PRODUCT_ELEMENTS", 10)
        assert len(enumerate_multisets(ABC, 3)) == math.comb(5, 3) == 10
        with pytest.raises(SizeLimitError):
            enumerate_multisets(ABC, 4)

    def test_draw_spaces_refused_above_the_limit(self, monkeypatch):
        # spaces and sizes used nowhere else, so the multiset_space cache is cold
        monkeypatch.setattr(core, "MAX_PRODUCT_ELEMENTS", 9)
        space = SampleSpace("pqrs")
        with pytest.raises(SizeLimitError):
            multiset_space(space, 2)
        with pytest.raises(SizeLimitError):
            multinomial(3, uniform(space))
        with pytest.raises(SizeLimitError):
            multinomial_channel(Channel(ABC, space, [uniform(space)] * 3), 4)


class TestMultinomialTheorem:
    def test_exact_expansion(self):
        rs = [Fraction(1, 2), Fraction(-1, 3), Fraction(5, 7)]
        index = SampleSpace(range(len(rs)))
        for size in range(6):
            expanded = sum(
                Fraction(coefm(phi))
                * math.prod((rs[i] ** c for i, c in phi.items()), start=Fraction(1))
                for phi in enumerate_multisets(index, size)
            )
            assert expanded == sum(rs) ** size


class TestMultisetAlgebra:
    def test_add_and_scale(self):
        phi = ms(ABC, a=1, b=2)
        assert phi + ms(ABC, a=2) == ms(ABC, a=3, b=2)
        assert phi.scale(3) == ms(ABC, a=3, b=6)

    def test_str_uses_kets(self):
        assert str(ms(ABC, a=3, b=2)) == "3|a> + 2|b>"

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            Multiset(ABC, (1, -1, 0))
