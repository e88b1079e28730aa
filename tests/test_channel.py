"""Channels: transformation, evidence pull, reversal, draw channels."""

import random
from fractions import Fraction

import pytest

from multibayes import (
    Channel,
    Dist,
    Evidence,
    Factor,
    SampleSpace,
    SpaceMismatchError,
    ZeroValidityError,
    bayes_update,
    dagger,
    dirac,
    flrn,
    identity_channel,
    jeffrey_update,
    multinomial,
    multinomial_channel,
    pearl_update,
    pearl_validity,
    point_evidence,
    point_pred,
    pull,
    push,
    triple_pull,
    truth,
    validity,
)
from multibayes.multiset import Multiset, multiset_space
from multibayes.models import medical_model

MEDICAL = medical_model()
C = MEDICAL.test_channel
OMEGA = MEDICAL.prior
D, T = MEDICAL.disease_space, MEDICAL.test_space


class TestConstruction:
    def test_a_row_that_is_not_a_distribution_is_refused(self):
        # factors summing to 5/2 and 2 once made a push whose weights summed to 7/2
        with pytest.raises(TypeError, match="channel rows must be distributions, not Factor"):
            Channel(D, T, [Factor(T, (2, 3)), Factor(T, (1, 1))])

    def test_channels_are_equal_when_their_domains_and_rows_are(self):
        assert Channel(D, T, C.rows) == C
        # one row differs, or the rows are the same on another domain
        assert Channel(D, T, (C.rows[0], C.rows[0])) != C
        assert Channel(SampleSpace(reversed(D.elements)), T, C.rows) != C


def wide_channel() -> Channel:
    """An exact 256 -> 8 channel whose rows have small denominators."""
    rng = random.Random(256)
    xs = SampleSpace(f"x{i}" for i in range(256))
    ys = SampleSpace(f"y{j}" for j in range(8))
    rows = []
    for _ in xs:
        counts = [rng.randint(1, 3) for _ in ys]
        rows.append(Dist(ys, [Fraction(n, sum(counts)) for n in counts]))
    return Channel(xs, ys, rows)


@pytest.mark.parametrize("float_first", [False, True])
@pytest.mark.parametrize("build", [lambda: Channel(D, T, C.rows), wide_channel], ids=["medical", "256x8"])
def test_exact_rows_and_columns_are_built_with_the_channel(build, float_first):
    """The int columns exist once Channel() returns, and no push or pull
    replaces them; only the first float push sets the float columns."""
    c = build()
    columns = c._columns
    assert c._float_columns is None
    assert [[Fraction(n, c._den) for n in col] for col in columns] == [list(col) for col in zip(*[row.weights for row in c.rows])]
    omega = Dist(c.dom, [Fraction(k + 1, len(c.dom) * (len(c.dom) + 1) // 2) for k in range(len(c.dom))])
    q = Factor(c.cod, [Fraction(k, len(c.cod)) for k in range(len(c.cod))])
    calls = [(push, omega), (pull, q), (push, omega.to_float()), (pull, Factor(c.cod, [float(v) for v in q.values]))]
    pushed_float = False
    for fn, arg in calls[::-1] if float_first else calls:
        fn(c, arg)
        pushed_float = pushed_float or fn is push and arg._nums is None
        assert c._columns is columns
        assert (c._float_columns is not None) == pushed_float


class TestPush:
    def test_prediction_of_tests(self):
        assert push(C, OMEGA) == Dist(T, (Fraction(17, 40), Fraction(23, 40)))

    def test_identity_channel(self):
        assert push(identity_channel(D), OMEGA) == OMEGA

    def test_point_mass_gives_row(self):
        assert push(C, dirac("d", D)) == C("d")

    @pytest.mark.parametrize("to_float", [False, True])
    def test_equal_domains_built_apart_are_one_space(self, to_float):
        twin, swapped = SampleSpace(D.elements), SampleSpace(reversed(D.elements))
        assert twin is not D
        omega = OMEGA.to_float() if to_float else OMEGA
        on_twin = Dist(twin, omega.weights)
        assert push(C, on_twin) == push(C, omega)
        with pytest.raises(SpaceMismatchError):
            push(C, Dist(swapped, omega.weights))


class TestPull:
    def test_point_outcomes_give_test_factors(self):
        assert pull(C, point_pred("p", T)) == MEDICAL.pos_test
        assert pull(C, point_pred("n", T)) == MEDICAL.neg_test

    def test_truth_pulls_to_truth(self):
        assert pull(C, truth(T)) == truth(D)

    def test_equal_codomains_built_apart_are_one_space(self):
        twin, swapped = SampleSpace(T.elements), SampleSpace(reversed(T.elements))
        assert twin is not T
        assert pull(C, point_pred("p", twin)) == MEDICAL.pos_test
        with pytest.raises(SpaceMismatchError):
            pull(C, point_pred("p", swapped))

    def test_adjunction_instance(self):
        q = Factor(T, (Fraction(1, 3), Fraction(2, 7)))
        assert validity(push(C, OMEGA), q) == validity(OMEGA, pull(C, q))


class TestTriplePull:
    def test_point_evidence_becomes_test_evidence(self):
        psi = Evidence(((point_pred("p", T), 2), (point_pred("n", T), 1)))
        assert triple_pull(C, psi) == MEDICAL.three_tests

    def test_identity_channel_keeps_evidence(self):
        psi = MEDICAL.three_tests
        assert triple_pull(identity_channel(D), psi) == psi

    def test_constant_channel_yields_scaled_truth(self):
        rho = Dist(T, (Fraction(1, 3), Fraction(2, 3)))
        constant = Channel(D, T, (rho, rho))
        psi = Evidence(((point_pred("p", T), 1), (Factor(T, (1, 0)), 2)))
        pulled = triple_pull(constant, psi)
        # both factors collapse to (rho |= q) * truth and merge into one entry
        assert len(pulled.factors) == 1
        assert pulled.counts == (3,)
        assert pulled.factors[0].values == (Fraction(1, 3), Fraction(1, 3))


class TestDagger:
    def test_medical_rows_are_posteriors(self):
        reversed_channel = dagger(C, OMEGA)
        assert reversed_channel("p") == Dist(D, (Fraction(9, 85), Fraction(76, 85)))
        assert reversed_channel("n") == Dist(D, (Fraction(1, 115), Fraction(114, 115)))

    def test_identity_dagger_at_full_support(self):
        omega = Dist(D, (Fraction(1, 3), Fraction(2, 3)))
        assert dagger(identity_channel(D), omega) == identity_channel(D)

    def test_jeffrey_update_via_dagger(self):
        phi = Multiset(T, (2, 1))
        pulled = triple_pull(C, point_evidence(phi))
        assert push(dagger(C, OMEGA), flrn(phi)) == jeffrey_update(OMEGA, pulled)

    def test_zero_prediction_rejected(self):
        dead = Channel(D, T, (dirac("p", T), dirac("p", T)))
        with pytest.raises(ZeroValidityError, match="n"):
            dagger(dead, OMEGA)


class TestMultinomialChannel:
    def test_single_draw_mirrors_rows(self):
        draws = multinomial_channel(C, 1)
        for x in D:
            assert list(draws(x).weights) == list(C(x).weights)

    def test_push_equals_pearl_validity(self):
        draws = multinomial_channel(C, 3)
        pushed = push(draws, OMEGA)
        phi = Multiset(T, (2, 1))
        pulled = triple_pull(C, point_evidence(phi))
        assert pushed(phi) == pearl_validity(OMEGA, pulled)

    def test_pearl_update_via_draw_pullback(self):
        draws = multinomial_channel(C, 3)
        phi = Multiset(T, (2, 1))
        via_pull = bayes_update(OMEGA, pull(draws, point_pred(phi, draws.cod)))
        assert via_pull == pearl_update(OMEGA, triple_pull(C, point_evidence(phi)))

    def test_rows_are_draw_distributions(self):
        draws = multinomial_channel(C, 2)
        assert draws.cod == multiset_space(T, 2)
        assert draws("d") == multinomial(2, C("d"))
