"""Scalar helpers, sample spaces, the operand and finiteness rules and the package's public names."""

import __future__
import math
import re
import time
import types
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, strategies as st

import multibayes
from multibayes import (
    Channel,
    Dist,
    Evidence,
    Factor,
    FloatRangeError,
    MatchStatus,
    Multiset,
    NonPositiveLogError,
    SampleSpace,
    SizeLimitError,
    SpaceMismatchError,
    UnknownElementError,
    and_conj,
    bayes_update,
    coefm,
    conj,
    convex_sum,
    copy_dist,
    covariance,
    dagger,
    enumerate_multisets,
    expected_channel_divergence,
    flrn,
    format_decimal12,
    format_scalar,
    frac_conj,
    free_energy_objective,
    is_exact,
    iterated_pearl_validity,
    jeffrey_update,
    jeffrey_validity,
    kl_divergence,
    log_likelihood_score,
    marginal,
    match_status,
    multinomial,
    multinomial_channel,
    multiset_space,
    ortho,
    parse_scalar,
    pearl_update,
    pearl_validity,
    point_evidence,
    point_pred,
    pull,
    push,
    push_function,
    scalar_ln,
    tensor,
    tensor_conj,
    tensor_factor,
    tensor_power,
    triple_pull,
    truth,
    uniform,
    validity,
    vfe_update,
    vfe_update_softmax,
)
from multibayes import core
from multibayes.evidence import add, scale

fractions = st.fractions(min_value=-100, max_value=100, max_denominator=1000)


def ln_series_oracle(x: Fraction, terms: int = 60) -> float:
    """ln via the atanh series 2 * sum t^(2k+1)/(2k+1), t = (x-1)/(x+1)."""
    t = (x - 1) / (x + 1)
    total = Fraction(0)
    power = t
    for k in range(terms):
        total += power / (2 * k + 1)
        power *= t * t
    return float(2 * total)


class TestScalarLn:
    def test_ln_one_is_zero(self):
        assert scalar_ln(Fraction(1)) == 0.0

    def test_ln_e_is_one(self):
        assert scalar_ln(math.e) == pytest.approx(1.0, abs=1e-12)

    def test_ln_half_matches_series_oracle(self):
        expected = -0.6931471805599453
        assert ln_series_oracle(Fraction(1, 2)) == pytest.approx(expected, abs=1e-15)
        assert scalar_ln(Fraction(1, 2)) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("bad", [0, Fraction(0), -1, Fraction(-3, 7), -0.5])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(NonPositiveLogError):
            scalar_ln(bad)

    @pytest.mark.parametrize("bad, shown", [
        (Fraction(-3, 7), "-3/7"),
        (0, "0"),
        (-0.5, "-0.5"),
        # more than 64 digits, up to more than Python prints for an int: 12 digits
        (Fraction(-10**5000), "-1.00000000000E+5000"),
        (Fraction(-1, 10**5000), "-1E-5000"),
        (Fraction(-3 * 10**80, 7), "-4.28571428571E+79"),
        # the boundary: 212 bits of numerator and denominator are named in full, 213 by 12 digits
        (-Fraction(2**105 + 1, 2**105 + 3), "-40564819207303340847894502572033/40564819207303340847894502572035"),
        (-Fraction(2**105 + 1, 2**106 + 1), "-0.500000000000"),
    ])
    def test_nonpositive_message_is_bounded(self, bad, shown):
        with pytest.raises(NonPositiveLogError) as info:
            scalar_ln(bad)
        assert str(info.value) == f"ln undefined for {shown}"

    def test_result_is_float_mode(self):
        assert not is_exact(scalar_ln(Fraction(3, 2)))


class TestExactArithmetic:
    @given(a=fractions, b=fractions)
    def test_add_subtract_roundtrip(self, a, b):
        assert (a + b) - b == a

    @given(a=fractions, b=fractions.filter(lambda f: f != 0))
    def test_mul_div_roundtrip(self, a, b):
        assert (a * b) / b == a

    @given(st.integers(min_value=-(2**40) + 1, max_value=2**40 - 1),
           st.integers(min_value=1, max_value=2**40 - 1))
    def test_float_conversion_within_one_ulp(self, p, q):
        via_fraction = float(Fraction(p, q))
        direct = p / q
        assert abs(via_fraction - direct) <= math.ulp(max(abs(via_fraction), abs(direct)))

    def test_mode_contagion(self):
        assert is_exact(Fraction(1, 3) + Fraction(1, 6))
        assert not is_exact(Fraction(1, 3) + 0.5)
        assert not is_exact(Fraction(1, 2) * 0.5)


class TestScalarFormat:
    @pytest.mark.parametrize(
        "text,value",
        [("1/20", Fraction(1, 20)), ("17/40", Fraction(17, 40)), ("3", Fraction(3)),
         ("-2/5", Fraction(-2, 5)), ("0.425", 0.425), ("1e-3", 1e-3), ("-2.5", -2.5), ("+1E2", 100.0),
         ("+7", Fraction(7))],
    )
    def test_parse(self, text, value):
        parsed = parse_scalar(text)
        assert parsed == value
        assert is_exact(parsed) == is_exact(value)

    def test_zero_denominator_is_value_error(self):
        with pytest.raises(ValueError):
            parse_scalar("1/0")

    def test_format_roundtrip(self):
        for value in (Fraction(431, 5865), Fraction(7), Fraction(-1, 2), 0.425, 1e-12):
            assert parse_scalar(format_scalar(value)) == value

    def test_twelve_digit_decimals(self):
        assert format_decimal12(Fraction(431, 5865)) == "0.0734867860188"
        assert format_decimal12(Fraction(17, 40)) == "0.425"
        assert format_decimal12(0.425) == "0.425000000000"

    # value, format_decimal12, format_scalar; the ties sit at the 13th significant digit
    FORMATS = [
        (0, "0", "0"),
        (-7, "-7", "-7"),
        (10**40, "1.00000000000E+40", "1" + "0" * 40),
        (-1000000000015, "-1.00000000002E+12", "-1000000000015"),
        (Fraction(1000000000005, 10**13), "0.100000000000", "200000000001/2000000000000"),
        (Fraction(1000000000015, 10**13), "0.100000000002", "200000000003/2000000000000"),
        (Fraction(-1000000000005, 10**13), "-0.100000000000", "-200000000001/2000000000000"),
        (Fraction(-1000000000015, 10**13), "-0.100000000002", "-200000000003/2000000000000"),
        (Fraction(-431, 5865), "-0.0734867860188", "-431/5865"),
        (0.1, "0.100000000000", "0.1"),
        (-2.5e-300, "-2.50000000000E-300", "-2.5e-300"),
        (True, "1", "1.0"),
    ]

    @pytest.mark.parametrize("value, decimal12, scalar", FORMATS)
    def test_formats_read_the_numerator_and_denominator(self, value, decimal12, scalar):
        # the formatters once copied an exact value into a Fraction first; the output is the same
        context = Context(prec=12, rounding=ROUND_HALF_EVEN)
        if is_exact(value):
            frac = Fraction(value)
            copied = context.divide(Decimal(frac.numerator), Decimal(frac.denominator))
            copied_scalar = str(frac.numerator) if frac.denominator == 1 else f"{frac.numerator}/{frac.denominator}"
        else:
            copied, copied_scalar = context.plus(Decimal(float(value))), repr(float(value))
        assert format_decimal12(value) == str(copied) == decimal12
        assert format_scalar(value) == copied_scalar == scalar


class TestSampleSpace:
    def test_order_and_membership(self):
        space = SampleSpace(("d", "~d"))
        assert list(space) == ["d", "~d"]
        assert "d" in space and "x" not in space
        assert space.index("~d") == 1

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            SampleSpace(("a", "a"))

    def test_unknown_element(self):
        with pytest.raises(UnknownElementError):
            SampleSpace("ab").index("c")

    def test_product_order(self):
        space = SampleSpace("ab").product(SampleSpace("xy"))
        assert space.elements == (("a", "x"), ("a", "y"), ("b", "x"), ("b", "y"))

    def test_power_zero_is_singleton(self):
        assert SampleSpace("ab").power(0).elements == ((),)

    def test_size_guard(self):
        with pytest.raises(SizeLimitError):
            SampleSpace(range(200)).power(3)


# Sizes with more digits than an int may print: each is refused by a
# bound, before the size is computed.
OVERSIZED = {
    "power": lambda: SampleSpace("ab").power(15000),
    "multiset_space": lambda: multiset_space(SampleSpace(range(10000)), 10000),
    "tensor_power": lambda: tensor_power(uniform(SampleSpace("ab")), 20000),
    "tensor_conj": lambda: tensor_conj(Evidence([(truth(SampleSpace("ab")), 20000)])),
}


@pytest.mark.parametrize("build", OVERSIZED.values(), ids=OVERSIZED)
def test_an_oversized_space_is_refused_at_once(build):
    start = time.perf_counter()
    with pytest.raises(SizeLimitError, match="more than 1000000 elements refused"):
        build()
    assert time.perf_counter() - start < 1.0


def test_the_first_power_beyond_the_limit_is_refused_by_its_doublings():
    # 2**20 is the first power of two above the limit: the bound refuses it before its size is computed
    with pytest.raises(SizeLimitError, match=r"^power space with more than 1000000 elements refused$"):
        SampleSpace("ab").power(20)


def test_a_product_space_is_refused_exactly_beyond_the_limit(monkeypatch):
    monkeypatch.setattr(core, "MAX_PRODUCT_ELEMENTS", 12)
    assert len(SampleSpace("abcd").product(SampleSpace("xyz"))) == 12
    with pytest.raises(SizeLimitError, match=r"^product space with 15 elements refused$"):
        SampleSpace("abcde").product(SampleSpace("xyz"))


@pytest.mark.parametrize("limit", [1, 2, 3, 7, 8, 9, 16, 17, 40])
def test_the_size_guards_refuse_exactly_beyond_the_limit(limit, monkeypatch):
    # the limit is lowered so that every space that passes stays small
    monkeypatch.setattr(core, "MAX_PRODUCT_ELEMENTS", limit)
    for n in range(5):
        s = SampleSpace(range(n))
        for k in range(7):
            multisets = math.comb(n + k - 1, k) if n else int(k == 0)
            for build, size in ((s.power, n**k), (partial(enumerate_multisets, s), multisets)):
                if size > limit:
                    with pytest.raises(SizeLimitError):
                        build(k)
                else:
                    assert len(build(k)) == size


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from multibayes import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(multibayes.__all__)
    assert len(multibayes.__all__) == 77
    for name in multibayes.__all__:
        assert not name.startswith("_"), name
        assert not isinstance(getattr(multibayes, name), (types.ModuleType, __future__._Feature)), name


# The medical model written out: a prior on D, a channel D -> T, the two
# pulled tests, the evidence 2|pt> + 1|nt> and results worked out by hand.
D, T = SampleSpace(("d", "~d")), SampleSpace(("p", "n"))
OMEGA = Dist(D, (Fraction(1, 20), Fraction(19, 20)))
ROW_D, ROW_ND = Dist(T, (Fraction(9, 10), Fraction(1, 10))), Dist(T, (Fraction(2, 5), Fraction(3, 5)))
C = Channel(D, T, (ROW_D, ROW_ND))
PT, NT = Factor(D, (Fraction(9, 10), Fraction(2, 5))), Factor(D, (Fraction(1, 10), Fraction(3, 5)))
PSI = Evidence(((PT, 2), (NT, 1)))
POSITIVE = Dist(D, (Fraction(9, 85), Fraction(76, 85)))
JEFFREY = Dist(D, (Fraction(431, 5865), Fraction(5434, 5865)))
PAIRS = Dist(D.product(T), (Fraction(1, 40),) * 2 + (Fraction(19, 40),) * 2)
# the VFE update: the prior times pt**(2/3) * nt**(1/3), normalised
_A, _B = 0.05 * 0.9 ** (2 / 3) * 0.1 ** (1 / 3), 0.95 * 0.4 ** (2 / 3) * 0.6 ** (1 / 3)
VFE = pytest.approx((_A / (_A + _B), _B / (_A + _B)), rel=1e-12)
# the posterior of the negative test, as weights
NEGATIVE = (Fraction(1, 115), Fraction(114, 115))


def _kl(sigma, rho) -> float:
    """The divergence of weights ``sigma`` from ``rho``, term by term."""
    return sum(s * math.log(s / r) for s, r in zip(sigma, rho))


#: Every entry point that reads a Dist, Factor, Multiset, Evidence or Channel,
#: with one operand slot open: the class it reads there, the call with ``x`` in
#: the slot, a valid operand, its result, and whether the slot must
#: share one space with the other operands.
OPERAND_ENTRY_POINTS = {
    "push": (Dist, lambda x: push(C, x), OMEGA, Dist(T, (Fraction(17, 40), Fraction(23, 40))), True),
    "pull": (Factor, lambda x: pull(C, x), point_pred("p", T), PT, True),
    "Channel": (Dist, lambda x: Channel(D, T, (x, ROW_ND)), ROW_D, C, True),
    "dagger": (Dist, lambda x: dagger(C, x), OMEGA, Channel(T, D, (POSITIVE, bayes_update(OMEGA, NT))), True),
    "convex_sum": (
        Dist,
        lambda x: convex_sum((Fraction(1, 2), Fraction(1, 2)), (OMEGA, x)),
        uniform(D),
        Dist(D, (Fraction(11, 40), Fraction(29, 40))),
        True,
    ),
    "tensor(omega)": (Dist, lambda x: tensor(x, uniform(T)), OMEGA, PAIRS, False),
    "tensor(rho)": (Dist, lambda x: tensor(OMEGA, x), uniform(T), PAIRS, False),
    "tensor_power": (
        Dist,
        lambda x: tensor_power(x, 2),
        OMEGA,
        Dist(D.power(2), (Fraction(1, 400), Fraction(19, 400), Fraction(19, 400), Fraction(361, 400))),
        False,
    ),
    "multinomial": (
        Dist,
        lambda x: multinomial(2, x),
        OMEGA,
        Dist(multiset_space(D, 2), (Fraction(1, 400), Fraction(19, 200), Fraction(361, 400))),
        False,
    ),
    "push_function": (Dist, lambda x: push_function(lambda _: "t", x), OMEGA, Dist(SampleSpace("t"), (1,)), False),
    "marginal": (Dist, lambda x: marginal(x, 0), PAIRS, OMEGA, False),
    "copy_dist": (Dist, copy_dist, OMEGA, Dist(D.power(2), (Fraction(1, 20), 0, 0, Fraction(19, 20))), False),
    "kl_divergence(sigma)": (
        Dist,
        lambda x: kl_divergence(x, uniform(D)),
        OMEGA,
        pytest.approx(0.05 * math.log(0.1) + 0.95 * math.log(1.9)),
        False,
    ),
    "kl_divergence(rho)": (
        Dist,
        lambda x: kl_divergence(uniform(D), x),
        OMEGA,
        pytest.approx(0.5 * math.log(10) + 0.5 * math.log(10 / 19)),
        False,
    ),
    "validity(omega)": (Dist, lambda x: validity(x, PT), OMEGA, Fraction(17, 40), True),
    "validity(p)": (Factor, lambda x: validity(OMEGA, x), PT, Fraction(17, 40), True),
    "bayes_update(omega)": (Dist, lambda x: bayes_update(x, PT), OMEGA, POSITIVE, True),
    "bayes_update(p)": (Factor, lambda x: bayes_update(OMEGA, x), PT, POSITIVE, True),
    "jeffrey_update": (Dist, lambda x: jeffrey_update(x, PSI), OMEGA, JEFFREY, True),
    "pearl_update": (Dist, lambda x: pearl_update(x, PSI), OMEGA, Dist(D, (Fraction(27, 635), Fraction(608, 635))), True),
    "vfe_update": (Dist, lambda x: vfe_update(x, PSI).weights, OMEGA, VFE, True),
    "vfe_update_softmax": (Dist, lambda x: vfe_update_softmax(x, PSI).weights, OMEGA, VFE, True),
    "jeffrey_validity": (Dist, lambda x: jeffrey_validity(x, PSI), OMEGA, Fraction(19941, 64000), True),
    "pearl_validity": (Dist, lambda x: pearl_validity(x, PSI), OMEGA, Fraction(1143, 4000), True),
    "conj": (Factor, lambda x: conj(x, NT), PT, Factor(D, (Fraction(9, 100), Fraction(6, 25))), True),
    "add": (Factor, lambda x: add(x, NT), PT, truth(D), True),
    "Evidence": (Factor, lambda x: Evidence(((x, 2), (NT, 1))), PT, PSI, True),
    "Multiset.__add__": (Multiset, lambda x: Multiset(D, (1, 0)) + x, Multiset(D, (0, 2)), Multiset(D, (1, 2)), True),
    "ortho": (Factor, ortho, PT, NT, False),
    "scale": (Factor, lambda x: scale(2, x), PT, Factor(D, (Fraction(9, 5), Fraction(4, 5))), False),
    "tensor_factor(p)": (
        Factor,
        lambda x: tensor_factor(x, NT),
        PT,
        Factor(D.product(D), [a * b for a in PT.values for b in NT.values]),
        False,
    ),
    "tensor_factor(q)": (
        Factor,
        lambda x: tensor_factor(PT, x),
        NT,
        Factor(D.product(D), [a * b for a in PT.values for b in NT.values]),
        False,
    ),
    "flrn": (Multiset, flrn, Multiset(D, (1, 3)), Dist(D, (Fraction(1, 4), Fraction(3, 4))), False),
    "expected_channel_divergence": (
        Dist,
        lambda x: expected_channel_divergence(x, uniform(T), C),
        OMEGA,
        pytest.approx(0.05 * _kl((0.5, 0.5), (0.9, 0.1)) + 0.95 * _kl((0.5, 0.5), (0.4, 0.6))),
        True,
    ),
    "covariance(omega)": (Dist, lambda x: covariance(x, PT, NT), OMEGA, Fraction(-19, 1600), True),
    "covariance(p1)": (Factor, lambda x: covariance(OMEGA, x, NT), PT, Fraction(-19, 1600), True),
    "covariance(p2)": (Factor, lambda x: covariance(OMEGA, PT, x), NT, Fraction(-19, 1600), True),
    "iterated_pearl_validity(omega)": (
        Dist, lambda x: iterated_pearl_validity(x, (PT, PT, NT)), OMEGA, Fraction(381, 4000), True
    ),
    "iterated_pearl_validity(ps)": (
        Factor, lambda x: iterated_pearl_validity(OMEGA, (PT, x, NT)), PT, Fraction(381, 4000), True
    ),
    "coefm": (Multiset, coefm, Multiset(D, (2, 1)), 3, False),
    "point_evidence": (
        Multiset,
        point_evidence,
        Multiset(D, (2, 1)),
        Evidence(((point_pred("d", D), 2), (point_pred("~d", D), 1))),
        False,
    ),
    # channel slots: the other operands' spaces are checked against the channel's
    "push(c)": (Channel, lambda x: push(x, OMEGA), C, Dist(T, (Fraction(17, 40), Fraction(23, 40))), False),
    "pull(c)": (Channel, lambda x: pull(x, point_pred("p", T)), C, PT, False),
    "dagger(c)": (Channel, lambda x: dagger(x, OMEGA), C, Channel(T, D, (POSITIVE, bayes_update(OMEGA, NT))), False),
    "triple_pull(c)": (
        Channel,
        lambda x: triple_pull(x, Evidence(((point_pred("p", T), 2), (point_pred("n", T), 1)))),
        C,
        PSI,
        False,
    ),
    "multinomial_channel": (
        Channel,
        lambda x: multinomial_channel(x, 1),
        C,
        Channel(D, multiset_space(T, 1), [Dist(multiset_space(T, 1), row.weights) for row in (ROW_D, ROW_ND)]),
        False,
    ),
    "expected_channel_divergence(c)": (
        Channel,
        lambda x: expected_channel_divergence(OMEGA, uniform(T), x),
        C,
        pytest.approx(0.05 * _kl((0.5, 0.5), (0.9, 0.1)) + 0.95 * _kl((0.5, 0.5), (0.4, 0.6))),
        False,
    ),
    # evidence slots: the space is checked through the prior's slot
    "jeffrey_update(psi)": (Evidence, lambda x: jeffrey_update(OMEGA, x), PSI, JEFFREY, False),
    "pearl_update(psi)": (
        Evidence, lambda x: pearl_update(OMEGA, x), PSI, Dist(D, (Fraction(27, 635), Fraction(608, 635))), False
    ),
    "vfe_update(psi)": (Evidence, lambda x: vfe_update(OMEGA, x).weights, PSI, VFE, False),
    "vfe_update_softmax(psi)": (Evidence, lambda x: vfe_update_softmax(OMEGA, x).weights, PSI, VFE, False),
    "jeffrey_validity(psi)": (Evidence, lambda x: jeffrey_validity(OMEGA, x), PSI, Fraction(19941, 64000), False),
    "pearl_validity(psi)": (Evidence, lambda x: pearl_validity(OMEGA, x), PSI, Fraction(1143, 4000), False),
    "log_likelihood_score(psi)": (
        Evidence,
        lambda x: log_likelihood_score(OMEGA, uniform(D), x),
        PSI,
        pytest.approx(2 / 3 * math.log(17 / 26) + 1 / 3 * math.log(23 / 14)),
        False,
    ),
    "free_energy_objective(psi)": (
        Evidence,
        lambda x: free_energy_objective(OMEGA, OMEGA, x),
        PSI,
        pytest.approx(2 / 3 * _kl((0.05, 0.95), POSITIVE.weights) + 1 / 3 * _kl((0.05, 0.95), NEGATIVE)),
        False,
    ),
    "and_conj": (Evidence, and_conj, PSI, Factor(D, (Fraction(81, 1000), Fraction(12, 125))), False),
    "frac_conj": (
        Evidence,
        lambda x: frac_conj(x).values,
        PSI,
        pytest.approx((0.9 ** (2 / 3) * 0.1 ** (1 / 3), 0.4 ** (2 / 3) * 0.6 ** (1 / 3))),
        False,
    ),
    "tensor_conj": (
        Evidence,
        tensor_conj,
        PSI,
        Factor(D.power(3), [a * b * c for a in PT.values for b in PT.values for c in NT.values]),
        False,
    ),
    "match_status": (Evidence, match_status, PSI, MatchStatus.PERFECT_MATCH, False),
    "triple_pull": (
        Evidence,
        lambda x: triple_pull(C, x),
        Evidence(((point_pred("p", T), 2), (point_pred("n", T), 1))),
        PSI,
        False,
    ),
    "Evidence.__add__": (Evidence, lambda x: Evidence(((PT, 1),)) + x, Evidence(((PT, 1), (NT, 1))), PSI, False),
    "Evidence.__call__": (Factor, PSI, PT, 2, True),
}

#: What the TypeError says each class is.
NOUNS = {
    Dist: "distributions",
    Factor: "factors",
    Multiset: "multisets",
    Evidence: "evidence multisets",
    Channel: "channels",
}

#: Public callables that read no operand of those classes, only spaces,
#: labels, scalars or counts: every other public callable except the
#: error classes has a slot in OPERAND_ENTRY_POINTS.
NO_OPERAND_CALLABLES = {
    "Dist",
    "Factor",
    "MatchStatus",
    "SampleSpace",
    "Scalar",  # a type alias
    "acc",
    "as_scalar",
    "dirac",
    "enumerate_multisets",
    "falsity",
    "format_decimal12",
    "format_scalar",
    "identity_channel",
    "indicator",
    "is_exact",
    "multiset_space",
    "parse_scalar",
    "point_pred",
    "scalar_ln",
    "truth",
    "uniform",
}


def _twin(x, floats: bool):
    """``x``, or its float twin: the same values as floats (a multiset
    has none)."""
    if not floats or isinstance(x, Multiset):
        return x
    if isinstance(x, tuple):
        return tuple(v.to_float() if isinstance(v, Dist) else float(v) for v in x)
    return type(x)(x.space, [float(v) for _, v in x.items()])


def _wrong(name: str, kind: str):
    """An operand the slot of ``name`` must refuse: its valid operand's
    values (a channel's rows) as a tuple, or an operand of another class
    on the same space (a factor that does not sum to one where a
    distribution is read, one of its factors where evidence is read, one
    of its rows where a channel is read, a distribution elsewhere)."""
    cls, _, valid, _, _ = OPERAND_ENTRY_POINTS[name]
    if cls is Channel:
        return valid.rows if kind == "tuple" else valid.rows[0]
    if kind == "tuple":
        return tuple(v for _, v in valid.items())
    if cls is Dist:
        return Factor(valid.space, [3 * w for w in valid.weights])
    if cls is Evidence:
        return valid.factors[0]
    return uniform(valid.space)


class TestOperands:
    """Every kernel checks its Dist, Factor, Multiset, Evidence and Channel operands with
    one rule: TypeError for an operand of another type, SpaceMismatchError
    for one on a second space, in exact and float mode alike."""

    @pytest.mark.parametrize("floats", [False, True], ids=["exact", "float"])
    @pytest.mark.parametrize("kind", ["class", "tuple"])
    @pytest.mark.parametrize("name", sorted(OPERAND_ENTRY_POINTS))
    def test_an_operand_of_another_type_raises_type_error(self, name, kind, floats):
        cls, call, _, _, _ = OPERAND_ENTRY_POINTS[name]
        wrong = _twin(_wrong(name, kind), floats)
        with pytest.raises(TypeError, match=f"must be {NOUNS[cls]}, not {type(wrong).__name__}$"):
            call(wrong)

    @pytest.mark.parametrize("floats", [False, True], ids=["exact", "float"])
    @pytest.mark.parametrize("name", sorted(name for name, entry in OPERAND_ENTRY_POINTS.items() if entry[4]))
    def test_an_operand_on_a_second_space_raises_space_mismatch(self, name, floats):
        _, call, valid, _, _ = OPERAND_ENTRY_POINTS[name]
        # the same elements in the other order make another space
        swapped = SampleSpace(reversed(valid.space.elements))
        with pytest.raises(SpaceMismatchError, match="must live on one sample space"):
            call(_twin(type(valid)(swapped, [v for _, v in valid.items()]), floats))

    @pytest.mark.parametrize("name", sorted(OPERAND_ENTRY_POINTS))
    def test_valid_operands_give_the_same_results(self, name):
        _, call, valid, result, _ = OPERAND_ENTRY_POINTS[name]
        assert call(valid) == result

    @pytest.mark.parametrize(
        "rule", [validity, bayes_update, jeffrey_validity, pearl_validity, jeffrey_update, pearl_update, vfe_update]
    )
    def test_a_refused_prior_stores_no_memo(self, rule):
        p = Factor(D, PT.values)
        operand = p if rule in (validity, bayes_update) else Evidence(((p, 2),))
        for prior in (Factor(D, (3, 1)), Dist(SampleSpace(("~d", "d")), OMEGA.weights)):
            with pytest.raises((TypeError, SpaceMismatchError)):
                rule(prior, operand)
        assert p._memo is None
        assert operand is p or operand._conj is None or operand._conj._memo is None

    def test_the_messages_name_the_role(self):
        with pytest.raises(TypeError, match=r"^push arguments must be distributions, not Factor$"):
            push(C, Factor(D, (3, 1)))
        with pytest.raises(TypeError, match=r"^push arguments must be channels, not Dist$"):
            push(OMEGA, OMEGA)
        with pytest.raises(TypeError, match=r"^evidence lookups must be factors, not str$"):
            PSI("d")
        swapped = SampleSpace(("~d", "d"))
        with pytest.raises(SpaceMismatchError, match=r"^conjuncts must live on one sample space, not SampleSpace"):
            conj(PT, Factor(swapped, PT.values))

    def test_evidence_is_not_a_multiset_and_a_channel_fixes_the_prior_space(self):
        with pytest.raises(TypeError, match=r"^coefm arguments must be multisets, not Evidence$"):
            coefm(PSI)
        with pytest.raises(SpaceMismatchError, match="^divergence arguments must live on one sample space"):
            expected_channel_divergence(Dist(SampleSpace(("d",)), (1,)), uniform(T), C)

    def test_every_public_callable_has_an_operand_slot_or_reads_none(self):
        """A public function that reads operands of these classes and has
        no slot above would escape the rule, as the channel functions did."""
        slotted = {re.split(r"[(.]", name)[0] for name in OPERAND_ENTRY_POINTS}
        assert not slotted & NO_OPERAND_CALLABLES
        assert NO_OPERAND_CALLABLES <= set(multibayes.__all__)
        for name in multibayes.__all__:
            value = getattr(multibayes, name)
            if not callable(value) or isinstance(value, type) and issubclass(value, Exception):
                continue
            assert name in slotted or name in NO_OPERAND_CALLABLES, f"{name} has no slot in OPERAND_ENTRY_POINTS"


#: Operator sugar and comparisons with a foreign value: each call and its result.
SUGAR = {
    "Factor.__rmul__": (lambda: 2 * PT, Factor(D, (Fraction(9, 5), Fraction(4, 5)))),
    "Multiset.__call__": (lambda: Multiset(D, (2, 1))("~d"), 1),
    "Evidence.__call__(absent)": (lambda: PSI(truth(D)), 0),
    "Evidence.__call__(empty)": (lambda: Evidence(())(point_pred("p", T)), 0),
    "Evidence == 1": (lambda: PSI == 1, False),
    "Channel == 1": (lambda: C == 1, False),
}


@pytest.mark.parametrize("name", sorted(SUGAR))
def test_operator_sugar_and_foreign_comparisons(name):
    call, expected = SUGAR[name]
    result = call()
    assert result == expected and type(result) is type(expected)


#: The largest float, the smallest positive one and an int beyond the float range.
FLOAT_MAX, TINY, HUGE = 1.7976931348623157e308, 5e-324, 10**400
HALF = Dist(D, (0.5, 0.5))


def _edge(space: SampleSpace, weight) -> Dist:
    """The distribution on ``space`` with ``weight`` at its first element."""
    return Dist(space, (weight, 1 - weight))


#: Every public function that returns a float scalar, on inputs whose
#: float result leaves the float range: the float call and its outcome,
#: then the exact twin (the same call on exact values beyond the float
#: range, or on ``Fraction(x)`` of each float ``x`` where the result is
#: always a float) and its outcome.  An outcome is FloatRangeError or the
#: value returned; the log functions and the divergences of exact weights
#: return finite values.
FINITE_RESULTS = {
    # float weights that sum to one within FLOAT_SUM_TOL, not exactly
    "validity": (
        lambda: validity(Dist(D, (0.5, 0.5 + 5e-10)), Factor(D, (FLOAT_MAX, FLOAT_MAX))), FloatRangeError,
        lambda: validity(uniform(D), Factor(D, (HUGE, HUGE))), Fraction(HUGE),
    ),
    "jeffrey_validity": (
        lambda: jeffrey_validity(HALF, Evidence(((Factor(D, (1e300, 1e300)), 2),))), FloatRangeError,
        lambda: jeffrey_validity(uniform(D), Evidence(((Factor(D, (10**300, 10**300)), 2),))), Fraction(10**600),
    ),
    # a conjunction of 1.1e308 and a multinomial coefficient of 2
    "pearl_validity": (
        lambda: pearl_validity(HALF, Evidence(((Factor(D, (1e154, 1e154)), 1), (Factor(D, (1.1e154, 1.1e154)), 1)))),
        FloatRangeError,
        lambda: pearl_validity(
            uniform(D), Evidence(((Factor(D, (10**154, 10**154)), 1), (Factor(D, (11 * 10**153, 11 * 10**153)), 1)))
        ),
        Fraction(22 * 10**307),
    ),
    "covariance": (
        lambda: covariance(HALF, Factor(D, (1e300, 0.0)), Factor(D, (0.0, 1e300))), FloatRangeError,
        lambda: covariance(uniform(D), Factor(D, (10**300, 0)), Factor(D, (0, 10**300))), -Fraction(10**600, 4),
    ),
    # the float ratio 0.5 / 5e-324 overflows; exact weights read that term
    # from exact logarithms: 1/2 ln(2**1073) + 1/2 ln(1/2) = 536 ln 2
    "kl_divergence": (
        lambda: kl_divergence(HALF, _edge(D, TINY)), FloatRangeError,
        lambda: kl_divergence(uniform(D), _edge(D, Fraction(TINY))), 536 * math.log(2),
    ),
    "free_energy_objective": (
        lambda: free_energy_objective(HALF, _edge(D, TINY), Evidence(((truth(D), 1),))), FloatRangeError,
        lambda: free_energy_objective(uniform(D), _edge(D, Fraction(TINY)), Evidence(((truth(D), 1),))),
        536 * math.log(2),
    ),
    "expected_channel_divergence": (
        lambda: expected_channel_divergence(HALF, uniform(T), Channel(D, T, (_edge(T, TINY), uniform(T)))),
        FloatRangeError,
        lambda: expected_channel_divergence(uniform(D), uniform(T), Channel(D, T, (_edge(T, Fraction(TINY)), uniform(T)))),
        268 * math.log(2),
    ),
    "iterated_pearl_validity": (
        lambda: iterated_pearl_validity(HALF, (Factor(D, (1e200, 1e200)),) * 2), FloatRangeError,
        lambda: iterated_pearl_validity(uniform(D), (Factor(D, (10**200, 10**200)),) * 2), Fraction(HUGE),
    ),
    # point priors, so each score is ln v - ln v' of one factor's two values
    "log_likelihood_score": (
        lambda: log_likelihood_score(Dist(D, (1.0, 0.0)), Dist(D, (0.0, 1.0)), Evidence(((Factor(D, (1e-300, 1e300)), 1),))),
        -1381.5510557964274,
        lambda: log_likelihood_score(Dist(D, (1, 0)), Dist(D, (0, 1)), Evidence(((Factor(D, (HUGE, 1)), 1),))),
        921.0340371976182,
    ),
    "log_likelihood_score(swapped)": (
        lambda: log_likelihood_score(Dist(D, (0.0, 1.0)), Dist(D, (1.0, 0.0)), Evidence(((Factor(D, (1e-300, 1e300)), 1),))),
        1381.5510557964274,
        lambda: log_likelihood_score(Dist(D, (0, 1)), Dist(D, (1, 0)), Evidence(((Factor(D, (HUGE, 1)), 1),))),
        -921.0340371976182,
    ),
    "scalar_ln": (lambda: scalar_ln(math.inf), FloatRangeError, lambda: scalar_ln(Fraction(HUGE)), 921.0340371976182),
    "scalar_ln(nan)": (
        lambda: scalar_ln(math.nan), FloatRangeError, lambda: scalar_ln(Fraction(1, HUGE)), -921.0340371976182
    ),
}


def _assert_outcome(call, outcome):
    """``call()`` raises FloatRangeError when ``outcome`` is that class,
    else returns ``outcome``: a Fraction exactly, a float within an ulp
    or so and finite."""
    if outcome is FloatRangeError:
        with pytest.raises(FloatRangeError, match="overflows the float range$"):
            call()
        return
    result = call()
    assert type(result) is type(outcome)
    if isinstance(outcome, float):
        assert math.isfinite(result) and result == pytest.approx(outcome, rel=1e-14)
    else:
        assert result == outcome


class TestFiniteResults:
    """No public function returns a float that is not finite: a scalar
    result beyond the float range raises FloatRangeError, in one place
    (``core._check_finite``), and its exact twin returns the exact value
    or raises the same error class."""

    @pytest.mark.parametrize("name", sorted(FINITE_RESULTS))
    def test_a_float_result_beyond_the_range_is_refused(self, name):
        call, outcome, _, _ = FINITE_RESULTS[name]
        _assert_outcome(call, outcome)

    @pytest.mark.parametrize("name", sorted(FINITE_RESULTS))
    def test_the_exact_twin_returns_the_exact_value_or_the_same_error(self, name):
        _, _, call, outcome = FINITE_RESULTS[name]
        _assert_outcome(call, outcome)

    def test_the_messages_name_the_result(self):
        with pytest.raises(FloatRangeError, match=r"^covariance overflows the float range$"):
            covariance(HALF, Factor(D, (1e300, 0.0)), Factor(D, (0.0, 1e300)))
        with pytest.raises(FloatRangeError, match=r"^divergence overflows the float range$"):
            kl_divergence(HALF, _edge(D, TINY))
