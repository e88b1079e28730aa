"""Scalar helpers, sample spaces and the package's public names."""

import __future__
import math
import time
import types
from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given, strategies as st

import multibayes
from multibayes import (
    Evidence,
    NonPositiveLogError,
    SampleSpace,
    SizeLimitError,
    UnknownElementError,
    enumerate_multisets,
    format_decimal12,
    format_scalar,
    is_exact,
    multiset_space,
    parse_scalar,
    scalar_ln,
    tensor_conj,
    tensor_power,
    truth,
    uniform,
)
from multibayes import core

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
         ("-2/5", Fraction(-2, 5)), ("0.425", 0.425), ("1e-3", 1e-3)],
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
