"""Properties of the exact scalar field: arithmetic round trips and conversion to float."""

from __future__ import annotations

import math
from fractions import Fraction

from ._registry import _law, _register


@_register("exact-field-roundtrip", "core")
def _exact_field_roundtrip(rng):
    a = Fraction(rng.randint(-300, 300), rng.randint(1, 300))
    b = Fraction(rng.randint(-300, 300), rng.randint(1, 300)) or Fraction(1, 7)
    _law((a + b) - b == a, "(a+b)-b != a for a={}, b={}", a, b)
    _law((a * b) / b == a, "(a*b)/b != a for a={}, b={}", a, b)


@_register("exact-to-float-ulp", "core")
def _exact_to_float_ulp(rng):
    p = rng.randint(-(2**40) + 1, 2**40 - 1)
    q = rng.randint(1, 2**40 - 1)
    via_fraction = float(Fraction(p, q))
    direct = p / q
    _law(not (abs(via_fraction - direct) > math.ulp(max(abs(via_fraction), abs(direct)))),
         "float({}/{}) differs from direct division by more than 1 ulp", p, q)
