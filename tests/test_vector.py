"""The exact-or-float vector: one constructor, one range check, one
outer-product kernel.

Distributions, factors and mixture weights are built by one
constructor that stores all-exact values as ints and values holding
any float as one float tuple; it and the trusted float constructor
share one range check, which raises each caller's error class.  The
tensor products all run on one outer-product kernel.  Only the kernel
modules read that storage.
"""

import ast
import importlib
import math
import random
from fractions import Fraction
from functools import partial

import pytest

from multibayes import (
    Channel,
    Dist,
    Evidence,
    Factor,
    FloatRangeError,
    Multiset,
    NonConvexWeightsError,
    SampleSpace,
    bayes_update,
    convex_sum,
    push,
    tensor,
    tensor_conj,
    tensor_factor,
    tensor_power,
)
from multibayes.evidence import scale
from multibayes.modelfile import parse_model, serialize_model

import reference
from reference import assert_canonical, bits, float_factor, ref_outer, space, values_of
from registry import source_trees

AB = SampleSpace("ab")
NAN, INF = math.nan, math.inf

# -- one table of bad inputs ------------------------------------------------------

#: Values on AB that are not finite and non-negative: exact, float, mixed.
OUT_OF_RANGE = [
    (Fraction(3, 2), Fraction(-1, 2)),
    (1.5, -0.5),
    (Fraction(3, 2), -0.5),
    (NAN, 0.5),
    (Fraction(1, 2), NAN),
    (INF, 0.0),
    (-INF, 1.0),
    (Fraction(1, 2), INF),
]
#: Finite, non-negative values on AB that do not sum to one.
NOT_NORMALISED = [(Fraction(1, 3), Fraction(1, 3)), (0.5, 0.25), (Fraction(1, 2), 0.25), (0, 0)]
#: Values that do not match AB in length.
WRONG_LENGTH = [(Fraction(1),), (0.5, 0.25, 0.25)]


def build_dist(values):
    return Dist(AB, values)


def build_factor(values):
    return Factor(AB, values)


def mix(values):
    return convex_sum(values, [Dist(AB, (1, 0)), Dist(AB, (0, 1))])


def mix_updates(values):
    omega = Dist(AB, (Fraction(1, 4), Fraction(3, 4)))
    factors = [Factor(AB, (1, Fraction(1, 2))), Factor(AB, (0.25, 1.0))]
    return convex_sum(values, [bayes_update(omega, p) for p in factors])


def floats(values):
    return tuple(float(v) for v in values)


BAD_INPUTS = (
    [(build_dist, v, ValueError) for v in OUT_OF_RANGE + NOT_NORMALISED + WRONG_LENGTH]
    + [(build_factor, v, ValueError) for v in OUT_OF_RANGE + WRONG_LENGTH]
    + [(mix, v, NonConvexWeightsError) for v in OUT_OF_RANGE + NOT_NORMALISED + WRONG_LENGTH]
    + [(lambda v: Channel(AB, AB, [build_dist(v)]), (Fraction(1, 4), Fraction(3, 4)), ValueError)]  # one row, two domain elements
    + [(lambda v: Multiset(AB, v), v, ValueError) for v in ((1,), (1, 2, 3))]
    + [(lambda v: scale(v, build_factor((1, 1))), v, ValueError) for v in (-1, Fraction(-1, 2), -0.5, NAN, INF)]
    + [(lambda v: Dist._from_floats(AB, floats(v)), v, FloatRangeError) for v in OUT_OF_RANGE + NOT_NORMALISED]
    + [(lambda v: Factor._from_floats(AB, floats(v)), v, FloatRangeError) for v in OUT_OF_RANGE]
)


@pytest.mark.parametrize("build,values,error", BAD_INPUTS)
def test_bad_input_raises_the_callers_error(build, values, error):
    with pytest.raises(error):
        build(values)


def test_good_input_passes_every_route():
    for values in ((Fraction(1, 4), Fraction(3, 4)), (0.25, 0.75), (Fraction(1, 4), 0.75)):
        assert build_dist(values).weights == build_factor(values).values == (0.25, 0.75)
        assert mix(values).weights == (0.25, 0.75)
        assert sum(mix_updates(values).weights) == pytest.approx(1)
    assert Factor._from_floats(AB, (0.5, 3.0)).values == (0.5, 3.0)
    assert Dist._from_floats(AB, (0.5, 0.5 + 1e-10)).weights == (0.5, 0.5 + 1e-10)


# -- exact or float storage ---------------------------------------------------------


def test_mixed_input_is_stored_as_floats():
    abc = SampleSpace("abc")
    omega = Dist(abc, (Fraction(1, 3), 0.5, "1/6"))
    assert omega._nums is None and omega.is_exact is False
    assert all(type(w) is float for w in omega.weights)
    assert omega.weights == (1 / 3, 0.5, 1 / 6)  # each exact value rounded once
    assert omega == Dist(abc, (1 / 3, 0.5, 1 / 6))
    assert str(omega) == "0.3333333333333333|a> + 0.5|b> + 0.16666666666666666|c>"
    assert repr(omega) == f"Dist({omega})"
    assert Factor(AB, (2, 0.5)).values == (2.0, 0.5)


def test_mixed_model_entry_is_read_in_float_mode():
    text = '{"spaces": {"S": {"elements": ["a", "b"]}},' ' "distributions": {"w": {"space": "S", "weights": ["1/2", 0.5]}}}'
    model = parse_model(text)
    assert model.distributions["w"].weights == (0.5, 0.5)
    assert '"weights": [\n        0.5,\n        0.5\n      ]' in serialize_model(model)


def test_exact_input_stays_exact():
    omega = Dist(AB, ("1/3", 2 * Fraction(1, 3)))
    assert omega._nums == (1, 2) and omega._den == 3 and omega.weights == (Fraction(1, 3), Fraction(2, 3))
    big = Factor(AB, (10**400, 1))  # exact values need not fit a float
    assert big.values == (10**400, 1)


@pytest.mark.parametrize("build", [build_dist, build_factor])
@pytest.mark.parametrize("values", [(10**400, 0.5), (0.5, Fraction(10**400, 3))])
def test_mixed_input_beyond_the_float_range(build, values):
    with pytest.raises(FloatRangeError):
        build(values)


# -- the outer-product kernel ---------------------------------------------------------


#: the outer-product tests draw fewer zeros and set the first element when all are zero
exact_dist = partial(reference.exact_dist, counts=(0, 1, 2, 5, 7), first=True)
float_dist = partial(reference.float_dist, draws=1, first=True)
exact_factor = partial(reference.exact_factor, dens=(1, 2, 3, 4, 6))


@pytest.mark.parametrize("exact", [True, False], ids=["exact", "float"])
@pytest.mark.parametrize("seed", range(20))
def test_outer_matches_per_element_products(seed, exact):
    rng = random.Random(seed)
    s, t = space(rng, high=4), space(rng, high=3, prefix="y")
    make_dist = exact_dist if exact else float_dist
    make_factor = exact_factor if exact else float_factor
    omega, rho, p, q = make_dist(rng, s), make_dist(rng, t), make_factor(rng, s), make_factor(rng, t)
    n = rng.randint(1, 3)
    psi = Evidence((make_factor(rng, s), rng.randint(1, 2)) for _ in range(rng.randint(1, 2)))
    sequence = [f for f, count in psi.items() for _ in range(count)]
    cases = [
        (tensor(omega, rho), [omega, rho], s.product(t)),
        (tensor_power(omega, n), [omega] * n, s.power(n)),
        (tensor_factor(p, q), [p, q], s.product(t)),
        (tensor_conj(psi), sequence, s.power(len(sequence))),
    ]
    for result, operands, cod in cases:
        assert result.space == cod
        expected = ref_outer(operands, exact)
        if exact:
            assert values_of(result) == expected
            assert_canonical(result)
        else:
            assert bits(values_of(result)) == bits(expected)
            assert result._nums is None and result._scalars() is result._floats()


def test_outer_product_reduces_to_lowest_terms():
    half = Dist(AB, (Fraction(1, 2), Fraction(1, 2)))
    third = Factor(AB, (Fraction(2, 3), Fraction(4, 3)))
    product = tensor_factor(third, third)  # (4, 8, 8, 16) / 9
    assert product._nums == (4, 8, 8, 16) and product._den == 9
    assert tensor(half, half)._nums == (1, 1, 1, 1) and tensor(half, half)._den == 4
    assert tensor_power(half, 0).weights == (1,)


def test_outer_float_overflow_is_typed():
    big = Factor(AB, (1e200, 1.0))
    with pytest.raises(FloatRangeError):
        tensor_factor(big, big)
    with pytest.raises(FloatRangeError):
        tensor_conj(Evidence(((big, 2),)))


# -- the mixture kernel ---------------------------------------------------------------
#
# ``weights @ rows`` is a mixture (``convex_sum`` and Jeffrey's rule),
# which adds whole weighted rows and keeps nothing, or a push along a
# channel, which takes one dot product per column on columns the channel
# builds once.  Every shape must give what per-element arithmetic gives,
# bit for bit.

#: (rows, columns): wide mixtures, a channel with many rows, and the small
#: one-off mixtures of the paper's grids and the property checks
MIX_SHAPES = [(3, 64), (8, 64), (64, 6), (2, 2), (3, 2)]
MIX_SHAPE_IDS = ["3x64", "8x64", "64x6", "2x2", "3x2"]
#: whether the weights and whether the rows are exact
MIX_MODES = {
    "exact": (True, True),
    "float": (False, False),
    "exact-weights": (True, False),
    "float-weights": (False, True),
}


def zero_weight_among(rng, size, exact):
    """Convex weights on ``size`` terms, one of them zero."""
    weights = (reference.exact_weights if exact else reference.float_weights)(rng, size - 1)
    weights.insert(rng.randrange(size), 0 if exact else 0.0)
    return weights


def check_mix(result, expected, exact):
    if exact:
        assert result.weights == expected
        assert_canonical(result)
    else:
        assert bits(result.weights) == bits(expected)
        assert result._nums is None


@pytest.mark.parametrize("mode", MIX_MODES)
@pytest.mark.parametrize("rows,columns", MIX_SHAPES, ids=MIX_SHAPE_IDS)
@pytest.mark.parametrize("seed", range(5))
def test_mixture_matches_per_element_sums(seed, rows, columns, mode):
    rng = random.Random(seed)
    exact_weights, exact_rows = MIX_MODES[mode]
    s, dom = space(rng, columns, columns), space(rng, rows, rows, prefix="d")
    weights = zero_weight_among(rng, rows, exact_weights)
    dists = [(exact_dist if exact_rows else float_dist)(rng, s) for _ in range(rows)]
    expected = reference.ref_mix(weights, [d.weights for d in dists])
    exact = exact_weights and exact_rows
    check_mix(convex_sum(weights, dists), expected, exact)
    c, omega = Channel(dom, s, dists), Dist(dom, weights)
    for _ in range(2):  # the second push runs on what the first built
        check_mix(push(c, omega), expected, exact)


@pytest.mark.parametrize("zero_term", ["exact", "float"])
@pytest.mark.parametrize("rows,columns", MIX_SHAPES, ids=MIX_SHAPE_IDS)
@pytest.mark.parametrize("seed", range(5))
def test_weighted_update_with_a_zero_weight(seed, rows, columns, zero_term):
    """Jeffrey's rule over weighted predicates, as ``convex_sum`` of Bayes
    updates: a term of weight zero adds nothing.  Its posterior is still
    computed, so a float factor there puts the whole mixture on floats."""
    rng = random.Random(seed)
    s = space(rng, columns, columns)
    omega = reference.exact_dist(rng, s)
    factors = [Factor(s, [Fraction(rng.randint(1, 9), 9) for _ in s]) for _ in range(rows)]
    weights = zero_weight_among(rng, rows, exact=True)
    if zero_term == "float":
        factors[weights.index(0)] = Factor(s, [3 * rng.random() for _ in s])  # not a predicate
    posteriors = [reference.ref_bayes(omega.weights, f.values) for f in factors]
    if zero_term == "float":
        posteriors = [floats(p) for p in posteriors]
    result = convex_sum(weights, [bayes_update(omega, f) for f in factors])
    check_mix(result, reference.ref_mix(weights, posteriors), zero_term == "exact")


@pytest.mark.parametrize("module", ["models", "cli", "modelfile", "properties"])
def test_the_storage_format_stays_in_the_kernel_modules(module):
    # the modules above the kernels read a vector through its public view,
    # so only the kernels know it is ints over one denominator or one float tuple
    trees = source_trees(importlib.import_module(f"multibayes.{module}"))
    reads = [f"{name} line {node.lineno}: .{node.attr}" for name, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("_nums", "_den", "_flt")]
    assert reads == []
