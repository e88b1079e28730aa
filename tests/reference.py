"""Seeded inputs and plain-arithmetic references for the kernel tests.

The kernels work on int numerators or on float views; the references
here work on the scalars one element at a time: exact terms add as
Fractions and float terms with ``math.fsum``, as :func:`ref_sum` does.
The generators draw exact and float distributions and factors from a
``random.Random``; their arguments keep each test file's draws as they
were when the file defined its own.
"""

import itertools
import math
from fractions import Fraction

from multibayes import Dist, Evidence, Factor, SampleSpace

SEEDS = range(40)
ZERO = Fraction(0)


# -- seeded inputs ------------------------------------------------------------


def space(rng, low=1, high=7, prefix="x"):
    return SampleSpace(f"{prefix}{i}" for i in range(rng.randint(low, high)))


def exact_weights(rng, size, counts=(0, 0, 1, 2, 5, 7, 12), first=False):
    """Exact probabilities with zeros and mixed denominators: one of
    ``counts`` per element over their total.  When every count is zero,
    one element gets count one: a random one, or the first when ``first``."""
    drawn = [rng.choice(counts) for _ in range(size)]
    if not any(drawn):
        drawn[0 if first else rng.randrange(size)] = 1
    total = sum(drawn)
    return [Fraction(c, total) for c in drawn]


def float_weights(rng, size, draws=2, first=False):
    """Float probabilities with zeros, not roundings of small fractions:
    per element 0.0 or one of ``draws`` uniform draws, over their total,
    with the fallback of :func:`exact_weights`."""
    raw = [rng.choice((0.0, *[rng.random() for _ in range(draws)])) for _ in range(size)]
    if not any(raw):
        raw[0 if first else rng.randrange(size)] = 1.0
    total = sum(raw)
    return [r / total for r in raw]


def exact_dist(rng, s, **kwargs):
    return Dist(s, exact_weights(rng, len(s), **kwargs))


def float_dist(rng, s, **kwargs):
    return Dist(s, float_weights(rng, len(s), **kwargs))


def exact_values(rng, size, dens=(1, 2, 3, 4, 6, 9)):
    """Exact non-negative values with zeros, some above one."""
    return [Fraction(rng.randint(0, 9), rng.choice(dens)) for _ in range(size)]


def exact_factor(rng, s, **kwargs):
    return Factor(s, exact_values(rng, len(s), **kwargs))


def float_factor(rng, s):
    return Factor(s, [rng.choice((0.0, rng.random(), 3 * rng.random())) for _ in s])


def evidence(rng, s, factor=exact_factor):
    """One to four factors from ``factor`` with multiplicities up to
    four; a factor of zero validity is possible, so callers that update
    check the validity first."""
    return Evidence((factor(rng, s), rng.randint(1, 4)) for _ in range(rng.randint(1, 4)))


def as_floats(f):
    """The float-mode copy of a factor."""
    return Factor(f.space, [float(v) for v in f.values])


def values_of(vector):
    return vector.weights if isinstance(vector, Dist) else vector.values


def bits(values):
    """Floats by their exact bit pattern (the sign of zero included)."""
    return tuple(float(v).hex() for v in values)


def assert_canonical(vector):
    """Int numerators over a positive denominator in lowest common terms,
    and a Fraction view that matches them."""
    nums, den = vector._nums, vector._den
    assert nums is not None, "an all-exact result must use the integer form"
    assert all(type(n) is int for n in nums) and type(den) is int and den > 0
    assert math.gcd(den, *nums) == 1
    assert len(nums) == len(vector.space)
    assert values_of(vector) == tuple(Fraction(n, den) for n in nums)


# -- plain per-element references -----------------------------------------------


def ref_sum(terms):
    """Exact terms add exactly; float terms add as ``math.fsum`` does,
    correctly rounded."""
    terms = list(terms)
    return sum(terms, ZERO) if all(type(t) is Fraction for t in terms) else math.fsum(terms)


def ref_validity(ws, vs):
    return ref_sum(w * v for w, v in zip(ws, vs))


def ref_bayes(ws, vs):
    norm = ref_validity(ws, vs)
    return tuple(w * v / norm for w, v in zip(ws, vs))


def ref_and_conj(psi):
    result = []
    for i in range(len(psi.space)):
        v = Fraction(1)
        for f, count in psi.items():
            v = v * f.values[i] ** count
        result.append(v)
    return tuple(result)


def ref_frac_conj(psi):
    result = []
    for i in range(len(psi.space)):
        v = 1.0
        for f, count in psi.items():
            base = f.values[i]
            if base == 0:
                v = 0.0
                break
            v *= float(base) ** (count / psi.size)
        result.append(v)
    return tuple(result)


def ref_mix(rs, rows):
    return tuple(ref_sum(r * row[j] for r, row in zip(rs, rows)) for j in range(len(rows[0])))


def ref_coefficient_times(psi, powers):
    result = Fraction(psi.coefficient())
    for base, count in powers:
        result = result * base**count
    return result


def ref_kl(sigma, rho):
    return math.fsum(float(w) * math.log(float(w) / float(r)) for w, r in zip(sigma, rho) if w != 0)


def ref_pull(c, q):
    """Per row, the validity of ``q``."""
    return tuple(ref_validity(row.weights, q.values) for row in c.rows)


def ref_push_function(f, omega, cod):
    merged = {}
    for x, w in omega.items():
        if w:
            merged[f(x)] = merged.get(f(x), ZERO) + w
    return tuple(merged.get(y, ZERO) for y in cod)


def ref_outer(vectors, exact):
    """Per-element products in itertools.product order."""
    result = []
    for combo in itertools.product(*map(values_of, vectors)):
        value = Fraction(1) if exact else 1.0
        for x in combo:
            value = value * x
        result.append(value)
    return tuple(result)


# -- the channel's matrices -------------------------------------------------------
#
# A product on a channel runs on the ints when every row and the other
# operand are exact, else on every value rounded to a float.


def ref_dot(ws, vs, exact):
    """sum w*v: exact when ``exact``, else on the values rounded to
    floats, with math.fsum."""
    return ref_validity(ws, vs) if exact else ref_validity(map(float, ws), map(float, vs))


def ref_push(c, omega):
    exact = omega.is_exact and all(row.is_exact for row in c.rows)
    return tuple(ref_dot(omega.weights, col, exact) for col in zip(*(row.weights for row in c.rows)))


def ref_pull_values(c, values, exact):
    exact = exact and all(row.is_exact for row in c.rows)
    return [ref_dot(row.weights, values, exact) for row in c.rows]
