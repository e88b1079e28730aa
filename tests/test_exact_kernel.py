"""The exact integer kernel against plain-Fraction reference arithmetic.

Exact distributions and factors hold int numerators over one shared
denominator.  Every kernel that works on that form must give the value
that per-element Fraction arithmetic gives, keep the form canonical,
and leave float operands, and exact ones mixed with float ones, on
their old results.
"""

import math
import random
from fractions import Fraction

import pytest

from multibayes import (
    Channel,
    Dist,
    Evidence,
    Factor,
    SampleSpace,
    and_conj,
    bayes_update,
    convex_sum,
    frac_conj,
    jeffrey_update,
    jeffrey_update_weighted,
    kl_divergence,
    pearl_update,
    point_pred,
    pull,
    push,
    validity,
    vfe_update,
)

SEEDS = range(40)
ZERO = Fraction(0)


# -- seeded inputs ------------------------------------------------------------


def space(rng, low=1, high=7, prefix="x"):
    return SampleSpace(f"{prefix}{i}" for i in range(rng.randint(low, high)))


def weights(rng, size):
    """Exact probabilities with zeros and mixed denominators."""
    counts = [rng.choice((0, 0, 1, 2, 5, 7, 12)) for _ in range(size)]
    if not any(counts):
        counts[rng.randrange(size)] = 1
    total = sum(counts)
    return [Fraction(c, total) for c in counts]


def dist(rng, s):
    return Dist(s, weights(rng, len(s)))


def factor_values(rng, size):
    """Exact non-negative values with zeros, some above one."""
    return [Fraction(rng.randint(0, 9), rng.choice((1, 2, 3, 4, 6, 9))) for _ in range(size)]


def factor(rng, s):
    return Factor(s, factor_values(rng, len(s)))


def evidence(rng, s):
    """Evidence with multiplicities up to four; a factor of zero validity
    is possible, so callers that update check the validity first."""
    return Evidence((factor(rng, s), rng.randint(1, 4)) for _ in range(rng.randint(1, 4)))


def as_floats(f):
    """The float-mode copy of a factor."""
    return Factor(f.space, [float(v) for v in f.values])


# -- plain-Fraction references ------------------------------------------------


def ref_validity(ws, vs):
    return sum((w * v for w, v in zip(ws, vs)), ZERO)


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


def ref_mix(rs, rows):
    return tuple(sum((r * row[j] for r, row in zip(rs, rows)), ZERO) for j in range(len(rows[0])))


def ref_frac_conj(psi):
    total = psi.size
    result = []
    for i in range(len(psi.space)):
        v = 1.0
        for f, count in psi.items():
            base = f.values[i]
            if base == 0:
                v = 0.0
                break
            v *= float(base) ** (count / total)
        result.append(v)
    return tuple(result)


def ref_kl(sigma, rho):
    total = 0.0
    for w, r in zip(sigma, rho):
        if w != 0:
            total += float(w) * math.log(float(w) / float(r))
    return total


def assert_canonical(vector):
    """Int numerators over a positive denominator in lowest common terms,
    and a Fraction view that matches them."""
    nums, den = vector._nums, vector._den
    assert nums is not None, "an all-exact result must use the integer form"
    assert all(type(n) is int for n in nums) and type(den) is int and den > 0
    assert math.gcd(den, *nums) == 1
    assert len(nums) == len(vector.space)
    values = vector.weights if isinstance(vector, Dist) else vector.values
    assert values == tuple(Fraction(n, den) for n in nums)


# -- exact kernels --------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_public_constructors_are_canonical(seed):
    rng = random.Random(seed)
    s = space(rng)
    assert_canonical(dist(rng, s))
    assert_canonical(factor(rng, s))
    assert_canonical(Factor(s, [0] * len(s)))


@pytest.mark.parametrize("seed", SEEDS)
def test_validity_and_bayes_update(seed):
    rng = random.Random(seed)
    s = space(rng)
    omega, p = dist(rng, s), factor(rng, s)
    value = validity(omega, p)
    assert type(value) is Fraction and value == ref_validity(omega.weights, p.values)
    if value:
        posterior = bayes_update(omega, p)
        assert posterior.weights == ref_bayes(omega.weights, p.values)
        assert_canonical(posterior)


@pytest.mark.parametrize("seed", SEEDS)
def test_and_conj(seed):
    rng = random.Random(seed)
    psi = evidence(rng, space(rng))
    conj = and_conj(psi)
    assert conj.values == ref_and_conj(psi)
    assert_canonical(conj)


@pytest.mark.parametrize("seed", SEEDS)
def test_convex_sum_and_push(seed):
    rng = random.Random(seed)
    s, t = space(rng), space(rng, prefix="y")
    rs = weights(rng, rng.randint(1, 5))
    components = [dist(rng, t) for _ in rs]
    mixed = convex_sum(rs, components)
    assert mixed.weights == ref_mix(rs, [d.weights for d in components])
    assert_canonical(mixed)
    omega = dist(rng, s)
    c = Channel(s, t, [dist(rng, t) for _ in s])
    pushed = push(c, omega)
    assert pushed.weights == ref_mix(omega.weights, [row.weights for row in c.rows])
    assert_canonical(pushed)


@pytest.mark.parametrize("seed", SEEDS)
def test_update_rules(seed):
    rng = random.Random(seed)
    s = space(rng)
    omega, psi = dist(rng, s), evidence(rng, s)
    if any(ref_validity(omega.weights, f.values) == 0 for f in psi.factors):
        return
    posteriors = [ref_bayes(omega.weights, f.values) for f in psi.factors]
    jeffrey = jeffrey_update(omega, psi)
    assert jeffrey.weights == ref_mix([Fraction(c, psi.size) for c in psi.counts], posteriors)
    assert_canonical(jeffrey)
    weighted = jeffrey_update_weighted(omega, list(zip(psi.factors, weights(rng, len(psi)))))
    assert_canonical(weighted)
    if ref_validity(omega.weights, ref_and_conj(psi)):
        pearl = pearl_update(omega, psi)
        assert pearl.weights == ref_bayes(omega.weights, ref_and_conj(psi))
        assert_canonical(pearl)


@pytest.mark.parametrize("seed", SEEDS)
def test_float_readouts_are_bit_identical(seed):
    rng = random.Random(seed)
    s = space(rng)
    omega, rho, psi = dist(rng, s), dist(rng, s), evidence(rng, s)
    assert omega.to_float().weights == tuple(float(w) for w in omega.weights)
    assert frac_conj(psi).values == ref_frac_conj(psi)
    full = Dist(s, [w / 2 + Fraction(1, 2 * len(s)) for w in rho.weights])
    assert kl_divergence(omega, full) == ref_kl(omega.weights, full.weights)
    assert kl_divergence(omega, full, base=2) == ref_kl(omega.weights, full.weights) / math.log(2)


def test_huge_denominators_round_like_fractions():
    s = SampleSpace("abc")
    big = 3**700
    omega = Dist(s, (Fraction(1, big), Fraction(2, 7), 1 - Fraction(1, big) - Fraction(2, 7)))
    assert omega.to_float().weights == tuple(float(w) for w in omega.weights)
    assert omega.to_float().weights[0] == 0.0


# -- equality, hashing and evidence merging -------------------------------------


def test_pulled_factor_equals_hand_built_factor():
    d, t = SampleSpace(("d", "~d")), SampleSpace(("p", "n"))
    rows = (Dist(t, (Fraction(9, 10), Fraction(1, 10))), Dist(t, (Fraction(2, 5), Fraction(3, 5))))
    c = Channel(d, t, rows)
    pulled = pull(c, point_pred("p", t))
    by_hand = Factor(d, (Fraction(9, 10), Fraction(2, 5)))
    assert pulled == by_hand and hash(pulled) == hash(by_hand)
    psi = Evidence(((pulled, 2), (by_hand, 3)))
    assert psi.factors == (pulled,) and psi.counts == (5,)


@pytest.mark.parametrize("seed", SEEDS)
def test_equal_factors_from_different_routes(seed):
    rng = random.Random(seed)
    s = space(rng)
    f = factor(rng, s)
    rebuilt = Factor._from_ints(s, [n * 6 for n in f._nums], f._den * 6)
    assert rebuilt == f and hash(rebuilt) == hash(f)
    assert rebuilt._nums == f._nums and rebuilt._den == f._den
    assert Evidence(((f, 1), (rebuilt, 2))).counts == (3,)


@pytest.mark.parametrize("seed", SEEDS)
def test_exact_and_float_factors_compare_and_hash_equal(seed):
    rng = random.Random(seed)
    s = space(rng)
    f = Factor(s, [Fraction(rng.randint(0, 8), 4) for _ in s])  # dyadic: exact in binary
    g = as_floats(f)
    assert f == g and g == f and hash(f) == hash(g)
    assert Evidence(((f, 1), (g, 1))).counts == (2,)
    omega = Dist(s, [Fraction(1, len(s))] * len(s))
    assert omega == Dist(s, [Fraction(1, len(s))] * len(s))


# -- float and mixed operands ---------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_operands_keep_float_results(seed):
    rng = random.Random(seed)
    s, t = space(rng), space(rng, prefix="y")
    omega = dist(rng, s)
    fomega = omega.to_float()
    p = factor(rng, s)
    fp = as_floats(p)
    for a, b in ((omega, fp), (fomega, p), (fomega, fp)):
        assert validity(a, b) == ref_validity(a.weights, b.values)
        if ref_validity(a.weights, b.values):
            assert bayes_update(a, b).weights == ref_bayes(a.weights, b.values)
    rows = [dist(rng, t) for _ in s]
    for mixing, components in ((omega, [r.to_float() for r in rows]), (fomega, rows)):
        c = Channel(s, t, components)
        assert push(c, mixing).weights == ref_mix(mixing.weights, [r.weights for r in components])
    rs = weights(rng, len(rows))
    floats = [r.to_float() for r in rows]
    assert convex_sum(rs, floats).weights == ref_mix(rs, [r.weights for r in floats])
    psi = Evidence(((p, rng.randint(1, 3)), (fp, rng.randint(1, 3)), (factor(rng, s), 2)))
    assert and_conj(psi).values == ref_and_conj(psi)
    assert frac_conj(psi).values == ref_frac_conj(psi)
    full = Dist(s, [w / 2 + Fraction(1, 2 * len(s)) for w in dist(rng, s).weights]).to_float()
    assert kl_divergence(omega, full) == ref_kl(omega.weights, full.weights)


@pytest.mark.parametrize("seed", SEEDS)
def test_float_evidence_updates_match_exact_ones(seed):
    rng = random.Random(seed)
    s = space(rng)
    omega = dist(rng, s)
    psi = evidence(rng, s)
    if any(validity(omega, f) == 0 for f in psi.factors) or validity(omega, frac_conj(psi)) == 0:
        return
    fpsi = Evidence((as_floats(f), c) for f, c in psi.items())
    assert vfe_update(omega, psi) == vfe_update(omega, fpsi)
    jeffrey, fjeffrey = jeffrey_update(omega, psi), jeffrey_update(omega.to_float(), fpsi)
    assert all(abs(a - b) <= 1e-12 for a, b in zip(jeffrey.weights, fjeffrey.weights))
