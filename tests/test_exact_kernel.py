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
from functools import partial

import pytest

from multibayes import (
    Channel,
    Dist,
    Evidence,
    Factor,
    FloatRangeError,
    MatchStatus,
    Multiset,
    SampleSpace,
    SizeLimitError,
    ZeroPowerError,
    and_conj,
    bayes_update,
    convex_sum,
    copy_dist,
    dagger,
    dirac,
    falsity,
    flrn,
    frac_conj,
    indicator,
    jeffrey_update,
    jeffrey_validity,
    kl_divergence,
    marginal,
    match_status,
    multinomial,
    multiset_space,
    ortho,
    pearl_update,
    pearl_validity,
    point_pred,
    pull,
    push,
    tensor,
    truth,
    uniform,
    validity,
    vfe_update,
)
from multibayes.distribution import push_function
from multibayes.evidence import add, scale
from multibayes.multiset import coefm

from reference import (
    SEEDS,
    ZERO,
    as_floats,
    assert_canonical,
    bits,
    evidence,
    exact_dist,
    exact_factor,
    exact_values,
    exact_weights,
    float_factor,
    ref_and_conj,
    ref_bayes,
    ref_coefficient_times,
    ref_frac_conj,
    ref_kl,
    ref_mix,
    ref_pull,
    ref_push_function,
    ref_validity,
    space,
    values_of,
)

# -- exact kernels --------------------------------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_public_constructors_are_canonical(seed):
    rng = random.Random(seed)
    s = space(rng)
    assert_canonical(exact_dist(rng, s))
    assert_canonical(exact_factor(rng, s))
    assert_canonical(Factor(s, [0] * len(s)))


@pytest.mark.parametrize("seed", SEEDS)
def test_validity_and_bayes_update(seed):
    rng = random.Random(seed)
    s = space(rng)
    omega, p = exact_dist(rng, s), exact_factor(rng, s)
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


def test_and_conj_is_computed_once_per_evidence():
    rng = random.Random(5)
    psi = evidence(rng, space(rng))
    assert and_conj(psi) is and_conj(psi)
    assert and_conj(Evidence(psi.items())) is not and_conj(psi)


@pytest.mark.parametrize("seed", SEEDS)
def test_convex_sum_and_push(seed):
    rng = random.Random(seed)
    s, t = space(rng), space(rng, prefix="y")
    rs = exact_weights(rng, rng.randint(1, 5))
    components = [exact_dist(rng, t) for _ in rs]
    mixed = convex_sum(rs, components)
    assert mixed.weights == ref_mix(rs, [d.weights for d in components])
    assert_canonical(mixed)
    omega = exact_dist(rng, s)
    c = Channel(s, t, [exact_dist(rng, t) for _ in s])
    pushed = push(c, omega)
    assert pushed.weights == ref_mix(omega.weights, [row.weights for row in c.rows])
    assert_canonical(pushed)


@pytest.mark.parametrize("seed", SEEDS)
def test_update_rules(seed):
    rng = random.Random(seed)
    s = space(rng)
    omega, psi = exact_dist(rng, s), evidence(rng, s)
    if any(ref_validity(omega.weights, f.values) == 0 for f in psi.factors):
        return
    posteriors = [ref_bayes(omega.weights, f.values) for f in psi.factors]
    jeffrey = jeffrey_update(omega, psi)
    assert jeffrey.weights == ref_mix([Fraction(c, psi.size) for c in psi.counts], posteriors)
    assert_canonical(jeffrey)
    weighted = convex_sum(exact_weights(rng, len(psi)), [bayes_update(omega, f) for f in psi.factors])
    assert_canonical(weighted)
    if ref_validity(omega.weights, ref_and_conj(psi)):
        pearl = pearl_update(omega, psi)
        assert pearl.weights == ref_bayes(omega.weights, ref_and_conj(psi))
        assert_canonical(pearl)


@pytest.mark.parametrize("seed", SEEDS)
def test_float_readouts_are_bit_identical(seed):
    rng = random.Random(seed)
    s = space(rng)
    omega, rho, psi = exact_dist(rng, s), exact_dist(rng, s), evidence(rng, s)
    assert omega.to_float().weights == tuple(float(w) for w in omega.weights)
    assert frac_conj(psi).values == ref_frac_conj(psi)
    full = Dist(s, [w / 2 + Fraction(1, 2 * len(s)) for w in rho.weights])
    assert kl_divergence(omega, full) == ref_kl(omega.weights, full.weights)
    assert kl_divergence(omega, full, base=2) == ref_kl(omega.weights, full.weights) / math.log(2)
    # a second distribution on a larger space, with mass outside the first's
    wider = Dist(SampleSpace(list(s) + ["extra"]), [w / 2 for w in full.weights] + [Fraction(1, 2)])
    assert kl_divergence(omega, wider) == ref_kl(omega.weights, wider.weights[:-1])


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
    f = exact_factor(rng, s)
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
    omega = exact_dist(rng, s)
    fomega = omega.to_float()
    p = exact_factor(rng, s)
    fp = as_floats(p)
    for a, b in ((omega, fp), (fomega, p), (fomega, fp)):
        assert validity(a, b) == ref_validity(a.weights, b.values)
        if ref_validity(a.weights, b.values):
            assert bayes_update(a, b).weights == ref_bayes(a.weights, b.values)
    rows = [exact_dist(rng, t) for _ in s]
    for mixing, components in ((omega, [r.to_float() for r in rows]), (fomega, rows)):
        c = Channel(s, t, components)
        assert push(c, mixing).weights == ref_mix(mixing.weights, [r.weights for r in components])
    rs = exact_weights(rng, len(rows))
    floats = [r.to_float() for r in rows]
    assert convex_sum(rs, floats).weights == ref_mix(rs, [r.weights for r in floats])
    psi = Evidence(((p, rng.randint(1, 3)), (fp, rng.randint(1, 3)), (exact_factor(rng, s), 2)))
    assert and_conj(psi).values == ref_and_conj(psi)
    assert frac_conj(psi).values == ref_frac_conj(psi)
    full = Dist(s, [w / 2 + Fraction(1, 2 * len(s)) for w in exact_dist(rng, s).weights]).to_float()
    assert kl_divergence(omega, full) == ref_kl(omega.weights, full.weights)


@pytest.mark.parametrize("seed", SEEDS)
def test_float_evidence_updates_match_exact_ones(seed):
    rng = random.Random(seed)
    s = space(rng)
    omega = exact_dist(rng, s)
    psi = evidence(rng, s)
    if any(validity(omega, f) == 0 for f in psi.factors) or validity(omega, frac_conj(psi)) == 0:
        return
    fpsi = Evidence((as_floats(f), c) for f, c in psi.items())
    assert vfe_update(omega, psi) == vfe_update(omega, fpsi)
    jeffrey, fjeffrey = jeffrey_update(omega, psi), jeffrey_update(omega.to_float(), fpsi)
    assert all(abs(a - b) <= 1e-12 for a, b in zip(jeffrey.weights, fjeffrey.weights))


# -- constructors and operations built on the ints ------------------------------
#
# Each is compared with the per-element Fraction arithmetic that built it
# before it moved onto the ints.


@pytest.mark.parametrize("seed", SEEDS)
def test_constructors_from_literals(seed):
    rng = random.Random(seed)
    s = space(rng)
    x = rng.choice(s.elements)
    subset = [y for y in s if rng.random() < 0.5]
    counts = [rng.randint(0, 5) for _ in s]
    counts[0] += 1
    n = len(s)
    cases = [
        (dirac(x, s), tuple(Fraction(int(y == x)) for y in s)),
        (uniform(s), (Fraction(1, n),) * n),
        (flrn(Multiset(s, counts)), tuple(Fraction(c, sum(counts)) for c in counts)),
        (truth(s), (Fraction(1),) * n),
        (falsity(s), (ZERO,) * n),
        (indicator(subset, s), tuple(Fraction(int(y in subset)) for y in s)),
        (point_pred(x, s), tuple(Fraction(int(y == x)) for y in s)),
    ]
    for vector, expected in cases:
        assert values_of(vector) == expected
        assert_canonical(vector)


@pytest.mark.parametrize("seed", SEEDS)
def test_pull_and_dagger(seed):
    rng = random.Random(seed)
    s, t = space(rng), space(rng, prefix="y")
    c = Channel(s, t, [exact_dist(rng, t) for _ in s])
    q = exact_factor(rng, t)
    pulled = pull(c, q)
    assert pulled.values == ref_pull(c, q)
    assert_canonical(pulled)
    omega = exact_dist(rng, s)
    predicted = push(c, omega)
    if all(predicted.weights):
        inverse = dagger(c, omega)
        for y, row in zip(t, inverse.rows):
            assert row.weights == ref_bayes(omega.weights, ref_pull(c, point_pred(y, t)))
            assert_canonical(row)


@pytest.mark.parametrize("seed", SEEDS)
def test_multinomial(seed):
    rng = random.Random(seed)
    omega = exact_dist(rng, space(rng, high=4))
    size = rng.randint(0, 4)
    draws = multinomial(size, omega)
    expected = tuple(
        coefm(phi) * math.prod((w**c for w, c in zip(omega.weights, phi.counts)), start=Fraction(1))
        for phi in multiset_space(omega.space, size)
    )
    assert draws.weights == expected
    assert_canonical(draws)


@pytest.mark.parametrize("seed", SEEDS)
def test_factor_algebra(seed):
    rng = random.Random(seed)
    s = space(rng)
    p, q = exact_factor(rng, s), exact_factor(rng, s)
    predicate = Factor(s, [min(v, 1) for v in exact_values(rng, len(s))])
    r, k = Fraction(rng.randint(0, 9), rng.randint(1, 6)), rng.randint(0, 3)
    e = rng.randint(0, 4)
    cases = [
        (add(p, q), tuple(a + b for a, b in zip(p.values, q.values))),
        (scale(r, p), tuple(r * v for v in p.values)),
        (scale(k, p), tuple(k * v for v in p.values)),
        (ortho(predicate), tuple(1 - v for v in predicate.values)),
        (p**e, tuple(v**e for v in p.values)),
    ]
    # negative powers are the powers of the reciprocals
    positive = Factor(s, [v + Fraction(1, rng.randint(1, 6)) for v in p.values])
    n = -rng.randint(1, 3)
    cases.append((positive**n, tuple(v**n for v in positive.values)))
    for result, expected in cases:
        assert result.values == expected
        assert_canonical(result)
    with pytest.raises(ZeroPowerError):
        Factor(s, [0] + [1] * (len(s) - 1)) ** -1


@pytest.mark.parametrize("seed", SEEDS)
def test_push_function_marginal_and_copy(seed):
    rng = random.Random(seed)
    s, t = space(rng), space(rng, prefix="y")
    omega, rho = exact_dist(rng, s), exact_dist(rng, t)
    parity = SampleSpace((0, 1))
    images = [
        (push_function(lambda x: int(x[1:]) % 2, omega, cod=parity), lambda x: int(x[1:]) % 2, omega, parity),
        (marginal(tensor(omega, rho), 1), lambda pair: pair[1], tensor(omega, rho), t),
        (copy_dist(omega, 3), lambda x: (x,) * 3, omega, s.power(3)),
    ]
    for result, f, source, cod in images:
        assert result.space == cod
        assert result.weights == ref_push_function(f, source, cod)
        assert_canonical(result)
    unnamed = push_function(lambda x: int(x[1:]) % 3, omega)
    assert unnamed.weights == ref_push_function(lambda x: int(x[1:]) % 3, omega, unnamed.space)


@pytest.mark.parametrize("seed", SEEDS)
def test_match_status_and_cross_space_equality(seed):
    rng = random.Random(seed)
    s = space(rng)
    predicates = [Factor(s, [min(v, 1) for v in exact_values(rng, len(s))]) for _ in range(rng.randint(1, 3))]
    predicates.append(ortho(predicates[0]))
    psi = Evidence((f, 1) for f in predicates[rng.randint(0, 1):])
    totals = [sum(column, ZERO) for column in zip(*(f.values for f in psi.factors))]
    expected = (
        MatchStatus.PERFECT_MATCH if all(t == 1 for t in totals)
        else MatchStatus.MATCH if all(t <= 1 for t in totals) else MatchStatus.NO_MATCH
    )
    assert match_status(psi) == expected
    omega = exact_dist(rng, s)
    wider = SampleSpace(list(s) + ["extra"])
    padded = Dist(wider, list(omega.weights) + [0])
    assert omega == padded and padded == omega
    moved = Dist(wider, [w / 2 for w in omega.weights] + [Fraction(1, 2)])
    assert omega != moved and moved != omega
    assert (omega == padded.to_float()) == (omega.to_float().weights == omega.weights)


# -- whole-row kernels on a wide space ---------------------------------------------------
#
# The conjunction multiplies whole rows of powers, and an exact evidence
# validity multiplies ints and reduces once.  At |X| = 64 they must give
# what per-element arithmetic gives: exact results canonical, float ones
# bit for bit, whatever the counts and wherever the float factors sit.

#: the kinds of the factors, in evidence order, and their counts
WIDE_CONJUNCTIONS = {
    "exact-counts-1": ("eeee", (1, 1, 1, 1)),
    "exact-mixed-counts": ("eeee", (1, 3, 1, 2)),
    "exact-prefix-float-tail": ("eefee", (2, 1, 1, 1, 3)),
    "float-first-count-1": ("feef", (1, 1, 2, 3)),
    "float-counts-1": ("ffe", (1, 1, 1)),
}


@pytest.mark.parametrize("case", WIDE_CONJUNCTIONS)
@pytest.mark.parametrize("seed", range(10))
def test_wide_and_conj(seed, case):
    rng = random.Random(seed)
    s = space(rng, 64, 64)
    kinds, counts = WIDE_CONJUNCTIONS[case]
    make = {"e": exact_factor, "f": float_factor}
    psi = Evidence((make[kind](rng, s), count) for kind, count in zip(kinds, counts))
    assert psi.counts == counts  # no two factors merged
    conj = and_conj(psi)
    if "f" in kinds:
        assert bits(conj.values) == bits(ref_and_conj(psi))
    else:
        assert conj.values == ref_and_conj(psi)
        assert_canonical(conj)


@pytest.mark.parametrize("seed", range(10))
def test_wide_evidence_validities(seed):
    rng = random.Random(seed)
    s = space(rng, 64, 64)
    omega = exact_dist(rng, s)
    psi = Evidence((exact_factor(rng, s), rng.randint(1, 4)) for _ in range(rng.randint(1, 6)))
    valids = [ref_validity(omega.weights, f.values) for f in psi.factors]
    jeffrey = jeffrey_validity(omega, psi)
    assert type(jeffrey) is Fraction and jeffrey == ref_coefficient_times(psi, zip(valids, psi.counts))
    pearl = pearl_validity(omega, psi)
    expected = ref_coefficient_times(psi, [(ref_validity(omega.weights, ref_and_conj(psi)), 1)])
    assert type(pearl) is Fraction and pearl == expected


def test_wide_refusals_are_typed():
    rng = random.Random(3)
    s = space(rng, 64, 64)
    omega, p, q = exact_dist(rng, s), exact_factor(rng, s), exact_factor(rng, s)
    psi = Evidence(((p, 10**6), (q, 1)))
    for compute in (and_conj, partial(pearl_update, omega), partial(pearl_validity, omega),
                    partial(jeffrey_validity, omega)):
        with pytest.raises(SizeLimitError):
            compute(psi)
    assert psi._conj is None
    big = Factor(s, [1e200] * 64)
    huge = Factor(s, [Fraction(10**400)] * 64)  # exact, beyond the float range
    for psi in (Evidence(((big, 2),)), Evidence(((p, 2), (big, 2))), Evidence(((big, 1), (huge, 1)))):
        with pytest.raises(FloatRangeError):
            and_conj(psi)
    with pytest.raises(FloatRangeError):
        jeffrey_validity(omega.to_float(), Evidence(((big, 2),)))


# A factor keeps its powers for the conjunction: other evidence that
# holds it at a count it has met reuses the list, and the results are
# those of per-element arithmetic, whichever evidence computed the power.


def counting_pows(monkeypatch):
    """The calls of ``pow`` in ``multibayes.evidence``, counted from now
    on: a power pass over a factor makes one per element."""
    import multibayes.evidence as evidence_module

    calls = []

    def counted(base, exponent):
        calls.append(exponent)
        return pow(base, exponent)

    monkeypatch.setattr(evidence_module, "pow", counted, raising=False)
    return calls


def assert_reference_conj(psi):
    """``and_conj(psi)`` as per-element arithmetic gives it: exact and
    canonical when every factor is exact, else bit for bit."""
    conj = and_conj(psi)
    if conj._nums is not None:
        assert conj.values == ref_and_conj(psi)
        assert_canonical(conj)
    else:
        assert bits(conj.values) == bits(ref_and_conj(psi))


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_evidences_sharing_a_factor_compute_its_power_once(kind, monkeypatch):
    rng = random.Random(11)
    s = space(rng, 16, 16)
    make = exact_factor if kind == "exact" else float_factor
    p, q, r = make(rng, s), make(rng, s), make(rng, s)
    pows = counting_pows(monkeypatch)
    assert_reference_conj(Evidence(((p, 3), (q, 1))))
    assert pows == [3] * len(s)
    cached = p._powers[3]
    assert_reference_conj(Evidence(((r, 2), (p, 3))))
    assert pows == [3] * len(s) + [2] * len(s)
    assert p._powers[3] is cached and q._powers is None


def test_power_passes_are_bounded_by_the_factor_count_pairs(monkeypatch):
    # queries as the wide workloads draw them: a few of eight long-lived
    # factors, each at a count from one to four
    rng = random.Random(31)
    s = space(rng, 32, 32)
    factors = [exact_factor(rng, s) for _ in range(4)] + [float_factor(rng, s) for _ in range(4)]
    pows = counting_pows(monkeypatch)
    pairs = set()
    for _ in range(200):
        chosen = rng.sample(factors, rng.randint(3, 8))
        psi = Evidence((f, rng.randint(1, 4)) for f in chosen)
        and_conj(psi)
        pairs.update((id(f), count) for f, count in psi.items() if count > 1)
    assert len(pows) == len(pairs) * len(s) <= 24 * len(s)


#: the kinds of a pool's factors; evidence draws from the pool again and again
POWER_POOLS = {"exact": "eee", "float": "fff", "mixed-tail": "eefe"}


@pytest.mark.parametrize("pool", POWER_POOLS)
@pytest.mark.parametrize("seed", range(10))
def test_conjunctions_from_kept_powers_match_the_reference(seed, pool):
    rng = random.Random(seed)
    s = space(rng, 2, 24)
    make = {"e": exact_factor, "f": float_factor}
    factors = [make[kind](rng, s) for kind in POWER_POOLS[pool]]
    for _ in range(12):
        chosen = factors if pool == "mixed-tail" else rng.sample(factors, rng.randint(1, 3))
        assert_reference_conj(Evidence((f, rng.randint(1, 4)) for f in chosen))
    for f in factors:  # the kept lists were never changed
        for count, powers in (f._powers or {}).items():
            assert powers == [v**count for v in f._raw()]


def test_a_factor_keeps_at_most_eight_counts():
    rng = random.Random(4)
    s = space(rng, 8, 8)
    p, q = exact_factor(rng, s), float_factor(rng, s)
    for count in range(2, 11):
        for f in (p, q):
            assert_reference_conj(Evidence(((f, count),)))
    for f in (p, q):
        assert list(f._powers) == list(range(3, 11))  # the oldest count went first


def test_kept_powers_survive_a_change_of_prior():
    rng = random.Random(8)
    s = space(rng, 12, 12)
    p, q = exact_factor(rng, s), exact_factor(rng, s)
    first, second = exact_dist(rng, s), exact_dist(rng, s)
    psi = Evidence(((p, 2), (q, 1)))
    pearl_validity(first, psi)
    cached = p._powers[2]
    again = Evidence(((p, 2), (q, 1)))
    assert pearl_validity(second, again) == ref_coefficient_times(
        again, [(ref_validity(second.weights, ref_and_conj(again)), 1)]
    )
    assert and_conj(again)._memo[0] is second and p._powers[2] is cached


def test_a_power_that_overflows_is_not_kept():
    s = SampleSpace("abc")
    big = Factor(s, [1e200, 0.5, 0.0])
    for _ in range(2):
        with pytest.raises(FloatRangeError):
            and_conj(Evidence(((big, 2),)))
        assert not big._powers
    assert and_conj(Evidence(((big, 1),))).values == big.values


@pytest.mark.parametrize("kind", ["exact", "float"])
@pytest.mark.parametrize("seed", range(10))
def test_integer_powers_match_per_element_powers(seed, kind):
    rng = random.Random(seed)
    s = space(rng, 2, 12)
    make = exact_factor if kind == "exact" else float_factor
    p = make(rng, s)
    half = Fraction(1, 2) if kind == "exact" else 0.5
    positive = Factor(s, [v + half for v in p.values])  # negative powers need nonzero values
    for k in range(-2, 4):
        base = positive if k < 0 else p
        expected = tuple(v**k for v in base.values)
        if kind == "exact":
            assert (base**k).values == expected
            assert_canonical(base**k)
        else:
            assert bits((base**k).values) == bits(expected)


@pytest.mark.parametrize("kind", ["exact", "float"])
def test_a_power_and_the_conjunction_share_the_kept_powers(kind, monkeypatch):
    rng = random.Random(12)
    s = space(rng, 16, 16)
    p = (exact_factor if kind == "exact" else float_factor)(rng, s)
    pows = counting_pows(monkeypatch)
    cube = p**3
    assert pows == [3] * len(s)
    psi = Evidence(((p, 3),))
    assert_reference_conj(psi)
    assert and_conj(psi) == cube and pows == [3] * len(s)


#: conjunctions of count-1 factors alone, or on one side of the first float factor
COUNT_ONE_CONJUNCTIONS = {
    "exact-count-1": ("e", (1,)),
    "float-count-1": ("f", (1,)),
    "exact-count-1-before-float": ("ef", (1, 2)),
    "float-before-exact-count-1": ("fe", (2, 1)),
}


@pytest.mark.parametrize("case", COUNT_ONE_CONJUNCTIONS)
@pytest.mark.parametrize("seed", range(10))
def test_count_one_factors_in_the_conjunction(seed, case):
    rng = random.Random(seed)
    s = space(rng, 2, 12)
    kinds, counts = COUNT_ONE_CONJUNCTIONS[case]
    make = {"e": exact_factor, "f": float_factor}
    psi = Evidence((make[kind](rng, s), count) for kind, count in zip(kinds, counts))
    assert psi.counts == counts
    assert_reference_conj(psi)
    for f, count in psi.items():
        if count == 1:  # a factor's own values: nothing is kept
            assert f._powers is None
