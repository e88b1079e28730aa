"""The float kernel against plain per-element arithmetic.

A distribution or factor is exact or float, never both: a float one
is its own float tuple, an exact one is read through a float view built
once, and a kernel on mixed operands (exact and float vectors) runs on
these views.  Every kernel that runs on a view must give, bit
for bit, what per-element arithmetic on the scalars gives (an exact
value rounded once, as ``float(Fraction)`` does); every float result
must be finite and non-negative, and a distribution must sum to one;
the float route must agree with the exact one within 1e-9; and a query
on float inputs must not fall back to mixed Fraction/float arithmetic.
"""

import cProfile
import math
import pstats
import random
import sys
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
    SampleSpace,
    ZeroValidityError,
    and_conj,
    bayes_update,
    convex_sum,
    copy_dist,
    dagger,
    expected_channel_divergence,
    frac_conj,
    iterated_pearl_validity,
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
    tensor_conj,
    tensor_factor,
    tensor_power,
    triple_pull,
    validity,
    vfe_update,
    vfe_update_softmax,
)
from multibayes import core
from multibayes.core import FLOAT_SUM_TOL, _Vector
from multibayes.distribution import push_function
from multibayes.evidence import add, scale
from multibayes.models import medical_model
from multibayes.multiset import coefm

import reference
from reference import (
    SEEDS,
    as_floats,
    bits,
    evidence,
    exact_dist,
    exact_weights,
    float_dist,
    float_factor,
    float_weights,
    ref_and_conj,
    ref_bayes,
    ref_coefficient_times,
    ref_dot,
    ref_frac_conj,
    ref_kl,
    ref_mix,
    ref_pull,
    ref_pull_values,
    ref_push,
    ref_push_function,
    ref_validity,
    space,
)

#: fewer denominators than the exact kernel's tests draw from
exact_factor = partial(reference.exact_factor, dens=(1, 2, 3, 7))


def mixed_evidence(rng, s):
    """An exact prefix, a float factor, then exact and float factors."""
    factors = [exact_factor(rng, s), float_factor(rng, s), exact_factor(rng, s), float_factor(rng, s)]
    return Evidence((f, rng.randint(1, 3)) for f in factors[: rng.randint(2, 4)])


def operand_pairs(rng, s):
    """(distribution, factor) with at least one float operand."""
    return [
        (float_dist(rng, s), float_factor(rng, s)),
        (exact_dist(rng, s), float_factor(rng, s)),
        (float_dist(rng, s), exact_factor(rng, s)),
    ]


# -- float kernels against the references ---------------------------------------


@pytest.mark.parametrize("seed", SEEDS)
def test_validity_and_bayes_update(seed):
    rng = random.Random(seed)
    s = space(rng)
    for omega, p in operand_pairs(rng, s):
        value = validity(omega, p)
        assert type(value) is float
        assert bits([value]) == bits([ref_validity(omega.weights, p.values)])
        if value:
            assert bits(bayes_update(omega, p).weights) == bits(ref_bayes(omega.weights, p.values))


@pytest.mark.parametrize("seed", SEEDS)
def test_conjunctions(seed):
    rng = random.Random(seed)
    s = space(rng)
    for psi in (evidence(rng, s, float_factor), mixed_evidence(rng, s)):
        assert bits(and_conj(psi).values) == bits(ref_and_conj(psi))
        assert bits(frac_conj(psi).values) == bits(ref_frac_conj(psi))


@pytest.mark.parametrize("seed", SEEDS)
def test_mixtures_and_push(seed):
    rng = random.Random(seed)
    s, t = space(rng), space(rng, prefix="y")
    k = rng.randint(1, 5)
    for rs, maker in (
        (exact_weights(rng, k), float_dist),
        (float_weights(rng, k), exact_dist),
        (float_weights(rng, k), float_dist),
    ):
        components = [maker(rng, t) for _ in rs]
        rows = [d.weights for d in components]
        assert bits(convex_sum(rs, components).weights) == bits(ref_mix(rs, rows))
    for omega_maker, row_maker in ((float_dist, exact_dist), (exact_dist, float_dist), (float_dist, float_dist)):
        omega = omega_maker(rng, s)
        c = Channel(s, t, [row_maker(rng, t) for _ in s])
        assert bits(push(c, omega).weights) == bits(ref_mix(omega.weights, [r.weights for r in c.rows]))


@pytest.mark.parametrize("seed", SEEDS)
def test_update_rules_and_validities(seed):
    rng = random.Random(seed)
    s = space(rng)
    omega = float_dist(rng, s)
    for psi in (evidence(rng, s, float_factor), mixed_evidence(rng, s)):
        valids = [ref_validity(omega.weights, f.values) for f in psi.factors]
        assert bits([jeffrey_validity(omega, psi)]) == bits([ref_coefficient_times(psi, zip(valids, psi.counts))])
        conj = ref_and_conj(psi)
        pearl = ref_validity(omega.weights, conj)
        assert bits([pearl_validity(omega, psi)]) == bits([ref_coefficient_times(psi, [(pearl, 1)])])
        if not all(valids):
            continue
        posteriors = [ref_bayes(omega.weights, f.values) for f in psi.factors]
        jeffrey = ref_mix([Fraction(c, psi.size) for c in psi.counts], posteriors)
        assert bits(jeffrey_update(omega, psi).weights) == bits(jeffrey)
        rs = float_weights(rng, len(psi))
        weighted = convex_sum(rs, [bayes_update(omega, f) for f in psi.factors])
        assert bits(weighted.weights) == bits(ref_mix(rs, posteriors))
        if pearl:
            assert bits(pearl_update(omega, psi).weights) == bits(ref_bayes(omega.weights, conj))
        geometric = ref_frac_conj(psi)
        if ref_validity(omega.weights, geometric):
            assert bits(vfe_update(omega, psi).weights) == bits(ref_bayes(omega.weights, geometric))


@pytest.mark.parametrize("seed", SEEDS)
def test_to_float_and_kl_divergence(seed):
    rng = random.Random(seed)
    s = space(rng)
    for omega in (exact_dist(rng, s), float_dist(rng, s)):
        assert bits(omega.to_float().weights) == bits(float(w) for w in omega.weights)
        full = Dist(s, [w / 2 + 1 / (2 * len(s)) for w in float_weights(rng, len(s))])
        assert bits([kl_divergence(omega, full)]) == bits([ref_kl(omega.weights, full.weights)])
        assert kl_divergence(omega, full, base=2) == ref_kl(omega.weights, full.weights) / math.log(2)
        # a second distribution on a larger space, with mass outside the first's
        wider = Dist(SampleSpace(list(s) + ["extra"]), [w / 2 for w in full.weights] + [0.5])
        assert bits([kl_divergence(omega, wider)]) == bits([ref_kl(omega.weights, wider.weights[:-1])])


# -- the float view and the trusted constructor ---------------------------------


def test_float_view_is_built_once():
    s = SampleSpace("abc")
    floats = Dist(s, (0.25, 0.5, 0.25))
    assert floats._floats() is floats.weights
    mixed = Dist(s, (Fraction(1, 4), 0.5, 0.25))
    assert mixed._floats() == (0.25, 0.5, 0.25) and mixed._floats() is mixed._floats()
    exact = Dist(s, (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
    assert exact._floats() is exact._floats()
    assert exact.to_float()._floats() is exact._floats()


@pytest.fixture
def float_results(monkeypatch):
    """Every vector made by the trusted float constructor while active."""
    made = []
    original = _Vector._from_floats.__func__

    def recording(cls, space, values):
        vector = original(cls, space, values)
        made.append(vector)
        return vector

    monkeypatch.setattr(_Vector, "_from_floats", classmethod(recording))
    return made


@pytest.mark.parametrize("seed", SEEDS)
def test_float_results_are_in_range(seed, float_results):
    rng = random.Random(seed)
    s, t = space(rng), space(rng, prefix="y")
    omega = float_dist(rng, s)
    c = Channel(s, t, [float_dist(rng, t) for _ in s])
    for psi in (evidence(rng, s, float_factor), mixed_evidence(rng, s)):
        and_conj(psi)
        frac_conj(psi)
        push(c, omega)
        if all(validity(omega, f) for f in psi.factors) and validity(omega, frac_conj(psi)):
            jeffrey_update(omega, psi)
            vfe_update(omega, psi)
        if validity(omega, and_conj(psi)):
            pearl_update(omega, psi)
    assert float_results
    for vector in float_results:
        values = vector._floats()
        assert values is vector._scalars() and vector._nums is None
        assert all(type(v) is float and 0.0 <= v < math.inf for v in values)
        if isinstance(vector, Dist):
            assert abs(sum(values) - 1.0) <= FLOAT_SUM_TOL


@pytest.mark.parametrize(
    "cls,values",
    [(Factor, (1.0, math.inf)), (Factor, (math.nan, 1.0)), (Factor, (1.0, math.nan)), (Factor, (-1.0, 2.0)),
     (Dist, (0.5, 0.25)), (Dist, (1.5, -0.5))],
)
def test_trusted_constructor_rejects_bad_results(cls, values):
    with pytest.raises(FloatRangeError):
        cls._from_floats(SampleSpace("ab"), values)


def test_trusted_constructor_accepts_a_sum_beyond_the_float_range():
    big = Factor._from_floats(SampleSpace("ab"), (1e308, 1e308))
    assert big.values == (1e308, 1e308)


# -- the float route against the exact one --------------------------------------


def close(a, b):
    return all(abs(x - y) <= 1e-9 for x, y in zip(a.weights, b.weights, strict=True))


def close_rel(a, b):
    return abs(float(a) - float(b)) <= 1e-9 * abs(float(b))


@pytest.mark.parametrize("seed", SEEDS)
def test_float_route_agrees_with_exact_route(seed):
    rng = random.Random(seed)
    s = space(rng)
    omega, p = exact_dist(rng, s), exact_factor(rng, s)
    psi = evidence(rng, s, exact_factor)
    fomega = omega.to_float()
    fpsi = Evidence((as_floats(f), n) for f, n in psi.items())
    fp = as_floats(p)
    assert close_rel(validity(fomega, fp), validity(omega, p))
    if validity(omega, p):
        assert close(bayes_update(fomega, fp), bayes_update(omega, p))
    assert close_rel(jeffrey_validity(fomega, fpsi), jeffrey_validity(omega, psi))
    assert close_rel(pearl_validity(fomega, fpsi), pearl_validity(omega, psi))
    if all(validity(omega, f) for f in psi.factors):
        assert close(jeffrey_update(fomega, fpsi), jeffrey_update(omega, psi))
        if validity(omega, frac_conj(psi)):
            assert close(vfe_update(fomega, fpsi), vfe_update(omega, psi))
    if validity(omega, and_conj(psi)):
        assert close(pearl_update(fomega, fpsi), pearl_update(omega, psi))


#: The relative error of a float evidence validity against its exact twin, the
#: same float inputs read exactly.  With u = 2**-53, n roundings of relative
#: error at most u each err by at most n*u / (1 - n*u) in all.  Counted for k
#: factors at counts c_i:
#: - Jeffrey: each validity is one fsum of the products w*p, 2 roundings, and
#:   raising it to c_i carries them c_i times; C's pow() is within one ulp, 2
#:   roundings; the coefficient's float and the k products 1 each:
#:   2*sum(c_i) + 2*k + k + 1 = 2*sum(c_i) + 3*k + 1.
#: - Pearl: each element's powers (2 each) and their k - 1 products, then the
#:   product with w and the fsum, then the coefficient's float and one product:
#:   3*k + 3, no more than Jeffrey's.
#: This holds while every intermediate is a normal float.  One that falls below
#: the normal range errs by up to 2**-1075 instead, which the bound does not
#: cover: a 0.0 or subnormal result where the exact one is normal fails it.
def large_count_bound(counts):
    n = 2 * sum(counts) + 3 * len(counts) + 1
    return n * 2.0**-53 / (1 - n * 2.0**-53)


@pytest.mark.parametrize("c", [10, 100, 300, 600, 800, 1000])
def test_float_route_agrees_with_exact_route_at_large_counts(c, monkeypatch):
    # the medical model in floats with c|pt> + c|nt>: each float validity lies within the bound
    # of the exact one or raises FloatRangeError, never 0.0.  Jeffrey's must be returned wherever
    # its float powers are normal floats (c <= 828), also where the multinomial coefficient is
    # beyond the float range (c >= 515) and the product is taken exactly.  Not covered: counts at
    # which a float intermediate is subnormal but not 0.0 (Pearl's conjunction near c = 520,
    # Jeffrey's powers near c = 850), where the float route loses precision (ROADMAP item 1)
    medical = medical_model()
    fomega = medical.prior.to_float()
    fpsi = Evidence(((as_floats(medical.pos_test), c), (as_floats(medical.neg_test), c)))
    # the float weights read exactly sum to s, not one: the twin prior is normalised, and the
    # validities, linear in the prior, are scaled back (each factor's validity by s)
    weights = [Fraction(w) for w in fomega.weights]
    s = sum(weights)
    omega = Dist(fomega.space, [w / s for w in weights])
    psi = Evidence((Factor(f.space, map(Fraction, f.values)), n) for f, n in fpsi.items())
    bound = large_count_bound(fpsi.counts)
    normal_powers = min(validity(fomega, f) ** n for f, n in fpsi.items()) >= sys.float_info.min
    for rule, scale_back in ((jeffrey_validity, s ** (2 * c)), (pearl_validity, s)):
        with monkeypatch.context() as patch:  # the oracle only: the float route keeps the limit
            patch.setattr(core, "MAX_EXACT_BITS", 10**7)
            exact = rule(omega, psi) * scale_back
        assert exact >= sys.float_info.min
        try:
            value = rule(fomega, fpsi)
        except FloatRangeError:
            assert rule is pearl_validity or not normal_powers
            continue
        assert value >= sys.float_info.min and abs(Fraction(value) - exact) <= bound * exact


# -- no Fraction fallbacks on float inputs ---------------------------------------


def fraction_fallbacks(run):
    """Calls of the mixed Fraction/float operator fallbacks in fractions.py."""
    profile = cProfile.Profile()
    profile.runcall(run)
    return sum(
        calls
        for (filename, _, name), (_, calls, *_rest) in pstats.Stats(profile).stats.items()
        if filename.endswith("fractions.py") and name in ("forward", "reverse")
    )


def test_float_query_makes_no_fraction_fallbacks():
    rng = random.Random(7)
    xs, ys = SampleSpace(f"x{i}" for i in range(64)), SampleSpace(f"y{j}" for j in range(6))
    prior = exact_dist(rng, xs).to_float()
    c = Channel(xs, ys, [Dist(ys, exact_weights(rng, len(ys))).to_float() for _ in xs])
    predicates = [pull(c, point_pred(y, ys)) for y in ys]
    psi = Evidence((q, n) for q, n in zip(predicates[:4], (1, 2, 3, 4)))

    def query():
        jeffrey = jeffrey_update(prior, psi)
        pearl_update(prior, psi)
        vfe_update(prior, psi)
        jeffrey_validity(prior, psi)
        pearl_validity(prior, psi)
        push(c, jeffrey)
        kl_divergence(jeffrey, prior)

    assert fraction_fallbacks(query) == 0
    # the count is live: a mixed Fraction/float product is counted
    assert fraction_fallbacks(lambda: Fraction(1, 3) * 0.5) == 1


def float_products():
    s = SampleSpace("abc")
    omega = Dist(s, (0.2, 0.3, 0.5))
    p, q = Factor(s, (0.25, 0.9, 1.7)), Factor(s, (0.6, 0.1, 1.0))
    c = Channel(s, s, [omega, Dist(s, (0.5, 0.25, 0.25)), Dist(s, (0.1, 0.1, 0.8))])
    exact_c = Channel(s, s, [Dist(s, (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)))] * 3)
    return {
        "tensor": lambda: tensor(omega, omega),
        "tensor_power": lambda: tensor_power(omega, 4),
        "tensor_factor": lambda: tensor_factor(p, q),
        "tensor_conj": lambda: tensor_conj(Evidence(((p, 2), (q, 2)))),
        "multinomial": lambda: multinomial(4, omega),
        "iterated_pearl_validity": lambda: iterated_pearl_validity(omega, (p, q, p)),
        "pull": lambda: pull(c, p),
        "push_and_pull_on_a_reused_channel": lambda: [
            (push(ch, omega), pull(ch, p)) for ch in (c, exact_c) for _ in range(2)
        ],
        "dagger": lambda: dagger(c, omega),
        "add": lambda: add(p, q),
        "scale": lambda: scale(0.5, p),
        "ortho": lambda: ortho(q),
        "power": lambda: (p**3, p**0.5),
        "push_function": lambda: push_function(lambda x: x == "a", omega),
        "marginal": lambda: marginal(tensor(omega, omega), 0),
        "copy_dist": lambda: copy_dist(omega),
        "match_status": lambda: match_status(Evidence(((q, 1), (ortho(q), 1)))),
        "vfe_update_softmax": lambda: vfe_update_softmax(omega, Evidence(((p, 2), (q, 1)))),
        "cross_space_equality": lambda: omega == Dist(SampleSpace("abcd"), (0.2, 0.3, 0.5, 0.0)),
        "expected_channel_divergence": lambda: expected_channel_divergence(omega, omega, c),
    }


@pytest.mark.parametrize("name", list(float_products()))
def test_float_products_make_no_fraction_fallbacks(name):
    assert fraction_fallbacks(float_products()[name]) == 0


# -- operations moved onto the float views ----------------------------------------
#
# Each is compared with the per-element arithmetic that computed it before
# (validities with math.fsum), on float inputs and on exact operands mixed
# with float ones.


def either(rng, maker_exact, maker_float, s):
    return rng.choice((maker_exact, maker_float))(rng, s)


@pytest.mark.parametrize("seed", SEEDS)
def test_pull_and_dagger(seed):
    rng = random.Random(seed)
    s, t = space(rng), space(rng, prefix="y")
    for row_maker, q_maker in ((float_dist, float_factor), (exact_dist, float_factor), (float_dist, exact_factor)):
        c = Channel(s, t, [row_maker(rng, t) for _ in s])
        q = q_maker(rng, t)
        assert bits(pull(c, q).values) == bits(ref_pull(c, q))
        assert bits(pull(c, q).values) == bits(validity(row, q) for row in c.rows)
        omega = float_dist(rng, s) if c.rows[0]._nums is not None else either(rng, exact_dist, float_dist, s)
        predicted = [ref_validity(omega.weights, ref_pull(c, point_pred(y, t))) for y in t]
        if all(predicted):
            for y, row in zip(t, dagger(c, omega).rows):
                assert bits(row.weights) == bits(ref_bayes(omega.weights, ref_pull(c, point_pred(y, t))))


# -- the channel's cached matrices ----------------------------------------------
#
# push and pull run on matrices a channel builds once; on a reused channel
# they must give, bit for bit, the per-row (per-column for push) dot
# products, exact on exact operands and with math.fsum otherwise.


def exact_bits(values):
    """Fractions as they are, floats by their bit pattern."""
    return tuple(v if type(v) is Fraction else float(v).hex() for v in values)


def channel_of(rng, kind, s, t):
    rows = {"exact": [exact_dist] * len(s), "float": [float_dist] * len(s)}.get(kind)
    if rows is None:  # mixed: exact and float rows, at least one of each when there are two
        rows = [rng.choice((exact_dist, float_dist)) for _ in s]
        rows[0] = exact_dist
        rows[-1] = float_dist if len(s) > 1 else rows[-1]
    return Channel(s, t, [make(rng, t) for make in rows])


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["exact", "float", "mixed"])
def test_channel_matrices(seed, kind):
    rng = random.Random(seed)
    s, t = space(rng), space(rng, prefix="y")
    c = channel_of(rng, kind, s, t)
    unused = Channel(s, t, c.rows)
    for _ in range(2):  # the second round runs on the cached matrices
        for omega in (exact_dist(rng, s), float_dist(rng, s)):
            assert exact_bits(push(c, omega).weights) == exact_bits(ref_push(c, omega))
        for q in (exact_factor(rng, t), float_factor(rng, t)):
            assert exact_bits(pull(c, q).values) == exact_bits(ref_pull_values(c, q.values, q._nums is not None))
        psi = Evidence((either(rng, exact_factor, float_factor, t), rng.randint(1, 3)) for _ in range(3))
        pulled = triple_pull(c, psi)
        expected = Evidence((Factor(s, ref_pull_values(c, q.values, q._nums is not None)), n) for q, n in psi.items())
        assert pulled == expected
        assert [exact_bits(f.values) for f in pulled.factors] == [exact_bits(f.values) for f in expected.factors]
        omega = either(rng, exact_dist, float_dist, s)
        predicates = [ref_pull_values(c, point_pred(y, t).values, True) for y in t]
        exact = omega.is_exact and all(row.is_exact for row in c.rows)
        if all(ref_dot(omega.weights, p, exact) for p in predicates):
            for p, row in zip(predicates, dagger(c, omega).rows):
                if exact:
                    norm = ref_dot(omega.weights, p, exact)
                    assert row.weights == tuple(w * v / norm for w, v in zip(omega.weights, p))
                else:
                    assert bits(row.weights) == bits(ref_bayes(omega.weights, p))
        else:
            with pytest.raises(ZeroValidityError):
                dagger(c, omega)
        # the cache changes neither equality nor printing
        assert c == unused and unused == c and repr(c) == repr(unused)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind", ["exact", "mixed"])
def test_channel_first_use_in_either_order(seed, kind):
    """push and pull share the rows rescaled to one denominator: whichever
    of them is called first on a fresh channel, each gives, bit for bit,
    the per-element dot products."""
    rng = random.Random(seed)
    s, t = space(rng), space(rng, prefix="y")
    c = channel_of(rng, kind, s, t)
    exact_rows = all(row.is_exact for row in c.rows)  # a mixed channel of one row is exact
    calls = [(pull, exact_factor(rng, t)), (pull, float_factor(rng, t)), (push, exact_dist(rng, s)), (push, float_dist(rng, s))]
    for channel, order in ((c, calls), (Channel(s, t, c.rows), calls[::-1])):
        for fn, arg in order:
            result = fn(channel, arg)
            if fn is push:
                assert exact_bits(result.weights) == exact_bits(ref_push(c, arg))
            else:
                assert exact_bits(result.values) == exact_bits(ref_pull_values(c, arg.values, arg._nums is not None))
            if exact_rows and arg._nums is not None:
                reference.assert_canonical(result)
            else:
                assert result._nums is None


@pytest.mark.parametrize("seed", SEEDS)
def test_multinomial(seed):
    rng = random.Random(seed)
    omega = float_dist(rng, space(rng, high=4))
    size = rng.randint(1, 4)
    expected = []
    for phi in multiset_space(omega.space, size):
        w = coefm(phi)
        for x, count in phi.items():
            if count:
                w = w * omega(x) ** count
        expected.append(w)
    assert bits(multinomial(size, omega).weights) == bits(expected)


@pytest.mark.parametrize("seed", SEEDS)
def test_factor_algebra(seed):
    rng = random.Random(seed)
    s = space(rng)
    for p, q in ((float_factor(rng, s), float_factor(rng, s)), (exact_factor(rng, s), float_factor(rng, s)),
                 (float_factor(rng, s), exact_factor(rng, s))):
        assert bits(add(p, q).values) == bits(a + b for a, b in zip(p.values, q.values))
        for r in (rng.random() * 3, Fraction(rng.randint(0, 9), rng.randint(1, 6))):
            if (p._nums is None) or isinstance(r, float):
                assert bits(scale(r, p).values) == bits(r * v for v in p.values)
        predicate = Factor(s, [min(v, 1.0) for v in p._floats()])
        assert bits(ortho(predicate).values) == bits(1 - v for v in predicate.values)
        e, g = rng.randint(0, 4), rng.choice((0.5, 1.5, 2.25))
        if p._nums is None:
            assert bits((p**e).values) == bits(v**e for v in p.values)
            positive = Factor(s, [v + 0.5 for v in p.values])
            assert bits((positive ** -(e + 1)).values) == bits(v ** -(e + 1) for v in positive.values)
        assert bits((p**g).values) == bits(0.0 if v == 0 else float(v) ** g for v in p.values)


@pytest.mark.parametrize("seed", SEEDS)
def test_push_function_marginal_and_copy(seed):
    rng = random.Random(seed)
    s, t = space(rng), space(rng, prefix="y")
    omega, rho = float_dist(rng, s), either(rng, exact_dist, float_dist, t)

    parity = SampleSpace((0, 1))
    pushed = push_function(lambda x: int(x[1:]) % 2, omega, cod=parity)
    assert bits(pushed.weights) == bits(ref_push_function(lambda x: int(x[1:]) % 2, omega, parity))
    joint = tensor(omega, rho)
    assert bits(marginal(joint, 1).weights) == bits(ref_push_function(lambda pair: pair[1], joint, t))
    assert bits(copy_dist(omega).weights) == bits(ref_push_function(lambda x: (x, x), omega, s.power(2)))


@pytest.mark.parametrize("seed", SEEDS)
def test_match_status_softmax_and_equality(seed):
    rng = random.Random(seed)
    s = space(rng)
    predicates = [Factor(s, [min(v, 1.0) for v in float_factor(rng, s).values]) for _ in range(rng.randint(1, 3))]
    predicates.append(ortho(predicates[0]))
    if rng.random() < 0.5:
        predicates.append(Factor(s, [Fraction(rng.randint(0, 2), 4) for _ in s]))
    psi = Evidence((f, 1) for f in predicates)
    totals = [math.fsum(column) for column in zip(*(f._floats() for f in psi.factors))]
    expected = (
        MatchStatus.PERFECT_MATCH if all(t == 1 for t in totals)
        else MatchStatus.MATCH if all(t <= 1 for t in totals) else MatchStatus.NO_MATCH
    )
    assert match_status(psi) == expected

    omega = either(rng, exact_dist, float_dist, s)
    positive = Evidence((Factor(s, [v + 0.5 for v in float_factor(rng, s).values]), rng.randint(1, 3))
                        for _ in range(rng.randint(1, 3)))
    posteriors = [ref_bayes(omega.weights, f.values) for f in positive.factors]
    raw = []
    for i, w in enumerate(omega.weights):
        if w == 0:
            raw.append(0.0)
            continue
        log_sum = 0.0
        for count, posterior in zip(positive.counts, posteriors):
            log_sum += (count / positive.size) * math.log(float(posterior[i]))
        raw.append(math.exp(log_sum))
    norm = math.fsum(raw)
    assert bits(vfe_update_softmax(omega, positive).weights) == bits(v / norm for v in raw)

    wider = SampleSpace(list(s) + ["extra"])
    for other in (Dist(wider, list(omega._floats()) + [0.0]), Dist(wider, [0.5 * w for w in omega._floats()] + [0.5])):
        assert (omega == other) == all(omega.get(x) == other.get(x) for x in wider)
        assert (other == omega) == (omega == other)


# -- a float overflow in factor algebra or a multinomial is a FloatRangeError ------


@pytest.mark.parametrize(
    "operation",
    [
        lambda: Factor(SampleSpace("ab"), (10**400, 1)) ** 0.5,
        lambda: Factor(SampleSpace("ab"), (1e200, 1.0)) ** 2,
        lambda: Factor(SampleSpace("ab"), (1e300, 1.0)) ** 1.5,
        lambda: add(Factor(SampleSpace("ab"), (1e308, 1.0)), Factor(SampleSpace("ab"), (1e308, 0.0))),
        lambda: scale(1e300, Factor(SampleSpace("ab"), (1e10, 1.0))),
        lambda: scale(Fraction(10**400), Factor(SampleSpace("ab"), (0.5, 1.0))),
        lambda: multinomial(1100, Dist(SampleSpace("ab"), (0.5, 0.5))),  # C(1100, 550) is about 1e330
    ],
    ids=["exact-power", "int-power", "fractional-power", "add", "scale", "scale-exact-scalar", "multinomial-coefficient"],
)
def test_factor_algebra_overflow_is_typed(operation):
    with pytest.raises(FloatRangeError):
        operation()


def test_sums_beyond_the_float_range():
    s = SampleSpace("ab")
    big = Factor(s, (1e308, 1e308))
    assert match_status(Evidence(((big, 1), (Factor(s, (1e308, 0.0)), 1)))) is MatchStatus.NO_MATCH
    heavy, largest = Dist(s, (0.5 + 1e-10, 0.5)), Factor(s, (1.7976931348623157e308,) * 2)
    for operation in (validity, bayes_update, lambda row, q: pull(Channel(s, s, (row, row)), q)):
        with pytest.raises(FloatRangeError):
            operation(heavy, largest)
