"""Seeded property suites for every module's stated invariants.

Each property runs a number of randomised trials from its own
deterministic RNG (derived from the global seed and the property id)
and reports the first counterexample, if any.  The same registry backs
the ``check`` CLI subcommand and the acceptance tests.

To add a property, decorate a per-trial check ``check(rng)`` with
``@_register(prop_id, group)``.  It draws one random instance from
``rng`` and returns a counterexample string, or None when the trial
holds; the shared driver stops at the first counterexample.  A fixed
instance is a check with ``max_trials=1`` that ignores ``rng``.  Use
``@_register_run`` on a whole-run function ``run(trials, rng)`` returning
``(passed, trials_run, detail)`` only where the result is not "first
failing trial": witness searches, candidate sweeps and checks that
report a detail on pass.  Registration order is the output order.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from .channel import Channel, dagger, identity_channel, multinomial_channel, pull, push, triple_pull
from .core import SampleSpace
from .distribution import (
    Dist,
    convex_sum,
    copy_dist,
    dirac,
    flrn,
    marginal,
    multinomial,
    push_function,
    tensor,
    tensor_power,
    uniform,
)
from .divergence import expected_channel_divergence, kl_divergence
from .errors import UnknownSuiteError
from .evidence import (
    Evidence,
    Factor,
    and_conj,
    conj,
    frac_conj,
    ortho,
    point_evidence,
    point_pred,
    scale,
    tensor_conj,
    tensor_factor,
    truth,
    falsity,
)
from .models import medical_grid_spec, medical_model, grid_values
from .multiset import Multiset, acc, coefm, enumerate_multisets
from .update import (
    bayes_update,
    free_energy_objective,
    iterated_pearl_validity,
    jeffrey_update,
    pearl_update,
    vfe_update,
    vfe_update_softmax,
)
from .validity import covariance, jeffrey_validity, log_likelihood_score, pearl_validity, validity

FLOAT_SLACK = 1e-9
TIE_SKIP = 1e-9


@dataclass
class CheckResult:
    prop_id: str
    group: str
    passed: bool
    trials: int
    detail: str | None = None

    def line(self) -> str:
        status = "pass" if self.passed else "FAIL"
        text = f"{status}  {self.prop_id}  ({self.trials} trials)"
        if self.detail:
            text += f"  -- {self.detail}"
        return text


@dataclass(frozen=True)
class Property:
    prop_id: str
    group: str
    run: Callable[[int, random.Random], tuple[bool, int, str | None]]
    max_trials: int | None = None


PROPERTIES: dict[str, Property] = {}


def _forall(trials: int, rng: random.Random, check: Callable[[random.Random], str | None]):
    for t in range(trials):
        detail = check(rng)
        if detail is not None:
            return False, t + 1, detail
    return True, trials, None


def _register_run(prop_id: str, group: str, max_trials: int | None = None):
    def wrap(run):
        PROPERTIES[prop_id] = Property(prop_id, group, run, max_trials)
        return run

    return wrap


def _register(prop_id: str, group: str, max_trials: int | None = None):
    def wrap(check):
        _register_run(prop_id, group, max_trials)(lambda trials, rng: _forall(trials, rng, check))
        return check

    return wrap


def groups() -> tuple[str, ...]:
    seen = dict.fromkeys(p.group for p in PROPERTIES.values())
    return tuple(seen)


def resolve_suite(name: str) -> list[Property]:
    if name == "all":
        return list(PROPERTIES.values())
    if name in PROPERTIES:
        return [PROPERTIES[name]]
    selected = [p for p in PROPERTIES.values() if p.group == name]
    if not selected:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; choose 'all', a group ({', '.join(groups())}) "
            "or a property id"
        )
    return selected


def run_suite(name: str, trials: int, seed: int) -> list[CheckResult]:
    results = []
    for prop in resolve_suite(name):
        rng = random.Random(f"{seed}|{prop.prop_id}")
        budget = trials if prop.max_trials is None else min(trials, prop.max_trials)
        passed, ran, detail = prop.run(budget, rng)
        results.append(CheckResult(prop.prop_id, prop.group, passed, ran, detail))
    return results


# ---------------------------------------------------------------------------
# random generators (all exact-mode unless stated otherwise)

_LABELS = "abcdefgh"
_COD_LABELS = "uvwxyz"


def _space(rng: random.Random, max_size: int = 6, min_size: int = 2, labels: str = _LABELS) -> SampleSpace:
    return SampleSpace(labels[: rng.randint(min_size, max_size)])


def _dist(rng: random.Random, space: SampleSpace, full_support: bool = True, unit: int = 12) -> Dist:
    low = 1 if full_support else 0
    counts = [rng.randint(low, unit) for _ in space]
    if sum(counts) == 0:
        counts[rng.randrange(len(counts))] = 1
    return flrn(Multiset(space, counts))


def _factor(rng: random.Random, space: SampleSpace, positive: bool = False, unit: int = 12, bound: int = 1) -> Factor:
    low = 1 if positive else 0
    return Factor(space, [Fraction(rng.randint(low, bound * unit), unit) for _ in space])


def _evidence(
    rng: random.Random,
    space: SampleSpace,
    max_factors: int = 3,
    max_size: int = 6,
    positive: bool = True,
) -> Evidence:
    n = rng.randint(1, max_factors)
    factors = [_factor(rng, space, positive=positive) for _ in range(n)]
    counts, left = [], max_size
    for i in range(n):
        top = max(1, left - (n - 1 - i))
        c = rng.randint(1, top)
        counts.append(c)
        left -= c
    return Evidence(zip(factors, counts))


def _perfect_pack(rng: random.Random, space: SampleSpace, parts: int, unit: int = 12) -> list[Factor]:
    """Pointwise-distinct predicates that sum to truth."""
    for _ in range(50):
        columns = []
        for _x in space:
            cuts = sorted(rng.randint(0, unit) for _ in range(parts - 1))
            cells = [b - a for a, b in zip([0] + cuts, cuts + [unit])]
            columns.append([Fraction(c, unit) for c in cells])
        factors = [Factor(space, [col[i] for col in columns]) for i in range(parts)]
        if len(set(factors)) == parts:
            return factors
    raise AssertionError("could not build a distinct perfect pack")


def _point_multiset(rng: random.Random, space: SampleSpace, size: int, within: Iterable | None = None) -> Multiset:
    pool = list(within) if within is not None else list(space.elements)
    return acc([rng.choice(pool) for _ in range(size)], space)


def _feq(a: float, b: float, tol: float = FLOAT_SLACK) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# core


@_register("exact-field-roundtrip", "core")
def _exact_field_roundtrip(rng):
    a = Fraction(rng.randint(-300, 300), rng.randint(1, 300))
    b = Fraction(rng.randint(-300, 300), rng.randint(1, 300)) or Fraction(1, 7)
    if (a + b) - b != a:
        return f"(a+b)-b != a for a={a}, b={b}"
    if (a * b) / b != a:
        return f"(a*b)/b != a for a={a}, b={b}"
    return None


@_register("exact-to-float-ulp", "core")
def _exact_to_float_ulp(rng):
    p = rng.randint(-(2**40) + 1, 2**40 - 1)
    q = rng.randint(1, 2**40 - 1)
    via_fraction = float(Fraction(p, q))
    direct = p / q
    if abs(via_fraction - direct) > math.ulp(max(abs(via_fraction), abs(direct))):
        return f"float({p}/{q}) differs from direct division by more than 1 ulp"
    return None


# ---------------------------------------------------------------------------
# multiset


@_register("acc-permutation-size", "multiset")
def _acc_permutation_size(rng):
    space = _space(rng)
    seq = [rng.choice(space.elements) for _ in range(rng.randint(0, 8))]
    phi = acc(seq, space)
    if phi.size != len(seq):
        return f"size {phi.size} != sequence length {len(seq)}"
    shuffled = seq[:]
    rng.shuffle(shuffled)
    if acc(shuffled, space) != phi:
        return f"accumulation changed under permutation of {seq}"
    return None


@_register("coefm-sequence-count", "multiset", max_trials=150)
def _coefm_sequence_count(rng):
    space = _space(rng, max_size=4)
    size = rng.randint(0, 5)
    counted: dict[tuple[int, ...], int] = {}
    for seq in itertools.product(space.elements, repeat=size):
        key = acc(seq, space).counts
        counted[key] = counted.get(key, 0) + 1
    for phi in enumerate_multisets(space, size):
        if counted.get(phi.counts, 0) != coefm(phi):
            return f"coefm({phi}) != brute-force sequence count"
    return None


@_register("flrn-scale-invariant", "multiset")
def _flrn_scale_invariant(rng):
    space = _space(rng)
    phi = _point_multiset(rng, space, rng.randint(1, 8))
    n = rng.randint(1, 4)
    if flrn(phi.scale(n)) != flrn(phi):
        return f"flrn({n}*{phi}) != flrn({phi})"
    return None


@_register("multinomial-theorem", "multiset", max_trials=400)
def _multinomial_theorem(rng):
    n = rng.randint(1, 4)
    size = rng.randint(0, 5)
    rs = [Fraction(rng.randint(-12, 12), rng.randint(1, 12)) for _ in range(n)]
    index = SampleSpace(range(n))
    total = sum(rs) ** size
    expanded = sum(
        Fraction(coefm(phi))
        * math.prod((rs[i] ** c for i, c in phi.items()), start=Fraction(1))
        for phi in enumerate_multisets(index, size)
    )
    if total != expanded:
        return f"({'+'.join(map(str, rs))})^{size} != multiset expansion"
    return None


# ---------------------------------------------------------------------------
# distribution


@_register("copy-iff-dirac", "distribution")
def _copy_iff_dirac(rng):
    space = _space(rng, max_size=4)
    if rng.random() < 0.3:
        omega = dirac(rng.choice(space.elements), space)
    else:
        omega = _dist(rng, space)
    copied = copy_dist(omega)
    product = tensor(omega, omega)
    is_dirac = len(omega.support()) == 1
    if is_dirac and copied != product:
        return f"copy of point distribution {omega} differs from its square"
    if not is_dirac and copied == product:
        return f"copy equals square for non-point {omega}"
    return None


@_register("multinomial-sums-to-one", "distribution", max_trials=400)
def _multinomial_sums_to_one(rng):
    space = _space(rng, max_size=4)
    omega = _dist(rng, space, full_support=False)
    size = rng.randint(0, 5)
    total = sum(multinomial(size, omega).weights, Fraction(0))
    if total != 1:
        return f"multinomial({size}, {omega}) sums to {total}"
    return None


@_register("multinomial-acc-pushforward", "distribution", max_trials=300)
def _multinomial_acc_pushforward(rng):
    space = _space(rng, max_size=3)
    omega = _dist(rng, space, full_support=False)
    size = rng.randint(0, 3)
    pushed = push_function(lambda t: acc(t, space), tensor_power(omega, size))
    if pushed != multinomial(size, omega):
        return f"accumulated {size}-fold power of {omega} != draw distribution"
    return None


# ---------------------------------------------------------------------------
# evidence


@_register("ortho-laws", "evidence")
def _ortho_laws(rng):
    space = _space(rng)
    p = _factor(rng, space)
    if ortho(ortho(p)) != p:
        return f"double orthosupplement changed {p}"
    if (p + ortho(p)) != truth(space):
        return f"p + ~p != truth for {p}"
    return None


@_register("conj-commutative-associative", "evidence")
def _conj_comm_assoc(rng):
    space = _space(rng)
    p, q, r = (_factor(rng, space, bound=2) for _ in range(3))
    if conj(p, q) != conj(q, p):
        return "conjunction is not commutative"
    if conj(conj(p, q), r) != conj(p, conj(q, r)):
        return "conjunction is not associative"
    if conj(p, truth(space)) != p or conj(p, falsity(space)) != falsity(space):
        return "truth/falsity units broken"
    return None


@_register("weakening-marginal", "evidence")
def _weakening_marginal(rng):
    xs = _space(rng, max_size=3)
    ys = _space(rng, max_size=3, labels=_COD_LABELS)
    tau = _dist(rng, xs.product(ys), full_support=False)
    p = _factor(rng, xs)
    weakened = tensor_factor(p, truth(ys))
    if validity(tau, weakened) != validity(marginal(tau, 0), p):
        return f"weakening broke for tau={tau}, p={p}"
    return None


@_register("and-conj-additive", "evidence")
def _and_conj_additive(rng):
    space = _space(rng)
    psi = _evidence(rng, space, positive=False)
    chi = _evidence(rng, space, positive=False)
    if and_conj(psi + chi) != conj(and_conj(psi), and_conj(chi)):
        return f"conjunction of {psi} + {chi} is not multiplicative"
    return None


@_register("frac-conj-power", "evidence")
def _frac_conj_power(rng):
    space = _space(rng)
    psi = _evidence(rng, space, positive=False)
    lifted = frac_conj(psi) ** psi.size
    reference = and_conj(psi)
    for x in space:
        if not _feq(float(lifted(x)), float(reference(x))):
            return f"frac-conj^K differs from full conjunction at {x!r}"
    return None


@_register("tensor-conj-validity", "evidence", max_trials=300)
def _tensor_conj_validity(rng):
    space = _space(rng, max_size=3)
    psi = _evidence(rng, space, max_factors=2, max_size=4, positive=False)
    omega = _dist(rng, space, full_support=False)
    lhs = validity(tensor_power(omega, psi.size), tensor_conj(psi))
    rhs = math.prod(
        (validity(omega, p) ** c for p, c in psi.items()), start=Fraction(1)
    )
    if lhs != rhs:
        return f"product-space validity of {psi} != product of validities"
    return None


# ---------------------------------------------------------------------------
# validity


@_register("validity-laws", "validity")
def _validity_laws(rng):
    space = _space(rng, max_size=4)
    other = _space(rng, max_size=3, labels=_COD_LABELS)
    omega = _dist(rng, space, full_support=False)
    rho = _dist(rng, other, full_support=False)
    p = _factor(rng, space)
    q = _factor(rng, space)
    x = rng.choice(space.elements)
    s = Fraction(rng.randint(0, 24), 12)
    if validity(omega, truth(space)) != 1 or validity(omega, falsity(space)) != 0:
        return "truth/falsity validities broken"
    if validity(omega, point_pred(x, space)) != omega(x):
        return f"point-predicate validity differs from weight at {x!r}"
    if validity(omega, p + q) != validity(omega, p) + validity(omega, q):
        return "validity is not additive"
    if validity(omega, scale(s, p)) != s * validity(omega, p):
        return "validity is not homogeneous"
    if validity(omega, p + q) < validity(omega, p):
        return "validity is not monotone"
    if validity(omega, ortho(p)) != 1 - validity(omega, p):
        return "orthosupplement validity law broken"
    q_other = _factor(rng, other)
    if validity(tensor(omega, rho), tensor_factor(p, q_other)) != validity(omega, p) * validity(
        rho, q_other
    ):
        return "tensor validity law broken"
    if validity(omega, conj(p, q)) != validity(copy_dist(omega), tensor_factor(p, q)):
        return "copy/conjunction validity law broken"
    return None


@_register("matching-bounds", "validity")
def _matching_bounds(rng):
    space = _space(rng)
    parts = rng.randint(2, 3)
    pack = _perfect_pack(rng, space, parts + 1)[:parts]  # drop one part: still a match
    counts = [rng.randint(1, 2) for _ in pack]
    psi = Evidence(zip(pack, counts))
    omega = _dist(rng, space, full_support=False)
    jv = jeffrey_validity(omega, psi)
    pv = pearl_validity(omega, psi)
    if not (0 <= jv <= 1):
        return f"Jeffrey validity {jv} outside the unit interval"
    if not (0 <= pv <= 1):
        return f"Pearl validity {pv} outside the unit interval"
    return None


@_register("perfect-match-normalisation", "validity")
def _perfect_match_normalisation(rng):
    space = _space(rng, max_size=5)
    parts = rng.randint(2, 3)
    pack = _perfect_pack(rng, space, parts)
    omega = _dist(rng, space, full_support=False)
    size = rng.randint(1, 4)
    index = SampleSpace(range(parts))
    j_total = Fraction(0)
    p_total = Fraction(0)
    for phi in enumerate_multisets(index, size):
        psi = Evidence((pack[i], c) for i, c in phi.items() if c)
        j_total += jeffrey_validity(omega, psi)
        p_total += pearl_validity(omega, psi)
    if j_total != 1:
        return f"Jeffrey validities over size-{size} evidence sum to {j_total}"
    if p_total != 1:
        return f"Pearl validities over size-{size} evidence sum to {p_total}"
    return None


@_register("single-factor-dominance", "validity")
def _single_factor_dominance(rng):
    space = _space(rng)
    omega = _dist(rng, space, full_support=False)
    p = _factor(rng, space)
    n = rng.randint(1, 6)
    psi = Evidence(((p, n),))
    if jeffrey_validity(omega, psi) > pearl_validity(omega, psi):
        return f"(omega |= p)^{n} exceeded omega |= p^{n} for p={p}"
    return None


@_register("covariance-identity", "validity")
def _covariance_identity(rng):
    space = _space(rng)
    omega = _dist(rng, space, full_support=False)
    p1 = _factor(rng, space)
    p2 = _factor(rng, space)
    if p1 == p2:
        return None  # equal factors merge into 2|p> and the halving law changes
    if covariance(omega, p1, truth(space)) != 0:
        return "covariance against truth is nonzero"
    psi = Evidence(((p1, 1), (p2, 1)))
    gap = (pearl_validity(omega, psi) - jeffrey_validity(omega, psi)) / 2
    if covariance(omega, p1, p2) != gap:
        return f"covariance != half the Pearl-Jeffrey gap for {p1}, {p2}"
    return None


@_register("log-likelihood-order", "validity")
def _log_likelihood_order(rng):
    space = _space(rng)
    omega = _dist(rng, space)
    omega_prime = _dist(rng, space)
    psi = _evidence(rng, space)
    score = log_likelihood_score(omega, omega_prime, psi)
    jv = jeffrey_validity(omega, psi)
    jv_prime = jeffrey_validity(omega_prime, psi)
    if jv <= jv_prime and score > FLOAT_SLACK:
        return f"score {score} positive although validities are ordered the other way"
    if jv >= jv_prime and score < -FLOAT_SLACK:
        return f"score {score} negative although validities are ordered the other way"
    return None


@_register("point-evidence-bridge", "validity")
def _point_evidence_bridge(rng):
    space = _space(rng, max_size=4)
    omega = _dist(rng, space, full_support=False)
    size = rng.randint(1, 4)
    phi = _point_multiset(rng, space, size)
    draws = multinomial(size, omega)
    if jeffrey_validity(omega, point_evidence(phi)) != draws(phi):
        return f"point-evidence validity != draw probability of {phi}"
    return None


@_register_run("point-evidence-argmax", "validity", max_trials=1000)
def _point_evidence_argmax(trials, rng):
    space = SampleSpace("ab")
    phi = acc(list("aabab"), space)
    best = jeffrey_validity(flrn(phi), point_evidence(phi))
    candidates: list[Dist] = [
        Dist(space, (Fraction(k, 100), Fraction(100 - k, 100))) for k in range(101)
    ]
    for _ in range(trials):
        candidates.append(_dist(rng, space, full_support=False, unit=60))
    space3 = SampleSpace("abc")
    phi3 = _point_multiset(rng, space3, 6)
    while len(phi3.support()) < 2:
        phi3 = _point_multiset(rng, space3, 6)
    best3 = jeffrey_validity(flrn(phi3), point_evidence(phi3))
    candidates3: list[Dist] = [
        Dist(space3, (Fraction(i, 20), Fraction(j, 20), Fraction(20 - i - j, 20)))
        for i in range(21)
        for j in range(21 - i)
    ]
    for _ in range(trials):
        candidates3.append(_dist(rng, space3, full_support=False, unit=60))
    for cand in candidates:
        if jeffrey_validity(cand, point_evidence(phi)) > best:
            return False, trials, f"candidate {cand} beats the frequency distribution"
    for cand in candidates3:
        if jeffrey_validity(cand, point_evidence(phi3)) > best3:
            return False, trials, f"candidate {cand} beats the frequency distribution"
    return True, trials, None


@_register("nonmatching-escape", "validity", max_trials=1)
def _nonmatching_escape(rng):
    space = SampleSpace("ab")
    omega = uniform(space)
    p = Factor(space, (Fraction(1), Fraction(1, 2)))
    q = Factor(space, (Fraction(4, 5), Fraction(1, 2)))
    psi = Evidence(((p, 2), (q, 3)))
    jv = jeffrey_validity(omega, psi)
    pv = pearl_validity(omega, psi)
    if jv != Fraction(19773, 12800):
        return f"non-matching Jeffrey validity {jv} != 19773/12800"
    if pv != Fraction(2173, 800):
        return f"non-matching Pearl validity {pv} != 2173/800"
    if not (1 < jv < 2 and pv > 2):
        return "escape magnitudes unexpected"
    return None


@_register("jeffrey-pearl-gap-examples", "validity", max_trials=1)
def _jeffrey_pearl_gap_examples(rng):
    space = SampleSpace("abc")
    omega = Dist(space, (Fraction(3, 10), Fraction(3, 10), Fraction(2, 5)))
    p = Factor(space, (Fraction(1, 100), Fraction(1, 100), Fraction(49, 50)))
    psi = Evidence(((p, 1), (ortho(p), 1)))
    jv, pv = float(jeffrey_validity(omega, psi)), float(pearl_validity(omega, psi))
    if abs(jv - 0.479) > 5e-4 or abs(pv - 0.028) > 5e-4:
        return f"wide-gap pair ({jv:.4f}, {pv:.4f}) != (0.479, 0.028)"
    omega2 = Dist(space, (Fraction(1, 5), Fraction(1, 5), Fraction(3, 5)))
    q = Factor(space, (Fraction(3, 10), Fraction(1, 5), Fraction(9, 10)))
    chi = Evidence(((q, 1), (ortho(q), 4)))
    jv2, pv2 = float(jeffrey_validity(omega2, chi)), float(pearl_validity(omega2, chi))
    if abs(jv2 - 0.054) > 5e-4 or abs(pv2 - 0.154) > 5e-4:
        return f"reversal pair ({jv2:.4f}, {pv2:.4f}) != (0.054, 0.154)"
    if not jv2 < pv2:
        return "expected Pearl above Jeffrey in the reversal pair"
    return None


@_register_run("jeffrey-pearl-grid-gap", "validity", max_trials=1)
def _jeffrey_pearl_grid_gap(trials, rng):
    j_cells = grid_values(medical_grid_spec("jeffrey-validity"))
    p_cells = grid_values(medical_grid_spec("pearl-validity"))
    worst = max(abs(float(jv - pv)) for (_, _, jv), (_, _, pv) in zip(j_cells, p_cells))
    if worst >= 0.033:
        return False, 1, f"validity gap {worst} >= 0.033 somewhere on the grid"
    return True, 1, f"max gap {worst:.4f}"


# ---------------------------------------------------------------------------
# update


@_register("bayes-laws", "update")
def _bayes_laws(rng):
    space = _space(rng)
    omega = _dist(rng, space)
    p = _factor(rng, space, positive=True)
    q = _factor(rng, space, positive=True)
    s = Fraction(rng.randint(1, 24), 12)
    if bayes_update(omega, truth(space)) != omega:
        return "conditioning on truth changed the distribution"
    if bayes_update(omega, conj(p, q)) != bayes_update(bayes_update(omega, p), q):
        return "conjunction update != successive updates"
    x = rng.choice(omega.support())
    if bayes_update(omega, point_pred(x, space)) != dirac(x, space):
        return f"conditioning on a point predicate missed dirac({x!r})"
    if bayes_update(omega, scale(s, p)) != bayes_update(omega, p):
        return "scaling the factor changed the update"
    return None


@_register("product-bayes-rules", "update")
def _product_bayes_rules(rng):
    space = _space(rng)
    omega = _dist(rng, space)
    p = _factor(rng, space, positive=True)
    q = _factor(rng, space, positive=True)
    posterior = bayes_update(omega, p)
    if validity(posterior, q) != validity(omega, conj(p, q)) / validity(omega, p):
        return "product rule broken"
    bayes_rhs = (
        validity(bayes_update(omega, q), p) * validity(omega, q) / validity(omega, p)
    )
    if validity(posterior, q) != bayes_rhs:
        return "Bayes' rule broken"
    return None


@_register("iterated-update-validity", "update")
def _iterated_update_validity(rng):
    space = _space(rng)
    omega = _dist(rng, space)
    ps = [_factor(rng, space, positive=True) for _ in range(rng.randint(1, 4))]
    chained = iterated_pearl_validity(omega, ps)
    conjunction = ps[0]
    for p in ps[1:]:
        conjunction = conj(conjunction, p)
    if chained != validity(omega, conjunction):
        return "chained validity != conjunction validity"
    shuffled = ps[:]
    rng.shuffle(shuffled)
    if iterated_pearl_validity(omega, shuffled) != chained:
        return "chained validity depends on the order"
    return None


@_register("validity-gain", "update")
def _validity_gain(rng):
    space = _space(rng)
    omega = _dist(rng, space)
    p = _factor(rng, space, positive=True)
    if validity(bayes_update(omega, p), p) < validity(omega, p):
        return f"update decreased the validity of {p}"
    ps = [_factor(rng, space, positive=True) for _ in range(rng.randint(2, 3))]
    mixture = convex_sum(
        [Fraction(1, len(ps))] * len(ps), [bayes_update(omega, p) for p in ps]
    )
    before = math.prod((validity(omega, p) for p in ps), start=Fraction(1))
    after = math.prod((validity(mixture, p) for p in ps), start=Fraction(1))
    if after < before:
        return "uniform mixture of updates decreased the validity product"
    return None


@_register("jeffrey-increases", "update")
def _jeffrey_increases(rng):
    space = _space(rng)
    omega = _dist(rng, space)
    psi = _evidence(rng, space)
    posterior = jeffrey_update(omega, psi)
    if jeffrey_validity(posterior, psi) < jeffrey_validity(omega, psi):
        return f"Jeffrey update decreased Jeffrey validity for {psi}"
    return None


@_register("jeffrey-dkl-decrease", "update")
def _jeffrey_dkl_decrease(rng):
    space = _space(rng)
    omega = _dist(rng, space)
    phi = _point_multiset(rng, space, rng.randint(1, 6))
    psi = point_evidence(phi)
    posterior = jeffrey_update(omega, psi)
    target = flrn(phi)
    if kl_divergence(target, posterior) > kl_divergence(target, omega) + FLOAT_SLACK:
        return f"divergence increased for point evidence {phi}"
    return None


@_register("jeffrey-scale-invariant", "update")
def _jeffrey_scale_invariant(rng):
    space = _space(rng)
    omega = _dist(rng, space)
    psi = _evidence(rng, space)
    n = rng.randint(1, 4)
    if jeffrey_update(omega, psi.scale(n)) != jeffrey_update(omega, psi):
        return f"{n}-fold evidence changed the Jeffrey update"
    return None


@_register_run("jeffrey-order", "update")
def _jeffrey_order(trials, rng):
    model = medical_model()
    psi = Evidence(((model.pos_test, 2), (model.neg_test, 1)))
    chi = Evidence(((model.pos_test, 1), (model.neg_test, 2)))
    first = jeffrey_update(jeffrey_update(model.prior, psi), chi)
    second = jeffrey_update(jeffrey_update(model.prior, chi), psi)
    d1, d2 = float(first("d")), float(second("d"))
    if abs(d1 - 0.059) > 5e-4 or abs(d2 - 0.061) > 5e-4:
        return False, 1, f"fixed order pair ({d1:.4f}, {d2:.4f}) != (0.059, 0.061)"
    if first == second:
        return False, 1, "fixed instance unexpectedly order-insensitive"
    witness = None
    ran = 1
    for t in range(trials):
        ran = t + 1
        space = _space(rng, max_size=4)
        omega = _dist(rng, space)
        a = _evidence(rng, space, max_factors=2, max_size=3)
        b = _evidence(rng, space, max_factors=2, max_size=3)
        one = jeffrey_update(jeffrey_update(omega, a), b)
        two = jeffrey_update(jeffrey_update(omega, b), a)
        if one != two:
            witness = f"random witness at trial {ran}: updates differ on {space.elements}"
            break
    if witness is None:
        return False, ran, "no random order-sensitivity witness found"
    return True, ran, f"fixed pair 0.059/0.061 reproduced; {witness}"


@_register("jeffrey-self-no-op", "update")
def _jeffrey_self_no_op(rng):
    space = _space(rng)
    omega = _dist(rng, space, full_support=False)
    denominator = math.lcm(*(Fraction(w).denominator for w in omega.weights))
    phi = Multiset(omega.space, [int(w * denominator) for w in omega.weights])
    if jeffrey_update(omega, point_evidence(phi)) != omega:
        return f"updating {omega} with its own frequencies changed it"
    return None


@_register("jeffrey-convex-combination", "update")
def _jeffrey_convex_combination(rng):
    space = _space(rng)
    omega = _dist(rng, space)
    size = rng.randint(1, 3)
    parts = rng.randint(2, 3)
    # the law needs components of one common evidence size
    psis: list[Evidence] = []
    while len(psis) < parts:
        candidate = _evidence(rng, space, max_factors=2, max_size=size)
        if candidate.size == size:
            psis.append(candidate)
    ns = [rng.randint(1, 3) for _ in range(parts)]
    total = sum(ns)
    mixture = convex_sum(
        [Fraction(n, total) for n in ns],
        [jeffrey_update(omega, psi) for psi in psis],
    )
    combined = psis[0].scale(ns[0])
    for psi, n in zip(psis[1:], ns[1:]):
        combined = combined + psi.scale(n)
    if mixture != jeffrey_update(omega, combined):
        return "convex sum of Jeffrey updates != update with combined evidence"
    return None


@_register("pearl-increases", "update")
def _pearl_increases(rng):
    space = _space(rng)
    omega = _dist(rng, space)
    psi = _evidence(rng, space)
    posterior = pearl_update(omega, psi)
    if pearl_validity(posterior, psi) < pearl_validity(omega, psi):
        return f"Pearl update decreased Pearl validity for {psi}"
    return None


@_register("pearl-product-bayes", "update")
def _pearl_product_bayes(rng):
    # the product/Bayes rules for evidence hold for the conjunction
    # validities; the multinomial coefficients are made explicit here
    space = _space(rng)
    omega = _dist(rng, space)
    psi = _evidence(rng, space, max_size=3)
    chi = _evidence(rng, space, max_size=3)
    cv = lambda w, ev: validity(w, and_conj(ev))
    posterior = pearl_update(omega, psi)
    if cv(posterior, chi) != cv(omega, psi + chi) / cv(omega, psi):
        return "evidence-level product rule broken"
    bayes_rhs = cv(pearl_update(omega, chi), psi) * cv(omega, chi) / cv(omega, psi)
    if cv(posterior, chi) != bayes_rhs:
        return "evidence-level Bayes rule broken"
    coefficient_ratio = Fraction(
        psi.coefficient() * chi.coefficient(), (psi + chi).coefficient()
    )
    lhs = pearl_validity(posterior, chi)
    rhs = pearl_validity(omega, psi + chi) / pearl_validity(omega, psi)
    if lhs != coefficient_ratio * rhs:
        return "coefficient bookkeeping of the evidence product rule broken"
    return None


@_register("pearl-composes", "update")
def _pearl_composes(rng):
    space = _space(rng)
    omega = _dist(rng, space)
    psi = _evidence(rng, space, max_size=3)
    chi = _evidence(rng, space, max_size=3)
    combined = pearl_update(omega, psi + chi)
    if pearl_update(pearl_update(omega, psi), chi) != combined:
        return "successive Pearl updates != combined update"
    if pearl_update(pearl_update(omega, chi), psi) != combined:
        return "Pearl updates are order-sensitive"
    return None


@_register("pearl-uniform-no-op", "update")
def _pearl_uniform_no_op(rng):
    space = _space(rng)
    omega = _dist(rng, space, full_support=False)
    factors = [
        scale(Fraction(rng.randint(1, 24), 12), truth(space))
        for _ in range(rng.randint(1, 3))
    ]
    psi = Evidence((f, rng.randint(1, 2)) for f in factors)
    if pearl_update(omega, psi) != omega:
        return "scaled-truth evidence changed the distribution"
    return None


@_register("cross-rule-decrease", "update", max_trials=1)
def _cross_rule_decrease(rng):
    model = medical_model()
    psi = Evidence(((model.pos_test, 2), (model.neg_test, 1)))
    omega = model.prior
    j_prior = jeffrey_validity(omega, psi)
    p_prior = pearl_validity(omega, psi)
    j_after_pearl = jeffrey_validity(pearl_update(omega, psi), psi)
    p_after_jeffrey = pearl_validity(jeffrey_update(omega, psi), psi)
    if abs(float(j_after_pearl) - 0.3081) > 5e-4 or abs(float(j_prior) - 0.3116) > 5e-4:
        return "crossed Jeffrey numbers off"
    if abs(float(p_after_jeffrey) - 0.2847) > 5e-4 or abs(float(p_prior) - 0.2858) > 5e-4:
        return "crossed Pearl numbers off"
    if not (j_after_pearl < j_prior and p_after_jeffrey < p_prior):
        return "crossed updates did not decrease the validities"
    return None


@_register("vfe-forms-agree", "update")
def _vfe_forms_agree(rng):
    space = _space(rng)
    omega = _dist(rng, space)
    psi = _evidence(rng, space)
    direct = vfe_update(omega, psi)
    softmax = vfe_update_softmax(omega, psi)
    for x in space:
        if not _feq(float(direct(x)), float(softmax(x))):
            return f"softmax and conjunction forms differ at {x!r}"
    return None


@_register_run("vfe-sandwich", "update")
def _vfe_sandwich(trials, rng):
    model = medical_model()
    chi = Evidence(((model.pos_test, 1), (model.neg_test, 1)))
    j_before = float(jeffrey_validity(model.prior, chi))
    j_after = float(jeffrey_validity(vfe_update(model.prior, chi), chi))
    if abs(j_before - 0.489) > 5e-4 or abs(j_after - 0.486) > 5e-4:
        return False, 1, f"fixed pair ({j_before:.4f}, {j_after:.4f}) != (0.489, 0.486)"
    if not j_before > j_after:
        return False, 1, "expected a Jeffrey-validity decrease under the VFE update"

    def check(rng):
        space = _space(rng)
        omega = _dist(rng, space)
        psi = _evidence(rng, space)
        base = float(pearl_validity(omega, psi))
        via_vfe = float(pearl_validity(vfe_update(omega, psi), psi))
        via_pearl = float(pearl_validity(pearl_update(omega, psi), psi))
        if base > via_vfe + FLOAT_SLACK:
            return "VFE update decreased the Pearl validity"
        if via_vfe > via_pearl + FLOAT_SLACK:
            return "VFE update beat the Pearl update on Pearl validity"
        return None

    passed, ran, detail = _forall(trials, rng, check)
    if passed:
        detail = "fixed Jeffrey counterexample 0.489 > 0.486 reproduced"
    return passed, ran, detail


@_register_run("vfe-argmin", "update", max_trials=1000)
def _vfe_argmin(trials, rng):
    model = medical_model()
    psi = Evidence(((model.pos_test, 2), (model.neg_test, 1)))
    posterior = vfe_update(model.prior, psi)
    minimum = free_energy_objective(posterior, model.prior, psi)
    space = model.prior.space
    candidates = [Dist(space, (Fraction(k, 100), Fraction(100 - k, 100))) for k in range(101)]
    for _ in range(trials):
        candidates.append(_dist(rng, space, full_support=False, unit=60))
    for cand in candidates:
        value = free_energy_objective(cand, model.prior, psi)
        if value < minimum - FLOAT_SLACK:
            return False, trials, f"candidate {cand} beat the VFE update"
        # objective excess over the minimum equals the divergence from the update
        if not _feq(value - minimum, kl_divergence(cand, posterior), 1e-7):
            return False, trials, f"objective gap != divergence for {cand}"
    space3 = SampleSpace("abc")
    omega3 = _dist(rng, space3)
    psi3 = _evidence(rng, space3)
    posterior3 = vfe_update(omega3, psi3)
    minimum3 = free_energy_objective(posterior3, omega3, psi3)
    grid3 = [
        Dist(space3, (Fraction(i, 100), Fraction(j, 100), Fraction(100 - i - j, 100)))
        for i in range(101)
        for j in range(101 - i)
    ]
    for cand in grid3:
        if free_energy_objective(cand, omega3, psi3) < minimum3 - FLOAT_SLACK:
            return False, trials, f"grid candidate {cand} beat the VFE update"
    return True, trials, None


# ---------------------------------------------------------------------------
# channel


def _channel(rng: random.Random, dom: SampleSpace, cod: SampleSpace, full: bool = True) -> Channel:
    return Channel(dom, cod, tuple(_dist(rng, cod, full_support=full) for _ in dom))


def _pull_injective(c: Channel, psi: Evidence) -> bool:
    pulled = [pull(c, q) for q, _ in psi.items()]
    return len(set(pulled)) == len(pulled)


@_register("channel-adjunction", "channel")
def _channel_adjunction(rng):
    dom = _space(rng, max_size=4)
    cod = _space(rng, max_size=4, labels=_COD_LABELS)
    c = _channel(rng, dom, cod, full=False)
    omega = _dist(rng, dom, full_support=False)
    q = _factor(rng, cod)
    if validity(push(c, omega), q) != validity(omega, pull(c, q)):
        return "pushforward validity != pulled-back validity"
    return None


@_register("jeffrey-along-channel", "channel")
def _jeffrey_along_channel(rng):
    dom = _space(rng, max_size=4)
    cod = _space(rng, max_size=4, labels=_COD_LABELS)
    c = _channel(rng, dom, cod)
    omega = _dist(rng, dom)
    psi = _evidence(rng, cod, max_factors=2, max_size=4)
    if not _pull_injective(c, psi):
        return None  # merged factors change the coefficient; skip degenerate pull
    if jeffrey_validity(omega, triple_pull(c, psi)) != jeffrey_validity(push(c, omega), psi):
        return "Jeffrey validity along the channel broke"
    return None


@_register_run("pearl-along-channel-fails", "channel", max_trials=100)
def _pearl_along_channel_fails(trials, rng):
    model = medical_model()
    point_psi = Evidence(
        ((point_pred("p", model.test_space), 2), (point_pred("n", model.test_space), 1))
    )
    fixed_lhs = pearl_validity(model.prior, triple_pull(model.test_channel, point_psi))
    fixed_rhs = pearl_validity(push(model.test_channel, model.prior), point_psi)
    if fixed_lhs == fixed_rhs:
        return False, 1, "expected the fixed point-evidence instance to disagree"
    found = 0
    ran = 0
    for t in range(trials):
        ran = t + 1
        dom = _space(rng, max_size=4)
        cod = _space(rng, max_size=4, labels=_COD_LABELS)
        c = _channel(rng, dom, cod)
        omega = _dist(rng, dom)
        psi = _evidence(rng, cod, max_factors=2, max_size=3)
        if pearl_validity(omega, triple_pull(c, psi)) != pearl_validity(push(c, omega), psi):
            found += 1
    if found == 0:
        return False, ran, "Pearl validity never disagreed along random channels"
    return True, ran, f"fixed disagreement plus {found} random disagreements in {ran} trials"


@_register("point-evidence-multinomial", "channel", max_trials=600)
def _point_evidence_multinomial(rng):
    dom = _space(rng, max_size=4)
    cod = _space(rng, max_size=3, labels=_COD_LABELS)
    c = _channel(rng, dom, cod)
    omega = _dist(rng, dom, full_support=False)
    size = rng.randint(1, 3)
    phi = _point_multiset(rng, cod, size)
    psi = point_evidence(phi)
    if not _pull_injective(c, psi):
        return None
    pulled = triple_pull(c, psi)
    if jeffrey_validity(omega, pulled) != multinomial(size, push(c, omega))(phi):
        return "channel Jeffrey validity != draw probability of the prediction"
    if pearl_validity(omega, pulled) != push(multinomial_channel(c, size), omega)(phi):
        return "channel Pearl validity != pushforward draw-channel probability"
    return None


@_register("dagger-jeffrey", "channel")
def _dagger_jeffrey(rng):
    dom = _space(rng, max_size=4)
    cod = _space(rng, max_size=4, labels=_COD_LABELS)
    c = _channel(rng, dom, cod)
    omega = _dist(rng, dom)
    phi = _point_multiset(rng, cod, rng.randint(1, 5))
    psi = point_evidence(phi)
    reversed_channel = dagger(c, omega)
    if push(reversed_channel, flrn(phi)) != jeffrey_update(omega, triple_pull(c, psi)):
        return "dagger pushforward != Jeffrey update along the channel"
    return None


@_register("multinomial-channel-pearl", "channel", max_trials=600)
def _multinomial_channel_pearl(rng):
    dom = _space(rng, max_size=4)
    cod = _space(rng, max_size=3, labels=_COD_LABELS)
    c = _channel(rng, dom, cod)
    omega = _dist(rng, dom)
    size = rng.randint(1, 3)
    phi = _point_multiset(rng, cod, size)
    draws = multinomial_channel(c, size)
    via_pull = bayes_update(omega, pull(draws, point_pred(phi, draws.cod)))
    if pearl_update(omega, triple_pull(c, point_evidence(phi))) != via_pull:
        return "Pearl update along channel != update with the draw-channel pullback"
    return None


@_register("channel-divergence-decrease", "channel")
def _channel_divergence_decrease(rng):
    dom = _space(rng, max_size=4)
    cod = _space(rng, max_size=4, labels=_COD_LABELS)
    c = _channel(rng, dom, cod)
    omega = _dist(rng, dom)
    phi = _point_multiset(rng, cod, rng.randint(1, 5))
    posterior = jeffrey_update(omega, triple_pull(c, point_evidence(phi)))
    target = flrn(phi)
    before = kl_divergence(target, push(c, omega))
    after = kl_divergence(target, push(c, posterior))
    if after > before + FLOAT_SLACK:
        return f"prediction divergence increased for point evidence {phi}"
    return None


@_register("identity-channel-neutral", "channel")
def _identity_channel_neutral(rng):
    space = _space(rng)
    c = identity_channel(space)
    omega = _dist(rng, space, full_support=False)
    if push(c, omega) != omega:
        return "identity channel moved the distribution"
    psi = _evidence(rng, space, positive=False)
    if triple_pull(c, psi) != psi:
        return "identity channel changed the evidence"
    return None


# ---------------------------------------------------------------------------
# divergence


@_register("dkl-nonneg-zero-iff", "divergence")
def _dkl_nonneg_zero_iff(rng):
    space = _space(rng)
    sigma = _dist(rng, space, unit=24)
    rho = _dist(rng, space, unit=24)
    value = kl_divergence(sigma, rho)
    if value < -1e-15:
        return f"divergence {value} negative"
    if sigma == rho and value != 0.0:
        return "divergence of equal distributions is nonzero"
    if sigma != rho and value <= 1e-12:
        return f"divergence {value} vanished for distinct distributions"
    return None


@_register_run("dkl-asymmetry-witness", "divergence")
def _dkl_asymmetry_witness(trials, rng):
    ran = 0
    for t in range(trials):
        ran = t + 1
        space = _space(rng)
        sigma = _dist(rng, space, unit=24)
        rho = _dist(rng, space, unit=24)
        if kl_divergence(sigma, rho) != kl_divergence(rho, sigma):
            return True, ran, f"asymmetric pair found at trial {ran}"
    return False, ran, "divergence looked symmetric on every trial"


@_register("kl-order-equivalence", "divergence")
def _kl_order_equivalence(rng):
    space = _space(rng)
    phi = _point_multiset(rng, space, rng.randint(1, 6))
    support = phi.support()
    if len(support) < 2:
        return None
    # both distributions share the support of the draws
    def supported():
        counts = [rng.randint(1, 12) if x in support else 0 for x in space]
        return flrn(Multiset(space, counts))

    omega, omega_prime = supported(), supported()
    target = flrn(phi)
    jv = jeffrey_validity(omega, point_evidence(phi))
    jv_prime = jeffrey_validity(omega_prime, point_evidence(phi))
    div = kl_divergence(target, omega)
    div_prime = kl_divergence(target, omega_prime)
    if abs(div - div_prime) <= TIE_SKIP:
        return None  # numerically tied; the exact order is not decidable in float
    if jv <= jv_prime and div < div_prime - TIE_SKIP:
        return "low validity paired with low divergence"
    if jv >= jv_prime and div > div_prime + TIE_SKIP:
        return "high validity paired with high divergence"
    return None


@_register("channel-dkl-lower-bound", "divergence")
def _channel_dkl_lower_bound(rng):
    dom = _space(rng, max_size=4)
    cod = _space(rng, max_size=4, labels=_COD_LABELS)
    c = _channel(rng, dom, cod)
    sigma = _dist(rng, dom, full_support=False)
    rho = _dist(rng, cod, full_support=False)
    expected = expected_channel_divergence(sigma, rho, c)
    if expected < kl_divergence(rho, push(c, sigma)) - FLOAT_SLACK:
        return "expected row divergence fell below the pushforward divergence"
    omega = _dist(rng, cod)
    psi = _evidence(rng, cod)
    objective = free_energy_objective(rho, omega, psi)
    if objective < kl_divergence(rho, jeffrey_update(omega, psi)) - FLOAT_SLACK:
        return "free-energy objective fell below the Jeffrey-update divergence"
    return None


@_register_run("vfe-divergence-failure-grid", "divergence", max_trials=1)
def _vfe_divergence_failure_grid(trials, rng):
    cells = grid_values(medical_grid_spec("vfe-dkl-delta"))
    positives = sum(1 for _, _, v in cells if v > 0)
    if positives != 37:
        return False, 1, f"{positives} cells with increased divergence, expected 37"
    model = medical_model()
    psi11 = Evidence(((model.pos_test, 1), (model.neg_test, 1)))
    observed = flrn(Multiset(model.test_space, (1, 1)))
    prior_div = kl_divergence(observed, push(model.test_channel, model.prior), base=2)
    post = vfe_update(model.prior, psi11)
    post_div = kl_divergence(observed, push(model.test_channel, post), base=2)
    if abs(prior_div - 0.0164) > 5e-4 or abs(post_div - 0.0208) > 5e-4:
        return False, 1, f"(1,1) divergences ({prior_div:.4f}, {post_div:.4f}) off"
    return True, 1, f"37 failures; (1,1) divergence {prior_div:.4f} -> {post_div:.4f}"
