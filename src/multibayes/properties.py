"""Seeded property suites for every module's stated invariants.

Each property runs a number of randomised trials from its own
deterministic RNG (derived from the global seed and the property id)
and reports the first counterexample, if any.  The same registry backs
the ``check`` CLI subcommand and the acceptance tests.

To add a property, decorate a per-trial check ``check(rng)`` with
``@_register(prop_id, group)``.  It draws one random instance from
``rng``, states each law of it with ``_law(holds, message, *args)`` and
returns None, or returns early to skip a degenerate trial.  The laws run
in order: ``_law`` breaks the trial at the first that does not hold,
formatting its message only then, and the one trial driver, ``_forall``,
reports that trial.  Draw a space with a distribution on it by
``_prior``, and a channel with a distribution on its domain by
``_channel``.  A fixed instance is a check with ``max_trials=1`` that
ignores ``rng``; it compares its values with the paper's printed figures
by ``_figures``.  Use ``@_register_run`` on a whole-run function
``run(trials, rng)`` only where the result is not "first failing trial":
a witness search runs on ``_exists``, the dual of ``_forall``; a
candidate sweep walks ``_sweep``; a check that reports a detail on pass
wraps ``_forall``.  A whole-run body states its laws with ``_law`` too,
passing ``trials=trials`` for a law of its sweep or search (a law of its
fixed instance reports 1 trial), and returns ``(True, trials_run,
detail)`` only on pass.  No property writes a trial loop, redraw or
retry of its own: each instance is drawn once, and a degenerate draw is
a skip.  Registration order is the output order.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

from .channel import Channel, dagger, identity_channel, multinomial_channel, pull, push, triple_pull
from .core import SampleSpace, Scalar, _require_naturals
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
    _factor_posteriors,
    _free_energy,
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


class _Broken(Exception):
    """A law does not hold; its args are the counterexample and the trial count a whole run reports for it."""


def _law(holds: bool, message: str, *args, trials: int = 1) -> None:
    """State one law: unless it ``holds``, break the trial or run with ``message.format(*args)``."""
    if not holds:
        raise _Broken(message.format(*args), trials)


def _forall(trials: int, rng: random.Random, check: Callable[[random.Random], object]):
    """Run up to ``trials`` trials of ``check``; fail at the first that breaks a law or returns a value."""
    for t in range(trials):
        try:
            detail = check(rng)
        except _Broken as broken:
            detail = broken.args[0]  # the failing trial is t + 1, whatever count the law names
        if detail is not None:
            return False, t + 1, detail
    return True, trials, None


def _exists(trials: int, rng: random.Random, probe: Callable[[random.Random], object]):
    """The dual of :func:`_forall`: pass at the first trial whose ``probe`` returns a witness (not None)."""
    held, ran, witness = _forall(trials, rng, probe)
    return not held, ran, witness


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
    _require_naturals((trials,), "trials")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    results = []
    for prop in resolve_suite(name):
        rng = random.Random(f"{seed}|{prop.prop_id}")
        budget = trials if prop.max_trials is None else min(trials, prop.max_trials)
        try:
            passed, ran, detail = prop.run(budget, rng)
        except _Broken as broken:  # a whole-run body returns only on pass
            (detail, ran), passed = broken.args, False
        except Exception as exc:  # a property that raises has failed; the next one still runs
            passed, ran, detail = False, budget, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(prop.prop_id, prop.group, passed, ran, detail))
    return results


# ---------------------------------------------------------------------------
# random generators (all exact-mode unless stated otherwise)

_LABELS = "abcdefgh"
_COD_LABELS = "uvwxyz"


def _space(rng: random.Random, max_size: int = 6, labels: str = _LABELS) -> SampleSpace:
    return SampleSpace(labels[: rng.randint(2, max_size)])


def _dist(rng: random.Random, space: SampleSpace, full_support: bool = True, unit: int = 12) -> Dist:
    low = 1 if full_support else 0
    counts = [rng.randint(low, unit) for _ in space]
    if sum(counts) == 0:
        counts[rng.randrange(len(counts))] = 1
    return flrn(Multiset(space, counts))


def _prior(rng: random.Random, max_size: int = 6, **dist_kwargs) -> tuple[SampleSpace, Dist]:
    """A space of 2 to ``max_size`` elements and a ``_dist`` on it."""
    space = _space(rng, max_size=max_size)
    return space, _dist(rng, space, **dist_kwargs)


def _channel(rng: random.Random, cod_size: int = 4, full_rows: bool = True, **dist_kwargs) -> tuple[Channel, Dist]:
    """A channel from 2 to 4 elements to 2 to ``cod_size``, its rows of
    full support when ``full_rows``, and a ``_dist`` on its domain."""
    dom = _space(rng, max_size=4)
    cod = _space(rng, max_size=cod_size, labels=_COD_LABELS)
    c = Channel(dom, cod, tuple(_dist(rng, cod, full_support=full_rows) for _ in dom))
    return c, _dist(rng, dom, **dist_kwargs)


def _factor(rng: random.Random, space: SampleSpace, positive: bool = False, bound: int = 1) -> Factor:
    low = 1 if positive else 0
    return Factor._from_ints(space, [rng.randint(low, bound * 12) for _ in space], 12)


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


def _perfect_pack(rng: random.Random, space: SampleSpace, parts: int) -> list[Factor]:
    """Predicates that sum to truth, in twelfths; two of them may be equal."""
    columns = []
    for _x in space:
        cuts = sorted(rng.randint(0, 12) for _ in range(parts - 1))
        columns.append([b - a for a, b in zip([0] + cuts, cuts + [12])])
    return [Factor._from_ints(space, [col[i] for col in columns], 12) for i in range(parts)]


def _sweep(rng: random.Random, space: SampleSpace, den: int, trials: int) -> Iterator[Dist]:
    """Candidates for an optimum on a 2- or 3-element space, built one
    at a time: every distribution whose weights are multiples of 1/den
    (ascending first weight, then second), then ``trials`` drawn ones."""
    if len(space) == 2:
        heads = ((k,) for k in range(den + 1))
    else:
        heads = ((i, j) for i in range(den + 1) for j in range(den + 1 - i))
    for head in heads:
        yield Dist._from_ints(space, (*head, den - sum(head)), den)
    for _ in range(trials):
        yield _dist(rng, space, full_support=False, unit=60)


def _point_multiset(rng: random.Random, space: SampleSpace, size: int) -> Multiset:
    return acc([rng.choice(space.elements) for _ in range(size)], space)


def _feq(a: float, b: float, tol: float = FLOAT_SLACK) -> bool:
    return abs(a - b) <= tol


def _figures(*pairs: tuple[Scalar, str]) -> bool:
    """Whether each value rounds, half to even, to its figure as the paper prints it (``"0.3081"``)."""
    return all(round(Fraction(value), len(figure.partition(".")[2])) == Fraction(figure) for value, figure in pairs)


# ---------------------------------------------------------------------------
# core


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


# ---------------------------------------------------------------------------
# multiset


@_register("acc-permutation-size", "multiset")
def _acc_permutation_size(rng):
    space = _space(rng)
    seq = [rng.choice(space.elements) for _ in range(rng.randint(0, 8))]
    phi = acc(seq, space)
    _law(phi.size == len(seq), "size {} != sequence length {}", phi.size, len(seq))
    shuffled = seq[:]
    rng.shuffle(shuffled)
    _law(acc(shuffled, space) == phi, "accumulation changed under permutation of {}", seq)


@_register("coefm-sequence-count", "multiset", max_trials=150)
def _coefm_sequence_count(rng):
    space = _space(rng, max_size=4)
    size = rng.randint(0, 5)
    counted: dict[tuple[int, ...], int] = {}
    for seq in itertools.product(space.elements, repeat=size):
        key = acc(seq, space).counts
        counted[key] = counted.get(key, 0) + 1
    for phi in enumerate_multisets(space, size):
        _law(counted.get(phi.counts, 0) == coefm(phi), "coefm({}) != brute-force sequence count", phi)


@_register("flrn-scale-invariant", "multiset")
def _flrn_scale_invariant(rng):
    space = _space(rng)
    phi = _point_multiset(rng, space, rng.randint(1, 8))
    n = rng.randint(1, 4)
    _law(flrn(phi.scale(n)) == flrn(phi), "flrn({}*{}) != flrn({})", n, phi, phi)


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
    _law(total == expanded, "({})^{} != multiset expansion", "+".join(map(str, rs)), size)


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
    _law(not is_dirac or copied == product, "copy of point distribution {} differs from its square", omega)
    _law(is_dirac or copied != product, "copy equals square for non-point {}", omega)


@_register("multinomial-sums-to-one", "distribution", max_trials=400)
def _multinomial_sums_to_one(rng):
    _, omega = _prior(rng, max_size=4, full_support=False)
    size = rng.randint(0, 5)
    total = sum(multinomial(size, omega).weights, Fraction(0))
    _law(total == 1, "multinomial({}, {}) sums to {}", size, omega, total)


@_register("multinomial-acc-pushforward", "distribution", max_trials=300)
def _multinomial_acc_pushforward(rng):
    space, omega = _prior(rng, max_size=3, full_support=False)
    size = rng.randint(0, 3)
    pushed = push_function(lambda t: acc(t, space), tensor_power(omega, size))
    _law(pushed == multinomial(size, omega), "accumulated {}-fold power of {} != draw distribution", size, omega)


# ---------------------------------------------------------------------------
# evidence


@_register("ortho-laws", "evidence")
def _ortho_laws(rng):
    space = _space(rng)
    p = _factor(rng, space)
    _law(ortho(ortho(p)) == p, "double orthosupplement changed {}", p)
    _law(p + ortho(p) == truth(space), "p + ~p != truth for {}", p)


@_register("conj-commutative-associative", "evidence")
def _conj_comm_assoc(rng):
    space = _space(rng)
    p, q, r = (_factor(rng, space, bound=2) for _ in range(3))
    _law(conj(p, q) == conj(q, p), "conjunction is not commutative")
    _law(conj(conj(p, q), r) == conj(p, conj(q, r)), "conjunction is not associative")
    _law(conj(p, truth(space)) == p and conj(p, falsity(space)) == falsity(space), "truth/falsity units broken")


@_register("weakening-marginal", "evidence")
def _weakening_marginal(rng):
    xs = _space(rng, max_size=3)
    ys = _space(rng, max_size=3, labels=_COD_LABELS)
    tau = _dist(rng, xs.product(ys), full_support=False)
    p = _factor(rng, xs)
    weakened = tensor_factor(p, truth(ys))
    _law(validity(tau, weakened) == validity(marginal(tau, 0), p), "weakening broke for tau={}, p={}", tau, p)


@_register("and-conj-additive", "evidence")
def _and_conj_additive(rng):
    space = _space(rng)
    psi = _evidence(rng, space, positive=False)
    chi = _evidence(rng, space, positive=False)
    _law(and_conj(psi + chi) == conj(and_conj(psi), and_conj(chi)),
         "conjunction of {} + {} is not multiplicative", psi, chi)


@_register("frac-conj-power", "evidence")
def _frac_conj_power(rng):
    space = _space(rng)
    psi = _evidence(rng, space, positive=False)
    lifted = frac_conj(psi) ** psi.size
    reference = and_conj(psi)
    for x in space:
        _law(_feq(float(lifted(x)), float(reference(x))), "frac-conj^K differs from full conjunction at {!r}", x)


@_register("tensor-conj-validity", "evidence", max_trials=300)
def _tensor_conj_validity(rng):
    space = _space(rng, max_size=3)
    psi = _evidence(rng, space, max_factors=2, max_size=4, positive=False)
    omega = _dist(rng, space, full_support=False)
    lhs = validity(tensor_power(omega, psi.size), tensor_conj(psi))
    rhs = math.prod(
        (validity(omega, p) ** c for p, c in psi.items()), start=Fraction(1)
    )
    _law(lhs == rhs, "product-space validity of {} != product of validities", psi)


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
    _law(validity(omega, truth(space)) == 1 and validity(omega, falsity(space)) == 0,
         "truth/falsity validities broken")
    _law(validity(omega, point_pred(x, space)) == omega(x), "point-predicate validity differs from weight at {!r}", x)
    _law(validity(omega, p + q) == validity(omega, p) + validity(omega, q), "validity is not additive")
    _law(validity(omega, scale(s, p)) == s * validity(omega, p), "validity is not homogeneous")
    _law(validity(omega, p + q) >= validity(omega, p), "validity is not monotone")
    _law(validity(omega, ortho(p)) == 1 - validity(omega, p), "orthosupplement validity law broken")
    q_other = _factor(rng, other)
    _law(validity(tensor(omega, rho), tensor_factor(p, q_other)) == validity(omega, p) * validity(rho, q_other),
         "tensor validity law broken")
    _law(validity(omega, conj(p, q)) == validity(copy_dist(omega), tensor_factor(p, q)),
         "copy/conjunction validity law broken")


@_register("matching-bounds", "validity")
def _matching_bounds(rng):
    space = _space(rng)
    parts = rng.randint(2, 3)
    pack = _perfect_pack(rng, space, parts + 1)[:parts]  # drop one part: still a match
    if len(set(pack)) < parts:
        return None  # equal parts merge into one factor of the evidence
    counts = [rng.randint(1, 2) for _ in pack]
    psi = Evidence(zip(pack, counts))
    omega = _dist(rng, space, full_support=False)
    jv = jeffrey_validity(omega, psi)
    pv = pearl_validity(omega, psi)
    _law(0 <= jv <= 1, "Jeffrey validity {} outside the unit interval", jv)
    _law(0 <= pv <= 1, "Pearl validity {} outside the unit interval", pv)


@_register("perfect-match-normalisation", "validity")
def _perfect_match_normalisation(rng):
    space = _space(rng, max_size=5)
    parts = rng.randint(2, 3)
    pack = _perfect_pack(rng, space, parts)
    if len(set(pack)) < parts:
        return None  # equal parts merge, and the evidence over the index counts them twice
    omega = _dist(rng, space, full_support=False)
    size = rng.randint(1, 4)
    index = SampleSpace(range(parts))
    j_total = Fraction(0)
    p_total = Fraction(0)
    for phi in enumerate_multisets(index, size):
        psi = Evidence((pack[i], c) for i, c in phi.items() if c)
        j_total += jeffrey_validity(omega, psi)
        p_total += pearl_validity(omega, psi)
    _law(j_total == 1, "Jeffrey validities over size-{} evidence sum to {}", size, j_total)
    _law(p_total == 1, "Pearl validities over size-{} evidence sum to {}", size, p_total)


@_register("single-factor-dominance", "validity")
def _single_factor_dominance(rng):
    space, omega = _prior(rng, full_support=False)
    p = _factor(rng, space)
    n = rng.randint(1, 6)
    psi = Evidence(((p, n),))
    _law(jeffrey_validity(omega, psi) <= pearl_validity(omega, psi),
         "(omega |= p)^{} exceeded omega |= p^{} for p={}", n, n, p)


@_register("covariance-identity", "validity")
def _covariance_identity(rng):
    space, omega = _prior(rng, full_support=False)
    p1 = _factor(rng, space)
    p2 = _factor(rng, space)
    if p1 == p2:
        return None  # equal factors merge into 2|p> and the halving law changes
    _law(covariance(omega, p1, truth(space)) == 0, "covariance against truth is nonzero")
    psi = Evidence(((p1, 1), (p2, 1)))
    gap = (pearl_validity(omega, psi) - jeffrey_validity(omega, psi)) / 2
    _law(covariance(omega, p1, p2) == gap, "covariance != half the Pearl-Jeffrey gap for {}, {}", p1, p2)


@_register("log-likelihood-order", "validity")
def _log_likelihood_order(rng):
    space, omega = _prior(rng)
    omega_prime = _dist(rng, space)
    psi = _evidence(rng, space)
    score = log_likelihood_score(omega, omega_prime, psi)
    jv = jeffrey_validity(omega, psi)
    jv_prime = jeffrey_validity(omega_prime, psi)
    _law(not (jv <= jv_prime and score > FLOAT_SLACK),
         "score {} positive although validities are ordered the other way", score)
    _law(not (jv >= jv_prime and score < -FLOAT_SLACK),
         "score {} negative although validities are ordered the other way", score)


@_register("point-evidence-bridge", "validity")
def _point_evidence_bridge(rng):
    space, omega = _prior(rng, max_size=4, full_support=False)
    size = rng.randint(1, 4)
    phi = _point_multiset(rng, space, size)
    draws = multinomial(size, omega)
    _law(jeffrey_validity(omega, point_evidence(phi)) == draws(phi),
         "point-evidence validity != draw probability of {}", phi)


@_register_run("point-evidence-argmax", "validity", max_trials=1000)
def _point_evidence_argmax(trials, rng):
    def unbeaten(phi, den):
        psi = point_evidence(phi)
        best = jeffrey_validity(flrn(phi), psi)
        for cand in _sweep(rng, phi.space, den, trials):
            _law(jeffrey_validity(cand, psi) <= best, "candidate {} beats the frequency distribution", cand,
                 trials=trials)

    unbeaten(acc("aabab", SampleSpace("ab")), 100)
    unbeaten(_point_multiset(rng, SampleSpace("abc"), 6), 20)
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
    _law(jv == Fraction(19773, 12800), "non-matching Jeffrey validity {} != 19773/12800", jv)
    _law(pv == Fraction(2173, 800), "non-matching Pearl validity {} != 2173/800", pv)
    _law(1 < jv < 2 and pv > 2, "escape magnitudes unexpected")


@_register("jeffrey-pearl-gap-examples", "validity", max_trials=1)
def _jeffrey_pearl_gap_examples(rng):
    space = SampleSpace("abc")
    omega = Dist(space, (Fraction(3, 10), Fraction(3, 10), Fraction(2, 5)))
    p = Factor(space, (Fraction(1, 100), Fraction(1, 100), Fraction(49, 50)))
    psi = Evidence(((p, 1), (ortho(p), 1)))
    jv, pv = float(jeffrey_validity(omega, psi)), float(pearl_validity(omega, psi))
    _law(_figures((jv, "0.479"), (pv, "0.028")), "wide-gap pair ({:.4f}, {:.4f}) != (0.479, 0.028)", jv, pv)
    omega2 = Dist(space, (Fraction(1, 5), Fraction(1, 5), Fraction(3, 5)))
    q = Factor(space, (Fraction(3, 10), Fraction(1, 5), Fraction(9, 10)))
    chi = Evidence(((q, 1), (ortho(q), 4)))
    jv2, pv2 = float(jeffrey_validity(omega2, chi)), float(pearl_validity(omega2, chi))
    _law(_figures((jv2, "0.054"), (pv2, "0.154")), "reversal pair ({:.4f}, {:.4f}) != (0.054, 0.154)", jv2, pv2)
    _law(jv2 < pv2, "expected Pearl above Jeffrey in the reversal pair")


@_register_run("jeffrey-pearl-grid-gap", "validity", max_trials=1)
def _jeffrey_pearl_grid_gap(trials, rng):
    j_cells = grid_values(medical_grid_spec("jeffrey-validity"))
    p_cells = grid_values(medical_grid_spec("pearl-validity"))
    worst = max(abs(float(jv - pv)) for (_, _, jv), (_, _, pv) in zip(j_cells, p_cells))
    _law(not (worst >= 0.033), "validity gap {} >= 0.033 somewhere on the grid", worst)
    return True, 1, f"max gap {worst:.4f}"


# ---------------------------------------------------------------------------
# update


@_register("bayes-laws", "update")
def _bayes_laws(rng):
    space, omega = _prior(rng)
    p = _factor(rng, space, positive=True)
    q = _factor(rng, space, positive=True)
    s = Fraction(rng.randint(1, 24), 12)
    _law(bayes_update(omega, truth(space)) == omega, "conditioning on truth changed the distribution")
    _law(bayes_update(omega, conj(p, q)) == bayes_update(bayes_update(omega, p), q),
         "conjunction update != successive updates")
    x = rng.choice(omega.support())
    _law(bayes_update(omega, point_pred(x, space)) == dirac(x, space),
         "conditioning on a point predicate missed dirac({!r})", x)
    _law(bayes_update(omega, scale(s, p)) == bayes_update(omega, p), "scaling the factor changed the update")


@_register("product-bayes-rules", "update")
def _product_bayes_rules(rng):
    space, omega = _prior(rng)
    p = _factor(rng, space, positive=True)
    q = _factor(rng, space, positive=True)
    posterior = bayes_update(omega, p)
    _law(validity(posterior, q) == validity(omega, conj(p, q)) / validity(omega, p), "product rule broken")
    bayes_rhs = (
        validity(bayes_update(omega, q), p) * validity(omega, q) / validity(omega, p)
    )
    _law(validity(posterior, q) == bayes_rhs, "Bayes' rule broken")


@_register("iterated-update-validity", "update")
def _iterated_update_validity(rng):
    space, omega = _prior(rng)
    ps = [_factor(rng, space, positive=True) for _ in range(rng.randint(1, 4))]
    chained = iterated_pearl_validity(omega, ps)
    conjunction = ps[0]
    for p in ps[1:]:
        conjunction = conj(conjunction, p)
    _law(chained == validity(omega, conjunction), "chained validity != conjunction validity")
    shuffled = ps[:]
    rng.shuffle(shuffled)
    _law(iterated_pearl_validity(omega, shuffled) == chained, "chained validity depends on the order")


@_register("validity-gain", "update")
def _validity_gain(rng):
    space, omega = _prior(rng)
    p = _factor(rng, space, positive=True)
    _law(validity(bayes_update(omega, p), p) >= validity(omega, p), "update decreased the validity of {}", p)
    ps = [_factor(rng, space, positive=True) for _ in range(rng.randint(2, 3))]
    mixture = convex_sum(
        [Fraction(1, len(ps))] * len(ps), [bayes_update(omega, p) for p in ps]
    )
    before = math.prod((validity(omega, p) for p in ps), start=Fraction(1))
    after = math.prod((validity(mixture, p) for p in ps), start=Fraction(1))
    _law(after >= before, "uniform mixture of updates decreased the validity product")


def _increases(rng, rule: str, update, evidence_validity):
    """One trial of the theorem that ``update`` does not lower ``evidence_validity``;
    the callers look both up at call time, so a rebound module name runs."""
    space, omega = _prior(rng)
    psi = _evidence(rng, space)
    _law(evidence_validity(update(omega, psi), psi) >= evidence_validity(omega, psi),
         "{} update decreased {} validity for {}", rule, rule, psi)


@_register("jeffrey-increases", "update")
def _jeffrey_increases(rng):
    _increases(rng, "Jeffrey", jeffrey_update, jeffrey_validity)


@_register("jeffrey-dkl-decrease", "update")
def _jeffrey_dkl_decrease(rng):
    space, omega = _prior(rng)
    phi = _point_multiset(rng, space, rng.randint(1, 6))
    psi = point_evidence(phi)
    posterior = jeffrey_update(omega, psi)
    target = flrn(phi)
    _law(not (kl_divergence(target, posterior) > kl_divergence(target, omega) + FLOAT_SLACK),
         "divergence increased for point evidence {}", phi)


@_register("jeffrey-scale-invariant", "update")
def _jeffrey_scale_invariant(rng):
    space, omega = _prior(rng)
    psi = _evidence(rng, space)
    n = rng.randint(1, 4)
    _law(jeffrey_update(omega, psi.scale(n)) == jeffrey_update(omega, psi),
         "{}-fold evidence changed the Jeffrey update", n)


@_register_run("jeffrey-order", "update")
def _jeffrey_order(trials, rng):
    model = medical_model()
    psi = Evidence(((model.pos_test, 2), (model.neg_test, 1)))
    chi = Evidence(((model.pos_test, 1), (model.neg_test, 2)))
    first = jeffrey_update(jeffrey_update(model.prior, psi), chi)
    second = jeffrey_update(jeffrey_update(model.prior, chi), psi)
    d1, d2 = float(first("d")), float(second("d"))
    _law(_figures((d1, "0.059"), (d2, "0.061")), "fixed order pair ({:.4f}, {:.4f}) != (0.059, 0.061)", d1, d2)
    _law(first != second, "fixed instance unexpectedly order-insensitive")

    def probe(rng):
        space, omega = _prior(rng, max_size=4)
        a = _evidence(rng, space, max_factors=2, max_size=3)
        b = _evidence(rng, space, max_factors=2, max_size=3)
        differ = jeffrey_update(jeffrey_update(omega, a), b) != jeffrey_update(jeffrey_update(omega, b), a)
        return space.elements if differ else None

    found, ran, elements = _exists(trials, rng, probe)
    _law(found, "no random order-sensitivity witness found", trials=trials)
    return True, ran, f"fixed pair 0.059/0.061 reproduced; random witness at trial {ran}: updates differ on {elements}"


@_register("jeffrey-self-no-op", "update")
def _jeffrey_self_no_op(rng):
    phi = _point_multiset(rng, _space(rng), rng.randint(1, 12))
    omega = flrn(phi)
    _law(jeffrey_update(omega, point_evidence(phi)) == omega, "updating {} with its own frequencies changed it", omega)


@_register("jeffrey-convex-combination", "update")
def _jeffrey_convex_combination(rng):
    # the update with a sum of evidence mixes the separate updates, each weighted by the data it brings
    space, omega = _prior(rng)
    psis = [_evidence(rng, space, max_factors=2, max_size=3) for _ in range(rng.randint(2, 3))]
    ns = [rng.randint(1, 3) for _ in psis]
    total = sum(n * psi.size for n, psi in zip(ns, psis))
    mixture = convex_sum(
        [Fraction(n * psi.size, total) for n, psi in zip(ns, psis)],
        [jeffrey_update(omega, psi) for psi in psis],
    )
    combined = sum((psi.scale(n) for n, psi in zip(ns, psis)), Evidence(()))
    _law(mixture == jeffrey_update(omega, combined), "convex sum of Jeffrey updates != update with combined evidence")


@_register("pearl-increases", "update")
def _pearl_increases(rng):
    _increases(rng, "Pearl", pearl_update, pearl_validity)


@_register("pearl-product-bayes", "update")
def _pearl_product_bayes(rng):
    # the product/Bayes rules for evidence hold for the conjunction
    # validities; the multinomial coefficients are made explicit here
    space, omega = _prior(rng)
    psi = _evidence(rng, space, max_size=3)
    chi = _evidence(rng, space, max_size=3)
    cv = lambda w, ev: validity(w, and_conj(ev))
    posterior = pearl_update(omega, psi)
    _law(cv(posterior, chi) == cv(omega, psi + chi) / cv(omega, psi), "evidence-level product rule broken")
    bayes_rhs = cv(pearl_update(omega, chi), psi) * cv(omega, chi) / cv(omega, psi)
    _law(cv(posterior, chi) == bayes_rhs, "evidence-level Bayes rule broken")
    coefficient_ratio = Fraction(
        psi.coefficient() * chi.coefficient(), (psi + chi).coefficient()
    )
    lhs = pearl_validity(posterior, chi)
    rhs = pearl_validity(omega, psi + chi) / pearl_validity(omega, psi)
    _law(lhs == coefficient_ratio * rhs, "coefficient bookkeeping of the evidence product rule broken")


@_register("pearl-composes", "update")
def _pearl_composes(rng):
    space, omega = _prior(rng)
    psi = _evidence(rng, space, max_size=3)
    chi = _evidence(rng, space, max_size=3)
    combined = pearl_update(omega, psi + chi)
    _law(pearl_update(pearl_update(omega, psi), chi) == combined, "successive Pearl updates != combined update")
    _law(pearl_update(pearl_update(omega, chi), psi) == combined, "Pearl updates are order-sensitive")


@_register("pearl-uniform-no-op", "update")
def _pearl_uniform_no_op(rng):
    space, omega = _prior(rng, full_support=False)
    factors = [
        scale(Fraction(rng.randint(1, 24), 12), truth(space))
        for _ in range(rng.randint(1, 3))
    ]
    psi = Evidence((f, rng.randint(1, 2)) for f in factors)
    _law(pearl_update(omega, psi) == omega, "scaled-truth evidence changed the distribution")


@_register("cross-rule-decrease", "update", max_trials=1)
def _cross_rule_decrease(rng):
    model = medical_model()
    psi = Evidence(((model.pos_test, 2), (model.neg_test, 1)))
    omega = model.prior
    j_prior = jeffrey_validity(omega, psi)
    p_prior = pearl_validity(omega, psi)
    j_after_pearl = jeffrey_validity(pearl_update(omega, psi), psi)
    p_after_jeffrey = pearl_validity(jeffrey_update(omega, psi), psi)
    _law(_figures((j_after_pearl, "0.3081"), (j_prior, "0.3116")), "crossed Jeffrey numbers off")
    _law(_figures((p_after_jeffrey, "0.2847"), (p_prior, "0.2858")), "crossed Pearl numbers off")
    _law(j_after_pearl < j_prior and p_after_jeffrey < p_prior, "crossed updates did not decrease the validities")


@_register("vfe-forms-agree", "update")
def _vfe_forms_agree(rng):
    space, omega = _prior(rng)
    psi = _evidence(rng, space)
    direct = vfe_update(omega, psi)
    softmax = vfe_update_softmax(omega, psi)
    for x in space:
        _law(_feq(float(direct(x)), float(softmax(x))), "softmax and conjunction forms differ at {!r}", x)


@_register_run("vfe-sandwich", "update")
def _vfe_sandwich(trials, rng):
    model = medical_model()
    chi = Evidence(((model.pos_test, 1), (model.neg_test, 1)))
    j_before = float(jeffrey_validity(model.prior, chi))
    j_after = float(jeffrey_validity(vfe_update(model.prior, chi), chi))
    _law(_figures((j_before, "0.489"), (j_after, "0.486")), "fixed pair ({:.4f}, {:.4f}) != (0.489, 0.486)",
         j_before, j_after)
    _law(j_before > j_after, "expected a Jeffrey-validity decrease under the VFE update")

    def check(rng):
        space, omega = _prior(rng)
        psi = _evidence(rng, space)
        base = float(pearl_validity(omega, psi))
        via_vfe = float(pearl_validity(vfe_update(omega, psi), psi))
        via_pearl = float(pearl_validity(pearl_update(omega, psi), psi))
        _law(not (base > via_vfe + FLOAT_SLACK), "VFE update decreased the Pearl validity")
        _law(not (via_vfe > via_pearl + FLOAT_SLACK), "VFE update beat the Pearl update on Pearl validity")

    passed, ran, detail = _forall(trials, rng, check)
    if passed:
        detail = "fixed Jeffrey counterexample 0.489 > 0.486 reproduced"
    return passed, ran, detail


@_register_run("vfe-argmin", "update", max_trials=1000)
def _vfe_argmin(trials, rng):
    model = medical_model()
    psi = Evidence(((model.pos_test, 2), (model.neg_test, 1)))
    posterior = vfe_update(model.prior, psi)
    posteriors = _factor_posteriors(model.prior, psi)
    minimum = _free_energy(posterior, posteriors)
    for cand in _sweep(rng, model.prior.space, 100, trials):
        value = _free_energy(cand, posteriors)
        _law(not (value < minimum - FLOAT_SLACK), "candidate {} beat the VFE update", cand, trials=trials)
        # objective excess over the minimum equals the divergence from the update
        _law(_feq(value - minimum, kl_divergence(cand, posterior), 1e-7), "objective gap != divergence for {}", cand,
             trials=trials)
    space3 = SampleSpace("abc")
    omega3 = _dist(rng, space3)
    psi3 = _evidence(rng, space3)
    posterior3 = vfe_update(omega3, psi3)
    posteriors3 = _factor_posteriors(omega3, psi3)
    minimum3 = _free_energy(posterior3, posteriors3)
    for cand in _sweep(rng, space3, 100, 0):
        _law(not (_free_energy(cand, posteriors3) < minimum3 - FLOAT_SLACK), "grid candidate {} beat the VFE update",
             cand, trials=trials)
    return True, trials, None


# ---------------------------------------------------------------------------
# channel


def _pull_injective(c: Channel, psi: Evidence) -> bool:
    pulled = [pull(c, q) for q, _ in psi.items()]
    return len(set(pulled)) == len(pulled)


@_register("channel-adjunction", "channel")
def _channel_adjunction(rng):
    c, omega = _channel(rng, full_rows=False, full_support=False)
    q = _factor(rng, c.cod)
    _law(validity(push(c, omega), q) == validity(omega, pull(c, q)), "pushforward validity != pulled-back validity")


@_register("jeffrey-along-channel", "channel")
def _jeffrey_along_channel(rng):
    c, omega = _channel(rng)
    psi = _evidence(rng, c.cod, max_factors=2, max_size=4)
    if not _pull_injective(c, psi):
        return None  # merged factors change the coefficient; skip degenerate pull
    _law(jeffrey_validity(omega, triple_pull(c, psi)) == jeffrey_validity(push(c, omega), psi),
         "Jeffrey validity along the channel broke")


@_register_run("pearl-along-channel-fails", "channel", max_trials=100)
def _pearl_along_channel_fails(trials, rng):
    model = medical_model()
    point_psi = Evidence(
        ((point_pred("p", model.test_space), 2), (point_pred("n", model.test_space), 1))
    )
    fixed_lhs = pearl_validity(model.prior, triple_pull(model.test_channel, point_psi))
    fixed_rhs = pearl_validity(push(model.test_channel, model.prior), point_psi)
    _law(fixed_lhs != fixed_rhs, "expected the fixed point-evidence instance to disagree")

    found = 0

    def check(rng):
        nonlocal found
        c, omega = _channel(rng)
        psi = _evidence(rng, c.cod, max_factors=2, max_size=3)
        found += pearl_validity(omega, triple_pull(c, psi)) != pearl_validity(push(c, omega), psi)

    _forall(trials, rng, check)
    _law(found != 0, "Pearl validity never disagreed along random channels", trials=trials)
    return True, trials, f"fixed disagreement plus {found} random disagreements in {trials} trials"


@_register("point-evidence-multinomial", "channel", max_trials=600)
def _point_evidence_multinomial(rng):
    c, omega = _channel(rng, 3, full_support=False)
    size = rng.randint(1, 3)
    phi = _point_multiset(rng, c.cod, size)
    psi = point_evidence(phi)
    if not _pull_injective(c, psi):
        return None
    pulled = triple_pull(c, psi)
    _law(jeffrey_validity(omega, pulled) == multinomial(size, push(c, omega))(phi),
         "channel Jeffrey validity != draw probability of the prediction")
    _law(pearl_validity(omega, pulled) == push(multinomial_channel(c, size), omega)(phi),
         "channel Pearl validity != pushforward draw-channel probability")


@_register("dagger-jeffrey", "channel")
def _dagger_jeffrey(rng):
    c, omega = _channel(rng)
    phi = _point_multiset(rng, c.cod, rng.randint(1, 5))
    psi = point_evidence(phi)
    reversed_channel = dagger(c, omega)
    _law(push(reversed_channel, flrn(phi)) == jeffrey_update(omega, triple_pull(c, psi)),
         "dagger pushforward != Jeffrey update along the channel")


@_register("multinomial-channel-pearl", "channel", max_trials=600)
def _multinomial_channel_pearl(rng):
    c, omega = _channel(rng, 3)
    size = rng.randint(1, 3)
    phi = _point_multiset(rng, c.cod, size)
    draws = multinomial_channel(c, size)
    via_pull = bayes_update(omega, pull(draws, point_pred(phi, draws.cod)))
    _law(pearl_update(omega, triple_pull(c, point_evidence(phi))) == via_pull,
         "Pearl update along channel != update with the draw-channel pullback")


@_register("channel-divergence-decrease", "channel")
def _channel_divergence_decrease(rng):
    c, omega = _channel(rng)
    phi = _point_multiset(rng, c.cod, rng.randint(1, 5))
    posterior = jeffrey_update(omega, triple_pull(c, point_evidence(phi)))
    target = flrn(phi)
    before = kl_divergence(target, push(c, omega))
    after = kl_divergence(target, push(c, posterior))
    _law(not (after > before + FLOAT_SLACK), "prediction divergence increased for point evidence {}", phi)


@_register("identity-channel-neutral", "channel")
def _identity_channel_neutral(rng):
    space, omega = _prior(rng, full_support=False)
    c = identity_channel(space)
    _law(push(c, omega) == omega, "identity channel moved the distribution")
    psi = _evidence(rng, space, positive=False)
    _law(triple_pull(c, psi) == psi, "identity channel changed the evidence")


# ---------------------------------------------------------------------------
# divergence


@_register("dkl-nonneg-zero-iff", "divergence")
def _dkl_nonneg_zero_iff(rng):
    space, sigma = _prior(rng, unit=24)
    rho = _dist(rng, space, unit=24)
    value = kl_divergence(sigma, rho)
    _law(not (value < -1e-15), "divergence {} negative", value)
    _law(sigma != rho or value == 0.0, "divergence of equal distributions is nonzero")
    _law(not (sigma != rho and value <= 1e-12), "divergence {} vanished for distinct distributions", value)


@_register_run("dkl-asymmetry-witness", "divergence")
def _dkl_asymmetry_witness(trials, rng):
    def probe(rng):
        space, sigma = _prior(rng, unit=24)
        rho = _dist(rng, space, unit=24)
        return (sigma, rho) if kl_divergence(sigma, rho) != kl_divergence(rho, sigma) else None

    found, ran, _ = _exists(trials, rng, probe)
    _law(found, "divergence looked symmetric on every trial", trials=trials)
    return True, ran, f"asymmetric pair found at trial {ran}"


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
    _law(not (jv <= jv_prime and div < div_prime - TIE_SKIP), "low validity paired with low divergence")
    _law(not (jv >= jv_prime and div > div_prime + TIE_SKIP), "high validity paired with high divergence")


@_register("channel-dkl-lower-bound", "divergence")
def _channel_dkl_lower_bound(rng):
    c, sigma = _channel(rng, full_support=False)
    rho = _dist(rng, c.cod, full_support=False)
    expected = expected_channel_divergence(sigma, rho, c)
    _law(not (expected < kl_divergence(rho, push(c, sigma)) - FLOAT_SLACK),
         "expected row divergence fell below the pushforward divergence")
    omega = _dist(rng, c.cod)
    psi = _evidence(rng, c.cod)
    objective = free_energy_objective(rho, omega, psi)
    _law(not (objective < kl_divergence(rho, jeffrey_update(omega, psi)) - FLOAT_SLACK),
         "free-energy objective fell below the Jeffrey-update divergence")


@_register_run("vfe-divergence-failure-grid", "divergence", max_trials=1)
def _vfe_divergence_failure_grid(trials, rng):
    cells = grid_values(medical_grid_spec("vfe-dkl-delta"))
    positives = sum(1 for _, _, v in cells if v > 0)
    _law(positives == 37, "{} cells with increased divergence, expected 37", positives)
    model = medical_model()
    psi11 = Evidence(((model.pos_test, 1), (model.neg_test, 1)))
    observed = flrn(Multiset(model.test_space, (1, 1)))
    prior_div = kl_divergence(observed, push(model.test_channel, model.prior), base=2)
    post = vfe_update(model.prior, psi11)
    post_div = kl_divergence(observed, push(model.test_channel, post), base=2)
    _law(_figures((prior_div, "0.0164"), (post_div, "0.0208")), "(1,1) divergences ({:.4f}, {:.4f}) off",
         prior_div, post_div)
    return True, 1, f"37 failures; (1,1) divergence {prior_div:.4f} -> {post_div:.4f}"
