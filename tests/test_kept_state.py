"""Kept state never changes a result.

The library keeps what it computed on its values: each factor its memo
for the last prior it met (normaliser and posterior) and its powers for
the last few counts, each evidence its conjunction, each channel its
rescaled columns, each grid spec its point predicates and its prior
prediction.  This state machine builds priors, factors, channels,
evidence and grid specs, keeps them, and runs the rules, validities,
powers, pushes, pulls and grid cells on them in any order.  Each result
must equal the same call on fresh copies, which hold no kept state:
exact values equal, floats with the same bits, errors of the same class.
Each call runs twice on the kept objects, and earlier calls run again
later, so neither a value nor an error may store anything that changes
a later result.

The exact size limit is lowered for the whole run, so some large counts
are refused with SizeLimitError.  The run is derandomized, so it is the
same on every machine.  Grid cells that share their pulled predicates,
and so their memos, must equal cells that pull them anew.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, precondition, rule, run_state_machine_as_test

from multibayes import (
    Channel,
    Dist,
    Evidence,
    Factor,
    MultibayesError,
    SampleSpace,
    and_conj,
    bayes_update,
    iterated_pearl_validity,
    jeffrey_update,
    jeffrey_validity,
    log_likelihood_score,
    pearl_update,
    pearl_validity,
    pull,
    push,
    validity,
    vfe_update,
)
from multibayes import models
from multibayes.models import GRID_MODES, GridSpec, grid_cell, grid_values, medical_model

MEDICAL = medical_model()
#: Two spaces of the machine's own, and the medical model's two, on
#: which each grid spec's prior and channel live.
SPACES = (SampleSpace("ab"), SampleSpace("xyz"), MEDICAL.disease_space, MEDICAL.test_space)
#: Factor values: predicates, values above one and zero (for zero
#: validities); hypothesis draws the first ones most.
EXACT_VALUES = (Fraction(1, 2), Fraction(9, 10), Fraction(1, 3), Fraction(5, 2), Fraction(1), Fraction(0))
#: Float values add the ends of the float range, so powers and conjunctions overflow.
FLOAT_VALUES = (0.25, 0.9, 1.0, 3.5, 1e-200, 1e200, 0.0)
#: Evidence counts, few enough that kept factors meet the same count
#: again; with the other exponents of ``p ** k`` a factor meets more
#: than the 8 counts whose powers it keeps.
COUNTS = st.sampled_from((1, 2, 3, 10, 11, 30))
EXPONENTS = COUNTS | st.sampled_from((-2, 0, 5, 17, 40, "1/2", 0.5))

#: Exact or float values, exact first.
EXACT = st.sampled_from((True, False))
#: What :meth:`KeptState.grow` builds.
KINDS = ("prior", "factor", "evidence", "channel", "specs")

#: The evidence rules and validities, on (prior, evidence).
EVIDENCE_RULES = {
    "jeffrey_update": jeffrey_update,
    "pearl_update": pearl_update,
    "vfe_update": vfe_update,
    "jeffrey_validity": jeffrey_validity,
    "pearl_validity": pearl_validity,
    "and_conj": lambda omega, psi: and_conj(psi),
}
#: The rules on (prior, factor).
FACTOR_RULES = {"validity": validity, "bayes_update": bayes_update}


def dists(space, exact):
    """Distributions on ``space`` with small int weights, some zero."""
    weights = st.lists(st.sampled_from((1, 2, 3, 4, 0)), min_size=len(space), max_size=len(space)).filter(any)
    return weights.map(lambda ws: Dist(space, [Fraction(w, sum(ws)) if exact else w / sum(ws) for w in ws]))


def fresh(value):
    """An equal copy of ``value`` built anew, so it holds no kept state."""
    if isinstance(value, Dist):
        return Dist(value.space, value.weights)
    if isinstance(value, Factor):
        return Factor(value.space, value.values)
    if isinstance(value, Evidence):
        return Evidence([(fresh(p), count) for p, count in value.items()])
    if isinstance(value, Channel):
        return Channel(value.dom, value.cod, [fresh(row) for row in value.rows])
    if isinstance(value, GridSpec):
        return GridSpec(value.mode, value.imax, value.jmax)
    return value


def scalar_key(value):
    """Exact values by value, floats by their bits."""
    return value.hex() if type(value) is float else ("exact", Fraction(value))


def outcome(call):
    """What ``call()`` gives, comparable across objects: the error class,
    or the result's class, space and values."""
    try:
        result = call()
    except (MultibayesError, ZeroDivisionError) as exc:
        return ("raises", type(exc))
    if isinstance(result, (Dist, Factor)):
        return (type(result), result.space, tuple(scalar_key(v) for _, v in result.items()))
    return scalar_key(result)


class KeptState(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.priors = {space: [] for space in SPACES}
        self.factors = {space: [] for space in SPACES}
        self.evidence = {space: [] for space in SPACES}
        self.channels, self.specs, self.calls = [], [], []

    def check(self, call, *operands):
        """``call`` on the kept operands gives what it gives on fresh
        copies, and so does a second call, with any evidence built anew
        from its kept factors: what the first call kept, or the error it
        raised, changes nothing."""
        expected = outcome(lambda: call(*map(fresh, operands)))
        assert outcome(lambda: call(*operands)) == expected
        rebuilt = [Evidence(list(v.items())) if isinstance(v, Evidence) else v for v in operands]
        assert outcome(lambda: call(*rebuilt)) == expected
        self.calls.append((call, operands))

    @initialize(data=st.data())
    def population(self, data):
        """Two priors, two factors and two evidence on each space, a
        channel each way between the first two and specs of each mode,
        so every rule applies."""
        for kind in ("prior", "prior", "factor", "factor", "evidence", "evidence"):
            for space in SPACES:
                self.grow(data, kind, space, space)
        self.grow(data, "channel", *SPACES[:2])
        self.grow(data, "channel", *SPACES[1::-1])
        self.add_specs()

    @rule(data=st.data(), kind=st.sampled_from(KINDS), space=st.sampled_from(SPACES), cod=st.sampled_from(SPACES))
    def grow(self, data, kind, space, cod):
        """A new kept prior, factor or evidence of kept factors on
        ``space``, channel from ``space`` to ``cod``, or spec of a drawn
        mode."""
        exact = data.draw(EXACT)
        if kind == "prior":
            self.priors[space].append(data.draw(dists(space, exact)))
        elif kind == "factor":
            values = st.lists(st.sampled_from(EXACT_VALUES if exact else FLOAT_VALUES), min_size=len(space),
                              max_size=len(space))
            self.factors[space].append(Factor(space, data.draw(values)))
        elif kind == "evidence":
            self.evidence[space].append(self.new_evidence(data, space))
        elif kind == "channel":
            self.channels.append(Channel(space, cod, [data.draw(dists(cod, exact)) for _ in space]))
        else:
            self.add_specs([data.draw(st.sampled_from(GRID_MODES))])

    def add_specs(self, modes=GRID_MODES):
        """A spec of each of ``modes``, its prior and channel kept among
        the others, so pushes, pulls and rules run on what its cells
        read.  One spec at a time keeps its channel likely to be drawn."""
        for mode in modes:
            spec = GridSpec(mode, 12, 12)
            self.specs.append(spec)
            self.priors[spec.channel.dom].append(spec.prior)
            self.channels.append(spec.channel)

    def new_evidence(self, data, space):
        """Evidence of two, three or one kept factors on ``space``."""
        size = min(data.draw(st.sampled_from((2, 3, 1))), len(self.factors[space]))
        factors = data.draw(st.lists(st.sampled_from(self.factors[space]), min_size=size, max_size=size, unique_by=id))
        return Evidence([(p, data.draw(COUNTS)) for p in factors])

    def draw_evidence(self, data, space):
        """Kept evidence, or new evidence of kept factors."""
        if data.draw(st.booleans()):
            return data.draw(st.sampled_from(self.evidence[space]))
        return self.new_evidence(data, space)

    @rule(data=st.data(), space=st.sampled_from(SPACES), name=st.sampled_from(sorted(EVIDENCE_RULES)))
    def evidence_rule(self, data, space, name):
        omega = data.draw(st.sampled_from(self.priors[space]))
        self.check(EVIDENCE_RULES[name], omega, self.draw_evidence(data, space))

    @rule(data=st.data(), space=st.sampled_from(SPACES), name=st.sampled_from(sorted(FACTOR_RULES)))
    def factor_rule(self, data, space, name):
        omega = data.draw(st.sampled_from(self.priors[space]))
        self.check(FACTOR_RULES[name], omega, data.draw(st.sampled_from(self.factors[space])))

    @rule(data=st.data(), space=st.sampled_from(SPACES))
    def chained_rules(self, data, space):
        omega, other = data.draw(st.permutations(self.priors[space]))[:2]
        psi = self.draw_evidence(data, space)
        self.check(iterated_pearl_validity, omega, psi.factors)
        self.check(log_likelihood_score, omega, other, psi)

    @rule(data=st.data(), space=st.sampled_from(SPACES), exponent=EXPONENTS)
    def power(self, data, space, exponent):
        self.check(lambda p: p**exponent, data.draw(st.sampled_from(self.factors[space])))

    @rule(data=st.data())
    def push_and_pull(self, data):
        channel = data.draw(st.sampled_from(self.channels))
        self.check(push, channel, data.draw(st.sampled_from(self.priors[channel.dom])))
        self.check(pull, channel, data.draw(st.sampled_from(self.factors[channel.cod])))

    @rule(data=st.data(), i=st.integers(0, 11), j=st.integers(0, 11))
    def cell(self, data, i, j):
        self.check(lambda spec: grid_cell(spec, i, j), data.draw(st.sampled_from(self.specs)))

    @precondition(lambda self: self.calls)
    @rule(data=st.data())
    def again(self, data):
        """An earlier call again on its kept operands, which now hold
        what the calls since have kept."""
        call, operands = data.draw(st.sampled_from(self.calls))
        self.check(call, *operands)


def test_kept_state_never_changes_a_result(monkeypatch):
    monkeypatch.setattr("multibayes.core.MAX_EXACT_BITS", 120)
    run_state_machine_as_test(KeptState, settings=settings(
        max_examples=60, stateful_step_count=40, derandomize=True, database=None, deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
    ))


@pytest.mark.parametrize("mode", GRID_MODES)
def test_cells_that_share_their_pulled_predicates_are_unchanged(monkeypatch, mode):
    """Each cell pulls the spec's two predicates anew.  Pulled once and
    shared, the two factors keep their memos and powers from cell to
    cell, and every cell is still the same: exact values by numerator
    and denominator, floats with the same bits."""
    expected = [(i, j, scalar_key(v)) for i, j, v in grid_values(GridSpec(mode, 20, 20))]
    pull_anew, pulled = models.pull, {}

    def pull_once(channel, q):
        if q not in pulled:
            pulled[q] = pull_anew(channel, q)
        return pulled[q]

    monkeypatch.setattr(models, "pull", pull_once)
    assert [(i, j, scalar_key(v)) for i, j, v in grid_values(GridSpec(mode, 20, 20))] == expected
    assert len(pulled) == 2
