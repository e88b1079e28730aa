"""Planted defects: ``check`` can fail.

Each case rebinds one or two of the names that the registry's modules
import or define to a wrong rule or a broken helper, in every module
that holds the name, then runs the whole suite.  The suite must report
at least one ``FAIL``, and among them the property named in the table,
which tells the wrong rule from the right one, at the trial and with
the detail the table pins.  A property that raises under the defect
counts as failed.  Besides the eight wrong rules, the table breaks every
law of the whole-run properties, so each of their failure messages is
pinned, and the builder of the paper's validity examples in
``models.py``.  Each case runs under a wall-clock guard, so a property
that loops forever under a defect fails its case instead of stalling
the run.
"""

import signal

import pytest

from multibayes import properties
from multibayes.channel import identity_channel
from multibayes.divergence import kl_divergence
from multibayes.evidence import Evidence, truth
from multibayes.models import ValidityExamples, validity_examples
from multibayes.update import _free_energy, jeffrey_update, pearl_update
from multibayes.validity import jeffrey_validity, pearl_validity
from registry import rebind


#: seconds a case may run; a whole 20-trial suite takes well under one
GUARD_SECONDS = 60


class _Stalled(BaseException):
    """The guard's signal: not an Exception, so ``run_suite`` does not report it as one property's failure."""


@pytest.fixture(autouse=True)
def _wall_clock_guard():
    def stall(signum, frame):
        raise _Stalled(f"still running after {GUARD_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, stall)
    signal.setitimer(signal.ITIMER_REAL, GUARD_SECONDS)
    yield
    signal.setitimer(signal.ITIMER_REAL, 0)
    signal.signal(signal.SIGALRM, previous)


def _always(*pairs):
    return True


def _identity_channel(rng, *args, **kwargs):
    space = properties._space(rng, max_size=4)
    return identity_channel(space), properties._dist(rng, space)


def _examples_without_their_last_factor():
    return ValidityExamples(*[(omega, Evidence(list(psi.items())[:-1])) for omega, psi in validity_examples()])


#: defect -> (the wrong rule bound to each name in the registry, a property that must
#: fail, and that property's (trials, detail) at seeds 0 and 42 of a 20-trial run)
DEFECTS = {
    "jeffrey-as-pearl": (
        {"jeffrey_update": pearl_update},
        "jeffrey-scale-invariant",
        {
            0: (2, "3-fold evidence changed the Jeffrey update"),
            42: (2, "3-fold evidence changed the Jeffrey update"),
        },
    ),
    "pearl-as-jeffrey": (
        {"pearl_update": jeffrey_update},
        "pearl-composes",
        {
            0: (1, "successive Pearl updates != combined update"),
            42: (1, "successive Pearl updates != combined update"),
        },
    ),
    "vfe-as-pearl": (
        {"vfe_update": pearl_update},
        "vfe-forms-agree",
        {
            0: (2, "softmax and conjunction forms differ at 'a'"),
            42: (1, "softmax and conjunction forms differ at 'a'"),
        },
    ),
    "jeffrey-validity-as-pearl": (
        {"jeffrey_validity": pearl_validity},
        "jeffrey-along-channel",
        {
            0: (1, "Jeffrey validity along the channel broke"),
            42: (1, "Jeffrey validity along the channel broke"),
        },
    ),
    "pearl-validity-as-jeffrey": (
        {"pearl_validity": jeffrey_validity},
        "pearl-product-bayes",
        {
            0: (1, "coefficient bookkeeping of the evidence product rule broken"),
            42: (1, "coefficient bookkeeping of the evidence product rule broken"),
        },
    ),
    "bayes-as-identity": (
        {"bayes_update": lambda omega, p: omega},
        "bayes-laws",
        {
            0: (1, "conditioning on a point predicate missed dirac('b')"),
            42: (1, "conditioning on a point predicate missed dirac('b')"),
        },
    ),
    "kl-swapped": (
        {"kl_divergence": lambda rho, sigma: kl_divergence(sigma, rho)},
        "vfe-argmin",
        {
            0: (20, "raised SupportMismatchError: divergence undefined: 'd' outside second support"),
            42: (20, "raised SupportMismatchError: divergence undefined: 'd' outside second support"),
        },
    ),
    "kl-symmetric": (
        {"kl_divergence": lambda sigma, rho: (kl_divergence(sigma, rho) + kl_divergence(rho, sigma)) / 2},
        "dkl-asymmetry-witness",
        {
            0: (20, "divergence looked symmetric on every trial"),
            42: (20, "divergence looked symmetric on every trial"),
        },
    ),
    "jeffrey-validity-negated": (
        {"jeffrey_validity": lambda omega, psi: -jeffrey_validity(omega, psi)},
        "point-evidence-argmax",
        {
            0: (20, "candidate 0|a> + 1|b> beats the frequency distribution"),
            42: (20, "candidate 0|a> + 1|b> beats the frequency distribution"),
        },
    ),
    "jeffrey-validity-negated-on-three-elements": (
        {
            "jeffrey_validity": lambda omega, psi: (
                -jeffrey_validity(omega, psi) if len(omega.space) == 3 else jeffrey_validity(omega, psi)
            )
        },
        "point-evidence-argmax",
        {
            0: (20, "candidate 0|a> + 0|b> + 1|c> beats the frequency distribution"),
            42: (20, "candidate 0|a> + 0|b> + 1|c> beats the frequency distribution"),
        },
    ),
    "validity-grids-a-gap-of-one": (
        {"grid_values": lambda spec: [(1, 1, int(spec.mode == "jeffrey-validity"))]},
        "jeffrey-pearl-grid-gap",
        {
            0: (1, "validity gap 1.0 >= 0.033 somewhere on the grid"),
            42: (1, "validity gap 1.0 >= 0.033 somewhere on the grid"),
        },
    ),
    "jeffrey-as-pearl-in-order": (
        {"jeffrey_update": pearl_update},
        "jeffrey-order",
        {
            0: (1, "fixed order pair (0.0028, 0.0028) != (0.059, 0.061)"),
            42: (1, "fixed order pair (0.0028, 0.0028) != (0.059, 0.061)"),
        },
    ),
    "jeffrey-as-pearl-in-order-figures-unchecked": (
        {"jeffrey_update": pearl_update, "_figures": _always},
        "jeffrey-order",
        {
            0: (1, "fixed instance unexpectedly order-insensitive"),
            42: (1, "fixed instance unexpectedly order-insensitive"),
        },
    ),
    # every draw has size 1, so a property that redrew until a larger evidence size would loop forever
    "evidence-only-truth": (
        {"_evidence": lambda rng, space, **kwargs: Evidence([(truth(space), 1)])},
        "jeffrey-order",
        {
            0: (20, "no random order-sensitivity witness found"),
            42: (20, "no random order-sensitivity witness found"),
        },
    ),
    "vfe-as-identity": (
        {"vfe_update": lambda omega, psi: omega},
        "vfe-sandwich",
        {
            0: (1, "fixed pair (0.4888, 0.4888) != (0.489, 0.486)"),
            42: (1, "fixed pair (0.4888, 0.4888) != (0.489, 0.486)"),
        },
    ),
    "vfe-as-identity-figures-unchecked": (
        {"vfe_update": lambda omega, psi: omega, "_figures": _always},
        "vfe-sandwich",
        {
            0: (1, "expected a Jeffrey-validity decrease under the VFE update"),
            42: (1, "expected a Jeffrey-validity decrease under the VFE update"),
        },
    ),
    "free-energy-as-first-weight": (
        {"_free_energy": lambda rho, posteriors: float(rho.weights[0])},
        "vfe-argmin",
        {
            0: (20, "candidate 0|d> + 1|~d> beat the VFE update"),
            42: (20, "candidate 0|d> + 1|~d> beat the VFE update"),
        },
    ),
    "kl-zero": (
        {"kl_divergence": lambda sigma, rho, base=None: 0.0},
        "vfe-argmin",
        {
            0: (20, "objective gap != divergence for 0|d> + 1|~d>"),
            42: (20, "objective gap != divergence for 0|d> + 1|~d>"),
        },
    ),
    "free-energy-as-minus-first-weight-on-three-elements": (
        {
            "_free_energy": lambda rho, posteriors: (
                -float(rho.weights[0]) if len(rho.space) == 3 else _free_energy(rho, posteriors)
            )
        },
        "vfe-argmin",
        {
            0: (20, "grid candidate 2/5|a> + 0|b> + 3/5|c> beat the VFE update"),
            42: (20, "grid candidate 7/50|a> + 0|b> + 43/50|c> beat the VFE update"),
        },
    ),
    "pearl-validity-as-jeffrey-along-channel": (
        {"pearl_validity": jeffrey_validity},
        "pearl-along-channel-fails",
        {
            0: (1, "expected the fixed point-evidence instance to disagree"),
            42: (1, "expected the fixed point-evidence instance to disagree"),
        },
    ),
    "channels-only-identity": (
        {"_channel": _identity_channel},
        "pearl-along-channel-fails",
        {
            0: (20, "Pearl validity never disagreed along random channels"),
            42: (20, "Pearl validity never disagreed along random channels"),
        },
    ),
    "grids-empty": (
        {"grid_values": lambda spec: []},
        "vfe-divergence-failure-grid",
        {
            0: (1, "0 cells with increased divergence, expected 37"),
            42: (1, "0 cells with increased divergence, expected 37"),
        },
    ),
    "validity-examples-drop-a-factor": (
        {"validity_examples": _examples_without_their_last_factor},
        "nonmatching-escape",
        {
            0: (1, "non-matching Jeffrey validity 9/16 != 19773/12800"),
            42: (1, "non-matching Jeffrey validity 9/16 != 19773/12800"),
        },
    ),
    "jeffrey-validity-as-pearl-in-the-gap-examples": (
        {"jeffrey_validity": pearl_validity},
        "jeffrey-pearl-gap-examples",
        {
            0: (1, "wide-gap pair (0.0276, 0.0276) != (0.479, 0.028)"),
            42: (1, "wide-gap pair (0.0276, 0.0276) != (0.479, 0.028)"),
        },
    ),
    "jeffrey-validity-as-pearl-in-the-gap-examples-figures-unchecked": (
        {"jeffrey_validity": pearl_validity, "_figures": _always},
        "jeffrey-pearl-gap-examples",
        {
            0: (1, "expected Pearl above Jeffrey in the reversal pair"),
            42: (1, "expected Pearl above Jeffrey in the reversal pair"),
        },
    ),
    "vfe-as-identity-on-the-grid-cell": (
        {"vfe_update": lambda omega, psi: omega},
        "vfe-divergence-failure-grid",
        {
            0: (1, "(1,1) divergences (0.0164, 0.0164) off"),
            42: (1, "(1,1) divergences (0.0164, 0.0164) off"),
        },
    ),
}


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("defect", DEFECTS)
def test_a_planted_defect_fails_the_suite(defect, seed, monkeypatch):
    rebound, separating, pinned = DEFECTS[defect]
    for name, wrong in rebound.items():
        rebind(monkeypatch, name, wrong)
    results = properties.run_suite("all", 20, seed)
    assert len(results) == len(properties.PROPERTIES)
    failed = {r.prop_id: (r.trials, r.detail) for r in results if not r.passed}
    assert separating in failed, sorted(failed)
    # the trial that broke, and the law it broke, as the separating property reports them
    assert failed[separating] == pinned[seed]


def test_a_witness_search_that_finds_none_fails_after_its_full_budget(monkeypatch):
    rebound, prop_id, _ = DEFECTS["kl-symmetric"]
    rebind(monkeypatch, "kl_divergence", rebound["kl_divergence"])
    (result,) = properties.run_suite(prop_id, 25, 0)
    assert (result.passed, result.trials, result.detail) == (False, 25, "divergence looked symmetric on every trial")
