"""Planted defects: ``check`` can fail.

Each case rebinds one or two of the names that ``properties.py``
imports to a wrong rule, then runs the whole suite.  The suite must
report at least one ``FAIL``, and among them the property named in the
table, which tells the wrong rule from the right one, at the trial and
with the detail the table pins.  A property that raises under the defect
counts as failed.
"""

import pytest

from multibayes import properties
from multibayes.divergence import kl_divergence
from multibayes.update import jeffrey_update, pearl_update
from multibayes.validity import jeffrey_validity, pearl_validity

#: defect -> (the wrong rule bound to each name in ``properties``, a property that must
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
}


@pytest.mark.parametrize("seed", [0, 42])
@pytest.mark.parametrize("defect", DEFECTS)
def test_a_planted_defect_fails_the_suite(defect, seed, monkeypatch):
    rebound, separating, pinned = DEFECTS[defect]
    for name, wrong in rebound.items():
        monkeypatch.setattr(properties, name, wrong)
    results = properties.run_suite("all", 20, seed)
    assert len(results) == len(properties.PROPERTIES)
    failed = {r.prop_id: (r.trials, r.detail) for r in results if not r.passed}
    assert separating in failed, sorted(failed)
    # the trial that broke, and the law it broke, as the separating property reports them
    assert failed[separating] == pinned[seed]


def test_a_witness_search_that_finds_none_fails_after_its_full_budget(monkeypatch):
    rebound, prop_id, _ = DEFECTS["kl-symmetric"]
    monkeypatch.setattr(properties, "kl_divergence", rebound["kl_divergence"])
    (result,) = properties.run_suite(prop_id, 25, 0)
    assert (result.passed, result.trials, result.detail) == (False, 25, "divergence looked symmetric on every trial")
