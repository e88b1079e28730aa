"""Exact sweeps of the increase theorems over the paper's own grid and
over two small families, every instance of each.

The medical model meets the evidence ``i|pos> + j|neg>`` for every
0 <= i, j <= 60 but i = j = 0: the 3,720 cells of the 60x60 grids.  On
every cell, in exact arithmetic, Jeffrey's update does not lower the
Jeffrey validity and Pearl's update does not lower the Pearl validity.
The Pearl validity after the VFE update lies between its value before
any update and its value after Pearl's update.  The crossed validities
do fall, on a pinned number of cells.

The small families hold every prior on a few elements with weights on a
fixed grid, met by every pair of distinct factors valued on a grid, so
zero weights and zero values occur.  The same three inequalities hold
on each of their instances.
"""

import itertools
from fractions import Fraction

import pytest

from multibayes import (
    Dist,
    Evidence,
    Factor,
    SampleSpace,
    SizeLimitError,
    ZeroValidityError,
    jeffrey_update,
    jeffrey_validity,
    pearl_update,
    pearl_validity,
    vfe_update,
)
from multibayes.models import medical_model

MEDICAL = medical_model()
CELLS = [(i, j) for i in range(61) for j in range(61) if i or j]
PRIOR = MEDICAL.prior


def _falls(update, evidence_validity) -> tuple[int, int]:
    """The number of cells where ``update`` lowers ``evidence_validity``,
    and the number refused as too large to compute exactly."""
    falls = refused = 0
    for i, j in CELLS:
        psi = MEDICAL.evidence(i, j)
        try:
            falls += evidence_validity(update(PRIOR, psi), psi) < evidence_validity(PRIOR, psi)
        except SizeLimitError:
            refused += 1
    return falls, refused


def test_the_grid_has_3720_cells():
    assert len(CELLS) == 3720


@pytest.mark.parametrize(
    "update, evidence_validity", [(jeffrey_update, jeffrey_validity), (pearl_update, pearl_validity)], ids=["jeffrey", "pearl"]
)
def test_an_update_never_lowers_its_own_validity_on_the_grid(update, evidence_validity):
    assert _falls(update, evidence_validity) == (0, 0)


def _vfe_outside(prior, psi, pearl_posterior) -> bool:
    """Whether the Pearl validity after the VFE update lies outside its
    values before any update and after Pearl's; the VFE update is float,
    so by more than a relative 1e-9."""
    before = float(pearl_validity(prior, psi))
    via_vfe = pearl_validity(vfe_update(prior, psi), psi)
    via_pearl = float(pearl_validity(pearl_posterior, psi))
    return before > via_vfe * (1 + 1e-9) or via_vfe > via_pearl * (1 + 1e-9)


def test_the_vfe_update_lies_between_no_update_and_pearls_on_the_grid():
    cells = [(i, j, MEDICAL.evidence(i, j)) for i, j in CELLS]
    assert [(i, j) for i, j, psi in cells if _vfe_outside(PRIOR, psi, pearl_update(PRIOR, psi))] == []


def test_the_pearl_validity_falls_after_jeffreys_update_on_1479_cells():
    assert _falls(jeffrey_update, pearl_validity) == (1479, 0)


@pytest.mark.parametrize("limit, expected", [(None, (847, 1043)), (100_000, (1547, 0))], ids=["default-limit", "raised-limit"])
def test_the_jeffrey_validity_falls_after_pearls_update_on_1547_cells(limit, expected, monkeypatch):
    # the exact Jeffrey validity of a Pearl posterior outgrows the default
    # size guard on 1,043 cells; with the guard raised every cell is decided
    if limit is not None:
        monkeypatch.setattr("multibayes.core.MAX_EXACT_BITS", limit)
    assert _falls(pearl_update, jeffrey_validity) == expected


def _family(size: int, prior_den: int, factor_den: int, counts: list) -> list:
    """Every prior on ``size`` elements with weights in 1/``prior_den``,
    met by every unordered pair of distinct factors valued in
    1/``factor_den`` at every pair of ``counts``."""
    space = SampleSpace("abc"[:size])
    weights = itertools.product(range(prior_den + 1), repeat=size)
    priors = [Dist(space, [Fraction(k, prior_den) for k in ks]) for ks in weights if sum(ks) == prior_den]
    values = itertools.product(range(factor_den + 1), repeat=size)
    pairs = list(itertools.combinations([Factor(space, [Fraction(k, factor_den) for k in ks]) for ks in values], 2))
    return [(omega, Evidence(((p, m), (q, n)))) for omega in priors for p, q in pairs for m, n in counts]


FAMILIES = {
    # two elements in quarters, counts 1 to 3 each: 5 priors, 300 pairs, 9 counts
    "quarters": ((2, 4, 4, list(itertools.product((1, 2, 3), repeat=2))), 10_440, 3_060),
    # three elements, priors in thirds and factors in halves, count 1 each: 10 priors, 351 pairs
    "thirds-halves": ((3, 3, 2, [(1, 1)]), 2_188, 1_322),
}


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_no_rule_lowers_its_own_validity_and_vfe_lies_between_on_small_families(family):
    """A case is skipped when either evidence validity is 0 or Jeffrey's
    or Pearl's update refuses it; a VFE update that refuses skips only
    the sandwich."""
    shape, decided_cases, skipped_cases = FAMILIES[family]
    decided = skipped = 0
    falls, outside = [], []
    for omega, psi in _family(*shape):
        before_jeffrey, before_pearl = jeffrey_validity(omega, psi), pearl_validity(omega, psi)
        if before_jeffrey == 0 or before_pearl == 0:
            skipped += 1
            continue
        try:
            jeffrey, pearl = jeffrey_update(omega, psi), pearl_update(omega, psi)
        except ZeroValidityError:
            skipped += 1
            continue
        decided += 1
        if jeffrey_validity(jeffrey, psi) < before_jeffrey or pearl_validity(pearl, psi) < before_pearl:
            falls.append((omega, psi))
        try:
            if _vfe_outside(omega, psi, pearl):
                outside.append((omega, psi))
        except ZeroValidityError:
            pass
    assert (falls, outside) == ([], [])
    assert (decided, skipped) == (decided_cases, skipped_cases)
