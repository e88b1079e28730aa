"""Exact sweeps of the increase theorems over the paper's own grid.

The medical model meets the evidence ``i|pos> + j|neg>`` for every
0 <= i, j <= 60 but i = j = 0: the 3,720 cells of the 60x60 grids.  On
every cell, in exact arithmetic, Jeffrey's update does not lower the
Jeffrey validity and Pearl's update does not lower the Pearl validity.
The Pearl validity after the VFE update lies between its value before
any update and its value after Pearl's update.  The crossed validities
do fall, on a pinned number of cells.
"""

import pytest

from multibayes import (
    Evidence,
    SizeLimitError,
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


def _evidence(i: int, j: int) -> Evidence:
    return Evidence(((MEDICAL.pos_test, i), (MEDICAL.neg_test, j)))


def _falls(update, evidence_validity) -> tuple[int, int]:
    """The number of cells where ``update`` lowers ``evidence_validity``,
    and the number refused as too large to compute exactly."""
    falls = refused = 0
    for i, j in CELLS:
        psi = _evidence(i, j)
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


def test_the_vfe_update_lies_between_no_update_and_pearls_on_the_grid():
    # the VFE update is float, so the sandwich holds within a relative 1e-9
    outside = []
    for i, j in CELLS:
        psi = _evidence(i, j)
        before = float(pearl_validity(PRIOR, psi))
        via_vfe = pearl_validity(vfe_update(PRIOR, psi), psi)
        via_pearl = float(pearl_validity(pearl_update(PRIOR, psi), psi))
        if before > via_vfe * (1 + 1e-9) or via_vfe > via_pearl * (1 + 1e-9):
            outside.append((i, j))
    assert outside == []


def test_the_pearl_validity_falls_after_jeffreys_update_on_1479_cells():
    assert _falls(jeffrey_update, pearl_validity) == (1479, 0)


@pytest.mark.parametrize("limit, expected", [(None, (847, 1043)), (100_000, (1547, 0))], ids=["default-limit", "raised-limit"])
def test_the_jeffrey_validity_falls_after_pearls_update_on_1547_cells(limit, expected, monkeypatch):
    # the exact Jeffrey validity of a Pearl posterior outgrows the default
    # size guard on 1,043 cells; with the guard raised every cell is decided
    if limit is not None:
        monkeypatch.setattr("multibayes.core.MAX_EXACT_BITS", limit)
    assert _falls(pearl_update, jeffrey_validity) == expected
