"""Properties of multisets: accumulation, multinomial coefficients and normalisation."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from ..core import SampleSpace
from ..distribution import flrn
from ..multiset import acc, coefm, enumerate_multisets
from . import _law, _point_multiset, _register, _space


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
