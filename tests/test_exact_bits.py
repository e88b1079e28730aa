"""The bit-length guard: exact results too large to compute are refused.

The guard estimates the size of an exact conjunction (``and_conj``,
``conj`` and ``&`` alike), factor power,
tensor product, evidence validity, multinomial coefficient or
multinomial distribution before computing it and raises SizeLimitError
(CLI exit 2) above ``core.MAX_EXACT_BITS``.
Every test lowers the limit, so nothing large is ever computed.
"""

import json
from fractions import Fraction

import pytest

from multibayes import (
    Dist,
    Evidence,
    Factor,
    Multiset,
    SampleSpace,
    SizeLimitError,
    and_conj,
    coefm,
    conj,
    jeffrey_update,
    jeffrey_validity,
    multinomial,
    pearl_update,
    pearl_validity,
    tensor,
    tensor_conj,
    tensor_factor,
    tensor_power,
)
from multibayes.cli import main
from multibayes.modelfile import builtin_medical_model, serialize_model

D = SampleSpace(("d", "~d"))
PRIOR = Dist(D, (Fraction(1, 20), Fraction(19, 20)))
PT = Factor(D, (Fraction(9, 10), Fraction(2, 5)))  # counted as ceil(log2(10)) = 4 bits a power
NT = Factor(D, (Fraction(1, 10), Fraction(3, 5)))


@pytest.fixture
def limit(monkeypatch):
    monkeypatch.setattr("multibayes.core.MAX_EXACT_BITS", 100)


def test_conjunction_is_refused_above_the_limit(limit):
    assert and_conj(Evidence(((PT, 15), (NT, 10)))).values[0] == Fraction(9**15, 10**25)  # 100 bits
    psi = Evidence(((PT, 15), (NT, 11)))
    with pytest.raises(SizeLimitError, match="conjunction with about 104 bits"):
        and_conj(psi)
    with pytest.raises(SizeLimitError):
        pearl_update(PRIOR, psi)
    with pytest.raises(SizeLimitError):
        pearl_validity(PRIOR, psi)
    assert (PT**25).values[1] == Fraction(2**25, 5**25)
    with pytest.raises(SizeLimitError, match="factor power"):
        PT**26


def test_binary_conjunction_is_guarded_as_and_conj(limit):
    # the largest ints 2**50 and 2**50 count 100 bits; 2**50 and 2**51, 101
    p = _factor(1, Fraction(1, 2**50))
    for q, refused in ((_factor(Fraction(1, 2**50), 1), False), (_factor(Fraction(1, 2**51), 1), True)):
        calls = (lambda: and_conj(Evidence(((p, 1), (q, 1)))), lambda: conj(p, q), lambda: p & q)
        if refused:
            for call in calls:
                with pytest.raises(SizeLimitError, match="^conjunction with about 101 bits refused$"):
                    call()
        else:
            assert {call() for call in calls} == {Factor(p.space, (Fraction(1, 2**50), Fraction(1, 2**50)))}


def test_bit_counts_beyond_printable_ints_are_refused(limit):
    # 10**5000 copies: a count of more digits than Python prints an int with
    huge = 10**5000
    psi = Evidence(((PT, huge),))
    calls = (lambda: PT**huge, lambda: and_conj(psi), lambda: jeffrey_validity(PRIOR, psi), lambda: pearl_validity(PRIOR, psi))
    for call in calls:
        with pytest.raises(SizeLimitError, match=r"with about \d\.\d{11}E\+500\d bits refused$"):
            call()


def test_float_factors_are_not_counted(limit):
    floats = Factor(D, (0.9, 0.4))
    assert and_conj(Evidence(((floats, 10**6), (PT, 25)))).values[1] == 0.0


def test_evidence_validity_is_refused_above_the_limit(limit):
    # the validities 17/40 and 23/40 count as ceil(log2(40)) = 6 bits a
    # power; the coefficient C(14, 7) takes 11.8 bits (98 counted at most),
    # C(16, 8) 13.7 bits (109.7 in all)
    assert jeffrey_validity(PRIOR, Evidence(((PT, 7), (NT, 7)))) > 0
    psi = Evidence(((PT, 8), (NT, 8)))
    with pytest.raises(SizeLimitError, match="validity of the evidence"):
        jeffrey_validity(PRIOR, psi)
    assert jeffrey_update(PRIOR, psi).is_exact  # needs no powers


def test_coefficient_is_refused_before_the_factorial(limit):
    s = SampleSpace("ab")
    assert coefm(Multiset(s, (10**9, 0))) == 1
    assert coefm(Multiset(s, (10**9, 1))) == 10**9 + 1
    assert coefm(Multiset(s, (50, 50))) == 100891344545564193334812497256  # C(100, 50), 96 bits
    with pytest.raises(SizeLimitError, match="multinomial coefficient"):
        coefm(Multiset(s, (55, 55)))
    with pytest.raises(SizeLimitError):
        Evidence(((PT, 10**9), (NT, 10**9))).coefficient()
    with pytest.raises(SizeLimitError):  # beyond the float range of the estimate
        coefm(Multiset(s, (10**400, 10**400)))


def test_multinomial_is_refused_above_the_limit(limit):
    omega = Dist(SampleSpace("ab"), (Fraction(1, 3), Fraction(2, 3)))
    assert multinomial(50, omega).is_exact  # 3**50 counts as 2 bits a draw
    with pytest.raises(SizeLimitError, match="multinomial"):
        multinomial(51, omega)


def test_eval_exits_2_on_a_refused_result(limit, tmp_path, capsys):
    model = json.loads(serialize_model(builtin_medical_model()))
    model["evidence"]["many"] = [{"factor": "pt", "count": 40}, {"factor": "nt", "count": 1}]
    path = tmp_path / "many.json"
    path.write_text(json.dumps(model), encoding="utf-8")
    for expr in ("pearl_validity(prior, many)", "jeffrey_validity(prior, many)", "and_conj(many)",
                 "pearl_update(prior, many)"):
        assert main(["eval", "--model", str(path), "--expr", expr]) == 2, expr
        captured = capsys.readouterr()
        assert captured.out == "" and "bits refused" in captured.err
    assert main(["eval", "--model", str(path), "--expr", "jeffrey_update(prior, many)"]) == 0


def _dist(bits):
    """A distribution on ab whose largest int is ``2**bits``, counted as ``bits`` bits."""
    return Dist(SampleSpace("ab"), (Fraction(1, 2**bits), 1 - Fraction(1, 2**bits)))


def _factor(*values):
    return Factor(SampleSpace("ab"), values)


def _to_float(vector):
    return type(vector)(vector.space, [float(v) for _, v in vector.items()])


# each tensor product at the limit and one step past it: the bits of
# each operand's largest int, added
TENSOR_PRODUCTS = [
    (tensor, (_dist(50), _dist(50)), (_dist(50), _dist(51)), 101),
    (tensor_power, (_dist(20), 5), (_dist(20), 6), 120),
    (tensor_factor, (_factor(2**50, 1), _factor(1, 2**50)), (_factor(2**50, 1), _factor(1, 2**50 + 1)), 101),
    (tensor_conj, (Evidence(((_factor(1, Fraction(1, 2**20)), 4), (_factor(Fraction(1, 2**20), 1), 1))),),
     (Evidence(((_factor(1, Fraction(1, 2**20)), 4), (_factor(Fraction(1, 2**21), 1), 1))),), 101),
]


@pytest.mark.parametrize("op, below, above, bits", TENSOR_PRODUCTS, ids=[row[0].__name__ for row in TENSOR_PRODUCTS])
def test_tensor_products_are_refused_above_the_limit(limit, op, below, above, bits):
    assert all(type(v) is Fraction for _, v in op(*below).items())
    with pytest.raises(SizeLimitError, match=f"tensor product with about {bits} bits refused"):
        op(*above)


@pytest.mark.parametrize("op, below, above, bits", TENSOR_PRODUCTS, ids=[row[0].__name__ for row in TENSOR_PRODUCTS])
def test_float_tensor_products_are_not_refused(limit, op, below, above, bits):
    if op is tensor_conj:
        floats = (Evidence([(_to_float(f), count) for f, count in above[0].items()]),)
    else:
        floats = tuple(_to_float(a) if isinstance(a, (Dist, Factor)) else a for a in above)
    assert all(type(v) is float for _, v in op(*floats).items())


def test_one_estimate_serves_every_guarded_result():
    # a 3**2000 denominator at count 10: ceil(log2(3**2000)) = 3170 bits, 31700 in all
    omega = Dist(SampleSpace("ab"), (Fraction(1, 3**2000), 1 - Fraction(1, 3**2000)))
    p = Factor(omega.space, omega.weights)
    refused = [
        ("conjunction", lambda: and_conj(Evidence(((p, 10),)))),
        ("conjunction", lambda: conj(p, Factor(omega.space, (1, Fraction(1, 2**28530))))),  # 3170 + 28530 bits
        ("factor power", lambda: p**10),
        ("multinomial", lambda: multinomial(10, omega)),
        ("tensor product", lambda: tensor_power(omega, 10)),
        ("tensor product", lambda: tensor_conj(Evidence(((p, 10),)))),
    ]
    for what, call in refused:
        with pytest.raises(SizeLimitError, match=f"^{what} with about 31700 bits refused$"):
            call()
