"""Seeded fuzzing of ``eval``: every bad model file is an input error.

The built-in medical model file is mutated: scalars become NaN, +-inf,
negative, ``"1/0"``, values at or beyond the float range, huge exact
fractions, booleans, null, strings or lists; sections and entities
become non-objects; the JSON text is cut short.  Each mutant runs
through all 17 ``eval`` operations.  Every run must exit 0 or 2,
raise nothing, and print no ``nan`` or ``inf``.  A second set of
mutants changes only multiplicities: a count so large that an exact
result would outgrow ``core.MAX_EXACT_BITS`` is refused before any
work is done.  A third set keeps every distribution normalised but puts
one weight of one of them at the edge of the float range (a subnormal
such as ``5e-324`` next to ``1.0``), which the first set cannot reach:
one bad weight there breaks the sum.

A last sweep calls the library directly, on a 3-element space, with
operands at the same edges: floats near both ends of the float range,
and exact values with a numerator or a denominator of 300 to 420
digits.  Each call returns, with a finite float if it returns a float,
or raises a ``MultibayesError``.
"""

import json
import math
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from multibayes import (
    Channel,
    Dist,
    Evidence,
    Factor,
    MultibayesError,
    SampleSpace,
    and_conj,
    bayes_update,
    covariance,
    dagger,
    expected_channel_divergence,
    frac_conj,
    free_energy_objective,
    iterated_pearl_validity,
    jeffrey_update,
    jeffrey_validity,
    kl_divergence,
    log_likelihood_score,
    match_status,
    multinomial,
    pearl_update,
    pearl_validity,
    pull,
    push,
    tensor_conj,
    tensor_factor,
    triple_pull,
    vfe_update,
    vfe_update_softmax,
)
from multibayes.cli import main
from multibayes.modelfile import _OPERATIONS, builtin_medical_model, serialize_model

#: One call of each eval operation on the base model below.
EXPRESSIONS = [
    "validity(prior, pt)",
    "jeffrey_validity(prior, three_tests)",
    "pearl_validity(prior, three_tests)",
    "covariance(prior, pt, nt)",
    "bayes_update(prior, pt)",
    "jeffrey_update(prior, three_tests)",
    "pearl_update(prior, three_tests)",
    "vfe_update(prior, three_tests)",
    "flrn(draws)",
    "coefm(draws)",
    "and_conj(three_tests)",
    "match_status(three_tests)",
    "push(test, prior)",
    "pull(test, q)",
    "triple_pull(test, readings)",
    "dagger(test, prior)",
    "kl_divergence(prior, posterior)",
]

#: A number written into the JSON text as is: json.dumps cannot write 1e400.
BEYOND_FLOAT = "1e400"

#: Bad scalars, and valid ones (floats next to exact values, values near
#: the float range) that make bad results; the large ones are listed
#: twice, as it takes two of them to overflow a product.
BAD_SCALARS = [
    float("nan"), float("inf"), -float("inf"), -0.5, "-1/3", "1/0", -1e308, 5e-324, 0.5,
    1e200, 1e200, 1e308, 1e308, BEYOND_FLOAT, 10**400, str(10**400), str(10**400),
    f"{10**400}/{3**700}", f"1/{10**400}", True, False, None, "abc", "", "1.5.2", [0.5], {"p": 1},
]

#: Bad multiplicities, and valid ones from small to far too large.
BAD_COUNTS = [0, 1, 60, 10**3, 10**4, 10**6, 10**9, 10**18, 10**400, -1, 1.5, "2", None, True, [1]]

#: Weights at or near the bottom of the float range, each paired with 1.0.
EDGE_WEIGHTS = [5e-324, 1e-320, 1e-310, 2.2e-308, 1e-300, 1e-200, 0.0]

#: The distributions of the model, (section, name, key) as below.
DISTRIBUTIONS = [("distributions", "prior", "weights"), ("distributions", "posterior", "weights")]

#: Entities whose scalars are mutated: (section, name, key), the key
#: naming the list of scalars (channel rows are handled separately).
SCALAR_LISTS = [
    *DISTRIBUTIONS,
    ("factors", "pt", "values"),
    ("factors", "nt", "values"),
    ("factors", "q", "values"),
]


def base_model() -> dict:
    """The built-in medical model, with the entities that the operations
    on multisets and on the codomain need."""
    model = json.loads(serialize_model(builtin_medical_model()))
    model["distributions"]["posterior"] = {"space": "D", "weights": ["431/5865", "5434/5865"]}
    model["factors"]["q"] = {"space": "T", "values": ["1", "1/2"]}
    model["evidence"]["readings"] = [{"factor": "q", "count": 2}]
    model["multisets"] = {"draws": {"space": "T", "counts": [{"element": "p", "count": 2},
                                                            {"element": "n", "count": 1}]}}
    return model


def scalar_slots(model: dict) -> list[list]:
    """Every list of scalars in the model, channel rows included."""
    slots = [model[section][name][key] for section, name, key in SCALAR_LISTS]
    slots.extend(row["weights"] for row in model["channels"]["test"]["rows"])
    return slots


def count_slots(model: dict) -> list[dict]:
    """Every evidence and multiset entry that holds a count."""
    return [*(entry for entries in model["evidence"].values() for entry in entries),
            *model["multisets"]["draws"]["counts"]]


def mutant(rng: random.Random) -> str:
    """The JSON text of one mutated model."""
    model = base_model()
    kind = rng.random()
    if kind < 0.4:
        for _ in range(rng.randint(1, 4)):
            slot = rng.choice(scalar_slots(model))
            slot[rng.randrange(len(slot))] = rng.choice(BAD_SCALARS)
    elif kind < 0.75:
        # conjunctions and sums combine the evidence factors element by element
        element = rng.randrange(2)
        for name in ("pt", "nt"):
            model["factors"][name]["values"][element] = rng.choice(BAD_SCALARS)
    elif kind < 0.9:
        section = rng.choice(list(model))
        if rng.random() < 0.5:
            model[section] = rng.choice([[], 3, "x", None, True])
        else:
            name = rng.choice(list(model[section]))
            model[section][name] = rng.choice([[], 3, "x", None, {}])
    text = json.dumps(model).replace(json.dumps(BEYOND_FLOAT), BEYOND_FLOAT)
    if kind >= 0.9:
        text = text[: rng.randrange(len(text))]
    return text


def count_mutant(rng: random.Random) -> str:
    """The JSON text of a model with one to three counts mutated."""
    model = base_model()
    for _ in range(rng.randint(1, 3)):
        rng.choice(count_slots(model))["count"] = rng.choice(BAD_COUNTS)
    return json.dumps(model).replace(json.dumps(BEYOND_FLOAT), BEYOND_FLOAT)


def edge_mutant(slot: int, weight: float, first: bool) -> str:
    """The JSON text of the base model with its distribution ``slot``
    (the prior, the posterior, then the channel rows) set to ``[weight,
    1.0]``, or ``[1.0, weight]`` unless ``first``."""
    model = base_model()
    slots = [model[section][name][key] for section, name, key in DISTRIBUTIONS]
    slots.extend(row["weights"] for row in model["channels"]["test"]["rows"])
    slots[slot][:] = [weight, 1.0] if first else [1.0, weight]
    return json.dumps(model)


def run_mutant(text: str, path, capsys) -> None:
    """Every operation on the model ``text`` exits 0 or 2, raises
    nothing and prints no ``nan`` or ``inf``."""
    path.write_text(text, encoding="utf-8")
    for expr in EXPRESSIONS:
        try:
            code = main(["eval", "--model", str(path), "--expr", expr])
        except Exception as exc:  # noqa: BLE001 - the mutant is the report
            pytest.fail(f"{expr} raised {exc!r} on {text}")
        out = capsys.readouterr().out.lower()
        assert code in (0, 2), (expr, text)
        assert "nan" not in out and "inf" not in out, (expr, text, out)


def test_every_operation_is_exercised():
    assert sorted(expr.partition("(")[0] for expr in EXPRESSIONS) == sorted(_OPERATIONS)


def test_base_model_evaluates(tmp_path, capsys):
    path = tmp_path / "base.json"
    path.write_text(json.dumps(base_model()), encoding="utf-8")
    for expr in EXPRESSIONS:
        assert main(["eval", "--model", str(path), "--expr", expr]) == 0, expr
    capsys.readouterr()


@pytest.mark.parametrize("seed", range(20))
def test_mutated_models_are_input_errors(seed, tmp_path, capsys):
    rng = random.Random(seed)
    for _ in range(10):
        run_mutant(mutant(rng), tmp_path / "mutant.json", capsys)


@pytest.mark.parametrize("seed", range(20))
def test_mutated_counts_are_input_errors(seed, tmp_path, capsys):
    rng = random.Random(f"counts {seed}")
    for _ in range(5):
        run_mutant(count_mutant(rng), tmp_path / "mutant.json", capsys)


@pytest.mark.parametrize("slot", range(4), ids=["prior", "posterior", "row d", "row ~d"])
def test_edge_weights_are_results_or_input_errors(slot, tmp_path, capsys):
    for weight in EDGE_WEIGHTS:
        for first in (True, False):
            run_mutant(edge_mutant(slot, weight, first), tmp_path / "mutant.json", capsys)


SPACE = SampleSpace("abc")


def _digits(rng: random.Random) -> int:
    """An int of 300 to 420 digits."""
    n = rng.randint(300, 420)
    return rng.randint(10 ** (n - 1), 10**n - 1)


#: Floats at both ends of the float range.
FLOATS = (0.0, 1e-310, 1e-200, 0.25, 0.5, 1.0, 3.0, 1e200)

#: Exact values: small ones, and ones with a huge numerator or a huge denominator.
EXACT_POOLS = (
    lambda rng: Fraction(rng.randint(0, 6), rng.randint(1, 6)),
    lambda rng: Fraction(_digits(rng), rng.randint(1, 6)),
    lambda rng: Fraction(rng.randint(1, 6), _digits(rng)),
)

#: Exponents of ``p ** k``: exact ones, negative ones, floats and a
#: non-integer one beyond the float range.
EXPONENTS = (-2, -1, 0, 1, 2, 5, 0.5, 2.5, Fraction(10**400, 3))


def _values(rng: random.Random) -> list:
    """An operand's values: all floats, or exact ones from any exact pool each
    (a float next to an exact value beyond the float range is refused)."""
    if rng.random() < 0.25:
        return [rng.choice(FLOATS) for _ in SPACE]
    return [rng.choice(EXACT_POOLS)(rng) for _ in SPACE]


def _dist(rng: random.Random) -> Dist:
    values = _values(rng)
    if not any(values):
        values[0] += 1
    total = sum(values)
    return Dist(SPACE, [v / total for v in values])


def _operands(rng: random.Random) -> SimpleNamespace:
    factors = [Factor(SPACE, _values(rng)) for _ in range(rng.randint(1, 3))]
    return SimpleNamespace(
        omega=_dist(rng),
        rho=_dist(rng),
        p=Factor(SPACE, _values(rng)),
        q=Factor(SPACE, _values(rng)),
        psi=Evidence((f, rng.randint(1, 3)) for f in factors),
        c=Channel(SPACE, SPACE, [_dist(rng) for _ in SPACE]),
        size=rng.randint(0, 4),
        k=rng.choice(EXPONENTS),
    )


#: Every public call of the sweep, on the operands of one case.
CALLS = {
    "bayes_update": lambda x: bayes_update(x.omega, x.p),
    "jeffrey_update": lambda x: jeffrey_update(x.omega, x.psi),
    "pearl_update": lambda x: pearl_update(x.omega, x.psi),
    "vfe_update": lambda x: vfe_update(x.omega, x.psi),
    "vfe_update_softmax": lambda x: vfe_update_softmax(x.omega, x.psi),
    "jeffrey_validity": lambda x: jeffrey_validity(x.omega, x.psi),
    "pearl_validity": lambda x: pearl_validity(x.omega, x.psi),
    "iterated_pearl_validity": lambda x: iterated_pearl_validity(x.omega, [p for p, _ in x.psi.items()]),
    "free_energy_objective": lambda x: free_energy_objective(x.rho, x.omega, x.psi),
    "log_likelihood_score": lambda x: log_likelihood_score(x.omega, x.rho, x.psi),
    "covariance": lambda x: covariance(x.omega, x.p, x.q),
    "and_conj": lambda x: and_conj(x.psi),
    "frac_conj": lambda x: frac_conj(x.psi),
    "tensor_conj": lambda x: tensor_conj(x.psi),
    "match_status": lambda x: match_status(x.psi),
    "push": lambda x: push(x.c, x.omega),
    "pull": lambda x: pull(x.c, x.p),
    "triple_pull": lambda x: triple_pull(x.c, x.psi),
    "dagger": lambda x: dagger(x.c, x.omega),
    "kl_divergence": lambda x: kl_divergence(x.omega, x.rho),
    "expected_channel_divergence": lambda x: expected_channel_divergence(x.omega, x.rho, x.c),
    "p ** k": lambda x: x.p ** x.k,
    "tensor_factor": lambda x: tensor_factor(x.p, x.q),
    "multinomial": lambda x: multinomial(x.size, x.omega),
}


@pytest.mark.parametrize("seed", range(10))
def test_library_calls_return_or_raise_typed_errors(seed):
    """30 cases a seed: every call returns, a float result finite, or
    raises a MultibayesError."""
    rng = random.Random(f"library {seed}")
    for _ in range(30):
        x = _operands(rng)
        for name, call in CALLS.items():
            try:
                result = call(x)
            except MultibayesError:
                continue
            except Exception as exc:  # noqa: BLE001 - the case is the report
                raise AssertionError(f"{name} raised {exc!r} on {x}") from exc
            assert not isinstance(result, float) or math.isfinite(result), (name, result, x)
