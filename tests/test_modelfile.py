"""Model files: schema, round-trips and expression evaluation."""

import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from multibayes import Channel, Dist, Evidence, ExprParseError, Factor, ModelError, SampleSpace
from multibayes.modelfile import (
    Model,
    builtin_medical_model,
    eval_expression,
    format_result,
    load_model,
    parse_model,
    save_model,
    serialize_model,
)
from multibayes.multiset import Multiset
from multibayes.validity import validity

README = Path(__file__).resolve().parent.parent / "README.md"
SECTIONS = ["spaces", "distributions", "factors", "multisets", "evidence", "channels"]

URN_MODEL = {
    "spaces": {"C": {"elements": ["R", "B", "G"]}},
    "multisets": {
        "urn": {
            "space": "C",
            "counts": [
                {"element": "R", "count": 5},
                {"element": "B", "count": 2},
                {"element": "G", "count": 3},
            ],
        }
    },
}


class TestParsing:
    def test_medical_model_round_trip_is_byte_identical(self):
        text = serialize_model(builtin_medical_model())
        assert serialize_model(parse_model(text)) == text

    def test_urn_round_trip(self):
        text = json.dumps(URN_MODEL)
        model = parse_model(text)
        assert model.multisets["urn"] == Multiset(
            SampleSpace(("R", "B", "G")), (5, 2, 3)
        )
        canonical = serialize_model(model)
        assert serialize_model(parse_model(canonical)) == canonical

    def test_malformed_json_reports_position(self):
        with pytest.raises(ExprParseError) as err:
            parse_model('{"spaces": {')
        assert err.value.line >= 1 and err.value.column >= 1

    def test_unknown_space_reference(self):
        with pytest.raises(ModelError):
            parse_model('{"distributions": {"w": {"space": "X", "weights": ["1"]}}}')

    def test_invalid_distribution_rejected(self):
        broken = {
            "spaces": {"D": {"elements": ["d", "~d"]}},
            "distributions": {"w": {"space": "D", "weights": ["1/2", "1/3"]}},
        }
        with pytest.raises(ModelError):
            parse_model(json.dumps(broken))

    @pytest.mark.parametrize("section", SECTIONS)
    @pytest.mark.parametrize("body", [[], "abc", 3])
    def test_section_that_is_not_an_object(self, section, body):
        with pytest.raises(ModelError, match=section):
            parse_model(json.dumps({section: body}))

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_bytes(b'{"spaces": {"\xff": {"elements": ["a"]}}}')
        with pytest.raises(ModelError, match="UTF-8"):
            load_model(str(path))

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "model.json"
        save_model(builtin_medical_model(), str(path))
        model = load_model(str(path))
        assert model.distributions["prior"] == Dist(
            SampleSpace(("d", "~d")), (Fraction(1, 20), Fraction(19, 20))
        )


def medical_with_multiset() -> dict:
    """The built-in medical model file, with a multiset: all six sections."""
    model = json.loads(serialize_model(builtin_medical_model()))
    model["multisets"] = {"draws": {"space": "T", "counts": [{"element": "p", "count": 2}]}}
    return model


def random_scalars(rng: random.Random, n: int, exact: bool, normalised: bool) -> list:
    ints = [rng.randint(0, 9) for _ in range(n - 1)] + [rng.randint(1, 9)]
    if normalised:
        return [Fraction(v, sum(ints)) if exact else v / sum(ints) for v in ints]
    return [Fraction(v, rng.randint(1, 9)) if exact else rng.random() * 3 for v in ints]


def random_model(rng: random.Random) -> Model:
    """A model with every section, each entity exact or float at random."""
    model = Model()
    for k in range(rng.randint(2, 3)):
        model.spaces[f"S{k}"] = SampleSpace([f"x{k}.{i}" for i in range(rng.randint(2, 4))])
    spaces = list(model.spaces.values())
    for k in range(rng.randint(1, 3)):
        space = rng.choice(spaces)
        model.distributions[f"d{k}"] = Dist(space, random_scalars(rng, len(space), rng.random() < 0.5, True))
    factor_space = rng.choice(spaces)
    for k in range(rng.randint(1, 3)):
        values = random_scalars(rng, len(factor_space), rng.random() < 0.5, False)
        model.factors[f"f{k}"] = Factor(factor_space, values)
    space = rng.choice(spaces)
    model.multisets["m"] = Multiset(space, [rng.randint(0, 5) for _ in space])
    factors = list(model.factors.values())
    model.evidence["e"] = Evidence((rng.choice(factors), rng.randint(1, 4)) for _ in range(rng.randint(1, 3)))
    dom, cod = spaces[0], spaces[-1]
    # the first row float, the second exact, the rest either
    rows = [Dist(cod, random_scalars(rng, len(cod), i == 1 or (i > 1 and rng.random() < 0.5), True))
            for i in range(len(dom))]
    model.channels["c"] = Channel(dom, cod, rows)
    return model


class TestReadingRules:
    @pytest.mark.parametrize("seed", range(25))
    def test_seeded_round_trip(self, seed):
        model = random_model(random.Random(seed))
        text = serialize_model(model)
        assert list(json.loads(text)) == SECTIONS
        parsed = parse_model(text)
        assert serialize_model(parsed) == text
        assert vars(parsed) == vars(model)

    def test_readme_example(self):
        block = re.search(r"```json\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
        model = parse_model(block)
        assert validity(model.distributions["prior"], model.factors["pt"]) == Fraction(17, 40)

    @pytest.mark.parametrize(
        "path,text",
        [(("spaces", "T", "elements"), "pn"), (("distributions", "prior", "weights"), "10"),
         (("factors", "pt", "values"), "11"), (("multisets", "draws", "counts"), "pn"),
         (("channels", "test", "rows"), "TT"), (("evidence", "three_tests"), "pt")],
        ids=["elements", "weights", "values", "counts", "rows", "evidence"],
    )
    def test_string_where_an_array_belongs(self, path, text):
        # the first three, read one character at a time, would be valid
        model = medical_with_multiset()
        *parents, field = path
        target = model
        for key in parents:
            target = target[key]
        target[field] = text
        with pytest.raises(ModelError, match="must be a JSON array"):
            parse_model(json.dumps(model))

    def test_duplicate_multiset_element(self):
        model = medical_with_multiset()
        model["multisets"]["draws"]["counts"] = [
            {"element": "p", "count": 5}, {"element": "p", "count": 2}
        ]
        with pytest.raises(ModelError, match="duplicate element 'p'"):
            parse_model(json.dumps(model))

    def test_evidence_naming_a_factor_twice_adds_counts(self):
        model = medical_with_multiset()
        model["evidence"]["three_tests"] = [{"factor": "pt", "count": 2}, {"factor": "pt", "count": 1}]
        psi = parse_model(json.dumps(model)).evidence["three_tests"]
        assert list(psi.items()) == [(builtin_medical_model().factors["pt"], 3)]

    def test_boolean_scalar(self):
        model = medical_with_multiset()
        model["distributions"]["prior"]["weights"] = [True, "0"]
        with pytest.raises(ModelError, match="booleans are not scalars"):
            parse_model(json.dumps(model))


class TestEval:
    def test_validity_of_positive_test(self):
        model = builtin_medical_model()
        assert format_result(eval_expression(model, "validity(prior, pt)")) == "17/40"

    def test_flrn_of_urn(self):
        model = parse_model(json.dumps(URN_MODEL))
        result = eval_expression(model, "flrn(urn)")
        assert format_result(result) == "1/2|R> + 1/5|B> + 3/10|G>"

    def test_updates_and_push(self):
        model = builtin_medical_model()
        assert (
            format_result(eval_expression(model, "jeffrey_update(prior, three_tests)"))
            == "431/5865|d> + 5434/5865|~d>"
        )
        assert format_result(eval_expression(model, "push(test, prior)")) == "17/40|p> + 23/40|n>"

    def test_match_status_result(self):
        model = builtin_medical_model()
        assert format_result(eval_expression(model, "match_status(three_tests)")) == (
            "perfect-match"
        )

    def test_unknown_operation(self):
        with pytest.raises(ExprParseError):
            eval_expression(builtin_medical_model(), "frobnicate(prior)")

    def test_unresolved_entity(self):
        with pytest.raises(ModelError):
            eval_expression(builtin_medical_model(), "validity(prior, missing)")

    def test_wrong_arity(self):
        with pytest.raises(ExprParseError):
            eval_expression(builtin_medical_model(), "validity(prior)")

    def test_garbage_expression_reports_column(self):
        with pytest.raises(ExprParseError):
            eval_expression(builtin_medical_model(), "validity prior pt")
