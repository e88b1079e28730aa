"""Model files: schema, round-trips and expression evaluation."""

import json
from fractions import Fraction

import pytest

from multibayes import Dist, ExprParseError, ModelError, SampleSpace
from multibayes.modelfile import (
    builtin_medical_model,
    eval_expression,
    format_result,
    load_model,
    parse_model,
    save_model,
    serialize_model,
)
from multibayes.multiset import Multiset

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

    @pytest.mark.parametrize(
        "section", ["spaces", "distributions", "factors", "multisets", "evidence", "channels"]
    )
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
