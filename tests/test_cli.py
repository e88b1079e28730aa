"""Command-line interface: report, grid, check, eval."""

import json

import pytest

from multibayes.cli import main
from multibayes.modelfile import builtin_medical_model, serialize_model


@pytest.fixture
def medical_path(tmp_path):
    path = tmp_path / "medical.json"
    path.write_text(serialize_model(builtin_medical_model()), encoding="utf-8")
    return str(path)


class TestReport:
    def test_medical_report_lines(self, capsys):
        assert main(["report", "medical"]) == 0
        out = capsys.readouterr().out
        assert "positive_test_validity = 17/40" in out
        assert "negative_test_validity = 23/40" in out
        assert "jeffrey_prior_validity = 19941/64000" in out
        assert "pearl_prior_validity = 1143/4000" in out
        assert "posterior_positive = 9/85|d> + 76/85|~d>" in out
        assert "posterior_negative = 1/115|d> + 114/115|~d>" in out
        assert "jeffrey_posterior = 431/5865|d> + 5434/5865|~d>" in out
        assert "pearl_posterior = 27/635|d> + 608/635|~d>" in out
        assert "iterated_pearl = 381/4000" in out

    def test_report_is_deterministic(self, capsys):
        main(["report", "medical"])
        first = capsys.readouterr().out
        main(["report", "medical"])
        assert capsys.readouterr().out == first


class TestGrid:
    def test_jeffrey_update_grid(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert main(["grid", "--mode", "jeffrey-update", "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        lines = text.split("\n")
        assert lines[0] == "i,j,value"
        assert len([l for l in lines if l]) == 101
        assert "\r" not in text
        cell = next(l for l in lines if l.startswith("2,1,"))
        assert cell == "2,1,0.0734867860188"  # 431/5865 at twelve digits

    def test_grid_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["grid", "--mode", "vfe-dkl-delta", "--out", str(a)])
        main(["grid", "--mode", "vfe-dkl-delta", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_delta_grid_has_37_positive_cells(self, tmp_path):
        out = tmp_path / "delta.csv"
        assert main(["grid", "--mode", "vfe-dkl-delta", "--out", str(out)]) == 0
        rows = out.read_text(encoding="utf-8").strip().split("\n")[1:]
        assert len(rows) == 100
        positives = sum(1 for row in rows if float(row.split(",")[2]) > 0)
        assert positives == 37

    def test_bad_mode_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["grid", "--mode", "nonsense", "--out", str(tmp_path / "x.csv")])

    def test_unwritable_output_is_input_error(self, tmp_path):
        assert main(["grid", "--mode", "jeffrey-update", "--out", str(tmp_path / "no" / "x.csv")]) == 2

    def test_oversized_grid_is_input_error(self, tmp_path, capsys, monkeypatch):
        # the limit is lowered so that no test builds a large grid
        monkeypatch.setattr("multibayes.core.MAX_PRODUCT_ELEMENTS", 15)
        out = tmp_path / "grid.csv"
        argv = ["grid", "--mode", "jeffrey-update", "--imax", "4", "--jmax", "4", "--out", str(out)]
        assert main(argv) == 2
        assert "16 elements refused" in capsys.readouterr().err
        assert not out.exists()


class TestCheck:
    def test_core_suite_passes(self, capsys):
        assert main(["check", "--suite", "core", "--trials", "25", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "pass  exact-field-roundtrip" in out
        assert "2/2 properties passed" in out

    def test_unknown_suite_is_input_error(self, capsys):
        assert main(["check", "--suite", "nonsense"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_all_suite_end_to_end(self, capsys):
        assert main(["check", "--suite", "all", "--trials", "5", "--seed", "42"]) == 0
        assert "properties passed" in capsys.readouterr().out

    def test_single_property_runs(self, capsys):
        assert main(["check", "--suite", "jeffrey-order", "--trials", "100", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "0.059/0.061" in out

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_trials_below_one_is_input_error(self, trials, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", "--suite", "core", "--trials", trials])
        assert exc.value.code == 2

    def test_deterministic_given_seed(self, capsys):
        main(["check", "--suite", "validity", "--trials", "25", "--seed", "3"])
        first = capsys.readouterr().out
        main(["check", "--suite", "validity", "--trials", "25", "--seed", "3"])
        assert capsys.readouterr().out == first

    def test_failure_exit_code(self, capsys, monkeypatch):
        import multibayes.properties as properties

        broken = properties.Property("broken", "demo", lambda *_: (False, 1, "boom"))
        monkeypatch.setitem(properties.PROPERTIES, "broken", broken)
        assert main(["check", "--suite", "broken"]) == 1
        assert "FAIL  broken" in capsys.readouterr().out


class TestEval:
    def test_validity_expression(self, medical_path, capsys):
        assert main(["eval", "--model", medical_path, "--expr", "validity(prior, pt)"]) == 0
        assert capsys.readouterr().out.strip() == "17/40"

    def test_flrn_expression(self, tmp_path, capsys):
        model = {
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
        path = tmp_path / "urn.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        assert main(["eval", "--model", str(path), "--expr", "flrn(urn)"]) == 0
        assert capsys.readouterr().out.strip() == "1/2|R> + 1/5|B> + 3/10|G>"

    def test_malformed_model_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["eval", "--model", str(path), "--expr", "validity(prior, pt)"]) == 2
        assert "line" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section,key,entries",
        [("distributions", "weights", ["1/0", "1"]), ("distributions", "weights", [float("nan"), 0.5]),
         ("factors", "values", [float("inf"), "1"])],
    )
    def test_non_finite_scalars_are_input_errors(self, section, key, entries, tmp_path, capsys):
        model = json.loads(serialize_model(builtin_medical_model()))
        name = next(iter(model[section]))
        model[section][name][key] = entries
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        assert main(["eval", "--model", str(path), "--expr", "validity(prior, pt)"]) == 2
        assert "invalid model file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "content", [b'{"spaces": []}', b'{"spaces": {"\xff": {"elements": ["a"]}}}']
    )
    def test_unreadable_model_is_input_error(self, content, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["eval", "--model", str(path), "--expr", "validity(prior, pt)"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_missing_model_file_is_input_error(self, tmp_path):
        assert (
            main(["eval", "--model", str(tmp_path / "nope.json"), "--expr", "validity(a, b)"])
            == 2
        )

    def test_precondition_error_is_input_error(self, medical_path, capsys):
        # conditioning the prior on an unsatisfiable conjunction
        model = json.loads(open(medical_path, encoding="utf-8").read())
        model["factors"]["dead"] = {"space": "D", "values": ["0", "0"]}
        model["evidence"]["bad"] = [{"factor": "dead", "count": 1}]
        import os

        path = os.path.join(os.path.dirname(medical_path), "bad.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(model, handle)
        assert main(["eval", "--model", path, "--expr", "pearl_update(prior, bad)"]) == 2


class TestGridSpec:
    def test_bounds_must_be_positive(self):
        from multibayes import ModelError
        from multibayes.models import medical_grid_spec

        with pytest.raises(ModelError):
            medical_grid_spec("jeffrey-update", imax=0)

    def test_size_limit(self, monkeypatch):
        from multibayes import SizeLimitError
        from multibayes.models import medical_grid_spec

        monkeypatch.setattr("multibayes.core.MAX_PRODUCT_ELEMENTS", 15)
        assert medical_grid_spec("jeffrey-update", imax=5, jmax=3).imax == 5
        with pytest.raises(SizeLimitError):
            medical_grid_spec("jeffrey-update", imax=4, jmax=4)

    def test_unknown_mode_rejected(self):
        from multibayes import ModelError
        from multibayes.models import medical_grid_spec

        with pytest.raises(ModelError):
            medical_grid_spec("bogus")
