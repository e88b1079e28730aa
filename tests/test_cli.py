"""Command-line interface: report, grid, check, eval."""

import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from multibayes.cli import main
from multibayes.modelfile import builtin_medical_model, serialize_model
from multibayes.models import GRID_MODES

#: sha256 digests of the paper outputs, shared with the benchmark's gate
REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference.json"
SRC = Path(__file__).resolve().parent.parent / "src"


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


class TestPinnedOutputs:
    """`report medical` and every 60x60 grid CSV, byte for byte."""

    DIGESTS = json.loads(REFERENCE.read_text(encoding="utf-8"))["sha256"]

    def test_report_digest(self, capsys):
        assert main(["report", "medical"]) == 0
        output = capsys.readouterr().out.encode("utf-8")
        assert hashlib.sha256(output).hexdigest() == self.DIGESTS["report"]

    @pytest.mark.parametrize("mode", GRID_MODES)
    def test_grid_digest(self, mode, tmp_path):
        out = tmp_path / f"{mode}.csv"
        assert main(["grid", "--mode", mode, "--imax", "60", "--jmax", "60", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS[mode]


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

    def test_trials_not_an_integer_is_input_error(self, capsys):
        # the message says what is wrong, not which private function refused the text
        with pytest.raises(SystemExit) as exc:
            main(["check", "--suite", "core", "--trials", "abc"])
        assert exc.value.code == 2
        assert "argument --trials: must be an integer, got 'abc'" in capsys.readouterr().err

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

    @pytest.mark.parametrize(
        "text",
        ['{"spaces": ' + "1" * 5000 + "}",  # more digits than int() converts
         '{"spaces": ' + "[" * 100_000 + "]" * 100_000 + "}",  # nested past the recursion limit
         '{"spaces": {"T": {"elements": ["p", "n"]}}, "multisets": {"m": {"space": "T", "counts": '
         '[{"element": "p", "count": 5}, {"element": "p", "count": 2}]}}}',  # duplicate element
         '{"spaces": {"T": {"elements": "pn"}}, "multisets": {"m": {"space": "T", "counts": '
         '[{"element": "p", "count": 5}]}}}',  # a string where an array belongs
         '[{"spaces": {}}]',  # an array where the model object belongs
         '{"spaces": {"T": {"elements": ["p", "n"]}}, "multisets": {"m": {"space": "T", "counts": '
         '[{"element": "p", "count": 5}]}}, "channels": {"c": {"dom": "T", "cod": "T", "rows": '
         '[{"space": "T", "weights": ["1", "0"]}]}}}'],  # one channel row for two domain elements
        ids=["long-int", "deep-arrays", "duplicate-element", "string-for-array", "array-for-model", "missing-row"],
    )
    def test_model_file_reading_rules_are_input_errors(self, text, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text, encoding="utf-8")
        assert main(["eval", "--model", str(path), "--expr", "flrn(m)"]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "bad",
        [list(range(20_000)), {str(i): i for i in range(20_000)}, "0." + "x" * 20_000, "1" * 3_000 + "/0"],
        ids=["list", "object", "long-decimal", "long-zero-denominator"],
    )
    def test_rejected_scalar_is_abridged(self, bad, tmp_path, capsys):
        model = json.loads(serialize_model(builtin_medical_model()))
        name = next(iter(model["distributions"]))
        model["distributions"][name]["weights"][0] = bad
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        assert main(["eval", "--model", str(path), "--expr", "validity(prior, pt)"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid model file: ")
        assert len(err) < 200

    def test_missing_model_file_is_input_error(self, tmp_path):
        assert (
            main(["eval", "--model", str(tmp_path / "nope.json"), "--expr", "validity(a, b)"])
            == 2
        )

    def test_precondition_error_is_input_error(self, medical_path, capsys):
        # conditioning the prior on an unsatisfiable conjunction
        model = json.loads(Path(medical_path).read_text(encoding="utf-8"))
        model["factors"]["dead"] = {"space": "D", "values": ["0", "0"]}
        model["evidence"]["bad"] = [{"factor": "dead", "count": 1}]
        import os

        path = os.path.join(os.path.dirname(medical_path), "bad.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(model, handle)
        assert main(["eval", "--model", path, "--expr", "pearl_update(prior, bad)"]) == 2

    @pytest.mark.parametrize("expr", ["bayes_update(prior, dead)", "jeffrey_update(prior, e)", "vfe_update(prior, e)"])
    def test_zero_validity_of_a_wide_factor_is_an_abridged_input_error(self, expr, tmp_path, capsys):
        size = 3000
        model = {
            "spaces": {"W": {"elements": [f"x{i}" for i in range(size)]}},
            "distributions": {"prior": {"space": "W", "weights": [f"1/{size}"] * size}},
            "factors": {"dead": {"space": "W", "values": ["0"] * size}},
            "evidence": {"e": [{"factor": "dead", "count": 1}]},
        }
        path = tmp_path / "dead.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        assert main(["eval", "--model", str(path), "--expr", expr]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err) < 200

    @pytest.mark.parametrize(
        "expr",
        ["and_conj(e2)", "pearl_update(prior, e2)", "pearl_validity(prior, e2)", "jeffrey_validity(prior, e2)",
         "and_conj(e11)", "pearl_update(prior, e11)", "jeffrey_validity(prior, e11)"],
    )
    def test_float_overflow_is_input_error(self, expr, tmp_path, capsys):
        model = json.loads(serialize_model(builtin_medical_model()))
        model["factors"]["big"] = {"space": "D", "values": [1e200, 1.0]}
        model["factors"]["big2"] = {"space": "D", "values": [1e199, 1.0]}
        model["evidence"]["e2"] = [{"factor": "big", "count": 2}]
        model["evidence"]["e11"] = [{"factor": "big", "count": 1}, {"factor": "big2", "count": 1}]
        path = tmp_path / "big.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        assert main(["eval", "--model", str(path), "--expr", expr]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "float" in err

    @pytest.mark.parametrize(
        "pt,nt,expr",
        [([1e200, "2/5"], [1e200, "3/5"], "covariance(prior, pt, nt)"),  # the conjunction overflows
         ([1e308, "2/5"], ["1/10", 1e308], "covariance(prior, pt, nt)"),  # the product of validities overflows
         ([0.5, 0.5], [str(10**400), "0"], "match_status(e)")],  # an exact value beyond the float range
    )
    def test_float_range_is_input_error(self, pt, nt, expr, tmp_path, capsys):
        model = json.loads(serialize_model(builtin_medical_model()))
        model["factors"]["pt"]["values"] = pt
        model["factors"]["nt"]["values"] = nt
        model["evidence"]["e"] = [{"factor": "pt", "count": 1}, {"factor": "nt", "count": 1}]
        path = tmp_path / "range.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        assert main(["eval", "--model", str(path), "--expr", expr]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ") and "float" in captured.err


    def test_validity_beyond_the_float_range_is_input_error(self, tmp_path, capsys):
        # the weights sum to 1 + 1e-10, within the float tolerance
        model = json.loads(serialize_model(builtin_medical_model()))
        model["distributions"]["prior"]["weights"] = [0.5000000001, 0.5]
        model["factors"]["pt"]["values"] = [1.7976931348623157e308] * 2
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        assert main(["eval", "--model", str(path), "--expr", "validity(prior, pt)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "float" in captured.err

    @pytest.mark.parametrize("rule", ["jeffrey", "pearl"])
    def test_float_evidence_at_large_counts_is_input_error(self, rule, tmp_path, capsys):
        # 1000|pt> + 1000|nt> in floats: C(2000, 1000) is beyond the float range, and the validities'
        # powers (Jeffrey) or the conjunction (Pearl) underflow as floats; an error, not 0.0
        model = json.loads(serialize_model(builtin_medical_model()))
        model["distributions"]["prior"]["weights"] = [0.05, 0.95]
        model["factors"]["pt"]["values"] = [0.9, 0.4]
        model["factors"]["nt"]["values"] = [0.1, 0.6]
        model["evidence"]["many"] = [{"factor": "pt", "count": 1000}, {"factor": "nt", "count": 1000}]
        path = tmp_path / "many.json"
        path.write_text(json.dumps(model), encoding="utf-8")
        assert main(["eval", "--model", str(path), "--expr", f"{rule}_validity(prior, many)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: validity of the evidence overflows the float range\n"


def _composed_cell(spec, i: int, j: int):
    """A grid cell from the composition written out: point-predicate
    evidence pulled factor by factor, and the prior pushed in the cell."""
    from multibayes import Evidence, Multiset, flrn, kl_divergence, point_pred, push, triple_pull
    from multibayes import jeffrey_update, jeffrey_validity, pearl_update, pearl_validity, vfe_update

    cod = spec.channel.cod
    point_psi = Evidence(((point_pred("p", cod), i), (point_pred("n", cod), j)))
    pulled = triple_pull(spec.channel, point_psi)
    first = spec.prior.space.elements[0]
    if spec.mode == "jeffrey-validity":
        return jeffrey_validity(spec.prior, pulled)
    if spec.mode == "pearl-validity":
        return pearl_validity(spec.prior, pulled)
    if spec.mode == "jeffrey-update":
        return jeffrey_update(spec.prior, pulled)(first)
    if spec.mode == "pearl-update":
        return pearl_update(spec.prior, pulled)(first)
    if spec.mode == "vfe-update":
        return vfe_update(spec.prior, pulled)(first)
    if i == 0 and j == 0:
        return 0.0
    observed = flrn(Multiset.from_counts(cod, {"p": i, "n": j}))
    prior_div = kl_divergence(observed, push(spec.channel, spec.prior), base=2)
    return kl_divergence(observed, push(spec.channel, vfe_update(spec.prior, pulled)), base=2) - prior_div


def _same_cells(spec) -> list:
    """Every cell of ``spec`` equals the written-out composition, in
    value and type; returns the cells."""
    from multibayes.models import grid_values

    cells = grid_values(spec)
    assert len(cells) == spec.imax * spec.jmax
    for i, j, value in cells:
        expected = _composed_cell(spec, i, j)
        assert (type(value), value) == (type(expected), expected), (spec.mode, i, j)
    return cells


class TestGridSpec:
    def test_bounds_must_be_positive(self):
        from multibayes import ModelError
        from multibayes.models import medical_grid_spec

        with pytest.raises(ModelError):
            medical_grid_spec("jeffrey-update", imax=0)

    @pytest.mark.parametrize("bounds", [(2.5, 3), (3, 2.0), (True, True), (3, False), ("3", 3)])
    def test_bounds_must_be_ints(self, bounds):
        from multibayes import ModelError
        from multibayes.models import medical_grid_spec

        with pytest.raises(ModelError, match="grid bound must be a natural number"):
            medical_grid_spec("jeffrey-validity", *bounds)

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

    def test_keyword_construction(self):
        from multibayes.models import GridSpec, grid_values

        spec = GridSpec(mode="pearl-update", imax=2, jmax=3)
        assert (spec.mode, spec.imax, spec.jmax) == ("pearl-update", 2, 3)
        assert [(i, j) for i, j, _ in grid_values(spec)] == [(i, j) for i in (1, 2) for j in (1, 2, 3)]

    @pytest.mark.parametrize("mode", GRID_MODES)
    def test_medical_grid(self, mode):
        from multibayes.models import medical_grid_spec

        # a bound of exactly 1 gives the smallest grids
        for imax, jmax in ((4, 3), (1, 1), (1, 4)):
            _same_cells(medical_grid_spec(mode, imax=imax, jmax=jmax))

    @pytest.mark.parametrize("mode", GRID_MODES)
    def test_delta_margins(self, mode):
        from multibayes.models import GridSpec

        cells = _same_cells(GridSpec(mode, 3, 4))
        if mode == "vfe-dkl-delta":
            # the margins i = 0 and j = 0 hold single-outcome evidence
            assert {(i, j) for i, j, _ in cells} >= {(0, 0), (0, 3), (2, 0)}

    @pytest.mark.parametrize("mode", GRID_MODES)
    def test_every_spec_holds_the_medical_model_and_takes_no_model_setting(self, mode):
        from multibayes.models import GridSpec, medical_model

        model = medical_model()
        spec = GridSpec(mode, 2, 3)
        assert (spec.channel.dom, spec.channel.cod) == (model.disease_space, model.test_space)
        assert spec.channel.rows == model.test_channel.rows and spec.prior == model.prior
        assert not hasattr(spec, "pos_outcome") and not hasattr(spec, "neg_outcome")
        # the channel, prior and outcomes of the paper's grid cannot be given
        with pytest.raises(TypeError):
            GridSpec(mode, 2, 3, model.test_channel, model.prior, "p", "n")
        with pytest.raises(TypeError):
            GridSpec(mode, 2, 3, pos_outcome="n")

    def test_prediction_is_kept_for_the_delta_grid_only(self):
        from multibayes import push
        from multibayes.models import medical_grid_spec

        for mode in GRID_MODES:
            spec = medical_grid_spec(mode, 2, 2)
            if mode == "vfe-dkl-delta":
                assert spec._prediction == push(spec.channel, spec.prior)
            else:
                assert spec._prediction is None


class TestParser:
    """The parser is built once per process, so a parse must leave
    nothing behind that changes the next one."""

    @staticmethod
    def _outcome(argv: list[str], capsys) -> tuple:
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse exits on a bad command line
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize("failing_first", [True, False])
    @pytest.mark.parametrize("failing", [[], ["grid", "--mode", "bogus", "--out", "x.csv"], ["check", "--trials", "0"]])
    def test_a_failed_parse_leaves_nothing_behind(self, failing, failing_first, capsys, monkeypatch):
        from multibayes import cli

        assert cli.build_parser() is cli.build_parser()
        argvs = [failing, ["report", "medical"]] if failing_first else [["report", "medical"], failing]
        cached = [self._outcome(argv, capsys) for argv in argvs]
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)  # a new parser per call
        assert [self._outcome(argv, capsys) for argv in argvs] == cached
        assert [code for code, _, _ in cached] == ([2, 0] if failing_first else [0, 2])


def _src_env() -> dict[str, str]:
    """This environment with the package's ``src`` first on PYTHONPATH."""
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


class TestEntryPoint:
    """`python -m multibayes` in a subprocess: its exit code is main()'s."""

    def _run(self, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "multibayes", *args], env=_src_env(), capture_output=True)

    def test_report_medical(self):
        result = self._run("report", "medical")
        assert result.returncode == 0
        assert hashlib.sha256(result.stdout).hexdigest() == TestPinnedOutputs.DIGESTS["report"]

    def test_missing_model_file_exits_2(self, tmp_path):
        result = self._run("eval", "--model", str(tmp_path / "nope.json"), "--expr", "validity(a,b)")
        assert result.returncode == 2
        assert result.stderr.startswith(b"i/o error:")


class TestColdStart:
    """A fresh `import multibayes.cli` loads only what its commands share."""

    #: loaded on demand by `check` and `eval`, or not at all
    DEFERRED = {"dataclasses", "inspect", "multibayes.modelfile", "multibayes.properties"}

    def _added_modules(self, statements: str) -> set[str]:
        probe = (
            "import sys\n"
            "before = set(sys.modules)\n"
            f"{statements}\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe], env=_src_env(), capture_output=True, encoding="utf-8", check=True
        )
        return set(result.stdout.split())

    def test_import_skips_deferred_modules(self):
        added = self._added_modules("import multibayes.cli")
        assert "multibayes.cli" in added
        assert not added & self.DEFERRED

    def test_eval_loads_modelfile_on_demand(self, medical_path):
        added = self._added_modules(
            "from multibayes.cli import main\n"
            "import contextlib, io\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main(['eval', '--model', {medical_path!r}, '--expr', 'validity(prior, pt)']) == 0"
        )
        assert "multibayes.modelfile" in added
        assert "multibayes.properties" not in added


class TestCompileMemory:
    """Without cached bytecode (``PYTHONDONTWRITEBYTECODE=1``, a read-only
    install) every import compiles its module, and the process keeps what
    the compile's peak took: Python builds a whole file's syntax tree
    before it compiles it.  So no module may be large enough to set the
    peak memory of a command by its compile alone."""

    @pytest.mark.parametrize(
        "path", sorted((SRC / "multibayes").rglob("*.py")), ids=lambda path: path.relative_to(SRC).as_posix()
    )
    def test_a_module_compiles_in_under_2_mib(self, path):
        source = path.read_text(encoding="utf-8")
        tracemalloc.start()
        try:
            compile(source, str(path), "exec", dont_inherit=True)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, f"compiling {path.name} peaked at {peak / 2**20:.2f} MiB"


class TestStdlibOnly:
    """The package runs on the standard library alone: with ``site``
    off, so no third-party package is importable, every module imports
    and ``check`` and ``report`` run."""

    PROBE = (
        "import contextlib, io, pkgutil, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import multibayes\n"
        "for info in pkgutil.iter_modules(multibayes.__path__, 'multibayes.'):\n"
        "    __import__(info.name)\n"
        "from multibayes.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['check', '--suite', 'core', '--trials', '5']), main(['report', 'medical'])]\n"
        "loaded = [m for m in sys.modules if m.split('.')[0] in ('hypothesis', 'pytest')]\n"
        "print(codes, len([m for m in sys.modules if m.startswith('multibayes.')]), loaded)\n"
    )

    def test_modules_check_and_report_load_no_third_party_module(self):
        env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
        result = subprocess.run(
            [sys.executable, "-S", "-c", self.PROBE, str(SRC)], env=env, capture_output=True, encoding="utf-8", check=True
        )
        # every module but the package itself: the registry is a package of its own
        modules = len(list((SRC / "multibayes").rglob("*.py"))) - 1
        assert result.stdout.split() == ["[0,", "0]", str(modules), "[]"]
