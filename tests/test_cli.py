import json

import pytest

import larmour.cli as cli
import larmour.residue_maps as residue_maps
from larmour.cli import build_problem, main, parse_problem
from larmour.errors import NotEpsilonSymmetric, ParseError, SplitAlgebra
from larmour.hermitian import larmour_decompose

B12_DOC = {
    "field": {"p": 3, "precision": 32},
    "algebra": {"a": "2", "b": "t"},
    "involution": "tau",
    "eps": -1,
    "form": [["0", "1", "0", "0"]],
}


def run_cli(capsys, args, stdin_doc=None, tmp_path=None):
    if stdin_doc is not None:
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(stdin_doc))
        args = args + ["--input", str(path)]
    code = main(args)
    captured = capsys.readouterr()
    out = json.loads(captured.out) if captured.out.strip().startswith("{") else captured.out
    return code, out, captured.err


class TestParseProblem:
    def test_nested_document(self):
        spec = parse_problem(B12_DOC)
        assert spec.p == 3 and spec.eps == -1
        assert spec.form == (("0", "1", "0", "0"),)

    def test_flat_shorthand(self):
        doc = {"p": 3, "a": "2", "b": "t", "involution": "tau", "eps": -1,
               "form": [[0, "1", 0, 0]]}
        spec = parse_problem(doc)
        assert spec.a == "2" and spec.form == (("0", "1", "0", "0"),)

    def test_round_trip(self):
        spec = parse_problem(B12_DOC)
        assert parse_problem(spec.to_doc()) == spec

    def test_round_trip_with_twist(self):
        doc = dict(B12_DOC, involution={"tau_zeta": ["0", "t", "0", "0"]}, eps=1,
                   form=[["1", "0", "0", "0"]])
        spec = parse_problem(doc)
        assert parse_problem(spec.to_doc()) == spec

    def test_missing_fields(self):
        with pytest.raises(ParseError):
            parse_problem({"algebra": {"a": "2", "b": "t"}, "eps": 1, "form": []})
        with pytest.raises(ParseError):
            parse_problem(dict(B12_DOC, eps=0))
        with pytest.raises(ParseError):
            parse_problem(dict(B12_DOC, form=[["1", "0"]]))


class TestBuild:
    def test_valid_skew_entry(self):
        built = build_problem(parse_problem(B12_DOC))
        assert built.record.label == "B12"

    def test_eps_plus_one_with_x_rejected(self):
        doc = dict(B12_DOC, eps=1)
        with pytest.raises(NotEpsilonSymmetric):
            build_problem(parse_problem(doc))

    def test_split_algebra_from_square_b(self):
        doc = dict(B12_DOC, algebra={"a": "1", "b": "t^2"}, form=[])
        with pytest.raises(SplitAlgebra):
            build_problem(parse_problem(doc))

    def test_twist_adapts_presentation(self):
        doc = {
            "field": {"p": 3},
            "algebra": {"a": "2", "b": "t"},
            "involution": {"tau_zeta": ["0", "0", "1", "1"]},  # zeta = y + z
            "eps": -1,
            "form": [["0", "0", "1", "1"]],  # zeta itself spans the skew line
        }
        built = build_problem(parse_problem(doc))
        assert built.record.label == "B222"
        assert any("adapted" in w for w in built.warnings)


class TestCommands:
    def test_classify_envelope(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, ["classify"], B12_DOC, tmp_path)
        assert code == 0
        assert out["case"]["case"] == "B12" and out["status"] == "ok"
        assert "B12" in err

    def test_decompose_envelope(self, capsys, tmp_path):
        doc = dict(B12_DOC, form=[["0", "t", "0", "0"], ["0", "0", "1", "0"]])
        code, out, err = run_cli(capsys, ["decompose"], doc, tmp_path)
        assert code == 0
        dec = out["decomposition"]
        assert len(dec["h0"]) == 1 and len(dec["h1"]) == 1
        assert dec["routes"] == [0, 1]
        for w in dec["witnesses"]:
            assert w["residual_half_units"] == "exact" or w["residual_half_units"] >= 24

    def test_residues_and_boundary(self, capsys, tmp_path):
        doc = dict(B12_DOC, form=[["0", "0", "1", "0"]])
        code, out, err = run_cli(capsys, ["boundary"], doc, tmp_path)
        assert code == 0
        assert out["residues"]["d0"]["entries"] == []
        assert out["residues"]["d1"]["entries"] == ["1"]
        assert out["boundary"]["c1"] == {"kind": "quad_witt", "rank_parity": 1, "disc": "1"}
        assert not out["boundary"]["is_zero"]

    def test_boundary_decomposes_once(self, capsys, tmp_path, monkeypatch):
        doc = dict(B12_DOC, form=[["0", "t", "0", "0"], ["0", "0", "1", "0"]])
        built = build_problem(parse_problem(doc))
        expected = cli._boundary_doc(residue_maps.boundary(built.form, built.record))
        calls = []

        def counting_decompose(h, record=None):
            calls.append(h)
            return larmour_decompose(h, record)

        for module in (cli, residue_maps):
            monkeypatch.setattr(module, "larmour_decompose", counting_decompose)
        code, out, err = run_cli(capsys, ["boundary"], doc, tmp_path)
        assert code == 0
        assert len(calls) == 1
        assert out["boundary"] == expected

    def test_boundary_needs_finite_residue(self, capsys, tmp_path):
        doc = {
            "field": {"p": "Q"},
            "algebra": {"a": "-1", "b": "-1"},
            "involution": "tau",
            "eps": 1,
            "form": [["1", "0", "0", "0"]],
        }
        code, out, err = run_cli(capsys, ["boundary"], doc, tmp_path)
        assert code == 2
        assert out["status"] == "error" and out["error_kind"] == "math_domain_error"

    def test_residues_work_over_rationals(self, capsys, tmp_path):
        doc = {
            "field": {"p": "Q"},
            "algebra": {"a": "-1", "b": "-1"},
            "involution": "tau",
            "eps": 1,
            "form": [["3 + t", "0", "0", "0"], ["t", "0", "0", "0"]],
        }
        code, out, err = run_cli(capsys, ["residues"], doc, tmp_path)
        assert code == 0
        assert out["case"]["case"] == "A11"
        assert out["residues"]["d0"]["entries"] == ["3"]
        assert out["residues"]["d1"]["entries"] == ["1"]

    def test_witt_equal_command(self, capsys, tmp_path):
        doc = {
            "first": dict(B12_DOC, form=[["0", "0", "1", "0"]]),
            "second": dict(B12_DOC, form=[["0", "0", "2", "0"]]),
        }
        code, out, err = run_cli(capsys, ["witt-equal"], doc, tmp_path)
        assert code == 0 and out["equal"] is True

    def test_exit_code_precision_failure(self, capsys, tmp_path):
        # a twist needing basis adaptation at precision 8 cannot certify
        # witnesses to 24 half-units
        doc = {
            "field": {"p": 3, "precision": 8},
            "algebra": {"a": "2", "b": "t"},
            "involution": {"tau_zeta": ["0", "1 + t", "1", "0"]},
            "eps": -1,
            "form": [["0", "1 + t", "1", "0"]],
        }
        code, out, err = run_cli(capsys, ["decompose"], doc, tmp_path)
        assert code == 3
        assert out["error_kind"] == "precision_failure"

    def test_exit_code_input_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json")
        code = main(["classify", "--input", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["error_kind"] == "input_error"

    @pytest.mark.parametrize(
        "field, argv",
        [
            ({"p": 4}, []),
            ({"p": 3, "precision": "abc"}, []),
            ({"p": 3, "precision": 0}, []),
            ({"p": 3}, ["--precision", "0"]),
            ({"p": 3}, ["--p", "abc"]),
        ],
        ids=["p-not-prime", "precision-not-int", "precision-zero", "precision-flag-zero",
             "p-flag-not-int"],
    )
    def test_bad_field_is_input_error(self, capsys, tmp_path, field, argv):
        code, out, err = run_cli(capsys, ["classify"] + argv, dict(B12_DOC, field=field), tmp_path)
        assert code == 1
        assert out["status"] == "error" and out["error_kind"] == "input_error"

    def test_p_override(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, ["classify", "--p", "5"], B12_DOC, tmp_path)
        assert code == 0
        assert out["problem"]["field"]["p"] == 5

    def test_divergence_warning_emitted(self, capsys, tmp_path):
        doc = {
            "field": {"p": 3},
            "algebra": {"a": "2", "b": "t"},
            "involution": {"tau_zeta": ["0", "0", "1", "0"]},
            "eps": 1,
            "form": [["0", "0", "0", "2"]],
        }
        code, out, err = run_cli(capsys, ["residues"], doc, tmp_path)
        assert code == 0
        assert out["case"]["case"] == "B221"
        assert any("B221" in w for w in out["warnings"])


class TestSelftest:
    def test_quick_deterministic(self, capsys):
        code1 = main(["selftest", "--quick", "--seed", "7"])
        out1 = capsys.readouterr().out
        code2 = main(["selftest", "--quick", "--seed", "7"])
        out2 = capsys.readouterr().out
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.count("PASS") == 11  # ten suites plus the summary line
