import copy
import json
import os
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import godp.ontology
from godp.cli import _write_output, main
from godp.diagnostics import GodpError, Span
from godp.expansion import expand
from godp.parser import parse_library
from godp.resolver import resolve
from godp.syntax import OntologyDef

from tests.conftest import SUBSTITUTED_ARGUMENT

def run_cli(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def write(tmp_path, text, name="lib.gdol"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestFlatten:
    def test_driving_golden_to_stdout(self, capsys, fixtures_dir):
        code, out, err = run_cli(
            ["flatten", str(fixtures_dir / "driving.gdol"), "--target", "drivePatternInstance"],
            capsys,
        )
        assert code == 0
        assert out == (
            "ObjectProperty: drives\n"
            "  Domain: Person\n"
            "  Range: Vehicle\n"
            "\n"
            "Class: Vehicle\n"
        )
        assert "Person" in err  # undeclared-name warning on stderr only

    def test_prof_role_axioms(self, capsys, fixtures_dir):
        code, out, err = run_cli(
            ["flatten", str(fixtures_dir / "role.gdol"), "--target", "ProfRoleOntology"], capsys
        )
        assert code == 0
        assert "SubClassOf: roleProvidedBy_University max 1 University" in out
        assert "SubClassOf: rolePerformedBy_Professor max 1 Professor" in out
        assert "SubClassOf: hasTemporalExtent some TemporalExtent" in out
        assert "SubClassOf: hasTemporalExtent only TemporalExtent" in out
        assert (
            "SubClassOf: roleProvidedBy_University some University"
            " or rolePerformedBy_Professor some Professor" in out
        )

    def test_mother_role_prunes_provider(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            ["flatten", str(fixtures_dir / "role.gdol"), "--target", "MotherRoleOntology"], capsys
        )
        assert code == 0
        assert "rolePerformedBy_Mother max 1 Mother" in out
        assert "roleProvidedBy" not in out
        assert " or " not in out

    def test_output_file(self, capsys, tmp_path, fixtures_dir):
        target = tmp_path / "out.omn"
        code, out, _ = run_cli(
            [
                "flatten",
                str(fixtures_dir / "driving.gdol"),
                "--target",
                "Driving",
                "--output",
                str(target),
            ],
            capsys,
        )
        assert code == 0
        assert out == ""
        assert "ObjectProperty: drives" in target.read_text(encoding="utf-8")

    def test_missing_target_is_usage_error(self, capsys, fixtures_dir):
        code, _, err = run_cli(["flatten", str(fixtures_dir / "driving.gdol")], capsys)
        assert code == 2

    def test_unknown_target(self, capsys, fixtures_dir):
        code, out, err = run_cli(
            ["flatten", str(fixtures_dir / "driving.gdol"), "--target", "Nope"], capsys
        )
        assert code == 2
        assert "UnknownTarget" in err
        assert out == ""

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        path = str(tmp_path / "absent.gdol")
        code, _, err = run_cli(["flatten", path, "--target", "X"], capsys)
        assert code == 3
        assert err == f"{path}: error: IoError: cannot read {path}: No such file or directory\n"

    def test_unwritable_output_is_io_error(self, capsys, tmp_path, fixtures_dir):
        output = str(tmp_path / "missing" / "dir" / "out.omn")
        code, _, err = run_cli(
            ["flatten", str(fixtures_dir / "driving.gdol"), "--target", "Driving", "--output", output],
            capsys,
        )
        assert code == 3
        assert err.endswith(f"{output}: error: IoError: cannot write {output}: No such file or directory\n")

    def test_unwritable_output_names_the_output_in_json(self, capsys, tmp_path, fixtures_dir):
        output = str(tmp_path / "missing" / "out.omn")
        code, _, err = run_cli(
            ["flatten", str(fixtures_dir / "driving.gdol"), "--target", "Driving", "--output", output,
             "--json-diagnostics"],
            capsys,
        )
        diag = json.loads(err.splitlines()[-1])
        assert (code, diag["code"], diag["file"]) == (3, "IoError", output)

    @pytest.mark.parametrize("json_flag", [[], ["--json-diagnostics"]])
    def test_non_utf8_input_is_io_error(self, capsys, tmp_path, json_flag):
        path = tmp_path / "latin.gdol"
        path.write_bytes(b"library L\n\xff\xfe\n")
        code, out, err = run_cli(["check", str(path), *json_flag], capsys)
        assert code == 3
        assert out == ""
        assert "Traceback" not in err
        if json_flag:
            payload = json.loads(err.strip())
            assert (payload["code"], payload["severity"]) == ("IoError", "error")
            assert payload["file"] == str(path)
        else:
            assert err.startswith(f"{path}: error: IoError: ")

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path, fixtures_dir):
        fixture = fixtures_dir / "role.gdol"
        path = tmp_path / "bom.gdol"
        path.write_bytes(b"\xef\xbb\xbf" + fixture.read_bytes())
        expected = run_cli(["flatten", str(fixture), "--target", "ProfRoleOntology"], capsys)
        assert expected[0] == 0 and expected[1]
        assert run_cli(["flatten", str(path), "--target", "ProfRoleOntology"], capsys) == expected

    @pytest.mark.parametrize("json_flag", [[], ["--json-diagnostics"]])
    def test_non_utf8_after_a_byte_order_mark_names_its_byte(self, capsys, tmp_path, json_flag):
        path = tmp_path / "bom.gdol"
        path.write_bytes(b"\xef\xbb\xbflibrary L\n\xff\n")
        code, out, err = run_cli(["check", str(path), *json_flag], capsys)
        assert (code, out) == (3, "")
        message = f"cannot read {path}: not UTF-8 at byte 13"
        if json_flag:
            assert json.loads(err)["message"] == message
        else:
            assert err == f"{path}: error: IoError: {message}\n"

    def test_keep_structured_names(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            [
                "flatten",
                str(fixtures_dir / "collision.gdol"),
                "--target",
                "CollisionDemo",
                "--keep-structured-names",
            ],
            capsys,
        )
        assert code == 0
        assert "Class: A[B_C]" in out
        assert "Class: A[B][C]" in out

    def test_json_diagnostics(self, capsys, tmp_path):
        path = write(tmp_path, "library L\nontology O = Broken\nend")
        code, out, err = run_cli(["check", path, "--json-diagnostics"], capsys)
        assert code == 1
        payload = json.loads(err.strip().splitlines()[0])
        assert payload["code"] == "UnresolvedReference"
        assert payload["severity"] == "error"
        assert payload["line"] == 2

    # A pattern takes one argument group per parameter, so one without
    # parameters is used by its bare name.
    def test_zero_parameter_pattern(self, capsys, tmp_path):
        path = write(tmp_path, "library L\npattern P = Class: A end\nontology O = P end\n")
        assert run_cli(["flatten", path, "--target", "O"], capsys) == (0, "Class: A\n", "")
        assert run_cli(["check", path], capsys) == (0, "", "")


class TestErrorPaths:
    """Each semantic failure mode exits 2 with its designated diagnostic."""

    def test_kind_mismatch(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "library L pattern P [ObjectProperty: p] = ObjectProperty: p end\n"
            "ontology O = P [Class: drives] end",
        )
        code, out, err = run_cli(["check", path], capsys)
        assert code == 2
        assert "KindMismatch" in err
        assert f"{path}:2:" in err  # call-site location

    def test_arity_mismatch(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "library L pattern P [Class: A][Class: B][Class: C] = Class: A end\n"
            "ontology O = P [X] [Y] end",
        )
        code, _, err = run_cli(["check", path], capsys)
        assert code == 2
        assert "ArityMismatch" in err

    def test_missing_mandatory_argument(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "library L pattern P [Class: A][Class: B] = Class: A end\n"
            "ontology O = P [X] [] end",
        )
        code, _, err = run_cli(["check", path], capsys)
        assert code == 2
        assert "MissingMandatoryArgument" in err

    def test_cyclic_patterns(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "library L pattern P [Class: X] = Q [X] end\n"
            "pattern Q [Class: X] = P [X] end",
        )
        code, _, err = run_cli(["check", path], capsys)
        assert code == 2
        assert "CyclicReference" in err

    def test_self_cycle(self, capsys, tmp_path):
        path = write(tmp_path, "library L pattern P [Class: X] = P [X] end")
        code, _, err = run_cli(["check", path], capsys)
        assert code == 2
        assert "CyclicReference" in err

    def test_stratification_collision(self, capsys, fixtures_dir):
        code, out, err = run_cli(
            ["flatten", str(fixtures_dir / "collision.gdol"), "--target", "CollisionDemo"],
            capsys,
        )
        assert code == 2
        assert "StratificationCollision" in err
        assert out == ""

    def test_conflicting_kind(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "library L ontology A = Class: X end ontology B = ObjectProperty: X end\n"
            "ontology U = A and B end",
        )
        code, _, err = run_cli(["check", path], capsys)
        assert code == 2
        assert "ConflictingKind" in err

    def test_syntax_error_exits_1(self, capsys, tmp_path):
        path = write(tmp_path, "library L ontology O = = end")
        code, _, err = run_cli(["check", path], capsys)
        assert code == 1
        assert "SyntaxError" in err

    def test_forward_reference_exits_1(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "library L ontology O = Later end ontology Later = Class: C end",
        )
        code, _, err = run_cli(["check", path], capsys)
        assert code == 1
        assert "ForwardReference" in err


    @pytest.mark.parametrize("json_flag", [[], ["--json-diagnostics"]])
    def test_huge_cardinality_is_syntax_error(self, capsys, tmp_path, json_flag):
        digits = "9" * 5000  # more than int() converts from text
        path = write(tmp_path, f"library L\nontology O =\n  Class: A SubClassOf: p min {digits} A\nend\n")
        code, out, err = run_cli(["flatten", path, "--target", "O", *json_flag], capsys)
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        message = "cardinality of 5000 digits is too large"
        if json_flag:
            diag = json.loads(line)
            assert diag == {
                "code": "SyntaxError",
                "col": 30,
                "file": path,
                "line": 3,
                "message": message,
                "severity": "error",
            }
        else:
            assert line == f"{path}:3:30: error: SyntaxError: {message}"


    def test_unsupported_section_in_ontology_parameter(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "library L\n"
            "pattern P [ontology {ObjectProperty: f Characteristics: Transitive}] = Class: Q end\n"
            "ontology O = Class: Q end\n",
        )
        code, out, err = run_cli(["check", path], capsys)
        assert (code, out) == (1, "")
        assert err == (
            f"{path}:2:40: error: UnsupportedConstruct: section 'Characteristics: Transitive'"
            " is not supported in a ObjectProperty frame\n"
        )


    @pytest.mark.parametrize("json_flag", [[], ["--json-diagnostics"]])
    @pytest.mark.parametrize("command", [["list"], ["check"], ["flatten", "--target", "O"]])
    @pytest.mark.parametrize(
        "source, bad, col",
        [
            ("Class: café", "café", 21),
            ("Class: A SubClassOf: Straße", "Straße", 35),
            ("Class: A SubClassOf: r some x²", "x²", 42),
            ("Class: A SubClassOf: B[Ab, é]", "é", 41),
        ],
    )
    def test_non_ascii_name_is_syntax_error(self, capsys, tmp_path, json_flag, command, source, bad, col):
        # The lexer reads Unicode letters and digits; a name must be ASCII.
        path = write(tmp_path, f"library L\nontology O = {source} end\n")
        code, out, err = run_cli([command[0], path, *command[1:], *json_flag], capsys)
        assert (code, out) == (1, "")
        (line,) = err.splitlines()
        message = f"{bad!r} is not a valid name: use ASCII letters, digits and '_'"
        if json_flag:
            assert json.loads(line) == {
                "code": "SyntaxError",
                "col": col,
                "file": path,
                "line": 2,
                "message": message,
                "severity": "error",
            }
        else:
            assert line == f"{path}:2:{col}: error: SyntaxError: {message}"

    @pytest.mark.parametrize("json_flag", [[], ["--json-diagnostics"]])
    @pytest.mark.parametrize(
        "source, structured",
        [
            # written in the text
            ("ontology O = Class: A[owl:Thing] end", "A[owl:Thing]"),
            # substituted for a parameter inside a bracketed name
            (
                "pattern P [Class: X] = Class: rel[X] SubClassOf: X end\n"
                "ontology O = P [Class: owl:Thing] end",
                "rel[owl:Thing]",
            ),
        ],
    )
    def test_constituent_owl_thing_is_unstratified(self, capsys, tmp_path, json_flag, source, structured):
        path = write(tmp_path, f"library L\n{source}\nontology Q = Class: B end\n")
        message = f"structured name {structured} cannot be stratified: owl:Thing cannot be a constituent"
        # The error is located at the target ontology, the last line of source.
        line = 2 + source.count("\n")
        expected = (
            json.dumps({"code": "UnstratifiedName", "col": 1, "file": path, "line": line,
                        "message": message, "severity": "error"}, sort_keys=True)
            if json_flag
            else f"{path}:{line}:1: error: UnstratifiedName: {message}"
        )
        for command in (["flatten", path, "--target", "O"], ["check", path]):
            code, out, err = run_cli([*command, *json_flag], capsys)
            assert (code, out, err) == (2, "", expected + "\n")
        # Without stratification the name is written as it is.
        code, out, err = run_cli(["flatten", path, "--target", "O", "--keep-structured-names"], capsys)
        assert (code, err) == (0, "")
        assert f"Class: {structured}\n" in out


    @pytest.mark.parametrize("json_flag", [[], ["--json-diagnostics"]])
    def test_stratification_collision_located_at_target(self, capsys, tmp_path, json_flag):
        path = write(
            tmp_path,
            "library L\nontology Fine = Class: A end\n"
            "ontology Clash =\n  Class: A[B_C]\n  Class: A[B][C]\nend\n",
        )
        message = "A[B_C] and A[B][C] both stratify to 'A_B_C'"
        expected = (
            json.dumps({"code": "StratificationCollision", "col": 1, "file": path, "line": 3,
                        "message": message, "severity": "error"}, sort_keys=True)
            if json_flag
            else f"{path}:3:1: error: StratificationCollision: {message}"
        )
        for command in (["flatten", path, "--target", "Clash"], ["check", path]):
            code, out, err = run_cli([*command, *json_flag], capsys)
            assert (code, out, err) == (2, "", expected + "\n")

    @pytest.mark.parametrize("json_flag", [[], ["--json-diagnostics"]])
    def test_no_named_subject_located_at_target(self, capsys, tmp_path, json_flag):
        path = write(tmp_path, "library L\nontology O =\n  Class: owl:Thing SubClassOf: A\nend\n")
        message = "axiom has no named subject to attach a frame to: SubClassOf"
        expected = (
            json.dumps({"code": "UnsupportedConstruct", "col": 1, "file": path, "line": 2,
                        "message": message, "severity": "error"}, sort_keys=True)
            if json_flag
            else f"{path}:2:1: error: UnsupportedConstruct: {message}"
        )
        flatten = ["flatten", path, "--target", "O"]
        # check makes the same subject check as flatten, without emitting.
        for command in (flatten, [*flatten, "--keep-structured-names"], ["check", path]):
            code, out, err = run_cli([*command, *json_flag], capsys)
            assert (code, out, err) == (1, "", expected + "\n")

    # P's parameter X is in scope in P's body, and a parameter never denotes
    # an ontology, so `Q [X]` is an error of the resolver: X is neither the
    # ontology X nor, at expansion, P's argument. Every command that
    # resolves reports it, whichever target it expands.
    @pytest.mark.parametrize("json_flag", [[], ["--json-diagnostics"]])
    @pytest.mark.parametrize("argument", ["O", "Foo"])
    def test_parameter_as_ontology_argument_is_resolver_error(self, capsys, tmp_path, json_flag, argument):
        path = write(tmp_path, SUBSTITUTED_ARGUMENT.replace("{}", argument))
        message = "argument 1 of Q must name an ontology, not the parameter X of P"
        expected = (
            json.dumps({"code": "SymbolArgForOntologyParam", "col": 26, "file": path, "line": 4,
                        "message": message, "severity": "error"}, sort_keys=True)
            if json_flag
            else f"{path}:4:26: error: SymbolArgForOntologyParam: {message}"
        )
        for command in (["check", path], ["flatten", path, "--target", "O"], ["flatten", path, "--target", "X"]):
            assert run_cli([*command, *json_flag], capsys) == (2, "", expected + "\n")

    @pytest.mark.parametrize("json_flag", [[], ["--json-diagnostics"]])
    def test_ontology_parameter_symbol_as_ontology_argument(self, capsys, tmp_path, json_flag):
        # D is a symbol of P's ontology parameter, so a parameter of P too.
        path = write(
            tmp_path,
            "library L\npattern Q [ontology {Class: A}] = Class: B end\n"
            "pattern P [Class: Y] [ontology {Class: D}] = Q [D] end\nontology U = Class: Z end\n",
        )
        message = "argument 1 of Q must name an ontology, not the parameter D of P"
        expected = (
            json.dumps({"code": "SymbolArgForOntologyParam", "col": 48, "file": path, "line": 3,
                        "message": message, "severity": "error"}, sort_keys=True)
            if json_flag
            else f"{path}:3:48: error: SymbolArgForOntologyParam: {message}"
        )
        for command in (["check", path], ["flatten", path, "--target", "U"]):
            assert run_cli([*command, *json_flag], capsys) == (2, "", expected + "\n")

    def test_bare_library_ontology_argument_in_pattern_body(self, capsys, tmp_path):
        # X is no parameter of P: the bare X in P's body names the ontology X.
        path = write(
            tmp_path,
            "library L\nontology X = Class: A Class: C SubClassOf: A end\n"
            "pattern Q [ontology {Class: A Class: C SubClassOf: A}] = Class: B end\n"
            "pattern P [Class: Y] = Q [X] and Class: Y end\nontology O = P [Class: E] end\n",
        )
        assert run_cli(["check", path], capsys) == (0, "", "")
        assert run_cli(["flatten", path, "--target", "O"], capsys) == (
            0, "Class: B\n\nClass: E\n", f"{path}: 1 proof obligation(s)\n"
        )
        code, out, err = run_cli(["obligations", path, "--target", "O"], capsys)
        assert (code, err) == (0, "")
        assert out == (
            "obligation-count: 1\n\nobligation: 1\npattern: Q\nargument-position: 1\n"
            f"site: {path}:4:26\ntarget: X\nfit: A |-> A\nfit: C |-> C\naxiom: Class: C SubClassOf: A\n"
        )

    # Located at the block, or the argument, whose name X[A] is substituted.
    @pytest.mark.parametrize("json_flag", [[], ["--json-diagnostics"]])
    @pytest.mark.parametrize(
        "body, col", [("Class: X[A]", 24), ("Q [Class: X[A]]", 26), ("R [N fit A |-> X[A]]", 26)]
    )
    def test_owl_thing_substituted_for_a_base(self, capsys, tmp_path, json_flag, body, col):
        path = write(
            tmp_path,
            "library L ontology N = Class: A end pattern Q [Class: c] = Class: c end"
            " pattern R [ontology {Class: A}] = Class: A end\n"
            f"pattern P [Class: X] = {body} end\nontology O = P [Class: owl:Thing] end\n",
        )
        message = "owl:Thing cannot replace X in X[A]: it takes no constituents"
        note = "while expanding instantiation of 'P'"
        expected = (
            json.dumps({"code": "KindMismatch", "col": col, "file": path, "line": 2, "message": message,
                        "notes": [{"col": 14, "file": path, "line": 3, "message": note}], "severity": "error"},
                       sort_keys=True)
            if json_flag
            else f"{path}:2:{col}: error: KindMismatch: {message}\n{path}:3:14: note: {note}"
        )
        for command in (
            ["check", path],
            ["flatten", path, "--target", "O"],
            ["flatten", path, "--target", "O", "--keep-structured-names"],
            ["obligations", path, "--target", "O"],
        ):
            code, out, err = run_cli([*command, *json_flag], capsys)
            assert (code, out, err) == (2, "", expected + "\n")

    @pytest.mark.parametrize("json_flag", [[], ["--json-diagnostics"]])
    @pytest.mark.parametrize(
        "source, bad, line, col",
        [
            # definitions
            ("library café\nontology O = Class: A end", "café", 1, 9),
            ("library L\nontology café = Class: A end", "café", 2, 10),
            ("library L\nontology some = Class: A end", "some", 2, 10),
            ("library L\npattern Größe [Class: X] = Class: X end", "Größe", 2, 9),
            ("library L\npattern or [Class: X] = Class: X end", "or", 2, 9),
            # references, bare and instantiated
            ("library L\nontology O = Class: A end\nontology Q = O and café end", "café", 3, 20),
            ("library L\nontology O = Class: A end\nontology Q = only end", "only", 3, 14),
            ("library L\nontology Q = Pé [Class: A] end", "Pé", 2, 14),
            # an ontology argument: the rule it already followed
            ("library L\nontology Q = P [café] end", "café", 2, 17),
        ],
    )
    def test_item_names_follow_the_name_rule(self, capsys, tmp_path, json_flag, source, bad, line, col):
        path = write(tmp_path, source + "\n")
        message = (
            f"{bad!r} is a reserved word and cannot be used as a name"
            if bad.isascii()
            else f"{bad!r} is not a valid name: use ASCII letters, digits and '_'"
        )
        expected = (
            json.dumps({"code": "SyntaxError", "col": col, "file": path, "line": line,
                        "message": message, "severity": "error"}, sort_keys=True)
            if json_flag
            else f"{path}:{line}:{col}: error: SyntaxError: {message}"
        )
        for command in (["check", path], ["list", path]):
            code, out, err = run_cli([*command, *json_flag], capsys)
            assert (code, out, err) == (1, "", expected + "\n")


class TestRarePaths:
    """Paths of the parser, resolver, lexer and expander that the CLI reaches
    on these inputs alone, each pinned by its output, position and exit code."""

    QN = "library L\nontology N = Class: A end\npattern Q [ontology {Class: A}] = Class: B end\n"

    @pytest.mark.parametrize(
        "source, argv, code, line",
        [
            ("library L\npattern P [Class: P] = Class: P end\n", ["check"], 1,
             "2:11: error: DuplicateName: parameter P shadows the pattern name"),
            ("library L\npattern P [Class: X[Y]] = Class: A end\n", ["check"], 1,
             "2:19: error: SyntaxError: a parameter name must be a plain identifier"),
            (QN + "ontology O = Q [N fit A[Z] |-> A] end\n", ["check"], 1,
             "4:23: error: SyntaxError: a fitting-map symbol must be a plain identifier"),
            (QN + "ontology O = Q [N[Z] fit A |-> A] end\n", ["check"], 1,
             "4:17: error: SyntaxError: an ontology argument must be a plain name"),
            ("library L\nontology O = Prefix: x end\n", ["check"], 1,
             "2:14: error: UnsupportedConstruct: 'Prefix:' is outside the supported subset"),
            ("library L\npattern Q [ontology {Prefix: x}] = Class: B end\n", ["check"], 1,
             "2:22: error: UnsupportedConstruct: 'Prefix:' is outside the supported subset"),
            ("library L\npattern P [Class: X] = Class: X end\nontology O = P [Class: A] end\n",
             ["flatten", "--target", "P"], 2,
             "2:1: error: UnknownTarget: 'P' is a pattern; flattening targets an ontology"),
            # the blocks' literal A clashes; the walk passes over the Ref leaf R [X]
            ("library L\npattern R [Class: Y] = Class: Y end\n"
             "pattern Q [Class: X] = R [X] and Class: A and ObjectProperty: A end\n", ["check"], 2,
             "3:47: error: ConflictingKind: A is used both as Class and as ObjectProperty"),
        ],
    )
    def test_error(self, capsys, tmp_path, source, argv, code, line):
        path = write(tmp_path, source)
        command, *options = argv
        assert run_cli([command, path, *options], capsys) == (code, "", f"{path}:{line}\n")

    def test_site_whose_fit_target_is_omitted_is_deleted_whole(self, capsys, tmp_path):
        # Q's site maps A to P's omitted X: the site and its obligation go.
        text = self.QN + "pattern P [Class: X?] = Q [N fit A |-> X] and Class: C end\n"
        path = write(tmp_path, text + "ontology O = P [] end\nontology O2 = P [Class: A] end\n")
        assert run_cli(["flatten", path, "--target", "O"], capsys) == (0, "Class: C\n", "")
        assert run_cli(["obligations", path, "--target", "O"], capsys) == (0, "obligation-count: 0\n", "")
        code, out, _ = run_cli(["flatten", path, "--target", "O2"], capsys)
        assert (code, out) == (0, "Class: B\n\nClass: C\n")

    def test_comment_on_the_last_line_without_a_newline(self, capsys, tmp_path):
        path = write(tmp_path, "library L\nontology O = Class: A end\n%% the end")
        assert run_cli(["flatten", path, "--target", "O"], capsys) == (0, "Class: A\n", "")


class TestConformance:
    """The three ways an argument ontology fails its parameter, each pinned by
    its whole stderr, plain and JSON, at a site an ontology writes and at a
    site a pattern body writes; an error at the nested site carries a note
    for each site it was reached through."""

    T = "library L\nontology T = Class: Animal ObjectProperty: w end\npattern P [ontology {Class: D}] = Class: D end\n"
    N = (
        "library L\nontology N = Class: A ObjectProperty: w end\n"
        "pattern Q [Class: Y] [ontology {Class: X}] = Class: Y SubClassOf: X end\n"
    )
    DIRECT = [((4, 14), "P")]
    NESTED = [((4, 24), "Q"), ((5, 14), "P")]

    @pytest.mark.parametrize("json_flag", [[], ["--json-diagnostics"]])
    @pytest.mark.parametrize(
        "source, code, col, message, notes",
        [
            (T + "ontology O = P [T fit D |-> Ghost] end\n", "FitTargetUndeclared", 16,
             "fit target Ghost is not declared in ontology 'T' (argument 1 of P)", DIRECT),
            (T + "ontology O = P [T] end\n", "UnmappedParameterSymbol", 16,
             "parameter symbol D has no counterpart in ontology 'T' (argument 1 of P)", DIRECT),
            (T + "ontology O = P [T fit D |-> w] end\n", "KindMismatch", 16,
             "parameter symbol D is a Class but w is declared as ObjectProperty in ontology 'T'"
             " (argument 1 of P)", DIRECT),
            (N + "pattern P [Class: Y] = Q [Y] [N fit X |-> Y] end\nontology O = P [Class: Ghost] end\n",
             "FitTargetUndeclared", 30, "fit target Ghost is not declared in ontology 'N' (argument 2 of Q)", NESTED),
            (N + "pattern P [Class: Y] = Q [Y] [N] end\nontology O = P [Class: A] end\n",
             "UnmappedParameterSymbol", 30,
             "parameter symbol X has no counterpart in ontology 'N' (argument 2 of Q)", NESTED),
            (N + "pattern P [Class: Y] = Q [Y] [N fit X |-> w] end\nontology O = P [Class: A] end\n",
             "KindMismatch", 30,
             "parameter symbol X is a Class but w is declared as ObjectProperty in ontology 'N'"
             " (argument 2 of Q)", NESTED),
        ],
    )
    def test_error(self, capsys, tmp_path, json_flag, source, code, col, message, notes):
        path = write(tmp_path, source)
        exit_code, out, err = run_cli(["check", path, *json_flag], capsys)
        assert (exit_code, out) == (2, "")
        line = notes[0][0][0]
        trail = [f"while expanding instantiation of {pattern!r}" for _, pattern in notes]
        if json_flag:
            assert json.loads(err) == {
                "severity": "error", "code": code, "file": path, "line": line, "col": col, "message": message,
                "notes": [{"file": path, "line": l, "col": c, "message": m} for ((l, c), _), m in zip(notes, trail)],
            }
            assert err.count("\n") == 1
        else:
            expected = [f"{path}:{line}:{col}: error: {code}: {message}"]
            expected += [f"{path}:{l}:{c}: note: {m}" for ((l, c), _), m in zip(notes, trail)]
            assert err == "\n".join(expected) + "\n"

    def test_nested_two_symbol_fit_obligation(self, capsys, tmp_path):
        # Q's requirement names Z before E; the report's fit lines are sorted.
        source = (
            "library L\nontology N = Class: A Class: B SubClassOf: A end\n"
            "pattern Q [Class: Y] [ontology {Class: Z Class: E SubClassOf: Z}] = Class: Y SubClassOf: E end\n"
            "pattern P [Class: Y] = Q [Y] [N fit Z |-> A, E |-> Y] end\nontology O = P [Class: B] end\n"
        )
        path = write(tmp_path, source)
        assert run_cli(["obligations", path, "--target", "O"], capsys) == (0, (
            "obligation-count: 1\n\nobligation: 1\npattern: Q\nargument-position: 2\n"
            f"site: {path}:4:30\ntarget: N\nfit: E |-> B\nfit: Z |-> A\naxiom: Class: B SubClassOf: A\n"
        ), "")


class TestClosedStdout:
    """A standard output closed by its reader is one IoError, exit 3: no
    InternalError and nothing from the interpreter's exit flush."""

    @pytest.mark.parametrize("unbuffered", [False, True])
    @pytest.mark.parametrize("options", [["list"], ["flatten", "--target", "X"], ["obligations", "--target", "X"]])
    def test_one_io_error(self, tmp_path, options, unbuffered):
        path = write(tmp_path, "library L\nontology X = Class: A end\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        r, w = os.pipe()
        os.close(r)
        try:
            argv = [sys.executable, "-m", "godp", options[0], path, *options[1:]]
            proc = subprocess.run(argv, stdout=w, stderr=subprocess.PIPE, text=True, env=env)
        finally:
            os.close(w)
        expected = f"{path}: error: IoError: cannot write standard output: Broken pipe\n"
        assert (proc.returncode, proc.stderr) == (3, expected)

    def test_no_descriptor_1(self, tmp_path):
        # Started with descriptor 1 closed, Python has no sys.stdout at all.
        path = write(tmp_path, "library L\nontology X = Class: A end\n")
        script = '"$0" -m godp list "$1" >&-'
        proc = subprocess.run(["sh", "-c", script, sys.executable, path], capture_output=True, text=True)
        expected = f"{path}: error: IoError: cannot write standard output: Bad file descriptor\n"
        assert (proc.returncode, proc.stderr) == (3, expected)


class TestInternalError:
    """An exception no stage reports itself ends as one InternalError
    diagnostic and exit code 4, never as a traceback."""

    @pytest.mark.parametrize("json_flag", [[], ["--json-diagnostics"]])
    def test_deep_parentheses(self, capsys, tmp_path, json_flag):
        depth = 5000  # the recursive-descent parser runs out of stack
        path = write(tmp_path, "library L ontology O = " + "(" * depth + "Class: A" + ")" * depth + " end")
        code, out, err = run_cli(["flatten", path, "--target", "O", *json_flag], capsys)
        assert (code, out) == (4, "")
        assert "Traceback" not in err
        (line,) = err.splitlines()
        # One fixed line: where the stack ran out, and the exception's text, vary.
        if json_flag:
            diag = json.loads(line)
            assert (diag["severity"], diag["code"], diag["file"]) == ("error", "InternalError", path)
            assert diag["message"] == "RecursionError: input nested too deeply"
        else:
            assert line == f"{path}: error: InternalError: RecursionError: input nested too deeply"

    def test_deep_class_expression_compiles_up_to_the_parser_limit(self, tmp_path):
        # A record hashes and compares in C, and every walk of a class
        # expression takes one frame per level: 900 nested `not`s compile
        # under check and flatten, in a fresh process at the default
        # recursion limit. 2,000 overflow the parser's stack, which is one
        # fixed InternalError line.
        def run(depth, *argv):
            path = write(tmp_path, "library L ontology O = Class: A SubClassOf: " + "not " * depth + "B end")
            return subprocess.run([sys.executable, "-m", "godp", *argv, path], capture_output=True, text=True)

        proc = run(900, "check")
        assert (proc.returncode, proc.stdout) == (0, "")
        proc = run(900, "flatten", "--target", "O")
        assert (proc.returncode, proc.stdout) == (0, "Class: A\n  SubClassOf: " + "not " * 900 + "B\n")
        assert "error" not in proc.stderr
        path = str(tmp_path / "lib.gdol")
        for command in (["check"], ["flatten", "--target", "O"]):
            proc = run(2000, *command)
            assert (proc.returncode, proc.stdout) == (4, "")
            assert proc.stderr == f"{path}: error: InternalError: RecursionError: input nested too deeply\n"

    def test_other_exception_names_file_and_function(self, capsys, monkeypatch, fixtures_dir):
        # The innermost frame, by file and function: no line number to move with an edit.
        def report(obligations, file):
            raise ValueError("no report")

        monkeypatch.setattr("godp.cli.render_report", report)
        path = str(fixtures_dir / "obligations.gdol")
        code, out, err = run_cli(["obligations", path, "--target", "BeagleTerm"], capsys)
        assert (code, out) == (4, "")
        assert err.splitlines()[-1] == f"{path}: error: InternalError: ValueError in test_cli.py:report: no report"


class TestCheck:
    def test_role_library_passes(self, capsys, fixtures_dir):
        code, out, err = run_cli(["check", str(fixtures_dir / "role.gdol")], capsys)
        assert code == 0
        assert out == ""

    def test_warnings_do_not_affect_exit_code(self, capsys, fixtures_dir):
        code, _, err = run_cli(["check", str(fixtures_dir / "driving.gdol")], capsys)
        assert code == 0
        assert "warning" in err

    # A pattern passes its Class parameter X on to Q's ObjectProperty
    # parameter, bare or with the callee's kind written: the resolver
    # compares the two kinds where P is written.
    @pytest.mark.parametrize("call", ["Q [X]", "Q [ObjectProperty: X]"])
    def test_parameter_passed_on_with_another_kind(self, capsys, tmp_path, call):
        path = write(
            tmp_path,
            "library L\npattern Q [ObjectProperty: p] = ObjectProperty: p end\n"
            f"pattern P [Class: X] = {call} end\nontology O = P [Class: C] end\n",
        )
        code, _, err = run_cli(["check", path], capsys)
        assert code == 2
        assert "KindMismatch" in err

    # A pattern body uses its Class parameter X as an object property: every
    # command stops at the resolver, where the output was once wrong with exit 0.
    @pytest.mark.parametrize("json_flag", [[], ["--json-diagnostics"]])
    @pytest.mark.parametrize("command", [["check"], ["flatten", "--target", "O"], ["obligations", "--target", "O"]])
    def test_parameter_used_in_body_with_another_kind(self, capsys, tmp_path, command, json_flag):
        path = write(
            tmp_path,
            "library L\npattern P [Class: X] = Class: A SubClassOf: X some A end\nontology O = P [Class: C] end\n",
        )
        code, out, err = run_cli([command[0], path, *command[1:], *json_flag], capsys)
        assert (code, out) == (2, "")
        message = "X is a Class parameter of P, but is used as ObjectProperty"
        if json_flag:
            diag = json.loads(err)
            assert (diag["code"], diag["line"], diag["col"], diag["message"]) == ("KindMismatch", 2, 24, message)
        else:
            assert err == f"{path}:2:24: error: KindMismatch: {message}\n"

    # A section its frame kind lacks is an error where the pattern is written:
    # reported once, under no note, by every command, however many targets
    # reach it.
    @pytest.mark.parametrize("json_flag", [[], ["--json-diagnostics"]])
    @pytest.mark.parametrize(
        "command", [["list"], ["check"], ["flatten", "--target", "O1"], ["obligations", "--target", "O1"]]
    )
    def test_malformed_pattern_reported_once(self, capsys, tmp_path, command, json_flag):
        path = write(
            tmp_path,
            "library L\npattern R [Class: X] = Class: X Domain: B end\n"
            "ontology O1 = R [Class: A] end\nontology O2 = R [Class: C] end\nontology O3 = O1 and O2 end\n",
        )
        code, out, err = run_cli([command[0], path, *command[1:], *json_flag], capsys)
        assert (code, out) == (1, "")
        message = "section 'Domain' is not supported in a Class frame"
        if json_flag:
            diag = json.loads(err)
            assert (diag["code"], diag["line"], diag["col"], diag["message"]) == ("UnsupportedConstruct", 2, 33, message)
            assert "notes" not in diag
        else:
            assert err == f"{path}:2:33: error: UnsupportedConstruct: {message}\n"


    # A bad argument is an error where it is written: reported once, under no
    # note, however many targets reach it. Like every resolver error, it
    # stops every target, Fine too, which does not reach it.
    BAD_ARGUMENT = (
        "library L\npattern Q [Class: A] = Class: A end\npattern P [Class: X] = Q [] end\n"
        "ontology O1 = P [Class: B] end\nontology O2 = P [Class: C] end\nontology O3 = O1 and O2 end\n"
        "ontology Fine = Class: Z end\n"
    )

    @pytest.mark.parametrize("json_flag", [[], ["--json-diagnostics"]])
    @pytest.mark.parametrize(
        "command",
        [["check"], ["flatten", "--target", "O1"], ["obligations", "--target", "O1"], ["flatten", "--target", "Fine"]],
    )
    def test_bad_argument_reported_once(self, capsys, tmp_path, command, json_flag):
        path = write(tmp_path, self.BAD_ARGUMENT)
        code, out, err = run_cli([command[0], path, *command[1:], *json_flag], capsys)
        assert (code, out) == (2, "")
        message = "argument 1 of Q (A) is mandatory"
        if json_flag:
            diag = json.loads(err)
            assert (diag["code"], diag["line"], diag["col"], diag["message"]) == ("MissingMandatoryArgument", 3, 26, message)
            assert "notes" not in diag
        else:
            assert err == f"{path}:3:26: error: MissingMandatoryArgument: {message}\n"

    # An ontology argument at a symbol parameter is one error, however its
    # name would bind: to no item, or to a pattern.
    @pytest.mark.parametrize("json_flag", [[], ["--json-diagnostics"]])
    @pytest.mark.parametrize("argument", ["Missing", "Q"])
    def test_ontology_argument_at_symbol_parameter_is_one_error(self, capsys, tmp_path, argument, json_flag):
        path = write(
            tmp_path,
            f"library L\npattern Q [Class: A] = Class: A end\npattern P [Class: X] = Q [{argument} fit A |-> X] end\n",
        )
        code, out, err = run_cli(["check", path, *json_flag], capsys)
        assert (code, out) == (2, "")
        message = "argument 1 of Q must be a single Class symbol, not an ontology"
        if json_flag:
            diag = json.loads(err)
            assert (diag["code"], diag["line"], diag["col"], diag["message"]) == ("OntologyArgForSymbolParam", 3, 26, message)
        else:
            assert err == f"{path}:3:26: error: OntologyArgForSymbolParam: {message}\n"

    # A fit that maps one symbol twice is one error at its argument.
    @pytest.mark.parametrize("json_flag", [[], ["--json-diagnostics"]])
    @pytest.mark.parametrize("fit", ["A |-> B, A |-> C", "A |-> B, A |-> B"])
    def test_fit_mapping_a_symbol_twice_is_one_error(self, capsys, tmp_path, fit, json_flag):
        path = write(
            tmp_path,
            "library L\nontology N = Class: A Class: B Class: C end\n"
            f"pattern Q [ontology {{Class: A}}] = Class: Z end\nontology O = Q [N fit {fit}] end\n",
        )
        code, out, err = run_cli(["check", path, *json_flag], capsys)
        assert (code, out) == (1, "")
        message = "fit maps A twice (argument 1 of Q)"
        if json_flag:
            diag = json.loads(err)
            assert (diag["code"], diag["line"], diag["col"], diag["message"]) == ("DuplicateName", 4, 16, message)
            assert "notes" not in diag
        else:
            assert err == f"{path}:4:16: error: DuplicateName: {message}\n"

    # A kind clash among a pattern body's literal names is an error where the
    # pattern is written: reported once, under no note, with or without a
    # target that reaches it.
    LITERAL_CLASH = "library L\npattern Q [Class: X] = Class: A and ObjectProperty: A end\n"
    LITERAL_CLASH_TARGETS = "ontology O1 = Q [Class: B] end\nontology O2 = Q [Class: C] end\nontology O3 = O1 and O2 end\n"

    @pytest.mark.parametrize("json_flag", [[], ["--json-diagnostics"]])
    @pytest.mark.parametrize(
        "targets, command",
        [
            ("", ["check"]),
            (LITERAL_CLASH_TARGETS, ["check"]),
            (LITERAL_CLASH_TARGETS, ["flatten", "--target", "O3"]),
            (LITERAL_CLASH_TARGETS, ["obligations", "--target", "O1"]),
        ],
    )
    def test_literal_kind_clash_reported_once(self, capsys, tmp_path, targets, command, json_flag):
        path = write(tmp_path, self.LITERAL_CLASH + targets)
        code, out, err = run_cli([command[0], path, *command[1:], *json_flag], capsys)
        assert (code, out) == (2, "")
        message = "A is used both as Class and as ObjectProperty"
        if json_flag:
            diag = json.loads(err)
            assert (diag["code"], diag["line"], diag["col"], diag["message"]) == ("ConflictingKind", 2, 37, message)
            assert "notes" not in diag
        else:
            assert err == f"{path}:2:37: error: ConflictingKind: {message}\n"

    # A clash that an argument creates, or that only a passed optional
    # argument keeps, is an error of the site that creates it.
    OPTIONAL_FACT = "library L\npattern Q [Individual: Y ?] = Class: A and Individual: i Facts: A Y end\n"

    @pytest.mark.parametrize("site", ["", "ontology O = Q [] end\n"])
    def test_clash_an_omitted_argument_deletes_passes(self, capsys, tmp_path, site):
        assert run_cli(["check", write(tmp_path, self.OPTIONAL_FACT + site)], capsys) == (0, "", "")

    @pytest.mark.parametrize("json_flag", [[], ["--json-diagnostics"]])
    @pytest.mark.parametrize(
        "text, col, name, pattern",
        [
            (OPTIONAL_FACT + "ontology O = Q [Individual: j] end\n", 40, "A", "Q"),
            (
                "library L\npattern P [Class: X] [ObjectProperty: Y] = Class: X and ObjectProperty: Y end\n"
                "ontology O = P [Class: C] [ObjectProperty: C] end\n",
                53,
                "C",
                "P",
            ),
        ],
    )
    def test_clash_a_site_creates_is_a_site_error(self, capsys, tmp_path, text, col, name, pattern, json_flag):
        path = write(tmp_path, text)
        code, out, err = run_cli(["check", path, *json_flag], capsys)
        assert (code, out) == (2, "")
        message = f"{name} is used both as Class and as ObjectProperty"
        note = f"while expanding instantiation of {pattern!r}"
        if json_flag:
            diag = json.loads(err)
            assert (diag["code"], diag["line"], diag["col"], diag["message"]) == ("ConflictingKind", 2, col, message)
            assert diag["notes"] == [{"file": path, "line": 3, "col": 14, "message": note}]
        else:
            assert err == f"{path}:2:{col}: error: ConflictingKind: {message}\n{path}:3:14: note: {note}\n"

    # A fault of a named ontology is printed once, however many targets reach
    # it: O2 and O3 fail with O's error, which check has already printed.
    @pytest.mark.parametrize("json_flag", [[], ["--json-diagnostics"]])
    @pytest.mark.parametrize(
        "text, col, name, note",
        [
            ("library L\nontology O = Class: A and ObjectProperty: A end\n", 23, "A", None),
            (
                "library L\npattern P [Class: X] [ObjectProperty: Y] = Class: X and ObjectProperty: Y end\n"
                "ontology O = P [Class: C] [ObjectProperty: C] end\n",
                53,
                "C",
                "while expanding instantiation of 'P'",
            ),
        ],
    )
    def test_fault_of_a_reached_ontology_reported_once(self, capsys, tmp_path, text, col, name, note, json_flag):
        path = write(tmp_path, text + "ontology O2 = O and Class: B end\nontology O3 = O2 end\n")
        code, out, err = run_cli(["check", path, *json_flag], capsys)
        assert (code, out) == (2, "")
        message = f"{name} is used both as Class and as ObjectProperty"
        if json_flag:
            diag = json.loads(err)
            assert (diag["code"], diag["line"], diag["col"], diag["message"]) == ("ConflictingKind", 2, col, message)
            assert diag.get("notes") == ([{"file": path, "line": 3, "col": 14, "message": note}] if note else None)
        else:
            notes = f"{path}:3:14: note: {note}\n" if note else ""
            assert err == f"{path}:2:{col}: error: ConflictingKind: {message}\n{notes}"

    def test_bad_argument_is_listed(self, capsys, tmp_path):
        code, out, err = run_cli(["list", write(tmp_path, self.BAD_ARGUMENT)], capsys)
        assert (code, err) == (0, "")
        assert "pattern P [Class X]" in out.splitlines()


class TestList:
    def test_role_signatures(self, capsys, fixtures_dir):
        code, out, _ = run_cli(["list", str(fixtures_dir / "role.gdol")], capsys)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "library Role"
        assert "ontology Role_Original" in lines
        assert (
            "pattern RoleGODPParametrisation [Class Role][Class Performer][Class Provider?]"
            in lines
        )

    def test_empty_library_header_only(self, capsys, tmp_path):
        path = write(tmp_path, "library Empty")
        code, out, _ = run_cli(["list", path], capsys)
        assert code == 0
        assert out == "library Empty\n"

    def test_ontology_parameter_declaring_nothing(self, capsys, tmp_path):
        path = write(
            tmp_path,
            "library L\npattern P [ontology {}] [ontology {}?] [ontology { Class: A }?] = Class: X end",
        )
        code, out, _ = run_cli(["list", path], capsys)
        assert code == 0
        assert out == "library L\npattern P [ontology][ontology?][ontology A?]\n"

    def test_stable_output(self, capsys, fixtures_dir):
        code_a, out_a, _ = run_cli(["list", str(fixtures_dir / "role.gdol")], capsys)
        code_b, out_b, _ = run_cli(["list", str(fixtures_dir / "role.gdol")], capsys)
        assert (code_a, out_a) == (code_b, out_b)

    def test_parse_failure_exits_1(self, capsys, tmp_path):
        path = write(tmp_path, "library L ontology ???")
        code, _, err = run_cli(["list", path], capsys)
        assert code == 1


class TestObligations:
    def test_requirement_reported(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            ["obligations", str(fixtures_dir / "obligations.gdol"), "--target", "BeagleTerm"],
            capsys,
        )
        assert code == 0
        assert "obligation-count: 1" in out
        assert "pattern: NarrowerTerm" in out
        assert "target: Taxonomy" in out
        assert "fit: D |-> Dog" in out
        assert "fit: E |-> Animal" in out
        assert "axiom: Class: Dog SubClassOf: Animal" in out

    def test_empty_report(self, capsys, fixtures_dir):
        code, out, _ = run_cli(
            ["obligations", str(fixtures_dir / "obligations.gdol"), "--target", "PuppyTerm"],
            capsys,
        )
        assert code == 0
        assert out == "obligation-count: 0\n"

    def test_unknown_target_exits_2(self, capsys, fixtures_dir):
        code, _, err = run_cli(
            ["obligations", str(fixtures_dir / "obligations.gdol"), "--target", "Nothing"],
            capsys,
        )
        assert code == 2

    def test_flatten_reports_count_on_stderr(self, capsys, fixtures_dir):
        code, out, err = run_cli(
            ["flatten", str(fixtures_dir / "obligations.gdol"), "--target", "BeagleTerm"],
            capsys,
        )
        assert code == 0
        assert "1 proof obligation(s)" in err
        assert "obligation" not in out

    @pytest.mark.parametrize("keep", [[], ["--keep-structured-names"]])
    def test_flatten_count_is_one_json_object(self, capsys, fixtures_dir, keep):
        path = str(fixtures_dir / "obligations.gdol")
        code, _, err = run_cli(["flatten", path, "--target", "BeagleTerm", *keep, "--json-diagnostics"], capsys)
        lines = [json.loads(line) for line in err.splitlines()]
        assert code == 0
        assert [d["code"] for d in lines[:-1]] == ["UndeclaredName"]
        assert lines[-1] == {"file": path, "message": "1 proof obligation(s)"}
        code, _, err = run_cli(["flatten", path, "--target", "BeagleTerm", *keep], capsys)
        assert err.splitlines()[-1] == f"{path}: 1 proof obligation(s)"


class TestOptionsPerCommand:
    # The options each command reads; every other option is a usage error.
    READS = {
        "flatten": ["--output", "--keep-structured-names", "--json-diagnostics"],
        "check": ["--json-diagnostics"],
        "list": ["--json-diagnostics"],
        "obligations": ["--output", "--json-diagnostics"],
    }
    ALL = ["--output", "--keep-structured-names", "--json-diagnostics"]

    @staticmethod
    def _argv(command, option, fixtures_dir, tmp_path):
        argv = [command, str(fixtures_dir / "role.gdol")]
        if command in ("flatten", "obligations"):
            argv += ["--target", "ProfRoleOntology"]
        return argv + ([option, str(tmp_path / "out.txt")] if option == "--output" else [option])

    @pytest.mark.parametrize("command", sorted(READS))
    def test_accepts_what_it_reads(self, capsys, tmp_path, fixtures_dir, command):
        for option in self.READS[command]:
            code, _, err = run_cli(self._argv(command, option, fixtures_dir, tmp_path), capsys)
            assert code == 0, (option, err)

    @pytest.mark.parametrize("command", sorted(READS))
    def test_rejects_what_it_ignores(self, capsys, tmp_path, fixtures_dir, command):
        for option in [o for o in self.ALL if o not in self.READS[command]]:
            code, out, err = run_cli(self._argv(command, option, fixtures_dir, tmp_path), capsys)
            assert (code, out) == (2, "")
            assert f"godp: error: unrecognized arguments: {option}" in err
        assert not (tmp_path / "out.txt").exists()


class TestDeterminismAcrossProcesses:
    def test_byte_identical_runs(self, tmp_path, fixtures_dir):
        cmd = [
            sys.executable,
            "-m",
            "godp",
            "flatten",
            str(fixtures_dir / "role.gdol"),
            "--target",
            "ThematicRoles",
        ]
        runs = [subprocess.run(cmd, capture_output=True, check=True) for _ in range(2)]
        assert runs[0].stdout == runs[1].stdout
        assert runs[0].stdout  # non-empty

    def test_independent_of_hash_seed(self, fixtures_dir):
        # One interpreter per seed: str hashes, and so the iteration order of
        # a set of strings, differ between processes, not within one.
        for path in sorted(fixtures_dir.glob("*.gdol")):
            library = parse_library(path.read_text(encoding="utf-8"))
            for target in (item.name for item in library.items if isinstance(item, OntologyDef)):
                runs = []
                for seed in ("0", "1"):
                    proc = subprocess.run(
                        [sys.executable, "-m", "godp", "flatten", str(path), "--target", target],
                        capture_output=True,
                        env={**os.environ, "PYTHONHASHSEED": seed},
                    )
                    assert (proc.stdout or proc.stderr) and b"Traceback" not in proc.stderr
                    runs.append((proc.returncode, proc.stdout, proc.stderr))
                assert runs[0] == runs[1], (path.name, target)

    def test_installed_entry_point(self, fixtures_dir):
        exe = shutil.which("godp")
        if exe is None:
            pytest.skip("console script not installed")
        proc = subprocess.run(
            [exe, "list", str(fixtures_dir / "driving.gdol")], capture_output=True, check=True
        )
        assert proc.stdout.decode().startswith("library Driving")


class TestStartup:
    def test_import_loads_no_heavy_modules(self):
        # A fresh process pays for every module the CLI imports; these five
        # cost more at start-up than the compiler's own modules.
        src = Path(godp.ontology.__file__).resolve().parents[1]
        heavy = ("dataclasses", "inspect", "json", "pathlib", "typing")
        code = f"import sys, godp.cli; print([m for m in {heavy!r} if m in sys.modules])"
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.stdout == "[]\n"


class TestLibraryApi:
    PIPELINE = ["Diagnostic", "GodpError", "emit_manchester", "expand", "parse_library", "resolve", "stratify_ontology"]

    def test_package_root_exports_the_pipeline(self):
        # Everything else is imported from its module, such as godp.frames.Frame.
        assert godp.__all__ == self.PIPELINE
        for name in self.PIPELINE:
            namespace = {}
            exec(f"from godp import {name}", namespace)
            assert namespace[name] is getattr(godp, name)
        namespace = {}
        exec("from godp import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == self.PIPELINE

    def test_readme_example_prints_what_flatten_prints(self, capsys, fixtures_dir):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        example = readme.split("## Library API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
        role = fixtures_dir / "role.gdol"
        exec(example, {"text": role.read_text(encoding="utf-8")})
        printed = capsys.readouterr().out
        code, out, _ = run_cli(["flatten", str(role), "--target", "ProfRoleOntology"], capsys)
        assert code == 0 and out
        assert printed == out


REL_PATTERN = """pattern Rel [ObjectProperty: p] [Class: D] [Class: R] =
  ObjectProperty: p
    Domain: D
    Range: R
  Class: D
  Class: R
end
"""


def _chain_library(shape: str, sites: int) -> str:
    calls = [f"  Rel [ObjectProperty: p{i}] [Class: D{i}] [Class: R{i}]" for i in range(sites)]
    if shape == "and":
        body = "\n  and\n".join(calls)
    else:
        body = "  Class: X\n  then\n" + "\n  then\n".join(calls)
    return f"library Chain\n{REL_PATTERN}\nontology Top =\n{body}\nend\n"


def _chain_output(shape: str, sites: int) -> str:
    """The closed-form flattening of _chain_library: property frames sorted
    by name, then class frames."""
    props = sorted((f"p{i}", f"D{i}", f"R{i}") for i in range(sites))
    classes = sorted([c for _, d, r in props for c in (d, r)] + ["X"] * (shape == "then"))
    blocks = [f"ObjectProperty: {p}\n  Domain: {d}\n  Range: {r}" for p, d, r in props]
    return "\n\n".join(blocks + [f"Class: {c}" for c in classes]) + "\n"


class TestDeepChains:
    """Fresh processes at the default recursion limit: a chain of any length
    flattens, since each chain is one node walked by iteration, and pattern
    nesting goes as deep as it did with binary nodes."""

    @pytest.mark.parametrize("shape", ["and", "then"])
    def test_5000_sites(self, tmp_path, shape):
        path = write(tmp_path, _chain_library(shape, 5000))
        proc = subprocess.run(
            [sys.executable, "-m", "godp", "flatten", path, "--target", "Top"], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == _chain_output(shape, 5000)

    @pytest.mark.parametrize("shape", ["and", "then"])
    def test_patterns_nested_300_deep(self, tmp_path, shape):
        # Each level of pattern nesting costs as many frames as with binary
        # nodes; the expander stops at about 326 levels.
        items = ["pattern P0 [Class: X] = Class: X end"]
        items += [f"pattern P{i} [Class: X] = P{i - 1} [X] {shape} Class: X end" for i in range(1, 301)]
        path = write(tmp_path, "library D\n" + "\n".join(items) + "\nontology T = P300 [Class: A] end\n")
        proc = subprocess.run(
            [sys.executable, "-m", "godp", "flatten", path, "--target", "T"], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "Class: A\n", "")

    def test_parentheses_300_deep(self, tmp_path):
        # Each parenthesis costs three parser frames; the parser stops after
        # 326.
        path = write(tmp_path, "library D\nontology T = " + "(" * 300 + "Class: A" + ")" * 300 + " end\n")
        proc = subprocess.run(
            [sys.executable, "-m", "godp", "flatten", path, "--target", "T"], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "Class: A\n", "")

    @pytest.mark.parametrize("command", [["flatten", "--target", "O200"], ["check"]])
    def test_named_ontologies_chained_200_deep(self, tmp_path, command):
        # Each reference to a named ontology costs about four frames; the
        # expander stops after 244 references (246 under check).
        items = ["ontology O0 = Class: A0 end"]
        items += [f"ontology O{i} = O{i - 1} and Class: A{i} end" for i in range(1, 201)]
        path = write(tmp_path, "library D\n" + "\n".join(items) + "\n")
        proc = subprocess.run(
            [sys.executable, "-m", "godp", command[0], path, *command[1:]], capture_output=True, text=True
        )
        expected = "\n\n".join(f"Class: {c}" for c in sorted(f"A{i}" for i in range(201))) + "\n"
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected if command[0] == "flatten" else "", "")


    def test_check_3000_ontology_cycle(self, tmp_path):
        n = 3000
        items = [f"ontology O{i} = O{(i + 1) % n} and Class: A{i} end" for i in range(n)]
        path = write(tmp_path, "library L\n" + "\n".join(items) + "\n")
        proc = subprocess.run([sys.executable, "-m", "godp", "check", path], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (2, "")
        codes = [line.split(": ")[2] for line in proc.stderr.splitlines()]
        assert codes == ["ForwardReference"] * (n - 1) + ["CyclicReference"]
        assert f"{path}:2:1: error: CyclicReference: cyclic reference: O0 -> O1 -> O2 -> " in proc.stderr


class TestNormalizationCount:
    """Combining must not normalize again: every output axiom is normalized
    once, when its block is built, and once more only if stratification
    renames it. A count, not a timing, so the guard holds on any machine."""

    @staticmethod
    def _count(monkeypatch, capsys, path):
        calls = 0
        original = godp.ontology.normalize_axiom

        def counting(ax):
            nonlocal calls
            calls += 1
            return original(ax)

        monkeypatch.setattr(godp.ontology, "normalize_axiom", counting)
        code, out, err = run_cli(["flatten", path, "--target", "Top"], capsys)
        assert (code, err) == (0, "")
        return calls, out

    @pytest.mark.parametrize("shape", ["and", "then"])
    @pytest.mark.parametrize("sites", [200, 400])
    def test_one_normalization_per_output_axiom(self, capsys, tmp_path, monkeypatch, shape, sites):
        calls, out = self._count(monkeypatch, capsys, write(tmp_path, _chain_library(shape, sites)))
        # Rel yields 5 axioms per site; the `then` chain adds Class: X.
        output_axioms = 5 * sites + (shape == "then")
        assert out.count("\n  Domain: ") == sites
        assert calls == 1 * output_axioms

    @pytest.mark.parametrize("shape", ["and", "then"])
    def test_renamed_axioms_normalized_once_more(self, capsys, tmp_path, monkeypatch, shape):
        # The property p[D] is stratified to p_D: its declaration, domain and
        # range axioms are renamed, the two class declarations are not.
        text = _chain_library(shape, 200).replace("ObjectProperty: p\n", "ObjectProperty: p[D]\n")
        calls, out = self._count(monkeypatch, capsys, write(tmp_path, text))
        output_axioms = 5 * 200 + (shape == "then")
        renamed_axioms = 3 * 200
        assert out.count("\n  Domain: ") == 200
        assert "ObjectProperty: p17_D17\n  Domain: D17\n  Range: R17\n" in out
        assert calls == output_axioms + renamed_axioms


class TestCheckBuildsNoRename:
    """check runs stratification's checks but never reads, so never builds,
    the renamed ontology; flatten still builds it. A count, not a timing."""

    @staticmethod
    def _run(monkeypatch, capsys, argv):
        calls = 0
        original = godp.ontology.map_axiom_names

        def counting(node, fn):
            nonlocal calls
            calls += 1
            return original(node, fn)

        monkeypatch.setattr(godp.ontology, "map_axiom_names", counting)
        return (*run_cli(argv, capsys), calls)

    def test_check_renames_nothing(self, monkeypatch, capsys, fixtures_dir):
        code, out, err, calls = self._run(monkeypatch, capsys, ["check", str(fixtures_dir / "role.gdol")])
        assert (code, out, err, calls) == (0, "", "", 0)

    def test_check_collision_renames_nothing(self, monkeypatch, capsys, fixtures_dir):
        path = str(fixtures_dir / "collision.gdol")
        code, out, err, calls = self._run(monkeypatch, capsys, ["check", path])
        assert (code, out, calls) == (2, "", 0)
        assert err == f"{path}:4:1: error: StratificationCollision: A[B_C] and A[B][C] both stratify to 'A_B_C'\n"

    def test_flatten_still_renames(self, monkeypatch, capsys, fixtures_dir):
        argv = ["flatten", str(fixtures_dir / "role.gdol"), "--target", "ProfRoleOntology"]
        code, out, err, calls = self._run(monkeypatch, capsys, argv)
        assert (code, err) == (0, "")
        assert "ObjectProperty: performsRole_Professor\n" in out
        assert calls > 0

    def test_failing_rename_fails_flatten_only(self, monkeypatch, capsys, fixtures_dir):
        """A rename that raises is never reached by check; flatten reports it
        as one InternalError, exit 4."""

        def failing(node, fn):
            raise RuntimeError("renamed")

        monkeypatch.setattr(godp.ontology, "map_axiom_names", failing)
        path = str(fixtures_dir / "role.gdol")
        assert run_cli(["check", path], capsys) == (0, "", "")
        code, out, err = run_cli(["flatten", path, "--target", "ProfRoleOntology"], capsys)
        assert (code, out) == (4, "")
        assert err.endswith(": error: InternalError: RuntimeError in test_cli.py:failing: renamed\n")


class TestOneErrorRecord:
    """A GodpError keeps the one Diagnostic it reports: every read of
    ``diagnostic`` is that record, and the error's fields read through it.
    One error from each layer: the lexer, the parser, the expander with its
    note trail, and a failed --output write, which names its file."""

    NESTED_SITE = (
        "library L\npattern Q [Class: c] = Class: c[A] end\npattern P [Class: X] = Q [X] end\n"
        "ontology O = P [Class: owl:Thing] end\n"
    )

    @staticmethod
    def _raised(call, *args) -> GodpError:
        with pytest.raises(GodpError) as exc:
            call(*args)
        error, diagnostic = exc.value, exc.value.diagnostic
        assert error.diagnostic is diagnostic
        assert diagnostic.severity == "error"
        fields = (error.code, error.message, error.span, error.file, error.notes)
        assert fields == (diagnostic.code, diagnostic.message, diagnostic.span, diagnostic.file, diagnostic.notes)
        # Like every record, the error survives pickle and copy.
        for copied in (pickle.loads(pickle.dumps(error)), copy.copy(error), copy.deepcopy(error)):
            assert (type(copied), copied.diagnostic, str(copied)) == (GodpError, diagnostic, str(error))
        return error

    def test_lexer_error(self):
        error = self._raised(parse_library, "library L\r\n\tontology O = Class: A $ end")
        assert (error.code, error.message, error.span, error.notes) == (
            "SyntaxError", "unexpected character '$'", Span(2, 24), ()
        )

    def test_parser_error(self):
        error = self._raised(parse_library, "library L\nontology O = Class: A SubClassOf: (B or C end")
        assert (error.code, error.message, error.span, error.notes) == (
            "SyntaxError", "expected ')', found 'end'", Span(2, 43), ()
        )

    def test_expander_error_with_its_notes(self):
        error = self._raised(expand, resolve(parse_library(self.NESTED_SITE)), "O")
        assert (error.code, error.span) == ("KindMismatch", Span(2, 24))
        assert [(n.message, n.span) for n in error.notes] == [
            ("while expanding instantiation of 'Q'", Span(3, 24)),
            ("while expanding instantiation of 'P'", Span(4, 14)),
        ]

    def test_output_error_names_its_file(self, tmp_path):
        output = str(tmp_path / "missing" / "out.omn")
        error = self._raised(_write_output, "Class: A\n", output)
        assert (error.code, error.span, error.file, error.notes) == ("IoError", None, output, ())
