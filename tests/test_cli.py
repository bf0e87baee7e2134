import json
import shutil
import subprocess
import sys

import pytest

import godp.ontology
from godp.cli import main

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
        code, _, err = run_cli(
            ["flatten", str(tmp_path / "absent.gdol"), "--target", "X"], capsys
        )
        assert code == 3
        assert "IoError" in err

    def test_unwritable_output_is_io_error(self, capsys, tmp_path, fixtures_dir):
        code, _, err = run_cli(
            [
                "flatten",
                str(fixtures_dir / "driving.gdol"),
                "--target",
                "Driving",
                "--output",
                str(tmp_path / "missing" / "dir" / "out.omn"),
            ],
            capsys,
        )
        assert code == 3
        assert "IoError" in err

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
        if json_flag:
            diag = json.loads(line)
            assert (diag["severity"], diag["code"], diag["file"]) == ("error", "InternalError", path)
            assert diag["message"].startswith("RecursionError in ")
        else:
            assert line.startswith(f"{path}: error: InternalError: RecursionError in ")


class TestCheck:
    def test_role_library_passes(self, capsys, fixtures_dir):
        code, out, err = run_cli(["check", str(fixtures_dir / "role.gdol")], capsys)
        assert code == 0
        assert out == ""

    def test_warnings_do_not_affect_exit_code(self, capsys, fixtures_dir):
        code, _, err = run_cli(["check", str(fixtures_dir / "driving.gdol")], capsys)
        assert code == 0
        assert "warning" in err


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

    def test_installed_entry_point(self, fixtures_dir):
        exe = shutil.which("godp")
        if exe is None:
            pytest.skip("console script not installed")
        proc = subprocess.run(
            [exe, "list", str(fixtures_dir / "driving.gdol")], capture_output=True, check=True
        )
        assert proc.stdout.decode().startswith("library Driving")


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
        # nodes; the resolver's walks stop at about 326 levels.
        items = ["pattern P0 [Class: X] = Class: X end"]
        items += [f"pattern P{i} [Class: X] = P{i - 1} [X] {shape} Class: X end" for i in range(1, 301)]
        path = write(tmp_path, "library D\n" + "\n".join(items) + "\nontology T = P300 [Class: A] end\n")
        proc = subprocess.run(
            [sys.executable, "-m", "godp", "flatten", path, "--target", "T"], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "Class: A\n", "")


class TestNormalizationCount:
    """Combining must not normalize again: every output axiom is normalized
    once when its block is built and once after stratification. A count, not
    a timing, so the guard holds on any machine."""

    @pytest.mark.parametrize("shape", ["and", "then"])
    @pytest.mark.parametrize("sites", [200, 400])
    def test_two_normalizations_per_output_axiom(self, capsys, tmp_path, monkeypatch, shape, sites):
        calls = 0
        original = godp.ontology.normalize_axiom

        def counting(ax):
            nonlocal calls
            calls += 1
            return original(ax)

        monkeypatch.setattr(godp.ontology, "normalize_axiom", counting)
        path = write(tmp_path, _chain_library(shape, sites))
        code, out, err = run_cli(["flatten", path, "--target", "Top"], capsys)
        assert (code, err) == (0, "")
        # Rel yields 5 axioms per site; the `then` chain adds Class: X.
        output_axioms = 5 * sites + (shape == "then")
        assert out.count("\n  Domain: ") == sites
        assert calls == 2 * output_axioms
