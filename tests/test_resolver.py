import gc

import pytest

from godp.diagnostics import GodpError, Span
from godp.expansion import expand
from godp.parser import parse_library
from godp.resolver import detect_cycles, resolve
from godp.syntax import AndExpr, Ref, leaves

from tests.conftest import fixture_text


def resolve_errors(text):
    resolved = resolve(parse_library(text))
    return resolved, [d.code for d in resolved.errors]


class TestClean:
    def test_driving_fixture(self):
        resolved, codes = resolve_errors(fixture_text("driving.gdol"))
        assert codes == []

    def test_role_fixture_resolves_without_cycles(self):
        resolved, codes = resolve_errors(fixture_text("role.gdol"))
        assert codes == []
        assert detect_cycles(resolved) == []

    def test_deterministic(self):
        text = fixture_text("role.gdol")
        a = resolve(parse_library(text))
        b = resolve(parse_library(text))
        assert a.order == b.order
        assert a.references == b.references


class TestErrors:
    def test_arity_mismatch(self):
        text = ("library L pattern P [Class: A][Class: B][Class: C] = Class: A end "
                "ontology O = P [X] [Y] end")
        _, codes = resolve_errors(text)
        assert codes == ["ArityMismatch"]

    def test_bare_pattern_reference_is_arity_zero(self):
        text = ("library L pattern P [Class: A] = Class: A end "
                "ontology O = P end")
        resolved, codes = resolve_errors(text)
        assert codes == ["ArityMismatch"]
        assert "got 0" in resolved.errors[0].message

    def test_unresolved_reference(self):
        _, codes = resolve_errors("library L ontology O = Nowhere end")
        assert codes == ["UnresolvedReference"]

    def test_forward_reference(self):
        text = ("library L ontology O = Later end "
                "ontology Later = Class: C end")
        _, codes = resolve_errors(text)
        assert codes == ["ForwardReference"]

    def test_duplicate_definition(self):
        text = "library L ontology O = Class: C end ontology O = Class: D end"
        _, codes = resolve_errors(text)
        assert codes == ["DuplicateName"]

    def test_duplicate_parameter(self):
        text = "library L pattern P [Class: X][Class: X] = Class: X end"
        _, codes = resolve_errors(text)
        assert "DuplicateName" in codes

    def test_not_a_pattern(self):
        text = ("library L ontology O = Class: C end "
                "ontology Q = O [X] end")
        _, codes = resolve_errors(text)
        assert codes == ["NotAPattern"]

    def test_optional_parameter_in_requirement(self):
        text = ("library L pattern P [Class: X ?] [ontology {Class: E  Class: X SubClassOf: E}] "
                "= Class: E end")
        _, codes = resolve_errors(text)
        assert "OptionalParameterInRequirement" in codes

    def test_requirement_mentions_undeclared_symbol(self):
        text = "library L pattern P [ontology {Class: E SubClassOf: Ghost}] = Class: E end"
        _, codes = resolve_errors(text)
        assert "UnresolvedReference" in codes


class TestFreeSymbols:
    def test_typo_in_pattern_body_warns(self):
        text = ("library L pattern P [Class: Performer] = "
                "Class: Q SubClassOf: Performr end")
        resolved = resolve(parse_library(text))
        warnings = [d for d in resolved.diagnostics if d.severity == "warning"]
        assert [d.code for d in warnings] == ["UnboundSymbol"]
        assert "Performr" in warnings[0].message

    def test_fixture_patterns_are_warning_free(self):
        for fixture in ("driving.gdol", "role.gdol", "obligations.gdol"):
            resolved = resolve(parse_library(fixture_text(fixture)))
            assert [d for d in resolved.diagnostics if d.severity == "warning"] == []

    def test_symbol_bound_by_referenced_ontology(self):
        text = ("library L ontology Base = Class: Anchor end "
                "pattern P [Class: X] = Base then Class: X SubClassOf: Anchor end")
        resolved = resolve(parse_library(text))
        assert resolved.diagnostics == []

    FIT_LIBRARY = (
        "library L\nontology O = Class: b Class: c end\npattern Q [ontology {{Class: a}}] = Class: Z end\n"
        "pattern P [Class: X] = Q [O fit a |-> {target}] end\nontology T = P [Class: K] end\n"
    )

    def test_fit_target_declared_by_argument_is_bound(self):
        resolved = resolve(parse_library(self.FIT_LIBRARY.format(target="b")))
        assert resolved.diagnostics == []
        assert expand(resolved, "T").warnings == []

    def test_undeclared_fit_target_still_warns(self):
        resolved = resolve(parse_library(self.FIT_LIBRARY.format(target="q")))
        assert [(d.code, d.span.line) for d in resolved.diagnostics] == [("UnboundSymbol", 4)]
        assert "pattern 'P' mentions q," in resolved.diagnostics[0].message
        with pytest.raises(GodpError) as exc:
            expand(resolved, "T")
        assert exc.value.code == "FitTargetUndeclared"

    def test_declared_symbols_helper(self):
        from godp.names import name
        from godp.resolver import declared_symbols

        resolved = resolve(parse_library(fixture_text("role.gdol")))
        symbols = declared_symbols(resolved, "ThematicRoles")
        assert name("Role") in symbols
        assert name("rolePerformedBy") in symbols


class TestCycles:
    def test_self_loop(self):
        text = "library L pattern P [Class: X] = P [X] end"
        resolved, codes = resolve_errors(text)
        assert codes == ["CyclicReference"]
        assert [sorted(c) for c in detect_cycles(resolved)] == [["P"]]

    def test_two_cycle(self):
        text = ("library L pattern P [Class: X] = Q [X] end "
                "pattern Q [Class: X] = P [X] end")
        resolved, codes = resolve_errors(text)
        assert "CyclicReference" in codes
        assert "ForwardReference" in codes  # P -> Q points forwards
        assert sorted(detect_cycles(resolved)[0]) == ["P", "Q"]

    def test_bare_ontology_argument_enters_reference_graph(self):
        text = fixture_text("obligations.gdol")
        resolved = resolve(parse_library(text))
        assert "Taxonomy" in resolved.references["PuppyTerm"]


class TestNoCyclicGarbage:
    """Resolving builds no reference cycles: nothing is left for the cyclic
    garbage collector afterwards."""

    @pytest.mark.parametrize(
        "fixture", ["role.gdol", "driving.gdol", "obligations.gdol", "collision.gdol"]
    )
    def test_resolve_leaves_no_cycles(self, fixture):
        library = parse_library(fixture_text(fixture), fixture)
        gc.collect()
        gc.disable()
        try:
            resolve(library, fixture)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestLeaves:
    def test_left_to_right_through_nested_chains(self):
        body = parse_library(
            "library L ontology O = A and (B then (C and D)) and E then F end"
        ).items[0].body
        assert [leaf.name for leaf in leaves(body)] == ["A", "B", "C", "D", "E", "F"]

    def test_depth_costs_no_stack(self):
        span = Span(1, 1)
        expr = Ref("Z", span)
        for i in range(20000):
            expr = AndExpr((Ref(f"A{i}", span), expr), (span,), span)
        names = [leaf.name for leaf in leaves(expr)]
        assert names == [f"A{i}" for i in reversed(range(20000))] + ["Z"]
