import gc

import pytest

import godp.resolver
from godp.diagnostics import GodpError, Span
from godp.expansion import expand
from godp.parser import parse_library
from godp.names import name
from godp.resolver import declared_symbols, detect_cycles, resolve
from godp.syntax import Chain, Ref, leaves

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

    # A pattern takes one argument group per parameter, so one without
    # parameters is used by its bare name, like a named ontology.
    def test_zero_parameter_pattern_by_bare_name(self):
        resolved, codes = resolve_errors("library L pattern P = Class: A end ontology O = P end")
        assert codes == []
        assert resolved.references["O"] == ["P"]

    def test_zero_parameter_pattern_takes_no_argument_group(self):
        resolved, codes = resolve_errors("library L pattern P = Class: A end ontology O = P [] end")
        assert codes == ["ArityMismatch"]
        assert resolved.errors[0].message == "pattern 'P' expects 0 argument(s), got 1"

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
        resolved = resolve(parse_library(fixture_text("role.gdol")))
        symbols = declared_symbols(resolved, "ThematicRoles")
        assert name("Role") in symbols
        assert name("rolePerformedBy") in symbols


class TestBodyUseKinds:
    """A parameter used in its pattern's body keeps the kind the pattern
    declares; each misused name is reported once per block, at the block."""

    def test_class_parameter_used_as_property(self):
        text = (
            "library L\npattern P [Class: X] = Class: A SubClassOf: X some A end\n"
            "ontology O = P [Class: C] end\n"
        )
        resolved, codes = resolve_errors(text)
        assert codes == ["KindMismatch"]
        error = resolved.errors[0]
        assert error.message == "X is a Class parameter of P, but is used as ObjectProperty"
        assert (error.span.line, error.span.col) == (2, 24)

    def test_once_per_block_and_name(self):
        text = (
            "library L pattern P [Class: X] [Class: Y] ="
            " Class: A SubClassOf: X some A, X only Y, Y some A"
            " then ObjectProperty: X end"
        )
        resolved, codes = resolve_errors(text)
        assert codes == ["KindMismatch"] * 3
        assert [(e.message.split()[0], e.span.col) for e in resolved.errors] == [("X", 45), ("Y", 45), ("X", 100)]

    def test_ontology_parameter_symbol_used_with_another_kind(self):
        text = "library L pattern P [ontology {ObjectProperty: r}] = Class: r end"
        resolved, codes = resolve_errors(text)
        assert codes == ["KindMismatch"]
        assert "r is a ObjectProperty parameter of P, but is used as Class" == resolved.errors[0].message

    def test_uses_of_the_declared_kind_and_constituents_pass(self):
        text = (
            "library L pattern P [Class: X] [ObjectProperty: p] ="
            " Class: X SubClassOf: p some X ObjectProperty: r[X] Domain: X end"
        )
        _, codes = resolve_errors(text)
        assert codes == []


class TestLiteralKinds:
    """A literal name of a pattern's blocks, one that holds no parameter,
    keeps one kind in the axioms every site keeps; a second kind is reported
    once per pattern and name, at the block of the clashing use. Clashes
    that a substitution creates stay errors of the site."""

    def test_clash_without_a_host(self):
        resolved, codes = resolve_errors("library L\npattern Q [Class: X] = Class: A and ObjectProperty: A end\n")
        assert codes == ["ConflictingKind"]
        error = resolved.errors[0]
        assert error.message == "A is used both as Class and as ObjectProperty"
        assert (error.span.line, error.span.col) == (2, 37)

    def test_clash_reached_by_three_targets_is_one_error(self):
        text = (
            "library L\npattern Q [Class: X] = Class: A and ObjectProperty: A end\n"
            "ontology O1 = Q [Class: B] end\nontology O2 = Q [Class: C] end\nontology O3 = O1 and O2 end\n"
        )
        _, codes = resolve_errors(text)
        assert codes == ["ConflictingKind"]

    def test_once_per_pattern_and_name(self):
        text = (
            "library L"
            " pattern P [Class: X] = Class: A Class: B ObjectProperty: A and DataProperty: A and ObjectProperty: B end"
            " pattern Q [Class: X] = Class: A and Individual: A end"
        )
        resolved, _ = resolve_errors(text)
        assert [(e.message, e.span.col) for e in resolved.errors] == [
            ("A is used both as Class and as ObjectProperty", text.index("Class: A Class: B") + 1),
            ("B is used both as Class and as ObjectProperty", text.index("ObjectProperty: B") + 1),
            ("A is used both as Class and as Individual", text.index("Individual: A") + 1),
        ]

    def test_bracketed_literal_name(self):
        _, codes = resolve_errors("library L pattern P [Class: X] = Class: r[A] and ObjectProperty: r[A] end")
        assert codes == ["ConflictingKind"]

    @pytest.mark.parametrize(
        "body",
        [
            "Class: r[X] and ObjectProperty: r[X]",  # a constituent is a parameter
            "Class: X[A] and ObjectProperty: X[A]",  # the base is a parameter
            "(Class: A SubClassOf: owl:Thing) and ObjectProperty: owl:Thing",  # owl:Thing is no entity
        ],
    )
    def test_names_that_are_not_literal(self, body):
        _, codes = resolve_errors(f"library L pattern P [Class: X] = {body} end")
        assert codes == []

    OPTIONAL_FACT = "library L\npattern Q [Individual: Y ?] = Class: A and Individual: i Facts: A Y end\n"

    @pytest.mark.parametrize("site", ["", "ontology O = Q [] end\n"])
    def test_use_an_omitted_argument_can_delete_is_not_counted(self, site):
        resolved, codes = resolve_errors(self.OPTIONAL_FACT + site)
        assert codes == []
        if site:
            assert expand(resolved, "O").ontology.signature

    def test_use_an_omitted_argument_can_delete_clashes_at_a_site(self):
        resolved, codes = resolve_errors(self.OPTIONAL_FACT + "ontology O = Q [Individual: j] end\n")
        assert codes == []
        with pytest.raises(GodpError) as exc:
            expand(resolved, "O")
        assert exc.value.code == "ConflictingKind"

    def test_kept_uses_clash_around_a_deletable_one(self):
        # The first use of A, as an ObjectProperty, can be deleted; the kept
        # uses, as a Class and then as an ObjectProperty, clash.
        text = (
            "library L pattern Q [Individual: Y ?] ="
            " Individual: i Facts: A Y and Class: A and ObjectProperty: A end"
        )
        resolved, codes = resolve_errors(text)
        assert codes == ["ConflictingKind"]
        assert resolved.errors[0].message == "A is used both as Class and as ObjectProperty"
        assert resolved.errors[0].span.col == text.index("ObjectProperty: A") + 1

    def test_clash_a_substitution_creates_is_a_site_error(self):
        text = (
            "library L pattern P [Class: X] [ObjectProperty: Y] = Class: X and ObjectProperty: Y end"
            " ontology O = P [Class: C] [ObjectProperty: C] end"
        )
        resolved, codes = resolve_errors(text)
        assert codes == []
        with pytest.raises(GodpError) as exc:
            expand(resolved, "O")
        assert exc.value.code == "ConflictingKind"


class TestSiteArguments:
    """Each argument is checked against its parameter where it is written,
    in a pattern that no ontology instantiates too: one error per bad
    argument, at the argument, with the message the expander once raised
    at each site."""

    @staticmethod
    def site_errors(params, args):
        text = (
            "library L\nontology N = Class: A end\n"
            f"pattern Q {params} = Class: B end\npattern P [Class: X] = Q {args} end\n"
        )
        resolved = resolve(parse_library(text))
        return [(d.code, d.message, (d.span.line, d.span.col)) for d in resolved.errors]

    @pytest.mark.parametrize(
        "params, arg, code, message",
        [
            ("[Class: A]", "[]", "MissingMandatoryArgument", "argument 1 of Q (A) is mandatory"),
            ("[ontology {Class: A}]", "[]", "MissingMandatoryArgument", "argument 1 of Q is mandatory"),
            ("[Class: A]", "[ObjectProperty: r]", "KindMismatch", "argument 1 of Q: expected Class, got ObjectProperty"),
            ("[ObjectProperty: p]", "[owl:Thing]", "KindMismatch", "argument 1 of Q: expected ObjectProperty, got owl:Thing"),
            # A parameter passed on keeps the kind its own pattern declares.
            (
                "[ObjectProperty: p]",
                "[X]",
                "KindMismatch",
                "argument 1 of Q: expected ObjectProperty, but X is a Class parameter of P",
            ),
            (
                "[Class: A]",
                "[N fit A |-> X]",
                "OntologyArgForSymbolParam",
                "argument 1 of Q must be a single Class symbol, not an ontology",
            ),
            # An ontology argument at a symbol parameter is not bound, so an
            # unknown name or a pattern there is this one error, not two.
            (
                "[Class: A]",
                "[Missing fit A |-> X]",
                "OntologyArgForSymbolParam",
                "argument 1 of Q must be a single Class symbol, not an ontology",
            ),
            (
                "[Class: A]",
                "[Q fit A |-> X]",
                "OntologyArgForSymbolParam",
                "argument 1 of Q must be a single Class symbol, not an ontology",
            ),
            ("[ontology {Class: A}]", "[Class: Z]", "SymbolArgForOntologyParam", "argument 1 of Q must name an ontology"),
            ("[ontology {Class: A}]", "[Z[A]]", "SymbolArgForOntologyParam", "argument 1 of Q must name an ontology"),
            (
                "[ontology {Class: A}]",
                "[N fit W |-> A]",
                "UnknownFitSymbol",
                "fit maps W, which is not a symbol of the parameter (argument 1 of Q)",
            ),
            # A fit maps each symbol once, even to the same target; an unknown
            # symbol is the one error of its argument.
            ("[ontology {Class: A}]", "[N fit A |-> X, A |-> B]", "DuplicateName", "fit maps A twice (argument 1 of Q)"),
            ("[ontology {Class: A}]", "[N fit A |-> X, A |-> X]", "DuplicateName", "fit maps A twice (argument 1 of Q)"),
            (
                "[ontology {Class: A}]",
                "[N fit A |-> X, A |-> X, W |-> A]",
                "UnknownFitSymbol",
                "fit maps W, which is not a symbol of the parameter (argument 1 of Q)",
            ),
        ],
    )
    def test_bad_argument_reported_once_at_the_argument(self, params, arg, code, message):
        assert self.site_errors(params, arg) == [(code, message, (4, 26))]

    def test_every_bad_argument_of_a_site_is_reported(self):
        assert self.site_errors("[Class: A] [ObjectProperty: p]", "[] [owl:Thing]") == [
            ("MissingMandatoryArgument", "argument 1 of Q (A) is mandatory", (4, 26)),
            ("KindMismatch", "argument 2 of Q: expected ObjectProperty, got owl:Thing", (4, 29)),
        ]

    def test_argument_kind_comes_before_the_passed_on_kind(self):
        # X is a Class parameter, written as an ObjectProperty for a Class
        # parameter: one error, the written kind's.
        assert self.site_errors("[Class: A]", "[ObjectProperty: X]") == [
            ("KindMismatch", "argument 1 of Q: expected Class, got ObjectProperty", (4, 26)),
        ]


class TestUnboundSearch:
    """The UnboundSymbol pass searches what a pattern reaches only for a
    free name that some block of the library declares."""

    @staticmethod
    def count_searches(monkeypatch, text):
        calls = []
        search = godp.resolver.declared_symbols

        def counted(resolved, item_name):
            calls.append(item_name)
            return search(resolved, item_name)

        monkeypatch.setattr(godp.resolver, "declared_symbols", counted)
        return resolve(parse_library(text)), calls

    def test_no_search_for_a_name_no_block_declares(self, monkeypatch):
        n = 300
        text = "library L pattern P0 [Class: X] = Class: X end " + " ".join(
            f"pattern P{i} [Class: X] = P{i - 1} [X] and Class: X SubClassOf: Y end" for i in range(1, n)
        )
        resolved, calls = self.count_searches(monkeypatch, text)
        assert calls == []
        assert [d.code for d in resolved.diagnostics] == ["UnboundSymbol"] * (n - 1)

    def test_search_binds_a_declared_name(self, monkeypatch):
        text = "library L ontology Base = Class: Y end pattern P [Class: X] = Base then Class: X SubClassOf: Y end"
        resolved, calls = self.count_searches(monkeypatch, text)
        assert calls == ["P"]
        assert resolved.diagnostics == []

    def test_name_declared_but_not_reached_still_searches(self, monkeypatch):
        text = "library L ontology Elsewhere = Class: Y end pattern P [Class: X] = Class: X SubClassOf: Y end"
        resolved, calls = self.count_searches(monkeypatch, text)
        assert calls == ["P"]
        assert [d.code for d in resolved.diagnostics] == ["UnboundSymbol"]


class TestErrorsOnce:
    def test_errors_list_is_built_once_after_every_diagnostic(self):
        """expand reads ``errors`` once per target: it is one list, holding
        the cycle that resolve reports after it builds the ResolvedLibrary."""
        text = ("library L pattern P [Class: X] = P [X] end "
                "pattern W [Class: X] = Class: X SubClassOf: Y end")
        resolved = resolve(parse_library(text))
        assert resolved.errors is resolved.errors
        assert resolved.errors == [d for d in resolved.diagnostics if d.severity == "error"]
        assert [d.code for d in resolved.diagnostics] == ["CyclicReference", "UnboundSymbol"]


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


class TestNoRecursion:
    """Binding, cycle detection and the declared-symbol search take no stack
    per item or per level, so long reference chains resolve at the default
    recursion limit."""

    def test_5000_ontology_forward_reference_cycle(self):
        n = 5000
        text = "library L " + " ".join(f"ontology O{i} = O{(i + 1) % n} and Class: A{i} end" for i in range(n))
        resolved, codes = resolve_errors(text)
        assert codes == ["ForwardReference"] * (n - 1) + ["CyclicReference"]
        assert detect_cycles(resolved) == [[f"O{i}" for i in range(n)]]
        assert declared_symbols(resolved, "O0") == {name(f"A{i}") for i in range(n)}

    def test_1500_deep_pattern_chain(self):
        n = 1500
        text = "library L pattern P0 [Class: X] = Class: X end " + " ".join(
            f"pattern P{i} [Class: X] = P{i - 1} [X] and Class: X end" for i in range(1, n)
        )
        resolved = resolve(parse_library(text))
        assert resolved.diagnostics == []
        assert detect_cycles(resolved) == []
        assert declared_symbols(resolved, f"P{n - 1}") == {name("X")}


class TestNoCyclicGarbage:
    """Resolving builds no reference cycles: nothing is left for the cyclic
    garbage collector afterwards."""

    @pytest.mark.parametrize(
        "fixture", ["role.gdol", "driving.gdol", "obligations.gdol", "collision.gdol"]
    )
    def test_resolve_leaves_no_cycles(self, fixture):
        library = parse_library(fixture_text(fixture))
        gc.collect()
        gc.disable()
        try:
            resolve(library)
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
        expr = Ref("Z", (), span)
        for i in range(20000):
            expr = Chain((Ref(f"A{i}", (), span), expr), (span,), False)
        names = [leaf.name for leaf in leaves(expr)]
        assert names == [f"A{i}" for i in reversed(range(20000))] + ["Z"]
