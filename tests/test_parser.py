import re
from collections import Counter

import pytest

from godp.axioms import EntityKind
from godp.diagnostics import GodpError, Span
from godp.expansion import expand
from godp.lexer import FRAME_KW, IDENT, KEYWORD, LBRACKET
from godp.names import name
from godp.parser import parse_library
from godp.resolver import resolve
from godp.syntax import (
    Basic,
    Chain,
    OmittedArg,
    OntologyArg,
    OntologyDef,
    OntologyParam,
    PatternDef,
    Ref,
    SymbolArg,
    SymbolParam,
)
from tests.conftest import FIXTURES, fixture_text
from tests.test_lexer import _library_check_text, reference_tokenize

DOL_EXAMPLE = """
library DOLExample

ontology Driving =
  Class: Vehicle
  ObjectProperty: drives
    Range: Vehicle
end

ontology DrivingExtended =
  Driving
  then
  ObjectProperty: drives
    Domain: Person
end
"""


class TestLibraryStructure:
    def test_two_ontology_items(self):
        lib = parse_library(DOL_EXAMPLE)
        assert lib.name == "DOLExample"
        assert [type(i).__name__ for i in lib.items] == ["OntologyDef", "OntologyDef"]

    def test_extension_shape(self):
        lib = parse_library(DOL_EXAMPLE)
        body = lib.items[1].body
        assert isinstance(body, Chain) and body.extension
        assert len(body.parts) == 2
        assert [(op.line, op.col) for op in body.ops] == [(12, 3)]  # the 'then' token
        left, right = body.parts
        assert isinstance(left, Ref) and left.name == "Driving" and left.args == ()
        assert isinstance(right, Basic)
        assert len(right.axioms) == 2  # one frame: its Declaration and its Domain axiom

    def test_minimal_pattern(self):
        lib = parse_library("library L pattern P [Class: X] = Class: X end")
        item = lib.items[0]
        assert isinstance(item, PatternDef)
        assert len(item.params) == 1
        param = item.params[0]
        assert isinstance(param, SymbolParam)
        assert param.kind is EntityKind.CLASS
        assert param.name == name("X")
        assert not param.optional

    def test_optional_parameter_marker(self):
        lib = parse_library(fixture_text("role.gdol"))
        pattern = next(i for i in lib.items if i.name == "RoleGODPParametrisation")
        kinds = [(p.name.base, p.optional) for p in pattern.params]
        assert kinds == [("Role", False), ("Performer", False), ("Provider", True)]

    def test_comments_ignored(self):
        lib = parse_library("library L %% nothing here\nontology O = Class: C end")
        assert len(lib.items) == 1


class TestArguments:
    def test_annotated_bare_and_omitted(self):
        lib = parse_library("library L pattern P [Class: A][Class: B][Class: C ?] = Class: A end "
                            "ontology O = P [Class: X] [y] [] end")
        inst = lib.items[1].body
        assert isinstance(inst, Ref) and inst.name == "P"
        a, b, c = inst.args
        assert isinstance(a, SymbolArg) and a.kind is EntityKind.CLASS
        assert isinstance(b, SymbolArg) and b.kind is None
        assert isinstance(c, OmittedArg)

    def test_structured_argument(self):
        lib = parse_library(
            "library L pattern P [ObjectProperty: p] = ObjectProperty: p end "
            "ontology O = P [rolePerformedBy[Performer]] end"
        )
        inst = lib.items[1].body
        assert inst.args[0].name.render() == "rolePerformedBy[Performer]"

    def test_fit_argument(self):
        lib = parse_library(fixture_text("obligations.gdol"))
        beagle = next(i for i in lib.items if i.name == "BeagleTerm")
        arg = beagle.body.args[1]
        assert isinstance(arg, OntologyArg)
        assert arg.name == "Taxonomy"
        assert [(s.base, t.base) for s, t in arg.fit] == [("D", "Dog"), ("E", "Animal")]

    def test_ontology_parameter(self):
        lib = parse_library(fixture_text("obligations.gdol"))
        pattern = next(i for i in lib.items if i.name == "NarrowerTerm")
        assert isinstance(pattern.params[1], OntologyParam)
        assert len(pattern.params[1].frames) == 2


def _columns(text: str, word: str) -> list[int]:
    return [m.start() + 1 for m in re.finditer(rf"\b{word}\b", text)]


def _first_error(text: str, target: str = "E") -> GodpError:
    with pytest.raises(GodpError) as exc:
        expand(resolve(parse_library(text)), target)
    return exc.value


class TestPrecedence:
    def test_then_binds_looser_than_and(self):
        text = ("library L ontology A = Class: C end ontology B = Class: D end "
                "ontology E = A and B then A end")
        body = parse_library(text).items[2].body
        assert isinstance(body, Chain) and body.extension
        assert len(body.parts) == 2 and len(body.ops) == 1
        conjunction, last = body.parts
        assert isinstance(conjunction, Chain) and not conjunction.extension
        assert [p.name for p in conjunction.parts] == ["A", "B"]
        assert isinstance(last, Ref) and last.name == "A"

    def test_then_chain_is_one_node(self):
        text = ("library L ontology A = Class: C end "
                "ontology E = A then A then A end")
        body = parse_library(text).items[1].body
        assert isinstance(body, Chain) and body.extension
        assert all(isinstance(p, Ref) for p in body.parts) and len(body.parts) == 3
        assert [op.col for op in body.ops] == _columns(text, "then")

    def test_and_chain_is_one_node(self):
        text = ("library L ontology A = Class: C end "
                "ontology E = A and A and A end")
        body = parse_library(text).items[1].body
        assert isinstance(body, Chain) and not body.extension
        assert all(isinstance(p, Ref) for p in body.parts) and len(body.parts) == 3
        assert [op.col for op in body.ops] == _columns(text, "and")

    def test_then_right_associative(self):
        # Clashes at both junctions: the right fold meets the last one first.
        err = _first_error("library L ontology E =\n"
                           "Class: X then\nObjectProperty: X then\nClass: X end")
        assert err.code == "ConflictingKind"
        assert err.message == "X is used both as ObjectProperty and as Class"
        assert (err.span.line, err.span.col) == (3, 19)

    def test_and_left_associative(self):
        # Clashes at both junctions: the left fold meets the first one first.
        err = _first_error("library L ontology E =\n"
                           "Class: X and\nObjectProperty: X and\nClass: X end")
        assert err.code == "ConflictingKind"
        assert err.message == "X is used both as Class and as ObjectProperty"
        assert (err.span.line, err.span.col) == (2, 10)

    def test_parenthesized_expression(self):
        text = ("library L ontology A = Class: C end "
                "ontology E = (Class: D) and A end")
        body = parse_library(text).items[1].body
        assert isinstance(body, Chain) and not body.extension
        assert len(body.parts) == 2
        assert isinstance(body.parts[0], Basic)
        assert isinstance(body.parts[1], Ref)

    def test_parenthesized_chain_stays_nested(self):
        text = ("library L ontology A = Class: C end "
                "ontology E = A and (A and A) end "
                "ontology F = (A then A) then A end")
        lib = parse_library(text)
        for body, extension in ((lib.items[1].body, False), (lib.items[2].body, True)):
            assert isinstance(body, Chain) and body.extension is extension and len(body.parts) == 2
            nested = [p for p in body.parts if isinstance(p, Chain)]
            assert len(nested) == 1 and nested[0].extension is extension and len(nested[0].parts) == 2

    def test_manchester_and_binds_greedily(self):
        text = ("library L pattern P [Class: X] = Class: X end "
                "ontology E = Class: C SubClassOf: A and B end")
        body = parse_library(text).items[1].body
        assert isinstance(body, Basic)  # the 'and' stayed inside the class expression


class TestDiagnostics:
    def test_syntax_error_position(self):
        with pytest.raises(GodpError) as exc:
            parse_library("library L\nontology O = = end")
        assert exc.value.code == "SyntaxError"
        assert exc.value.span.line == 2
        assert exc.value.span.col == 14

    def test_expected_set_in_message(self):
        with pytest.raises(GodpError) as exc:
            parse_library("library L\nontology O Class: C end")
        assert "expected" in exc.value.message

    def test_reserved_word_as_name(self):
        with pytest.raises(GodpError) as exc:
            parse_library("library L ontology O = Class: some end")
        assert exc.value.code == "SyntaxError"
        assert "reserved" in exc.value.message

    def test_missing_end(self):
        with pytest.raises(GodpError) as exc:
            parse_library("library L ontology O = Class: C")
        assert exc.value.code == "SyntaxError"

    def test_position_inside_bounds(self):
        text = "library L\nontology O =\n  Class: 9bad\nend"
        with pytest.raises(GodpError) as exc:
            parse_library(text)
        lines = text.split("\n")
        assert 1 <= exc.value.span.line <= len(lines)
        assert 1 <= exc.value.span.col <= len(lines[exc.value.span.line - 1]) + 1


# The token whose span each node keeps, as (kind, value); a value of None
# means the node's own text: its name, kind or keyword.
SPAN_TOKENS = {
    OntologyDef: (KEYWORD, "ontology"),
    PatternDef: (KEYWORD, "pattern"),
    SymbolParam: (LBRACKET, "["),
    OntologyParam: (LBRACKET, "["),
    SymbolArg: (LBRACKET, "["),
    OntologyArg: (LBRACKET, "["),
    OmittedArg: (LBRACKET, "["),
    Ref: (IDENT, None),
    Basic: (FRAME_KW, None),
}


def kept_spans(node):
    """(node type, span, expected kind, expected value) for every span the
    tree keeps, operator spans included."""
    out = []
    stack = [node]
    while stack:
        n = stack.pop()
        if isinstance(n, Span):
            continue
        if hasattr(n, "_fields"):  # a record, before the tuple it also is
            t = type(n)
            if t is Chain:
                out += [(t, op, KEYWORD, "then" if n.extension else "and") for op in n.ops]
            elif t in SPAN_TOKENS:
                kind, value = SPAN_TOKENS[t]
                if value is None:
                    value = n.name if t is Ref else n.axioms[0].kind.value
                out.append((t, n.span, kind, value))
            stack.extend(getattr(n, f) for f in t._fields if f not in ("span", "ops"))
        elif isinstance(n, tuple):
            stack.extend(n)
    return out


class TestKeptSpans:
    """Every span in the tree is the span the reference scanner gives the
    token it belongs to."""

    def test_every_kept_span_is_its_tokens(self):
        texts = [fixture_text(p.name) for p in sorted(FIXTURES.glob("*.gdol"))] + [_library_check_text()]
        seen = Counter()
        for text in texts:
            by_start = {(t[2], t[3]): t for t in reference_tokenize(text)}
            for node_type, span, kind, value in kept_spans(parse_library(text)):
                seen[value if node_type is Chain else node_type] += 1
                token = by_start.get((span.line, span.col))
                assert token == (kind, value, span.line, span.col), node_type
        assert set(seen) == set(SPAN_TOKENS) | {"and", "then"}


class TestWorkCount:
    """The parser reads the token stream's parallel lists by index and
    builds a Span only where the tree keeps one. Counts, not timings."""

    def test_library_check_builds_no_token_and_few_spans(self, monkeypatch):
        text = _library_check_text()
        counts = Counter()
        new = Span.__new__

        def counting_span(cls, *args, **kwargs):
            counts["Span"] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Span, "__new__", counting_span)
        library = parse_library(text)
        assert len(library.items) == 1600
        # One per kept span, Basic nodes included; frames and sections keep
        # none, since the parser checks their sections itself.
        assert counts["Span"] <= 9_441
        assert counts["Span"] == len({id(span) for _, span, _, _ in kept_spans(library)})
