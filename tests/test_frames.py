import pytest

from godp.axioms import (
    ClassAssertion,
    Declaration,
    DisjointClasses,
    EntityKind,
    FunctionalProperty,
    Named,
    ObjectPropertyDomain,
    ObjectPropertyRange,
    Or,
    PropertyAssertion,
    SubClassOf,
)
from godp.diagnostics import GodpError
from godp.frames import Frame, desugar_frames
from godp.names import name
from godp.parser import parse_frames


X = name("X")


class TestFrame:
    @pytest.mark.parametrize(
        "text, kind, axioms",
        [
            (
                "Class: X SubClassOf: B, A DisjointWith: C",
                EntityKind.CLASS,
                (
                    SubClassOf(Named(X), Named(name("B"))),
                    SubClassOf(Named(X), Named(name("A"))),
                    DisjointClasses(Named(X), Named(name("C"))),
                ),
            ),
            (
                "Individual: X Facts: p b Types: C",
                EntityKind.INDIVIDUAL,
                (PropertyAssertion(name("p"), X, name("b")), ClassAssertion(Named(name("C")), X)),
            ),
            (
                "ObjectProperty: X Characteristics: Functional Domain: C",
                EntityKind.OBJECT_PROPERTY,
                (FunctionalProperty(X), ObjectPropertyDomain(X, Named(name("C")))),
            ),
        ],
        ids=["class", "individual", "object-property"],
    )
    def test_frame_holds_its_section_axioms_in_textual_order(self, text, kind, axioms):
        (frame,) = parse_frames(text)
        assert frame == Frame(kind, X, axioms)
        assert desugar_frames([frame]) == [Declaration(kind, X), *axioms]


class TestDesugar:
    def test_property_frame(self):
        frames = parse_frames("ObjectProperty: drives Domain: Person Range: Vehicle")
        assert desugar_frames(frames) == [
            Declaration(EntityKind.OBJECT_PROPERTY, name("drives")),
            ObjectPropertyDomain(name("drives"), Named(name("Person"))),
            ObjectPropertyRange(name("drives"), Named(name("Vehicle"))),
        ]

    def test_header_only_frame(self):
        frames = parse_frames("Class: C")
        assert desugar_frames(frames) == [Declaration(EntityKind.CLASS, name("C"))]

    def test_comma_list_splits_but_disjunction_stays_whole(self):
        text = """
        Class: ProfRole
          SubClassOf: A, B, C, D
          SubClassOf: E or F
        """
        axioms = desugar_frames(parse_frames(text))
        declarations = [ax for ax in axioms if isinstance(ax, Declaration)]
        subclass = [ax for ax in axioms if isinstance(ax, SubClassOf)]
        assert len(declarations) == 1
        assert len(subclass) == 5
        assert subclass[-1].sup == Or((Named(name("E")), Named(name("F"))))

    def test_textual_order(self):
        text = "Class: X SubClassOf: B DisjointWith: C SubClassOf: A"
        axioms = desugar_frames(parse_frames(text))
        kinds = [type(ax).__name__ for ax in axioms]
        assert kinds == ["Declaration", "SubClassOf", "DisjointClasses", "SubClassOf"]

    def test_individual_frame(self):
        text = "Individual: bernd Types: Professor Facts: worksAt bremen"
        axioms = desugar_frames(parse_frames(text))
        assert [type(ax).__name__ for ax in axioms] == [
            "Declaration",
            "ClassAssertion",
            "PropertyAssertion",
        ]

    def test_characteristics(self):
        text = "ObjectProperty: p Characteristics: Functional, InverseFunctional"
        axioms = desugar_frames(parse_frames(text))
        assert [type(ax).__name__ for ax in axioms] == [
            "Declaration",
            "FunctionalProperty",
            "InverseFunctionalProperty",
        ]


class TestUnsupported:
    def test_unsupported_section_keyword(self):
        with pytest.raises(GodpError) as exc:
            parse_frames("Class: X Annotations: label X")
        assert exc.value.code == "UnsupportedConstruct"
        assert exc.value.span is not None

    # A section its frame kind lacks, or a characteristic without an axiom
    # type, is rejected by the parser at the section keyword.
    def test_wrong_section_for_frame_kind(self):
        with pytest.raises(GodpError) as exc:
            parse_frames("Class: X Domain: Y")
        assert exc.value.code == "UnsupportedConstruct"
        assert "Domain" in exc.value.message

    def test_dataproperty_sections_rejected(self):
        with pytest.raises(GodpError) as exc:
            parse_frames("DataProperty: d Domain: X")
        assert exc.value.code == "UnsupportedConstruct"

    def test_unknown_characteristic(self):
        with pytest.raises(GodpError) as exc:
            parse_frames("ObjectProperty: p Characteristics: Transitive")
        assert exc.value.code == "UnsupportedConstruct"

    # An unknown characteristic is reported as its word is read: a bad item
    # after it is never reached.
    @pytest.mark.parametrize("items", ["Functional, Transitive", "Transitive, ]"])
    def test_every_characteristic_is_checked(self, items):
        with pytest.raises(GodpError) as exc:
            parse_frames(f"ObjectProperty: p Characteristics: {items}")
        assert exc.value.message == (
            "section 'Characteristics: Transitive' is not supported in a ObjectProperty frame"
        )
        assert (exc.value.span.line, exc.value.span.col) == (1, 19)
