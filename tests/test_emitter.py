import pytest

from godp.axioms import (
    Declaration,
    EntityKind,
    EquivalentClasses,
    Named,
    SomeValuesFrom,
    normalize_axiom,
)
from godp.diagnostics import GodpError
from godp.emitter import emit_manchester
from godp.expansion import expand, stratify_ontology
from godp.frames import desugar_frames
from godp.names import StructuredName, name
from godp.ontology import FlatOntology
from godp.parser import parse_frames

from tests.conftest import fixture_text, flatten_text, resolve_text

DRIVING_GOLDEN = """ObjectProperty: drives
  Domain: Person
  Range: Vehicle

Class: Vehicle
"""


def roundtrip_multiset(onto: FlatOntology, allow_structured: bool = False):
    text = emit_manchester(onto, allow_structured=allow_structured)
    reparsed = desugar_frames(parse_frames(text))
    return sorted(repr(normalize_axiom(ax)) for ax in reparsed)


def multiset(onto: FlatOntology):
    return sorted(repr(normalize_axiom(ax)) for ax in onto.axioms)


class TestEmit:
    def test_empty_ontology(self):
        assert emit_manchester(FlatOntology.from_axioms(())) == ""

    def test_driving_golden(self, driving):
        onto = stratify_ontology(expand(driving, "drivePatternInstance").ontology)
        assert emit_manchester(onto) == DRIVING_GOLDEN

    def test_both_driving_styles_emit_identically(self, driving):
        a = emit_manchester(stratify_ontology(expand(driving, "DrivingExtended").ontology))
        b = emit_manchester(stratify_ontology(expand(driving, "drivePatternInstance").ontology))
        assert a == b == DRIVING_GOLDEN

    def test_byte_identical_repeat(self, role):
        onto = stratify_ontology(expand(role, "ProfRoleOntology").ontology)
        assert emit_manchester(onto) == emit_manchester(onto)

    def test_entity_and_section_order(self):
        text = """
        Individual: zoe Types: Person
        Class: Person
        DataProperty: age
        ObjectProperty: knows Range: Person Domain: Person Characteristics: InverseFunctional
        Class: Animal
        """
        onto = FlatOntology.from_axioms(desugar_frames(parse_frames(text)))
        expected = (
            "ObjectProperty: knows\n"
            "  Characteristics: InverseFunctional\n"
            "  Domain: Person\n"
            "  Range: Person\n"
            "\n"
            "DataProperty: age\n"
            "\n"
            "Class: Animal\n"
            "\n"
            "Class: Person\n"
            "\n"
            "Individual: zoe\n"
            "  Types: Person\n"
        )
        assert emit_manchester(onto) == expected

    def test_unstratified_name_rejected(self):
        structured = StructuredName("p", ((name("X"),),))
        onto = FlatOntology.from_axioms([Declaration(EntityKind.OBJECT_PROPERTY, structured)])
        with pytest.raises(GodpError) as exc:
            emit_manchester(onto)
        assert exc.value.code == "UnstratifiedName"

    def test_keep_structured_renders_brackets(self):
        resolved = resolve_text(fixture_text("collision.gdol"))
        onto = expand(resolved, "CollisionDemo").ontology
        text = emit_manchester(onto, allow_structured=True)
        assert "Class: A[B_C]" in text
        assert "Class: A[B][C]" in text

    def test_equivalence_frame_attaches_to_named_side(self):
        axioms = [
            Declaration(EntityKind.CLASS, name("A")),
            EquivalentClasses(SomeValuesFrom(name("p"), Named(name("B"))), Named(name("A"))),
        ]
        text = emit_manchester(FlatOntology.from_axioms(axioms))
        assert "Class: A\n  EquivalentTo: p some B" in text


class TestRoundTrip:
    @pytest.mark.parametrize(
        "fixture,target",
        [
            ("driving.gdol", "Driving"),
            ("driving.gdol", "DrivingExtended"),
            ("driving.gdol", "drivePatternInstance"),
            ("role.gdol", "Role_Original"),
            ("role.gdol", "ThematicRoles"),
            ("role.gdol", "ProfRoleOntology"),
            ("role.gdol", "MotherRoleOntology"),
            ("role.gdol", "ProfRoleDecomposed"),
            ("role.gdol", "MotherRoleDecomposed"),
            ("obligations.gdol", "Taxonomy"),
            ("obligations.gdol", "BeagleTerm"),
        ],
    )
    def test_fixture_roundtrip(self, fixture, target):
        onto = flatten_text(fixture_text(fixture), target)
        assert roundtrip_multiset(onto) == multiset(onto)

    def test_structured_roundtrip(self):
        resolved = resolve_text(fixture_text("collision.gdol"))
        onto = expand(resolved, "CollisionDemo").ontology
        text = emit_manchester(onto, allow_structured=True)
        reparsed = desugar_frames(parse_frames(text))
        assert sorted(map(repr, reparsed)) == sorted(map(repr, onto.axioms))
