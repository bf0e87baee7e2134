"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print; under plain ``pytest`` they appear for failing criteria only.
"""

from __future__ import annotations

import functools
import random

from godp.axioms import normalize_axiom
from godp.emitter import emit_manchester
from godp.expansion import expand, stratify_ontology
from godp.frames import desugar_frames
from godp.parser import parse_frames

from tests import test_properties as props
from tests.conftest import fixture_text, resolve_text
from tests.test_cli import run_cli, write
from tests.test_expansion import (
    collect_names,
    mother_role_expected,
    norm_set,
    prof_role_expected,
)
from tests.test_expansion import c, name  # noqa: F401  (shared helpers)


def criterion(number: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number} ({label}): FAIL")
                raise
            print(f"ACCEPTANCE {number} ({label}): PASS")

        return wrapper

    return decorate


@criterion(1, "driving equivalence")
def test_criterion_1_driving_equivalence(driving):
    extended = expand(driving, "DrivingExtended").ontology
    instance = expand(driving, "drivePatternInstance").ontology
    assert extended.normalized_set() == instance.normalized_set()
    from godp.axioms import Declaration, EntityKind, ObjectPropertyDomain, ObjectPropertyRange, Named

    required = {
        normalize_axiom(Declaration(EntityKind.OBJECT_PROPERTY, name("drives"))),
        normalize_axiom(ObjectPropertyRange(name("drives"), Named(name("Vehicle")))),
        normalize_axiom(ObjectPropertyDomain(name("drives"), Named(name("Person")))),
    }
    assert required <= extended.normalized_set()


@criterion(2, "ProfRole expansion")
def test_criterion_2_prof_role(role):
    onto = stratify_ontology(expand(role, "ProfRoleOntology").ontology)
    assert onto.normalized_set() == norm_set(prof_role_expected())


@criterion(3, "MotherRole pruning")
def test_criterion_3_mother_role(role):
    onto = stratify_ontology(expand(role, "MotherRoleOntology").ontology)
    assert onto.normalized_set() == norm_set(mother_role_expected())
    leftovers = {n.base for ax in onto.axioms for n in collect_names(ax)}
    assert "University" not in leftovers
    assert not any(base.startswith("roleProvidedBy") for base in leftovers)
    assert not any(base.startswith("providesRole") for base in leftovers)


@criterion(4, "stratification")
def test_criterion_4_stratification(role):
    from godp.axioms import (
        AllValuesFrom,
        Declaration,
        EntityKind,
        EquivalentClasses,
        SomeValuesFrom,
        SubClassOf,
    )

    onto = stratify_ontology(expand(role, "ThematicRoles").ontology)
    declared = {n.base for n, e in onto.signature.items() if e.declared}
    assert {
        "RolePerformedBySome_Agent",
        "RolePerformedBySome_Patient",
        "RolePerformedBySome_Instrument",
    } <= declared

    family = {name("Agent"), name("AgentRole"), name("RolePerformedBySome_Agent")}
    agent_slice = [ax for ax in onto.axioms if collect_names(ax) & family]
    expected = [
        Declaration(EntityKind.CLASS, name("Agent")),
        Declaration(EntityKind.CLASS, name("AgentRole")),
        SubClassOf(c("AgentRole"), c("Role")),
        SubClassOf(c("AgentRole"), AllValuesFrom(name("rolePerformedBy"), c("Agent"))),
        Declaration(EntityKind.CLASS, name("RolePerformedBySome_Agent")),
        EquivalentClasses(
            c("RolePerformedBySome_Agent"),
            SomeValuesFrom(name("rolePerformedBy"), c("Agent")),
        ),
        SubClassOf(c("RolePerformedBySome_Agent"), c("AgentRole")),
    ]
    assert norm_set(agent_slice) == norm_set(expected)


@criterion(5, "decomposition equivalence")
def test_criterion_5_decomposition(role):
    for direct, decomposed in [
        ("ProfRoleOntology", "ProfRoleDecomposed"),
        ("MotherRoleOntology", "MotherRoleDecomposed"),
    ]:
        a = expand(role, direct).ontology
        b = expand(role, decomposed).ontology
        assert a.normalized_set() == b.normalized_set(), (direct, decomposed)

    rng = random.Random()
    fresh: list[str] = []
    while len(fresh) < 3:
        candidate = "Rnd" + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(8))
        if candidate not in fresh:
            fresh.append(candidate)
    role_cls, performer, provider = fresh
    extra = (
        f"\nontology RandomParam = Class: {performer} Class: {provider}\n"
        f"  then RoleGODPParametrisation [Class: {role_cls}] [Class: {performer}] [Class: {provider}] end\n"
        f"ontology RandomDecomposed = Class: {performer} Class: {provider}\n"
        f"  then RoleGODPDecomposed [Class: {role_cls}] [Class: {performer}] [Class: {provider}] end\n"
    )
    resolved = resolve_text(fixture_text("role.gdol") + extra)
    a = expand(resolved, "RandomParam").ontology
    b = expand(resolved, "RandomDecomposed").ontology
    assert a.normalized_set() == b.normalized_set(), fresh


@criterion(6, "property suites")
def test_criterion_6_property_suites(role, driving):
    normalize_suite = props.TestNormalizeProperties()
    normalize_suite.test_idempotent()
    normalize_suite.test_reflexive()
    normalize_suite.test_symmetric()
    normalize_suite.test_transitive_through_commutative_rewrites()

    props.TestSubstitutionProperties().test_mentions_homomorphism()

    pruning = props.TestPruningProperties()
    pruning.test_monotone()
    pruning.test_empty_omitted_identity()

    combine_suite = props.TestCombineProperties()
    combine_suite.test_and_idempotent()
    combine_suite.test_and_commutative()
    combine_suite.test_and_associative()

    emission = props.TestEmissionProperties()
    emission.test_deterministic()
    emission.test_equal_inputs_equal_bytes()
    emission.test_roundtrip()

    # Emission determinism and parse/emit round trip on every fixture target.
    for resolved, targets in [
        (driving, ["Driving", "DrivingExtended", "drivePatternInstance"]),
        (
            role,
            [
                "Role_Original",
                "ThematicRoles",
                "ProfRoleOntology",
                "MotherRoleOntology",
                "ProfRoleDecomposed",
                "MotherRoleDecomposed",
            ],
        ),
    ]:
        for target in targets:
            onto = stratify_ontology(expand(resolved, target).ontology)
            first = emit_manchester(onto)
            assert first == emit_manchester(onto)
            reparsed = desugar_frames(parse_frames(first))
            assert sorted(repr(normalize_axiom(ax)) for ax in reparsed) == sorted(
                repr(normalize_axiom(ax)) for ax in onto.axioms
            )


@criterion(7, "error-path coverage")
def test_criterion_7_error_paths(capsys, tmp_path, fixtures_dir):
    cases = [
        (
            "KindMismatch",
            write(
                tmp_path,
                "library L pattern P [ObjectProperty: p] = ObjectProperty: p end\n"
                "ontology O = P [Class: drives] end",
                "kind.gdol",
            ),
            ["check"],
        ),
        (
            "ArityMismatch",
            write(
                tmp_path,
                "library L pattern P [Class: A][Class: B][Class: C] = Class: A end\n"
                "ontology O = P [X] [Y] end",
                "arity.gdol",
            ),
            ["check"],
        ),
        (
            "MissingMandatoryArgument",
            write(
                tmp_path,
                "library L pattern P [Class: A][Class: B] = Class: A end\n"
                "ontology O = P [X] [] end",
                "mandatory.gdol",
            ),
            ["check"],
        ),
        (
            "CyclicReference",
            write(
                tmp_path,
                "library L pattern P [Class: X] = P [X] end",
                "cycle.gdol",
            ),
            ["check"],
        ),
        (
            "StratificationCollision",
            str(fixtures_dir / "collision.gdol"),
            ["flatten", "--target", "CollisionDemo"],
        ),
        (
            "ConflictingKind",
            write(
                tmp_path,
                "library L ontology A = Class: X end ontology B = ObjectProperty: X end\n"
                "ontology U = A and B end",
                "conflict.gdol",
            ),
            ["check"],
        ),
    ]
    for expected_code, path, argv in cases:
        command, *rest = argv
        code, out, err = run_cli([command, path] + rest, capsys)
        assert code == 2, (expected_code, code, err)
        assert expected_code in err, (expected_code, err)
