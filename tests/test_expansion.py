import random

import pytest

import godp.expansion
import godp.ontology
import godp.parser
from godp.axioms import (
    AllValuesFrom,
    Cardinality,
    Declaration,
    DisjointClasses,
    EntityKind,
    EquivalentClasses,
    InverseProperties,
    Named,
    ObjectPropertyDomain,
    ObjectPropertyRange,
    Or,
    SomeValuesFrom,
    SubClassOf,
    map_axiom_names,
    normalize_axiom,
    referenced_kinds,
)
from godp.diagnostics import Diagnostic, GodpError, Span
from godp.expansion import (
    Expander,
    Substitution,
    apply_substitution,
    check_instantiation,
    expand,
    prune_omitted,
    stratify_ontology,
)
from godp.names import THING, StructuredName, name, stratify_name
from godp.ontology import FlatOntology, _add
from godp.parser import parse_library
from godp.resolver import resolve

from tests.conftest import fixture_text, flatten_text, resolve_text

OP = EntityKind.OBJECT_PROPERTY
CLS = EntityKind.CLASS


def c(n):
    return Named(name(n))


def norm_set(axioms):
    return frozenset(normalize_axiom(ax) for ax in axioms)


def collect_names(obj):
    """Independent, reflection-based name collector (test oracle)."""
    out = set()
    if isinstance(obj, StructuredName):
        out.add(obj)
        out.add(StructuredName(obj.base))
        for group in obj.groups:
            for constituent in group:
                out |= collect_names(constituent)
    elif hasattr(obj, "_fields") and not isinstance(obj, type):
        for field in type(obj)._fields:
            out |= collect_names(getattr(obj, field))
    elif isinstance(obj, (tuple, list, frozenset, set)):
        for element in obj:
            out |= collect_names(element)
    return out


def get_pattern(resolved, name_):
    return resolved.table[name_]


def resolver_errors(text):
    """The resolver's errors on ``text``: code, message and position."""
    resolved = resolve(parse_library(text))
    return [(d.code, d.message, (d.span.line, d.span.col)) for d in resolved.errors]


# ---------------------------------------------------------------------------
# Driving: two styles, one ontology
# ---------------------------------------------------------------------------


class TestDriving:
    def test_extension_and_instantiation_agree(self, driving):
        extended = expand(driving, "DrivingExtended").ontology
        instance = expand(driving, "drivePatternInstance").ontology
        assert extended.normalized_set() == instance.normalized_set()

    def test_extension_axioms(self, driving):
        extended = expand(driving, "DrivingExtended").ontology
        assert len(extended.axioms) == 4
        expected = {
            Declaration(CLS, name("Vehicle")),
            Declaration(OP, name("drives")),
            ObjectPropertyRange(name("drives"), c("Vehicle")),
            ObjectPropertyDomain(name("drives"), c("Person")),
        }
        assert extended.normalized_set() == norm_set(expected)

    def test_person_referenced_not_declared(self, driving):
        result = expand(driving, "DrivingExtended")
        undeclared = {n: e.kind for n, e in result.ontology.signature.items() if not e.declared}
        assert undeclared == {name("Person"): CLS}
        assert len(result.warnings) == 1


# ---------------------------------------------------------------------------
# check_instantiation
# ---------------------------------------------------------------------------


def no_ontology_argument(name):
    pytest.fail(f"flattened {name!r} for a pattern with symbol parameters only")


class TestCheckInstantiation:
    def test_full_argument_list(self, role):
        pattern = get_pattern(role, "RoleGODPParametrisation")
        inst = get_pattern(role, "ProfRoleOntology").body.parts[-1]
        subst, obligations = check_instantiation(pattern, inst.args, flatten=no_ontology_argument)
        assert dict(subst.mapping) == {
            name("Role"): name("ProfRole"),
            name("Performer"): name("Professor"),
            name("Provider"): name("University"),
        }
        assert subst.omitted == frozenset()
        assert obligations == []

    def test_omitted_optional(self, role):
        pattern = get_pattern(role, "RoleGODPParametrisation")
        inst = get_pattern(role, "MotherRoleOntology").body.parts[-1]
        subst, _ = check_instantiation(pattern, inst.args, flatten=no_ontology_argument)
        assert dict(subst.mapping) == {
            name("Role"): name("MotherRole"),
            name("Performer"): name("Mother"),
        }
        assert subst.omitted == frozenset({name("Provider")})

    # The resolver checks each argument against its parameter where it is
    # written, so a bad argument is a resolver error, at the argument.

    def test_kind_mismatch(self, driving):
        text = (
            "library L pattern SimpleRelationGODP [ObjectProperty: p] [Class: D] [Class: R] = "
            "ObjectProperty: p Domain: D Range: R end "
            "ontology Bad = SimpleRelationGODP [Class: drives] [Person] [Vehicle] end"
        )
        message = "argument 1 of SimpleRelationGODP: expected ObjectProperty, got Class"
        assert resolver_errors(text) == [("KindMismatch", message, (1, 157))]

    def test_missing_mandatory_argument(self):
        # position 2 (Performer) omitted although mandatory
        text = fixture_text("role.gdol") + (
            "\nontology Bad = RoleGODPParametrisation [Class: R] [] [Class: U] end\n"
        )
        message = "argument 2 of RoleGODPParametrisation (Performer) is mandatory"
        assert resolver_errors(text) == [("MissingMandatoryArgument", message, (134, 51))]

    def test_error_carries_instantiation_trace(self):
        # owl:Thing replacing a base two sites down shows only at the site.
        text = (
            "library L "
            "pattern Inner [Class: c] = Class: c[A] end "
            "pattern Outer [Class: X] = Inner [X] end "
            "ontology Bad = Outer [Class: owl:Thing] end"
        )
        resolved = resolve_text(text)
        with pytest.raises(GodpError) as exc:
            expand(resolved, "Bad")
        assert exc.value.code == "KindMismatch"
        traced = [n.message for n in exc.value.notes]
        assert any("Inner" in m for m in traced)
        assert any("Outer" in m for m in traced)


# ---------------------------------------------------------------------------
# prune_omitted / apply_substitution
# ---------------------------------------------------------------------------


class TestPrune:
    def test_empty_omitted_is_identity(self, role):
        axioms = get_pattern(role, "RoleGODPParametrisation").body.axioms
        assert prune_omitted(axioms, frozenset()) == list(axioms)

    def test_declaration_of_omitted_deleted(self):
        axioms = [Declaration(CLS, name("Provider")), Declaration(CLS, name("Role"))]
        assert prune_omitted(axioms, {name("Provider")}) == [Declaration(CLS, name("Role"))]

    def test_matches_brute_force_scan(self, role):
        axioms = get_pattern(role, "RoleGODPParametrisation").body.axioms
        omitted = {name("Provider")}
        kept = prune_omitted(axioms, omitted)
        # independent oracle: reflection-based scan for omitted names
        expected = [ax for ax in axioms if not (collect_names(ax) & omitted)]
        assert kept == expected
        assert len(kept) < len(axioms)

    def test_monotone(self, role):
        axioms = get_pattern(role, "RoleGODPParametrisation").body.axioms
        small = norm_set(prune_omitted(axioms, {name("Provider")}))
        large = norm_set(prune_omitted(axioms, {name("Provider"), name("Performer")}))
        assert large <= small


class TestSubstitution:
    def test_identity(self):
        axioms = [SubClassOf(c("A"), SomeValuesFrom(name("p"), c("B")))]
        assert apply_substitution(axioms, Substitution((), frozenset())) == axioms

    def test_driving_frame(self):
        axioms = [
            Declaration(OP, name("p")),
            ObjectPropertyDomain(name("p"), c("D")),
            ObjectPropertyRange(name("p"), c("R")),
        ]
        s = Substitution(
            ((name("p"), name("drives")), (name("D"), name("Person")), (name("R"), name("Vehicle"))),
            frozenset(),
        )
        assert apply_substitution(axioms, s) == [
            Declaration(OP, name("drives")),
            ObjectPropertyDomain(name("drives"), c("Person")),
            ObjectPropertyRange(name("drives"), c("Vehicle")),
        ]

    def test_constituent_substitution(self):
        prop = StructuredName("rolePerformedBy", ((name("Performer"),),))
        ax = Declaration(OP, prop)
        s = Substitution(((name("Performer"), name("Agent")),), frozenset())
        (out,) = apply_substitution([ax], s)
        assert out.name.render() == "rolePerformedBy[Agent]"

    def test_axiom_count_preserved(self, role):
        axioms = get_pattern(role, "RoleGODPParametrisation").body.axioms
        s = Substitution(
            (
                (name("Role"), name("ProfRole")),
                (name("Performer"), name("Professor")),
                (name("Provider"), name("University")),
            ),
            frozenset(),
        )
        assert len(apply_substitution(axioms, s)) == len(axioms)


# ---------------------------------------------------------------------------
# Combination
# ---------------------------------------------------------------------------


class TestCombine:
    def test_then_empty_is_unit(self):
        text = "library L ontology O = Class: C end ontology P = O then (Class: C) end"
        onto = flatten_text(text, "P", stratify=False)
        base = flatten_text(text, "O", stratify=False)
        assert onto.normalized_set() == base.normalized_set()

    def test_then_self_dedups(self):
        text = "library L ontology O = Class: C SubClassOf: D end ontology P = O then O end"
        assert len(flatten_text(text, "P", stratify=False).axioms) == 2

    def test_and_idempotent(self):
        text = "library L ontology O = Class: C SubClassOf: D end ontology P = O and O end"
        p = flatten_text(text, "P", stratify=False)
        o = flatten_text(text, "O", stratify=False)
        assert p.normalized_set() == o.normalized_set()
        assert len(p.axioms) == len(o.axioms)

    def test_disjoint_union_is_concatenation(self):
        text = (
            "library L ontology A = Class: C1 SubClassOf: D1 end "
            "ontology B = Class: C2 SubClassOf: D2 end "
            "ontology U = A and B end"
        )
        u = flatten_text(text, "U", stratify=False)
        a = flatten_text(text, "A", stratify=False)
        b = flatten_text(text, "B", stratify=False)
        # brute-force multiset comparison
        assert sorted(map(repr, u.axioms)) == sorted(map(repr, a.axioms + b.axioms))

    def test_conflicting_kind(self):
        text = (
            "library L ontology A = Class: X end "
            "ontology B = ObjectProperty: X end "
            "ontology U = A and B end"
        )
        with pytest.raises(GodpError) as exc:
            flatten_text(text, "U")
        assert exc.value.code == "ConflictingKind"


# ---------------------------------------------------------------------------
# Conformance of ontology-valued arguments
# ---------------------------------------------------------------------------


class TestConformance:
    def test_requirement_becomes_obligation(self, obligations_lib):
        result = expand(obligations_lib, "BeagleTerm")
        assert len(result.obligations) == 1
        ob = result.obligations[0]
        assert ob.pattern == "NarrowerTerm"
        assert ob.position == 2
        assert ob.target == "Taxonomy"
        assert [(s.base, t.base) for s, t in ob.fit] == [("D", "Dog"), ("E", "Animal")]
        assert norm_set(ob.axioms) == norm_set([SubClassOf(c("Dog"), c("Animal"))])
        assert result.ontology.normalized_set() == norm_set(
            [Declaration(CLS, name("Beagle")), SubClassOf(c("Beagle"), c("Dog"))]
        )

    def test_same_name_defaults_no_obligations(self, obligations_lib):
        result = expand(obligations_lib, "PuppyTerm")
        assert result.obligations == []
        assert result.ontology.normalized_set() == norm_set(
            [Declaration(CLS, name("Puppy")), SubClassOf(c("Puppy"), c("Dog"))]
        )

    def test_fit_target_undeclared(self):
        text = (
            "library L ontology T = Class: Animal end "
            "pattern P [ontology {Class: D}] = Class: D end "
            "ontology O = P [T fit D |-> Ghost] end"
        )
        with pytest.raises(GodpError) as exc:
            expand(resolve_text(text), "O")
        assert exc.value.code == "FitTargetUndeclared"

    def test_unmapped_parameter_symbol(self):
        text = (
            "library L ontology T = Class: Animal end "
            "pattern P [ontology {Class: D}] = Class: D end "
            "ontology O = P [T] end"
        )
        with pytest.raises(GodpError) as exc:
            expand(resolve_text(text), "O")
        assert exc.value.code == "UnmappedParameterSymbol"

    def test_kind_mismatch_through_fit(self):
        text = (
            "library L ontology T = ObjectProperty: w end "
            "pattern P [ontology {Class: D}] = Class: D end "
            "ontology O = P [T fit D |-> w] end"
        )
        with pytest.raises(GodpError) as exc:
            expand(resolve_text(text), "O")
        assert exc.value.code == "KindMismatch"

    def test_unknown_fit_symbol(self):
        text = (
            "library L ontology T = Class: Animal end "
            "pattern P [ontology {Class: Animal}] = Class: Animal end "
            "ontology O = P [T fit Ghost |-> Animal] end"
        )
        message = "fit maps Ghost, which is not a symbol of the parameter (argument 1 of P)"
        assert resolver_errors(text) == [("UnknownFitSymbol", message, (1, 114))]


# ---------------------------------------------------------------------------
# The worked role examples
# ---------------------------------------------------------------------------


def prof_role_expected():
    hte = name("hasTemporalExtent")
    rpb = name("rolePerformedBy_Professor")
    prl = name("performsRole_Professor")
    rvb = name("roleProvidedBy_University")
    pvr = name("providesRole_University")
    return [
        Declaration(CLS, name("Professor")),
        Declaration(CLS, name("University")),
        Declaration(OP, hte),
        Declaration(CLS, name("TemporalExtent")),
        Declaration(OP, rpb),
        ObjectPropertyDomain(rpb, c("ProfRole")),
        ObjectPropertyRange(rpb, c("Professor")),
        Declaration(OP, prl),
        InverseProperties(prl, rpb),
        Declaration(OP, rvb),
        ObjectPropertyDomain(rvb, c("ProfRole")),
        ObjectPropertyRange(rvb, c("University")),
        Declaration(OP, pvr),
        InverseProperties(pvr, rvb),
        Declaration(CLS, name("ProfRole")),
        SubClassOf(c("ProfRole"), Cardinality(rvb, "max", 1, c("University"))),
        SubClassOf(c("ProfRole"), Cardinality(rpb, "max", 1, c("Professor"))),
        SubClassOf(c("ProfRole"), SomeValuesFrom(hte, c("TemporalExtent"))),
        SubClassOf(c("ProfRole"), AllValuesFrom(hte, c("TemporalExtent"))),
        SubClassOf(
            c("ProfRole"),
            Or(
                (
                    SomeValuesFrom(rvb, c("University")),
                    SomeValuesFrom(rpb, c("Professor")),
                )
            ),
        ),
        DisjointClasses(c("ProfRole"), c("TemporalExtent")),
    ]


def mother_role_expected():
    hte = name("hasTemporalExtent")
    rpb = name("rolePerformedBy_Mother")
    prl = name("performsRole_Mother")
    return [
        Declaration(CLS, name("Mother")),
        Declaration(OP, hte),
        Declaration(CLS, name("TemporalExtent")),
        Declaration(OP, rpb),
        ObjectPropertyDomain(rpb, c("MotherRole")),
        ObjectPropertyRange(rpb, c("Mother")),
        Declaration(OP, prl),
        InverseProperties(prl, rpb),
        Declaration(CLS, name("MotherRole")),
        SubClassOf(c("MotherRole"), Cardinality(rpb, "max", 1, c("Mother"))),
        SubClassOf(c("MotherRole"), SomeValuesFrom(hte, c("TemporalExtent"))),
        SubClassOf(c("MotherRole"), AllValuesFrom(hte, c("TemporalExtent"))),
        DisjointClasses(c("MotherRole"), c("TemporalExtent")),
    ]


class TestRoleExpansion:
    def test_prof_role_matches_expected(self, role):
        onto = stratify_ontology(expand(role, "ProfRoleOntology").ontology)
        assert onto.normalized_set() == norm_set(prof_role_expected())

    def test_mother_role_matches_expected(self, role):
        onto = stratify_ontology(expand(role, "MotherRoleOntology").ontology)
        assert onto.normalized_set() == norm_set(mother_role_expected())

    def test_no_provider_names_after_omission(self, role):
        onto = stratify_ontology(expand(role, "MotherRoleOntology").ontology)
        rendered = " ".join(map(repr, onto.axioms))
        assert "Provider" not in rendered
        assert "roleProvidedBy" not in rendered
        assert not any(isinstance(ax.sup, Or) for ax in onto.axioms if isinstance(ax, SubClassOf))

    def test_optional_coherence_brute_force(self, role):
        """Expanding with the provider present and then deleting every axiom
        that mentions a provider-derived name equals expanding without it."""
        with_provider = expand(role, "ProfRoleDecomposed").ontology
        provider_arg = name("University")
        survivors = [
            ax
            for ax in with_provider.axioms
            if provider_arg not in collect_names(ax)
        ]
        # Re-run with Mother* names swapped in to compare against the omitted run
        mapping = {
            name("ProfRole"): name("MotherRole"),
            name("Professor"): name("Mother"),
        }
        renamed = norm_set(apply_substitution(survivors, Substitution(tuple(mapping.items()), frozenset())))
        without = expand(role, "MotherRoleDecomposed").ontology
        assert renamed == without.normalized_set()

    @pytest.mark.parametrize("target_pair", [
        ("ProfRoleOntology", "ProfRoleDecomposed"),
        ("MotherRoleOntology", "MotherRoleDecomposed"),
    ])
    def test_decomposition_equivalence_fixture_triples(self, role, target_pair):
        direct, decomposed = target_pair
        a = expand(role, direct).ontology
        b = expand(role, decomposed).ontology
        assert a.normalized_set() == b.normalized_set()

    def test_decomposition_equivalence_random_triple(self):
        rng = random.Random()
        fresh = []
        while len(fresh) < 3:
            candidate = "Rnd" + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(8))
            if candidate not in fresh:
                fresh.append(candidate)
        role_cls, performer, provider = fresh
        extra = (
            f"\nontology RandomParam =\n"
            f"  Class: {performer} Class: {provider}\n"
            f"  then RoleGODPParametrisation [Class: {role_cls}] [Class: {performer}] [Class: {provider}]\n"
            f"end\n"
            f"ontology RandomDecomposed =\n"
            f"  Class: {performer} Class: {provider}\n"
            f"  then RoleGODPDecomposed [Class: {role_cls}] [Class: {performer}] [Class: {provider}]\n"
            f"end\n"
        )
        resolved = resolve_text(fixture_text("role.gdol") + extra)
        a = expand(resolved, "RandomParam").ontology
        b = expand(resolved, "RandomDecomposed").ontology
        assert a.normalized_set() == b.normalized_set()


# ---------------------------------------------------------------------------
# Stratification
# ---------------------------------------------------------------------------


class TestStratification:
    def test_thematic_roles_have_three_distinct_classes(self, role):
        onto = stratify_ontology(expand(role, "ThematicRoles").ontology)
        declared = {n.base for n, e in onto.signature.items() if e.declared and e.kind is CLS}
        assert {
            "RolePerformedBySome_Agent",
            "RolePerformedBySome_Patient",
            "RolePerformedBySome_Instrument",
        } <= declared

    def test_shared_axioms_appear_once(self, role):
        onto = expand(role, "ThematicRoles").ontology
        domain_axioms = [
            ax
            for ax in onto.axioms
            if isinstance(ax, ObjectPropertyDomain) and ax.prop == name("rolePerformedBy")
        ]
        assert len(domain_axioms) == 1

    def test_agent_slice_is_subsumption_instantiation(self, role):
        onto = stratify_ontology(expand(role, "ThematicRoles").ontology)
        family = {name("Agent"), name("AgentRole"), name("RolePerformedBySome_Agent")}
        slice_ = [ax for ax in onto.axioms if collect_names(ax) & family]
        expected = [
            Declaration(CLS, name("Agent")),
            Declaration(CLS, name("AgentRole")),
            SubClassOf(c("AgentRole"), c("Role")),
            SubClassOf(c("AgentRole"), AllValuesFrom(name("rolePerformedBy"), c("Agent"))),
            Declaration(CLS, name("RolePerformedBySome_Agent")),
            EquivalentClasses(
                c("RolePerformedBySome_Agent"),
                SomeValuesFrom(name("rolePerformedBy"), c("Agent")),
            ),
            SubClassOf(c("RolePerformedBySome_Agent"), c("AgentRole")),
        ]
        assert norm_set(slice_) == norm_set(expected)

    def test_plain_names_unchanged(self, driving):
        onto = expand(driving, "DrivingExtended").ontology
        assert stratify_ontology(onto).normalized_set() == onto.normalized_set()

    def test_collision_detected(self):
        resolved = resolve_text(fixture_text("collision.gdol"))
        with pytest.raises(GodpError) as exc:
            stratify_ontology(expand(resolved, "CollisionDemo").ontology)
        assert exc.value.code == "StratificationCollision"
        assert "A_B_C" in exc.value.message

    def test_referenced_only_name_may_merge(self):
        text = (
            "library L ontology O = Class: A[B] Class: X SubClassOf: A_B end"
        )
        onto = stratify_ontology(flatten_text(text, "O", stratify=False))
        assert len([1 for n, _ in onto.signature.items() if n == name("A_B")]) == 1


FIXTURES = ("role.gdol", "driving.gdol", "obligations.gdol", "collision.gdol")


def eager_rename(o, mapping):
    """Test oracle: FlatOntology.rename as it was when it built its result at
    once, not on the first read."""
    get = mapping.get
    keyed = {}
    for key, ax in o._keyed.items():
        if any(n in mapping for n, _ in referenced_kinds(ax)):
            ax = map_axiom_names(ax, lambda n: get(n, n))
            key = normalize_axiom(ax)
        keyed.setdefault(key, ax)
    signature = {}
    for n, entry in o.signature.items():
        _add(signature, get(n, n), entry, None)
    return FlatOntology(signature, keyed)


def fixture_targets():
    """(fixture, target, unstratified ontology) for every target of the four fixtures."""
    for fixture in FIXTURES:
        resolved = resolve_text(fixture_text(fixture))
        for target in resolved.ontology_names():
            yield fixture, target, expand(resolved, target).ontology


def read(o, first):
    """Read ``o`` first through ``first``, then through the other two."""
    views = {
        "signature": lambda: list(o.signature.items()),
        "axioms": lambda: o.axioms,
        "normalized_set": o.normalized_set,
    }
    out = {first: views[first]()}
    out.update((k, view()) for k, view in views.items() if k != first)
    return out


class TestRenameOnFirstRead:
    """stratify_ontology raises every error when it is called, and its
    renamed result is built on its first read, whichever read that is."""

    @pytest.mark.parametrize("first", ["signature", "axioms", "normalized_set"])
    def test_equals_eager_rename_on_every_fixture_target(self, first):
        renamed = 0
        for fixture, target, o in fixture_targets():
            try:
                out = stratify_ontology(o)
            except GodpError as exc:
                assert (fixture, exc.code) == ("collision.gdol", "StratificationCollision")
                continue
            mapping = {n: StructuredName(stratify_name(n)) for n in o.signature if n.groups}
            expected = eager_rename(o, mapping) if mapping else o
            renamed += bool(mapping)
            assert read(out, first) == read(expected, first), (fixture, target)
        assert renamed >= 3  # role.gdol's targets stratify bracketed names

    def test_built_once(self, role, monkeypatch):
        out = stratify_ontology(expand(role, "ProfRoleOntology").ontology)
        signature = out.signature
        monkeypatch.setattr(godp.ontology, "map_axiom_names", None)  # a second build would fail
        assert out.signature is signature and out.axioms and out.normalized_set()
        assert any(n.base == "performsRole_Professor" for n in signature)

    def test_collision_raised_by_the_call(self, monkeypatch):
        o = expand(resolve_text(fixture_text("collision.gdol")), "CollisionDemo").ontology
        monkeypatch.setattr(godp.ontology, "map_axiom_names", None)  # no rename may run
        with pytest.raises(GodpError) as exc:
            stratify_ontology(o)
        assert exc.value.code == "StratificationCollision"

    def test_unstratified_name_raised_by_the_call(self, monkeypatch):
        o = flatten_text("library L ontology O = Class: A[owl:Thing] end", "O", stratify=False)
        monkeypatch.setattr(godp.ontology, "map_axiom_names", None)
        with pytest.raises(GodpError) as exc:
            stratify_ontology(o)
        assert exc.value.code == "UnstratifiedName"
        assert "A[owl:Thing]" in exc.value.message


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


class TestOtherParameterKinds:
    def test_data_property_and_individual_params(self):
        text = (
            "library L pattern Record [DataProperty: d] [Individual: i] [Class: K] = "
            "DataProperty: d "
            "Individual: i Types: K "
            "end "
            "ontology O = Class: Person then Record [age] [bernd] [Person] end"
        )
        onto = flatten_text(text, "O", stratify=False)
        expected = [
            Declaration(CLS, name("Person")),
            Declaration(EntityKind.DATA_PROPERTY, name("age")),
            Declaration(EntityKind.INDIVIDUAL, name("bernd")),
        ]
        assert norm_set(expected) < onto.normalized_set()
        kinds = onto.signature
        assert kinds[name("age")].kind is EntityKind.DATA_PROPERTY
        assert kinds[name("bernd")].kind is EntityKind.INDIVIDUAL

    def test_facts_substituted(self):
        text = (
            "library L pattern WorksAt [Individual: who] [Individual: where] = "
            "ObjectProperty: worksAt "
            "Individual: who Facts: worksAt where "
            "Individual: where "
            "end "
            "ontology O = WorksAt [bernd] [bremen] end"
        )
        onto = flatten_text(text, "O", stratify=False)
        from godp.axioms import PropertyAssertion

        assert PropertyAssertion(name("worksAt"), name("bernd"), name("bremen")) in onto.axioms

    def test_owl_thing_as_class_argument(self):
        text = (
            "library L pattern P [ObjectProperty: p] [Class: R] = "
            "ObjectProperty: p Class: Q SubClassOf: p max 1 R end "
            "ontology O = P [prop] [owl:Thing] end"
        )
        onto = flatten_text(text, "O", stratify=False)
        rendered = [repr(ax) for ax in onto.axioms]
        assert any("owl:Thing" in r for r in rendered)

    def test_owl_thing_rejected_for_property_param(self):
        text = (
            "library L pattern P [ObjectProperty: p] = ObjectProperty: p end "
            "ontology O = P [owl:Thing] end"
        )
        message = "argument 1 of P: expected ObjectProperty, got owl:Thing"
        assert resolver_errors(text) == [("KindMismatch", message, (1, 80))]


class TestObligationDedup:
    def test_double_reference_keeps_one_obligation(self, obligations_lib):
        text = fixture_text("obligations.gdol") + (
            "\nontology Twice = BeagleTerm and BeagleTerm end\n"
        )
        resolved = resolve_text(text)
        result = expand(resolved, "Twice")
        assert len(result.obligations) == 1


class TestDesugarOnce:
    def test_each_body_desugared_once_per_expansion(self, monkeypatch):
        # Three sites of one pattern, one of them with an omitted optional
        # argument: the parser desugars each block once, the expander never
        # (the library has no ontology parameter), and each site still
        # prunes and substitutes for itself.
        calls = []
        for module in (godp.parser, godp.expansion):

            def counting(frames, module=module.__name__, original=module.desugar_frames):
                calls.append(module)
                return original(frames)

            monkeypatch.setattr(module, "desugar_frames", counting)
        text = (
            "library L pattern R [Class: A] [Class: B ?] = Class: A SubClassOf: B end "
            "ontology O = R [Class: X] [Class: Y] and R [Class: Z] [] and R [Class: X] [Class: Y] end"
        )
        onto = flatten_text(text, "O")
        assert calls == ["godp.parser"]
        assert norm_set(onto.axioms) == norm_set(
            [
                Declaration(CLS, name("X")),
                SubClassOf(Named(name("X")), Named(name("Y"))),
                Declaration(CLS, name("Z")),
            ]
        )


class TestBlockMemo:
    """A block is built into an ontology once per substitution, while every
    instantiation site is still checked."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        original = FlatOntology.from_axioms

        def counting(axioms, span=None):
            calls.append(span)
            return original(axioms, span)

        monkeypatch.setattr(FlatOntology, "from_axioms", staticmethod(counting))
        return calls

    def test_diamond_builds_its_leaf_block_once(self, builds, monkeypatch):
        checks = []
        original = godp.expansion.check_instantiation

        def counting(pattern, args, **kwargs):
            checks.append(pattern.name)
            return original(pattern, args, **kwargs)

        monkeypatch.setattr(godp.expansion, "check_instantiation", counting)
        items = ["pattern P0 [Class: X] = Class: X SubClassOf: owl:Thing end"]
        items += [f"pattern P{i} [Class: X] = P{i - 1} [X] and P{i - 1} [X] end" for i in range(1, 9)]
        text = "library L " + " ".join(items) + " ontology O = P8 [Class: C] end"
        result = expand(resolve_text(text), "O")
        assert len(builds) == 1
        assert len(checks) == 2**9 - 1
        assert result.ontology.axioms == (Declaration(CLS, name("C")), SubClassOf(c("C"), Named(THING)))

    def test_different_arguments_build_twice(self, builds):
        text = (
            "library L pattern R [Class: A] = Class: A SubClassOf: B end "
            "ontology O = R [Class: X] and R [Class: Y] and R [Class: X] end"
        )
        onto = flatten_text(text, "O")
        assert len(builds) == 2
        assert onto.axioms == (
            Declaration(CLS, name("X")),
            SubClassOf(c("X"), c("B")),
            Declaration(CLS, name("Y")),
            SubClassOf(c("Y"), c("B")),
        )

    def test_omitted_and_passed_optional_argument_build_twice(self, builds):
        text = (
            "library L pattern R [Class: A] [Class: B ?] = Class: A SubClassOf: B end "
            "ontology O = R [Class: X] [] and R [Class: X] [Class: Y] and R [Class: X] [] end"
        )
        onto = flatten_text(text, "O")
        assert len(builds) == 2
        assert onto.axioms == (Declaration(CLS, name("X")), SubClassOf(c("X"), c("Y")))

    def test_block_error_is_raised_again_at_the_next_site(self):
        text = (
            "library L pattern R [Class: A] [ObjectProperty: q] = Class: A SubClassOf: q some B end "
            "ontology O1 = R [Class: C] [ObjectProperty: C] end "
            "ontology O2 = Class: D and R [Class: C] [ObjectProperty: C] end"
        )
        expander = Expander(resolve_text(text))
        for target in ("O1", "O2"):
            with pytest.raises(GodpError) as exc:
                expander.expand_item(target)
            assert exc.value.code == "ConflictingKind"


class TestDeterminism:
    def test_expansion_deterministic(self):
        text = fixture_text("role.gdol")
        a = expand(resolve(parse_library(text)), "ProfRoleOntology").ontology
        b = expand(resolve(parse_library(text)), "ProfRoleOntology").ontology
        assert a.axioms == b.axioms
        assert list(a.signature.items()) == list(b.signature.items())


class TestBodyEvaluation:
    def test_body_desugared_before_nested_instantiation_checked(self):
        # Q's FitTargetUndeclared, found only at the site, comes first in P's
        # body, but P's second block has a section its frame kind lacks: the
        # parser rejects it, once and under no site's note.
        text = (
            "library L ontology O = Class: b end "
            "pattern Q [ontology {Class: a}] = Class: Z end "
            "pattern P [Class: X] = Q [O fit a |-> X] and Class: A Domain: B end "
            "ontology T = P [Class: K] end"
        )
        with pytest.raises(GodpError) as exc:
            parse_library(text)
        assert exc.value.code == "UnsupportedConstruct"
        assert exc.value.message == "section 'Domain' is not supported in a Class frame"
        assert exc.value.notes == ()

    def test_instantiation_pruned_inside_then_chain(self):
        text = (
            "library L pattern Inner [Class: A] = Class: A SubClassOf: B end "
            "pattern Outer [Class: X] [Class: Y ?] = "
            "Class: X then Inner [Class: Y] then Class: Z SubClassOf: Y end "
            "ontology O = Class: W then Outer [Class: K] [] end"
        )
        onto = flatten_text(text, "O")
        assert onto.axioms == (
            Declaration(CLS, name("W")),
            Declaration(CLS, name("K")),
            Declaration(CLS, name("Z")),
        )

    def test_two_sites_with_different_substitutions(self):
        text = (
            "library L pattern R [ObjectProperty: p] [Class: D] = "
            "ObjectProperty: p Domain: D end "
            "pattern Twice [Class: X] = R [ObjectProperty: r[X]] [Class: X] and R [q] [Class: X] end "
            "ontology O = Twice [Class: A] and Twice [Class: B] end"
        )
        onto = flatten_text(text, "O", stratify=False)
        r = lambda c: StructuredName("r", ((name(c),),))  # noqa: E731
        assert onto.axioms == (
            Declaration(OP, r("A")),
            ObjectPropertyDomain(r("A"), c("A")),
            Declaration(OP, name("q")),
            ObjectPropertyDomain(name("q"), c("A")),
            Declaration(OP, r("B")),
            ObjectPropertyDomain(r("B"), c("B")),
            ObjectPropertyDomain(name("q"), c("B")),
        )


class TestResolvedErrors:
    def test_expand_raises_first_resolver_error(self):
        # The expander looks up only names the resolver bound, so it expands
        # nothing of a library the resolver rejected.
        text = (
            "library L pattern Q [ontology {Class: A}] = Class: B end "
            "pattern P [Class: X] = Q [X] end "
            "ontology O = Missing and P [Class: C] end"
        )
        resolved = resolve(parse_library(text))
        first = resolved.errors[0]
        assert [d.code for d in resolved.errors] == ["SymbolArgForOntologyParam", "UnresolvedReference"]
        for target in ("O", "Nowhere"):
            with pytest.raises(GodpError) as exc:
                expand(resolved, target)
            assert (exc.value.code, exc.value.message, exc.value.span) == (first.code, first.message, first.span)


class TestLibraryApiFile:
    @pytest.mark.parametrize(
        "body, lines",
        [
            # raised in Q's block at the site, under two notes
            (
                "pattern Q [Class: c] = Class: c[A] end "
                "pattern P [Class: X] = Q [X] end ontology O = P [Class: owl:Thing] end",
                3,
            ),
            ("ontology O = Class: A and ObjectProperty: A end", 1),  # raised in union
            ("ontology O = Class: A Domain: B end", 1),  # raised in parsing
        ],
    )
    def test_with_file_names_the_error_and_every_note(self, body, lines):
        with pytest.raises(GodpError) as exc:
            expand(resolve(parse_library(f"library L {body}")), "O")
        printed = exc.value.diagnostic.with_file("lib.gdol").format().split("\n")
        assert len(printed) == lines
        assert all(line.startswith("lib.gdol:1:") for line in printed)

    def test_with_file_keeps_a_named_file(self):
        note = Diagnostic("note", "X", "n", Span(1, 2))
        other = Diagnostic("note", "X", "n", Span(1, 2), "other.gdol")
        diag = Diagnostic("error", "IoError", "m", None, "out.omn", (note, other))
        named = diag.with_file("lib.gdol")
        assert (named.file, [n.file for n in named.notes]) == ("out.omn", ["lib.gdol", "other.gdol"])
