import pytest

from godp.axioms import (
    AllValuesFrom,
    And,
    AtomicAxiom,
    Cardinality,
    ClassAssertion,
    ClassExpr,
    Declaration,
    DisjointClasses,
    EntityKind,
    EquivalentClasses,
    FunctionalProperty,
    InverseFunctionalProperty,
    InverseProperties,
    Named,
    Not,
    ObjectPropertyDomain,
    ObjectPropertyRange,
    Or,
    PropertyAssertion,
    SomeValuesFrom,
    SubClassOf,
    SubPropertyOf,
    axioms_equal,
    map_axiom_names,
    mentions,
    normalize_axiom,
    referenced_kinds,
    render_axiom,
    render_expr,
)
from godp.diagnostics import GodpError
from godp.emitter import emit_manchester
from godp.frames import desugar_frames
from godp.names import THING, StructuredName, name, substitute_name
from godp.ontology import FlatOntology
from godp.parser import parse_frames


def cls(n):
    return Named(name(n))


def structured(base, constituent):
    return StructuredName(base, ((name(constituent),),))


class TestNormalize:
    def test_disjoint_sorted(self):
        assert normalize_axiom(DisjointClasses(cls("B"), cls("A"))) == DisjointClasses(
            cls("A"), cls("B")
        )

    def test_conjunction_operands_sorted(self):
        ax = SubClassOf(cls("X"), And((cls("Q"), cls("P"))))
        assert normalize_axiom(ax) == SubClassOf(cls("X"), And((cls("P"), cls("Q"))))

    def test_equivalent_sorted(self):
        ax = EquivalentClasses(SomeValuesFrom(name("p"), cls("B")), cls("A"))
        norm = normalize_axiom(ax)
        assert norm == EquivalentClasses(cls("A"), SomeValuesFrom(name("p"), cls("B")))

    def test_structure_preserved(self):
        nested = SubClassOf(cls("X"), And((And((cls("B"), cls("A"))), cls("C"))))
        norm = normalize_axiom(nested)
        # Inner conjunction is sorted but not flattened into the outer one.
        assert norm == SubClassOf(cls("X"), And((And((cls("A"), cls("B"))), cls("C"))))


class TestAxiomsEqual:
    def test_identity(self):
        a = SubClassOf(cls("A"), SomeValuesFrom(name("p"), cls("B")))
        b = SubClassOf(cls("A"), SomeValuesFrom(name("p"), cls("B")))
        assert axioms_equal(a, b)

    def test_commutativity(self):
        assert axioms_equal(DisjointClasses(cls("A"), cls("B")), DisjointClasses(cls("B"), cls("A")))

    def test_min_max_distinct(self):
        a = SubClassOf(cls("A"), Cardinality(name("p"), "max", 1, cls("B")))
        b = SubClassOf(cls("A"), Cardinality(name("p"), "min", 1, cls("B")))
        assert not axioms_equal(a, b)


class TestMentions:
    def test_constituent_closure(self):
        prop = structured("rolePerformedBy", "Performer")
        ax = SubClassOf(cls("Role"), Cardinality(prop, "max", 1, cls("Performer")))
        assert mentions(ax) == frozenset(
            {name("Role"), prop, name("rolePerformedBy"), name("Performer")}
        )

    def test_declaration(self):
        assert mentions(Declaration(EntityKind.CLASS, name("C"))) == frozenset({name("C")})

    def test_functional(self):
        assert mentions(FunctionalProperty(name("p"))) == frozenset({name("p")})

    def test_assertions(self):
        ax = PropertyAssertion(name("p"), name("a"), name("b"))
        assert mentions(ax) == frozenset({name("p"), name("a"), name("b")})
        ax2 = ClassAssertion(cls("C"), name("a"))
        assert mentions(ax2) == frozenset({name("C"), name("a")})


class TestRendering:
    def test_precedence_or_of_ands(self):
        e = Or((And((cls("A"), cls("B"))), cls("C")))
        assert render_expr(e) == "A and B or C"

    def test_precedence_and_of_ors(self):
        e = And((Or((cls("A"), cls("B"))), cls("C")))
        assert render_expr(e) == "(A or B) and C"

    def test_filler_parenthesized(self):
        e = SomeValuesFrom(name("p"), And((cls("A"), cls("B"))))
        assert render_expr(e) == "p some (A and B)"

    def test_not_nested(self):
        e = Not(Or((cls("A"), cls("B"))))
        assert render_expr(e) == "not (A or B)"

    def test_cardinality(self):
        e = Cardinality(structured("roleProvidedBy", "University"), "max", 1, cls("University"))
        assert render_expr(e) == "roleProvidedBy[University] max 1 University"

    def test_render_axiom_line(self):
        ax = SubClassOf(cls("Dog"), cls("Animal"))
        assert render_axiom(ax) == "Class: Dog SubClassOf: Animal"


# ---------------------------------------------------------------------------
# One instance of each atomic axiom type, with a structured name and a
# non-Named class expression wherever the type can still be written as a
# frame. Pins what every per-type walk must agree on.
# ---------------------------------------------------------------------------


def sn(base, *constituents):
    return StructuredName(base, (tuple(name(c) for c in constituents),))


CLASS, OBJ, IND = EntityKind.CLASS, EntityKind.OBJECT_PROPERTY, EntityKind.INDIVIDUAL

# (axiom, render_axiom text, referenced_kinds: names in order with their kinds)
SCHEMA_TABLE = [
    (
        Declaration(OBJ, sn("rel", "A", "B")),
        "ObjectProperty: rel[A,B]",
        [(sn("rel", "A", "B"), OBJ)],
    ),
    (
        SubClassOf(Named(sn("C", "X")), And((Not(cls("E")), SomeValuesFrom(sn("p", "X"), cls("D"))))),
        "Class: C[X] SubClassOf: not E and p[X] some D",
        [(sn("C", "X"), CLASS), (name("E"), CLASS), (sn("p", "X"), OBJ), (name("D"), CLASS)],
    ),
    (
        EquivalentClasses(Or((cls("W"), cls("V"))), Named(sn("C", "X"))),
        "Class: W or V EquivalentTo: C[X]",
        [(name("W"), CLASS), (name("V"), CLASS), (sn("C", "X"), CLASS)],
    ),
    (
        DisjointClasses(Named(sn("D", "X")), AllValuesFrom(sn("q", "X"), cls("F"))),
        "Class: D[X] DisjointWith: q[X] only F",
        [(sn("D", "X"), CLASS), (sn("q", "X"), OBJ), (name("F"), CLASS)],
    ),
    (
        ObjectPropertyDomain(sn("p", "X"), Cardinality(sn("q", "X"), "min", 2, cls("A"))),
        "ObjectProperty: p[X] Domain: q[X] min 2 A",
        [(sn("p", "X"), OBJ), (sn("q", "X"), OBJ), (name("A"), CLASS)],
    ),
    (
        ObjectPropertyRange(sn("p", "X"), Or((cls("A"), Not(cls("B"))))),
        "ObjectProperty: p[X] Range: A or not B",
        [(sn("p", "X"), OBJ), (name("A"), CLASS), (name("B"), CLASS)],
    ),
    (
        InverseProperties(sn("p", "X"), sn("inv", "p")),
        "ObjectProperty: p[X] InverseOf: inv[p]",
        [(sn("p", "X"), OBJ), (sn("inv", "p"), OBJ)],
    ),
    (
        FunctionalProperty(sn("p", "X")),
        "ObjectProperty: p[X] Characteristics: Functional",
        [(sn("p", "X"), OBJ)],
    ),
    (
        InverseFunctionalProperty(sn("q", "X")),
        "ObjectProperty: q[X] Characteristics: InverseFunctional",
        [(sn("q", "X"), OBJ)],
    ),
    (
        SubPropertyOf(sn("q", "X"), sn("top", "X")),
        "ObjectProperty: q[X] SubPropertyOf: top[X]",
        [(sn("q", "X"), OBJ), (sn("top", "X"), OBJ)],
    ),
    (
        ClassAssertion(Cardinality(sn("p", "X"), "exactly", 1, cls("A")), sn("i", "X")),
        "Individual: i[X] Types: p[X] exactly 1 A",
        [(sn("p", "X"), OBJ), (name("A"), CLASS), (sn("i", "X"), IND)],
    ),
    (
        PropertyAssertion(sn("q", "X"), sn("i", "X"), sn("j", "X")),
        "Individual: i[X] Facts: q[X] j[X]",
        [(sn("q", "X"), OBJ), (sn("i", "X"), IND), (sn("j", "X"), IND)],
    ),
]

SCHEMA_AXIOMS = [row[0] for row in SCHEMA_TABLE]

SCHEMA_EMITTED = """\
ObjectProperty: p[X]
  Characteristics: Functional
  Domain: q[X] min 2 A
  Range: A or not B
  InverseOf: inv[p]

ObjectProperty: q[X]
  Characteristics: InverseFunctional
  SubPropertyOf: top[X]

ObjectProperty: rel[A,B]

Class: C[X]
  SubClassOf: not E and p[X] some D
  EquivalentTo: W or V

Class: D[X]
  DisjointWith: q[X] only F

Individual: i[X]
  Types: p[X] exactly 1 A
  Facts: q[X] j[X]
"""


def _ids(row):
    return type(row[0]).__name__


def _prefixed(n):
    return StructuredName("z" + n.base, n.groups)


def _unprefixed(n):
    return StructuredName(n.base[1:], n.groups)


class TestSchemaTable:
    def test_covers_every_axiom_type(self):
        assert {type(ax) for ax in SCHEMA_AXIOMS} == set(AtomicAxiom.__subclasses__())
        assert len(SCHEMA_AXIOMS) == 12

    @pytest.mark.parametrize("row", SCHEMA_TABLE, ids=_ids)
    def test_render_axiom(self, row):
        ax, text, _ = row
        assert render_axiom(ax) == text

    @pytest.mark.parametrize("row", SCHEMA_TABLE, ids=_ids)
    def test_names_and_kinds(self, row):
        ax, _, kinds = row
        assert referenced_kinds(ax) == kinds
        assert [n for n, _ in referenced_kinds(ax)] == [n for n, _ in kinds]

    @pytest.mark.parametrize("row", SCHEMA_TABLE, ids=_ids)
    def test_map_axiom_names(self, row):
        ax, _, kinds = row
        mapped = map_axiom_names(ax, _prefixed)
        assert type(mapped) is type(ax)
        assert referenced_kinds(mapped) == [(_prefixed(n), k) for n, k in kinds]
        # Everything that is not a name survives: mapping back restores the axiom.
        assert map_axiom_names(mapped, _unprefixed) == ax

    def test_normalize_equivalent(self):
        wv, c = Or((cls("W"), cls("V"))), Named(sn("C", "X"))
        expected = EquivalentClasses(c, Or((cls("V"), cls("W"))))
        assert normalize_axiom(EquivalentClasses(wv, c)) == expected
        assert normalize_axiom(EquivalentClasses(c, wv)) == expected

    def test_normalize_disjoint(self):
        d, q = Named(sn("D", "X")), AllValuesFrom(sn("q", "X"), Or((cls("G"), cls("F"))))
        expected = DisjointClasses(d, AllValuesFrom(sn("q", "X"), Or((cls("F"), cls("G")))))
        assert normalize_axiom(DisjointClasses(d, q)) == expected
        assert normalize_axiom(DisjointClasses(q, d)) == expected

    @pytest.mark.parametrize("row", SCHEMA_TABLE, ids=_ids)
    def test_normalize_keeps_order_elsewhere(self, row):
        ax = row[0]
        if not isinstance(ax, (EquivalentClasses, DisjointClasses)):
            assert normalize_axiom(ax) == ax  # table operands are already sorted

    def test_emit_parse_desugar_roundtrip(self):
        onto = FlatOntology.from_axioms(SCHEMA_AXIOMS)
        text = emit_manchester(onto, allow_structured=True)
        assert text == SCHEMA_EMITTED
        reparsed = desugar_frames(parse_frames(text))
        logical = lambda axioms: sorted(  # noqa: E731
            repr(normalize_axiom(ax)) for ax in axioms if not isinstance(ax, Declaration)
        )
        assert logical(reparsed) == logical(SCHEMA_AXIOMS)
        assert SCHEMA_AXIOMS[0] in reparsed

    @pytest.mark.parametrize(
        "ax",
        [
            SubClassOf(SomeValuesFrom(name("p"), cls("A")), cls("B")),
            SubClassOf(Named(THING), cls("B")),
            EquivalentClasses(Not(cls("A")), Not(cls("B"))),
            DisjointClasses(Named(THING), Named(THING)),
        ],
        ids=["SubClassOf-complex", "SubClassOf-Thing", "EquivalentClasses", "DisjointClasses"],
    )
    def test_emit_needs_named_subject(self, ax):
        with pytest.raises(GodpError) as exc:
            emit_manchester(FlatOntology.from_axioms([ax]))
        assert exc.value.code == "UnsupportedConstruct"
        assert exc.value.message == (
            "axiom has no named subject to attach a frame to: " + type(ax).__name__
        )

    def test_emit_commutative_subject_side(self):
        axioms = [
            EquivalentClasses(Named(THING), cls("A")),
            EquivalentClasses(cls("B"), cls("A")),
            DisjointClasses(Not(cls("C")), cls("A")),
        ]
        assert emit_manchester(FlatOntology.from_axioms(axioms)) == (
            "Class: A\n  EquivalentTo: owl:Thing\n  DisjointWith: not C\n\n"
            "Class: B\n  EquivalentTo: A\n"
        )


# ---------------------------------------------------------------------------
# One instance of each class-expression type, nested so that every
# parenthesization rule fires. Pins what every per-type walk over class
# expressions must agree on.
# ---------------------------------------------------------------------------

# (expression, render_expr text, text after normalization, text after renaming
# A -> K and r -> t, referenced_kinds of the expression's names)
EXPR_TABLE = [
    (
        Named(sn("B", "A")),
        "B[A]",
        "B[A]",
        "B[K]",
        [(sn("B", "A"), CLASS)],
    ),
    (
        SomeValuesFrom(name("r"), Or((cls("C"), cls("B")))),
        "r some (C or B)",
        "r some (B or C)",
        "t some (C or B)",
        [(name("r"), OBJ), (name("C"), CLASS), (name("B"), CLASS)],
    ),
    (
        AllValuesFrom(name("s"), SomeValuesFrom(name("r"), cls("A"))),
        "s only r some A",
        "s only r some A",
        "s only t some K",
        [(name("s"), OBJ), (name("r"), OBJ), (name("A"), CLASS)],
    ),
    (
        Cardinality(sn("p", "A"), "max", 1, And((cls("C"), cls("B")))),
        "p[A] max 1 (C and B)",
        "p[A] max 1 (B and C)",
        "p[K] max 1 (C and B)",
        [(sn("p", "A"), OBJ), (name("C"), CLASS), (name("B"), CLASS)],
    ),
    (
        Not(And((cls("Y"), cls("X")))),
        "not (Y and X)",
        "not (X and Y)",
        "not (Y and X)",
        [(name("Y"), CLASS), (name("X"), CLASS)],
    ),
    (
        And((Or((cls("D"), cls("C"))), cls("B"), Not(cls("A")))),
        "(D or C) and B and not A",
        # sorted by the text at the outermost level: "B" < "C or D" < "not A"
        "B and (C or D) and not A",
        "(D or C) and B and not K",
        [(name("D"), CLASS), (name("C"), CLASS), (name("B"), CLASS), (name("A"), CLASS)],
    ),
    (
        Or((SomeValuesFrom(name("r"), cls("A")), Or((cls("D"), cls("C"))), And((cls("B"), cls("A"))))),
        "r some A or (D or C) or B and A",
        "A and B or (C or D) or r some A",  # "A and B" < "C or D" < "r some A"
        "t some K or (D or C) or B and K",
        [(name("r"), OBJ), (name("A"), CLASS), (name("D"), CLASS), (name("C"), CLASS),
         (name("B"), CLASS), (name("A"), CLASS)],
    ),
]

EXPR_RENAMING = {name("A"): name("K"), name("r"): name("t")}


def _expr_ids(row):
    return type(row[0]).__name__


class TestClassExpressionTable:
    def test_covers_every_class_expression_type(self):
        assert {type(row[0]) for row in EXPR_TABLE} == set(ClassExpr.__subclasses__())
        assert len(EXPR_TABLE) == 7

    @pytest.mark.parametrize("row", EXPR_TABLE, ids=_expr_ids)
    def test_render(self, row):
        assert render_expr(row[0]) == row[1]

    @pytest.mark.parametrize("row", EXPR_TABLE, ids=_expr_ids)
    def test_normalize(self, row):
        e, _, normal, _, _ = row
        normalized = normalize_axiom(SubClassOf(cls("Q"), e)).sup
        assert render_expr(normalized) == normal
        assert normalize_axiom(SubClassOf(cls("Q"), normalized)).sup == normalized

    @pytest.mark.parametrize("row", EXPR_TABLE, ids=_expr_ids)
    def test_map_axiom_names(self, row):
        e, _, _, renamed, _ = row
        mapped = map_axiom_names(SubClassOf(cls("Q"), e), lambda n: substitute_name(n, EXPR_RENAMING))
        assert mapped.sub == cls("Q")
        assert render_expr(mapped.sup) == renamed

    @pytest.mark.parametrize("row", EXPR_TABLE, ids=_expr_ids)
    def test_referenced_kinds(self, row):
        e, _, _, _, kinds = row
        assert referenced_kinds(SubClassOf(cls("Q"), e)) == [(name("Q"), CLASS)] + kinds

    def test_commutative_sides_sorted_by_text(self):
        disjunction = EXPR_TABLE[-1][0]
        a = cls("A")
        normal_or = normalize_axiom(SubClassOf(a, disjunction)).sup
        for ax_type in (EquivalentClasses, DisjointClasses):
            assert normalize_axiom(ax_type(disjunction, a)) == ax_type(a, normal_or)
            assert normalize_axiom(ax_type(a, disjunction)) == ax_type(a, normal_or)

    def test_normalization_keeps_named_objects(self):
        a, b = cls("A"), cls("B")
        normalized = normalize_axiom(SubClassOf(a, And((b, Not(a)))))
        assert normalized.sub is a
        assert normalized.sup.operands[0] is b
        assert normalized.sup.operands[1].operand is a
        ax = InverseProperties(name("p"), name("q"))
        assert normalize_axiom(ax) is ax
