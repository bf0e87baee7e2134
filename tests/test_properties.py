"""Generative property suites.

Pools of names are pre-assigned to entity kinds so generated axioms are
kind-consistent by construction; each suite runs at least 200 cases.
"""

from __future__ import annotations

from typing import NamedTuple

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from godp.axioms import (
    EXPRS,
    AllValuesFrom,
    And,
    Cardinality,
    ClassAssertion,
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
    map_axiom_names,
    mentions,
    normalize_axiom,
    referenced_kinds,
    substitute_axiom,
)
from godp.diagnostics import GodpError, Span
from godp.emitter import emit_manchester
from godp.expansion import Substitution, apply_substitution, expand, prune_omitted, stratify_ontology
from godp.frames import desugar_frames
from godp.names import THING, THING_BASE, StructuredName, name, stratify_name, substitute_name
from godp.ontology import FlatOntology, SigEntry, combine, union
from godp.parser import parse_frames, parse_library
from godp.resolver import declared_symbols, detect_cycles, resolve
from godp.syntax import Basic, Ref, leaves

from tests.conftest import fixture_text

SUITE = settings(
    max_examples=250,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)

CLASS_POOL = ["Ca", "Cb", "Cc", "Cd"]
PROP_POOL = ["pa", "pb", "pc"]
IND_POOL = ["ia", "ib"]
PARAM_POOL = ["X", "Y", "Z"]

class_names = st.sampled_from(CLASS_POOL).map(name)
prop_names = st.sampled_from(PROP_POOL).map(name)
ind_names = st.sampled_from(IND_POOL).map(name)


def _structured(base: str, constituents) -> StructuredName:
    return StructuredName(base, (tuple(constituents),))


param_or_class = st.sampled_from(CLASS_POOL + PARAM_POOL).map(name)
structured_class_names = st.one_of(
    param_or_class,
    st.builds(_structured, st.sampled_from(CLASS_POOL), st.lists(param_or_class, min_size=1, max_size=2)),
)
structured_prop_names = st.one_of(
    prop_names,
    st.builds(_structured, st.sampled_from(PROP_POOL), st.lists(param_or_class, min_size=1, max_size=2)),
)


def class_exprs(cnames=class_names, pnames=prop_names):
    base = st.one_of(cnames.map(Named), st.just(Named(THING)))

    def extend(children):
        return st.one_of(
            st.builds(SomeValuesFrom, pnames, children),
            st.builds(AllValuesFrom, pnames, children),
            st.builds(
                Cardinality,
                pnames,
                st.sampled_from(["min", "max", "exactly"]),
                st.integers(min_value=0, max_value=3),
                children,
            ),
            st.builds(Not, children),
            st.lists(children, min_size=2, max_size=3).map(lambda ops: And(tuple(ops))),
            st.lists(children, min_size=2, max_size=3).map(lambda ops: Or(tuple(ops))),
        )

    return st.recursive(base, extend, max_leaves=6)


def axiom_strategy(cnames=class_names, pnames=prop_names, frameable=False):
    exprs = class_exprs(cnames, pnames)
    named = cnames.map(Named)
    sub_position = named if frameable else exprs
    eq_first = named if frameable else exprs
    return st.one_of(
        st.builds(Declaration, st.just(EntityKind.CLASS), cnames),
        st.builds(Declaration, st.just(EntityKind.OBJECT_PROPERTY), pnames),
        st.builds(Declaration, st.just(EntityKind.INDIVIDUAL), ind_names),
        st.builds(SubClassOf, sub_position, exprs),
        st.builds(EquivalentClasses, eq_first, exprs),
        st.builds(DisjointClasses, eq_first, exprs),
        st.builds(ObjectPropertyDomain, pnames, exprs),
        st.builds(ObjectPropertyRange, pnames, exprs),
        st.builds(InverseProperties, pnames, pnames),
        st.builds(FunctionalProperty, pnames),
        st.builds(InverseFunctionalProperty, pnames),
        st.builds(SubPropertyOf, pnames, pnames),
        st.builds(ClassAssertion, exprs, ind_names),
        st.builds(PropertyAssertion, pnames, ind_names, ind_names),
    )


general_axioms = axiom_strategy()
structured_axioms = axiom_strategy(cnames=structured_class_names, pnames=structured_prop_names)
frameable_axioms = axiom_strategy(frameable=True)


def _flip(expr):
    """Reverse every commutative operand list (an equality-preserving rewrite)."""
    if isinstance(expr, And):
        return And(tuple(_flip(op) for op in reversed(expr.operands)))
    if isinstance(expr, Or):
        return Or(tuple(_flip(op) for op in reversed(expr.operands)))
    if isinstance(expr, Not):
        return Not(_flip(expr.operand))
    if isinstance(expr, SomeValuesFrom):
        return SomeValuesFrom(expr.prop, _flip(expr.filler))
    if isinstance(expr, AllValuesFrom):
        return AllValuesFrom(expr.prop, _flip(expr.filler))
    if isinstance(expr, Cardinality):
        return Cardinality(expr.prop, expr.bound, expr.n, _flip(expr.filler))
    return expr


def _flip_axiom(ax):
    if isinstance(ax, SubClassOf):
        return SubClassOf(_flip(ax.sub), _flip(ax.sup))
    if isinstance(ax, EquivalentClasses):
        return EquivalentClasses(_flip(ax.b), _flip(ax.a))
    if isinstance(ax, DisjointClasses):
        return DisjointClasses(_flip(ax.b), _flip(ax.a))
    if isinstance(ax, ObjectPropertyDomain):
        return ObjectPropertyDomain(ax.prop, _flip(ax.cls))
    if isinstance(ax, ObjectPropertyRange):
        return ObjectPropertyRange(ax.prop, _flip(ax.cls))
    if isinstance(ax, ClassAssertion):
        return ClassAssertion(_flip(ax.cls), ax.individual)
    return ax


class TestNormalizeProperties:
    @SUITE
    @given(general_axioms)
    def test_idempotent(self, ax):
        once = normalize_axiom(ax)
        assert normalize_axiom(once) == once

    @SUITE
    @given(general_axioms)
    def test_reflexive(self, ax):
        assert normalize_axiom(ax) == normalize_axiom(ax)

    @SUITE
    @given(general_axioms, general_axioms)
    def test_symmetric(self, a, b):
        assert (normalize_axiom(a) == normalize_axiom(b)) == (normalize_axiom(b) == normalize_axiom(a))

    @SUITE
    @given(general_axioms)
    def test_transitive_through_commutative_rewrites(self, a):
        b = _flip_axiom(a)
        c = _flip_axiom(b)
        assert normalize_axiom(a) == normalize_axiom(b) and normalize_axiom(b) == normalize_axiom(c)
        assert normalize_axiom(a) == normalize_axiom(c)


class TestSubstitutionProperties:
    @SUITE
    @given(
        structured_axioms,
        st.dictionaries(
            st.sampled_from(PARAM_POOL).map(name),
            st.sampled_from(["Fa", "Fb", "Fc"]).map(name),
            min_size=0,
            max_size=3,
        ),
    )
    def test_mentions_homomorphism(self, ax, mapping):
        s = Substitution(tuple(mapping.items()), frozenset())
        (out,) = apply_substitution([ax], s)
        expected = frozenset(substitute_name(n, mapping) for n in mentions(ax))
        assert mentions(out) == expected


def _nodes(node):
    """``node`` and every class expression inside it."""
    yield node
    for i in type(node)._exprs:
        for child in node[i] if type(node).roles[i] is EXPRS else (node[i],):
            yield from _nodes(child)


# Keys are parameters and the bases of structured names; a value may be
# owl:Thing, which cannot replace a base.
base_mappings = st.dictionaries(
    st.sampled_from(PARAM_POOL + CLASS_POOL + PROP_POOL).map(name),
    st.one_of(structured_class_names, st.just(THING)),
    max_size=3,
)


class TestUncheckedBuildsAreValid:
    """substitute_name, closure, map_axiom_names and normalize_axiom build
    records without the checks of their constructors; every record they
    return passes those checks unchanged."""

    @SUITE
    @given(structured_axioms, base_mappings)
    def test_substituted_and_normalized_records_rebuild_unchanged(self, ax, mapping):
        try:
            out = substitute_axiom(ax, mapping)
        except GodpError as exc:
            assert exc.code == "KindMismatch" and THING in mapping.values()
            return
        for node in (*_nodes(out), *_nodes(normalize_axiom(out)), *_nodes(normalize_axiom(ax))):
            assert type(node)(*node) == node
        names = {n for n, _ in referenced_kinds(out)}
        assert names <= mentions(out)  # every substituted name, and each one's closure
        for n in mentions(out):
            assert StructuredName(n.base, n.groups) == n


class TestPruningProperties:
    @SUITE
    @given(
        st.lists(structured_axioms, max_size=8),
        st.sets(st.sampled_from(PARAM_POOL).map(name), max_size=3),
        st.sets(st.sampled_from(PARAM_POOL).map(name), max_size=3),
    )
    def test_monotone(self, axioms, omitted_a, omitted_b):
        small, large = (omitted_a, omitted_a | omitted_b)
        keep_small = prune_omitted(axioms, small)
        keep_large = prune_omitted(axioms, large)
        assert set(map(repr, keep_large)) <= set(map(repr, keep_small))

    @SUITE
    @given(st.lists(structured_axioms, max_size=8))
    def test_empty_omitted_identity(self, axioms):
        assert prune_omitted(axioms, frozenset()) == axioms


def _ontology(axioms) -> FlatOntology:
    decls = []
    seen = set()
    for ax in axioms:
        for n, kind in referenced_kinds(ax):
            if n not in seen and n != THING:
                seen.add(n)
                decls.append(Declaration(kind, n))
    return FlatOntology.from_axioms(decls + list(axioms))


ontologies = st.lists(frameable_axioms, max_size=6).map(_ontology)


def norm(o: FlatOntology):
    return o.normalized_set()


class TestCombineProperties:
    @SUITE
    @given(ontologies)
    def test_and_idempotent(self, a):
        assert norm(combine(a, a)) == norm(a)

    @SUITE
    @given(ontologies, ontologies)
    def test_and_commutative(self, a, b):
        assert norm(combine(a, b)) == norm(combine(b, a))

    @SUITE
    @given(ontologies, ontologies, ontologies)
    def test_and_associative(self, a, b, c):
        assert norm(combine(combine(a, b), c)) == norm(combine(a, combine(b, c)))


def reference_combine(left: FlatOntology, right: FlatOntology, span=None):
    """The original quadratic algorithm: re-normalize all of left, then scan
    right in order; returns (signature, axioms)."""
    entries = dict(left.signature)
    for n, entry in right.signature.items():
        existing = entries.get(n)
        if existing is None:
            entries[n] = entry
        elif existing.kind is not entry.kind:
            message = f"{n} is used both as {existing.kind} and as {entry.kind}"
            raise GodpError("ConflictingKind", message, span)
        elif entry.declared and not existing.declared:
            entries[n] = SigEntry(entry.kind, True)
    seen = {normalize_axiom(ax) for ax in left.axioms}
    kept = list(left.axioms)
    for ax in right.axioms:
        key = normalize_axiom(ax)
        if key not in seen:
            seen.add(key)
            kept.append(ax)
    return entries, kept


SHARED_NAMES = st.sampled_from(CLASS_POOL + PROP_POOL + IND_POOL).map(name)
USUAL_KIND = {
    **dict.fromkeys(CLASS_POOL, EntityKind.CLASS),
    **dict.fromkeys(PROP_POOL, EntityKind.OBJECT_PROPERTY),
    **dict.fromkeys(IND_POOL, EntityKind.INDIVIDUAL),
}


@st.composite
def combine_operands(draw):
    """Two ontologies drawn from one axiom pool, each axiom taken as is or
    with its commutative operands swapped (EquivalentTo A/B vs B/A). Their
    signatures share one name pool; names either keep their usual kind, so
    only `declared` can differ, or take one of two kinds, so the signatures
    usually clash, often on several names."""
    named_equivalence = st.builds(EquivalentClasses, class_names.map(Named), class_names.map(Named))
    pool = draw(st.lists(st.one_of(named_equivalence, general_axioms), min_size=1, max_size=5))
    clashing = draw(st.booleans())
    kinds = st.sampled_from([EntityKind.CLASS, EntityKind.OBJECT_PROPERTY])

    def side() -> FlatOntology:
        picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()), max_size=8))
        entries = draw(st.dictionaries(SHARED_NAMES, st.tuples(kinds, st.booleans())))
        signature = {
            n: SigEntry(kind if clashing else USUAL_KIND[n.base], declared) for n, (kind, declared) in entries.items()
        }
        return _flat(signature, [_flip_axiom(ax) if flip else ax for ax, flip in picks])

    return side(), side()


def _flat(signature, axioms) -> FlatOntology:
    """An ontology with any signature: the axioms are keyed as from_axioms keys them."""
    keyed = {}
    for ax in axioms:
        keyed.setdefault(normalize_axiom(ax), ax)
    return FlatOntology(signature, keyed)


def _signature_only(names, kind) -> FlatOntology:
    return _flat({name(n): SigEntry(kind, True) for n in names}, ())


# Every name clashes, listed in opposite orders: the error must name right's
# first clashing name, whatever order a set of the shared names has.
MANY_CLASHES = (
    _signature_only(CLASS_POOL + PROP_POOL, EntityKind.CLASS),
    _signature_only(list(reversed(CLASS_POOL + PROP_POOL)), EntityKind.INDIVIDUAL),
)


class TestCombineMatchesReference:
    @SUITE
    @given(combine_operands())
    @example(MANY_CLASHES)
    def test_same_axioms_signature_and_error(self, operands):
        left, right = operands
        span = Span(3, 7)
        before = [(list(o.signature.items()), o.axioms) for o in operands]
        try:
            expected = reference_combine(left, right, span)
        except GodpError as exc:
            expected = exc
        try:
            out = combine(left, right, span)
        except GodpError as exc:
            assert isinstance(expected, GodpError)
            assert (exc.code, exc.message, exc.span) == (expected.code, expected.message, expected.span)
        else:
            assert not isinstance(expected, GodpError), expected.message
            entries, axioms = expected
            assert list(out.signature.items()) == list(entries.items())
            assert len(out.axioms) == len(axioms)
            assert all(a is b for a, b in zip(out.axioms, axioms))
        assert [(list(o.signature.items()), o.axioms) for o in operands] == before


class _Folded(NamedTuple):
    """A reference fold's intermediate result, in the shape reference_combine reads."""

    signature: dict
    axioms: list


def reference_union(parts, ops, extension: bool):
    """The binary trees the parser used to build, folded with
    reference_combine: left-nested for `and`, right-nested for `then`."""
    if extension:
        acc = parts[-1]
        for part, span in zip(reversed(parts[:-1]), reversed(ops)):
            acc = _Folded(*reference_combine(part, acc, span))
    else:
        acc = parts[0]
        for part, span in zip(parts[1:], ops):
            acc = _Folded(*reference_combine(acc, part, span))
    return acc.signature, list(acc.axioms)


@st.composite
def union_operands(draw):
    """2-8 ontologies drawn as combine_operands draws its two; each new part
    decides on its own whether its names take their usual kind or a random
    one of two, so kind clashes occur at some junctions and not others."""
    named_equivalence = st.builds(EquivalentClasses, class_names.map(Named), class_names.map(Named))
    pool = draw(st.lists(st.one_of(named_equivalence, general_axioms), min_size=1, max_size=5))
    kinds = st.sampled_from([EntityKind.CLASS, EntityKind.OBJECT_PROPERTY])

    def part() -> FlatOntology:
        picks = draw(st.lists(st.tuples(st.sampled_from(pool), st.booleans()), max_size=6))
        clashing = draw(st.booleans())
        entries = draw(st.dictionaries(SHARED_NAMES, st.tuples(kinds, st.booleans()), max_size=4))
        signature = {
            n: SigEntry(kind if clashing else USUAL_KIND[n.base], declared) for n, (kind, declared) in entries.items()
        }
        return _flat(signature, [_flip_axiom(ax) if flip else ax for ax, flip in picks])

    parts: list[FlatOntology] = []
    for _ in range(draw(st.integers(min_value=2, max_value=8))):
        # A quarter of the parts repeat an earlier part object, as the
        # memoized blocks of `P [X] and P [X]` do.
        if parts and draw(st.integers(min_value=0, max_value=3)) == 0:
            parts.append(draw(st.sampled_from(parts)))
        else:
            parts.append(part())
    return parts


# Clashes at both junctions: `and` must report the first one, on Ca (the
# first clashing name in part 1's order, not part 0's), and `then` the last
# one, on pa.
TWO_JUNCTIONS = [
    _signature_only(["pa", "Ca"], EntityKind.CLASS),
    _signature_only(["Ca", "pa"], EntityKind.INDIVIDUAL),
    _signature_only(["pa"], EntityKind.OBJECT_PROPERTY),
]


# Part 0 again after part 1, which declares C and restates part 0's
# equivalence: the repeat adds nothing, and each side keeps its first axiom.
_C, _D = Named(name("C")), Named(name("D"))
_PART_A = _flat(
    {name("C"): SigEntry(EntityKind.CLASS, False), name("D"): SigEntry(EntityKind.CLASS, True)},
    [SubClassOf(_C, _D), EquivalentClasses(_C, _D)],
)
_PART_B = _flat(
    {name("C"): SigEntry(EntityKind.CLASS, True), name("D"): SigEntry(EntityKind.CLASS, True)},
    [Declaration(EntityKind.CLASS, name("C")), EquivalentClasses(_D, _C)],
)
REPEATED_PART = [_PART_A, _PART_B, _PART_A]


class TestUnionMatchesReference:
    """union against the binary folds of the original combine algorithm."""

    @SUITE
    @given(union_operands(), st.booleans())
    @example(TWO_JUNCTIONS, False)
    @example(TWO_JUNCTIONS, True)
    @example(list(MANY_CLASHES) * 2, True)
    @example(list(MANY_CLASHES) * 2, False)
    @example([TWO_JUNCTIONS[0]] * 3, False)
    @example([TWO_JUNCTIONS[0]] * 3, True)
    @example(REPEATED_PART, False)
    @example(REPEATED_PART, True)
    def test_same_axioms_signature_error_and_draws(self, parts, extension):
        ops = [Span(1, 10 * i + 1) for i in range(len(parts) - 1)]
        before = [(list(o.signature.items()), o.axioms) for o in parts]
        drawn = []

        def lazily():
            for i, part in enumerate(parts):
                drawn.append(i)
                yield part

        try:
            expected = reference_union(parts, ops, extension)
        except GodpError as exc:
            expected = exc
        try:
            out = union(lazily(), ops, extension=extension)
        except GodpError as exc:
            assert isinstance(expected, GodpError)
            assert (exc.code, exc.message, exc.span) == (expected.code, expected.message, expected.span)
            junction = ops.index(exc.span)
            # `and` draws no part after the junction that failed; `then` draws all first.
            assert drawn == list(range(len(parts) if extension else junction + 2))
        else:
            assert not isinstance(expected, GodpError), expected.message
            entries, axioms = expected
            assert list(out.signature.items()) == list(entries.items())
            assert len(out.axioms) == len(axioms)
            assert all(a is b for a, b in zip(out.axioms, axioms))
            assert drawn == list(range(len(parts)))
        assert [(list(o.signature.items()), o.axioms) for o in parts] == before

    @pytest.mark.parametrize("extension", [False, True])
    def test_one_part_repeated_is_that_part(self, extension):
        o = TWO_JUNCTIONS[0]
        assert union([o, o, o], [None, None], extension=extension) is o

class TestEmissionProperties:
    @SUITE
    @given(ontologies)
    def test_deterministic(self, o):
        assert emit_manchester(o) == emit_manchester(o)

    @SUITE
    @given(st.lists(frameable_axioms, max_size=6))
    def test_equal_inputs_equal_bytes(self, axioms):
        assert emit_manchester(_ontology(axioms)) == emit_manchester(_ontology(list(axioms)))

    @SUITE
    @given(ontologies)
    def test_roundtrip(self, o):
        text = emit_manchester(o)
        reparsed = desugar_frames(parse_frames(text))
        assert sorted(repr(normalize_axiom(ax)) for ax in reparsed) == sorted(
            repr(normalize_axiom(ax)) for ax in o.axioms
        )


class TestStratifyProperties:
    @SUITE
    @given(structured_class_names)
    def test_pure_function(self, n):
        copy = StructuredName(n.base, n.groups)
        assert stratify_name(n) == stratify_name(copy)

    @SUITE
    @given(structured_class_names)
    def test_fixpoint_on_plain_result(self, n):
        flat = name(stratify_name(n))
        assert stratify_name(flat) == flat.base


def reference_stratify(o: FlatOntology) -> FlatOntology:
    """The original full rewrite: group every signature name by its
    stratified identifier, map every name of every axiom, rebuild. A name
    with a constituent owl:Thing has no identifier: the first one in the
    signature is an UnstratifiedName error."""
    by_id: dict[str, list] = {}
    for n, entry in o.signature.items():
        by_id.setdefault(stratify_name(n), []).append((n, entry))
    for ident, sources in sorted(by_id.items()):
        if len(sources) < 2:
            continue
        kinds = {e.kind for _, e in sources}
        declared = [n for n, e in sources if e.declared]
        if len(kinds) > 1 or len(declared) > 1:
            a, b = sources[0][0], sources[1][0]
            raise GodpError("StratificationCollision", f"{a} and {b} both stratify to {ident!r}")
    for n in o.signature:
        if n.groups and THING_BASE in stratify_name(n):
            raise GodpError(
                "UnstratifiedName", f"structured name {n} cannot be stratified: owl:Thing cannot be a constituent"
            )
    rewritten = [map_axiom_names(ax, lambda n: StructuredName(stratify_name(n))) for ax in o.axioms]
    return FlatOntology.from_axioms(rewritten)


def _bracketed(base: str, *groups: str) -> StructuredName:
    return StructuredName(base, tuple(tuple(name(c) for c in g.split(",")) for g in groups))


# Names that stratify alike: Ca[X][Y], Ca[X,Y], Ca[X_Y] and Ca_X_Y give
# Ca_X_Y; Cb[Ca[X]] and Cb[Ca_X] give Cb_Ca_X; pa[X] and pa_X give pa_X. Such
# names merge, unless two are declared; the class Ca[X] and the property Ca_X
# always collide.
STRATIFY_CLASSES = [
    name("Ca"), name("Cb"), name("Ca_X_Y"), _bracketed("Ca", "X"), _bracketed("Ca", "X", "Y"),
    _bracketed("Ca", "X,Y"), _bracketed("Ca", "X_Y"), StructuredName("Cb", ((_bracketed("Ca", "X"),),)),
    _bracketed("Cb", "Ca_X"),
]
STRATIFY_PROPERTIES = [name("pa"), name("Ca_X"), name("pa_X"), _bracketed("pa", "X")]


def _stratify_axioms(classes, properties):
    """Mostly small axioms, so that two of them often become equal once
    their names are stratified."""
    cnames, pnames = st.sampled_from(classes), st.sampled_from(properties)
    named = cnames.map(Named)
    return st.one_of(
        st.builds(SubClassOf, named, named),
        st.builds(ObjectPropertyDomain, pnames, named),
        st.builds(SubPropertyOf, pnames, pnames),
        st.builds(EquivalentClasses, named, st.builds(SomeValuesFrom, pnames, named)),
        axiom_strategy(cnames, pnames),
    )


def _expanded(axioms):
    """Ontologies built as the expander builds one: from_axioms per block,
    a third of the names declared, then one union of the blocks."""

    @st.composite
    def build(draw):
        parts = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            body = draw(st.lists(axioms, max_size=5))
            mentioned = {n: kind for ax in body for n, kind in referenced_kinds(ax) if n != THING}
            decls = [Declaration(kind, n) for n, kind in mentioned.items() if draw(st.integers(0, 2)) == 0]
            parts.append(FlatOntology.from_axioms(draw(st.permutations(decls + body))))
        return union(parts, [None] * (len(parts) - 1))

    return build()


stratify_inputs = st.one_of(
    _expanded(_stratify_axioms([n for n in STRATIFY_CLASSES if n.is_plain], STRATIFY_PROPERTIES[:3])),
    _expanded(_stratify_axioms(STRATIFY_CLASSES, STRATIFY_PROPERTIES)),
)
# Few names, all of which merge: renamed axioms often become equal.
merging_inputs = _expanded(_stratify_axioms(
    [name("Cb"), name("Ca_X_Y"), _bracketed("Ca", "X", "Y"), _bracketed("Ca", "X,Y")], STRATIFY_PROPERTIES[2:]
))


class TestStratifyMatchesReference:
    """stratify_ontology against the original rewrite of every name."""

    @SUITE
    @given(stratify_inputs)
    @example(FlatOntology.from_axioms([Declaration(EntityKind.CLASS, StructuredName("Ca", ((THING,),)))]))
    @example(FlatOntology.from_axioms([
        Declaration(EntityKind.CLASS, _bracketed("Ca", "X")),
        SubClassOf(Named(StructuredName("Cb", ((name("X"), THING),))), Named(StructuredName("Ca", ((THING,),)))),
    ]))
    def test_same_axioms_signature_and_error(self, o):
        self._check(o)

    @SUITE
    @given(merging_inputs)
    @example(FlatOntology.from_axioms([
        Declaration(EntityKind.CLASS, _bracketed("Ca", "X")),
        Declaration(EntityKind.CLASS, name("Cb")),
        SubClassOf(Named(name("Cb")), Named(name("Ca_X"))),
        SubClassOf(Named(name("Cb")), Named(_bracketed("Ca", "X"))),
    ]))
    def test_same_when_renamed_axioms_merge(self, o):
        self._check(o)

    @staticmethod
    def _check(o):
        before = (list(o.signature.items()), o.axioms)
        try:
            expected = reference_stratify(o)
        except (GodpError, ValueError) as exc:
            expected = exc
        try:
            out = stratify_ontology(o)
        except (GodpError, ValueError) as exc:
            assert type(exc) is type(expected)
            assert str(exc) == str(expected)
            if isinstance(exc, GodpError):
                assert (exc.code, exc.message) == (expected.code, expected.message)
        else:
            assert not isinstance(expected, Exception), str(expected)
            assert list(out.axioms) == list(expected.axioms)
            assert out.normalized_set() == expected.normalized_set()
            assert list(out.signature.items()) == list(expected.signature.items())
            if all(n.is_plain for n in o.signature):
                assert out is o
            # Each output axiom comes from the first axiom of o with its
            # stratified normal form; one without a bracketed name is kept
            # as the same object.
            sources: dict = {}
            for ax in o.axioms:
                renamed = map_axiom_names(ax, lambda n: StructuredName(stratify_name(n)))
                sources.setdefault(normalize_axiom(renamed), ax)
            for ax, source in zip(out.axioms, sources.values()):
                assert (ax is source) == all(n.is_plain for n, _ in referenced_kinds(source))
        assert (list(o.signature.items()), o.axioms) == before


# Names as a library writes them, plain and bracketed, that stratify alike:
# A[B], A_B and A[X] under X |-> B give A_B; A_B and p[X] are also properties.
LIBRARY_CLASSES = ["A", "A_B", "A[B]", "A[X]", "A_B_C", "A[B][C]", "A[B,C]", "A[X][C]", "A[B_C]", "A[X_C]"]
LIBRARY_PROPERTIES = ["p", "p_B", "p[B]", "p[X]", "A_B", "A[X]"]


@st.composite
def colliding_libraries(draw):
    """A pattern P over these names and up to four targets, each a block
    that may be joined to an instance of P."""
    c, p = st.sampled_from(LIBRARY_CLASSES), st.sampled_from(LIBRARY_PROPERTIES)
    frame = st.one_of(
        st.builds("Class: {}".format, c),
        st.builds("Class: {} SubClassOf: {}".format, c, c),
        st.builds("ObjectProperty: {} Domain: {}".format, p, c),
        st.builds("Class: {} SubClassOf: {} some {}".format, c, p, c),
    )
    frames = st.lists(frame, min_size=1, max_size=4).map(" ".join)
    lines = ["library L", f"pattern P [Class: X] = {draw(frames)} end"]
    for i in range(draw(st.integers(1, 4))):
        use = draw(st.sampled_from(["", "P [Class: B] and ", "P [Class: B_C] and ", "P [Class: A[B]] and "]))
        lines.append(f"ontology O{i} = {use}{draw(frames)} end")
    return "\n".join(lines)


class TestDeferredRenameNeverFails:
    """stratify_ontology raises every error when it is called, though its
    result is renamed on its first read: on every target of a library it
    accepts, that read raises nothing and matches the reference."""

    @SUITE
    @given(colliding_libraries())
    @example("library L\npattern P [Class: X] = Class: A[X] end\nontology O0 = P [Class: B] and Class: A_B end")
    @example("library L\npattern P [Class: X] = Class: A[X] end\n"
             "ontology O0 = P [Class: B] and ObjectProperty: A_B Domain: A end")
    def test_accepted_targets_read_without_error(self, text):
        try:
            resolved = resolve(parse_library(text))
        except GodpError:
            return
        for target in [] if resolved.errors else resolved.ontology_names():
            try:
                o = expand(resolved, target).ontology
            except GodpError:
                continue
            TestStratifyMatchesReference._check(o)


class TestSignatureIsImplied:
    """stratify_ontology and the deferred rename rely on one rule: an
    expanded ontology's signature is the one its axioms imply, entry for
    entry and in order. Checked on every target of the four fixtures and of
    generated libraries whose targets instantiate a pattern."""

    @staticmethod
    def _check_targets(text: str) -> int:
        try:
            resolved = resolve(parse_library(text))
        except GodpError:
            return 0
        checked = 0
        for target in [] if resolved.errors else resolved.ontology_names():
            try:
                o = expand(resolved, target).ontology
            except GodpError:
                continue
            implied = FlatOntology.from_axioms(o.axioms)
            assert list(o.signature.items()) == list(implied.signature.items()), target
            checked += 1
        return checked

    @pytest.mark.parametrize("fixture", ["role.gdol", "driving.gdol", "obligations.gdol", "collision.gdol"])
    def test_fixture_targets(self, fixture):
        text = fixture_text(fixture)
        assert self._check_targets(text) == len(resolve(parse_library(text)).ontology_names())

    @SUITE
    @given(colliding_libraries())
    def test_generated_targets(self, text):
        self._check_targets(text)


# ---------------------------------------------------------------------------
# Reference-graph searches against recursive oracles
# ---------------------------------------------------------------------------


def reference_declared_symbols(resolved, item_name, seen=None):
    """Recursive depth-first declared-symbol search, the resolver's original."""
    seen = seen if seen is not None else set()
    if item_name in seen or item_name not in resolved.table:
        return set()
    seen.add(item_name)
    out = set()
    for leaf in leaves(resolved.table[item_name].body):
        if isinstance(leaf, Ref):
            out.update(reference_declared_symbols(resolved, leaf.name, seen))
        elif isinstance(leaf, Basic):
            out.update(ax.name for ax in leaf.axioms if isinstance(ax, Declaration))
    return out


def reference_detect_cycles(resolved):
    """Recursive depth-first cycle search, the resolver's original."""
    graph = {name: sorted(set(refs), key=lambda r: resolved.order[r]) for name, refs in resolved.references.items()}
    cycles, state = [], {}

    def visit(node, stack):
        state[node] = 1
        stack.append(node)
        for succ in graph.get(node, ()):
            if state.get(succ, 0) == 0:
                visit(succ, stack)
            elif state.get(succ) == 1:
                cycles.append(stack[stack.index(succ):])
        stack.pop()
        state[node] = 2

    for name in resolved.order:
        if state.get(name, 0) == 0:
            visit(name, [])
    return cycles


@st.composite
def reference_graphs(draw):
    """Library text of up to 8 ontologies and patterns whose bodies refer to
    any item, earlier, later or themselves, bare, instantiated or as an
    ontology argument, with unknown names and repeated item names mixed in."""
    count = draw(st.integers(1, 8))
    names = [f"I{i}" for i in range(count)]
    targets = st.sampled_from(names + ["Nowhere"])
    items = []
    for i in range(count):
        leaves_ = draw(st.lists(
            st.one_of(
                st.sampled_from(CLASS_POOL).map(lambda c: f"Class: {c}"),
                targets,
                st.builds("{} [Class: X]".format, targets),
                st.builds("{} [{}]".format, targets, targets),
            ),
            min_size=1,
            max_size=4,
        ))
        ops = draw(st.lists(st.sampled_from([" and ", " then "]), min_size=len(leaves_), max_size=len(leaves_)))
        body = leaves_[0] + "".join(f"{op}({leaf})" for op, leaf in zip(ops, leaves_[1:]))
        item = draw(st.sampled_from(names[:i] + [f"I{i}"] * 4))  # mostly fresh, sometimes a duplicate
        if draw(st.booleans()):
            items.append(f"pattern {item} [Class: X] = {body} end")
        else:
            items.append(f"ontology {item} = {body} end")
    return "library L " + " ".join(items)


class TestReferenceSearchesMatchOracles:
    """The resolver's iterative cycle and declared-symbol searches find what
    the recursive searches they replaced found, in the same order."""

    @SUITE
    @given(reference_graphs())
    @example("library L pattern I0 [Class: X] = I0 [Class: X] and Class: Ca end")
    @example("library L ontology I0 = I1 and Class: Ca end ontology I1 = I2 end ontology I2 = I0 and I1 end")
    @example("library L pattern I0 [Class: X] = Class: Ca end ontology I1 = I0 [Class: X] and I0 [Class: X] end")
    def test_same_cycles_and_declared_symbols(self, text):
        resolved = resolve(parse_library(text))
        assert detect_cycles(resolved) == reference_detect_cycles(resolved)
        for item_name in [*resolved.order, "Nowhere"]:
            assert declared_symbols(resolved, item_name) == reference_declared_symbols(resolved, item_name)
