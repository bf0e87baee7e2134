"""Class expressions and atomic axioms for the supported Manchester subset.

An atomic axiom is the unit of pruning, deduplication, and comparison: one
frame clause element after desugaring. Normalization sorts the operands of
the commutative constructs (conjunction, disjunction, EquivalentClasses,
DisjointClasses) by their rendered text, which yields a cheap total order
and makes equality a structural check on normal forms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .names import THING_BASE, StructuredName, substitute_name


class EntityKind(enum.Enum):
    CLASS = "Class"
    OBJECT_PROPERTY = "ObjectProperty"
    DATA_PROPERTY = "DataProperty"
    INDIVIDUAL = "Individual"

    def __str__(self) -> str:
        return self.value


# ---------------------------------------------------------------------------
# Class expressions
# ---------------------------------------------------------------------------


class ClassExpr:
    """Base class; all nodes are frozen and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class Named(ClassExpr):
    name: StructuredName

    @property
    def is_thing(self) -> bool:
        return self.name.base == THING_BASE


@dataclass(frozen=True)
class SomeValuesFrom(ClassExpr):
    prop: StructuredName
    filler: ClassExpr


@dataclass(frozen=True)
class AllValuesFrom(ClassExpr):
    prop: StructuredName
    filler: ClassExpr


@dataclass(frozen=True)
class Cardinality(ClassExpr):
    prop: StructuredName
    bound: str  # "min" | "max" | "exactly"
    n: int
    filler: ClassExpr

    def __post_init__(self) -> None:
        if self.bound not in ("min", "max", "exactly"):
            raise ValueError(f"bad cardinality bound {self.bound!r}")
        if self.n < 0:
            raise ValueError("cardinality must be non-negative")


@dataclass(frozen=True)
class Not(ClassExpr):
    operand: ClassExpr


@dataclass(frozen=True)
class And(ClassExpr):
    operands: tuple[ClassExpr, ...]

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise ValueError("conjunction needs at least 2 operands")


@dataclass(frozen=True)
class Or(ClassExpr):
    operands: tuple[ClassExpr, ...]

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise ValueError("disjunction needs at least 2 operands")


# Rendering precedence levels: a child rendered at a position demanding a
# tighter level gets parenthesized.
_LEVEL_OR = 0
_LEVEL_AND = 1
_LEVEL_UNARY = 2


def _level(e: ClassExpr) -> int:
    if isinstance(e, Or):
        return _LEVEL_OR
    if isinstance(e, And):
        return _LEVEL_AND
    return _LEVEL_UNARY


def render_expr(e: ClassExpr, min_level: int = _LEVEL_OR) -> str:
    if isinstance(e, Named):
        text = e.name.render()
    elif isinstance(e, SomeValuesFrom):
        text = f"{e.prop.render()} some {render_expr(e.filler, _LEVEL_UNARY)}"
    elif isinstance(e, AllValuesFrom):
        text = f"{e.prop.render()} only {render_expr(e.filler, _LEVEL_UNARY)}"
    elif isinstance(e, Cardinality):
        text = f"{e.prop.render()} {e.bound} {e.n} {render_expr(e.filler, _LEVEL_UNARY)}"
    elif isinstance(e, Not):
        text = f"not {render_expr(e.operand, _LEVEL_UNARY)}"
    elif isinstance(e, And):
        text = " and ".join(render_expr(op, _LEVEL_UNARY) for op in e.operands)
    elif isinstance(e, Or):
        text = " or ".join(render_expr(op, _LEVEL_AND) for op in e.operands)
    else:  # pragma: no cover - closed hierarchy
        raise TypeError(f"unknown class expression {e!r}")
    if _level(e) < min_level:
        return "(" + text + ")"
    return text


# ---------------------------------------------------------------------------
# Atomic axioms
# ---------------------------------------------------------------------------


class AtomicAxiom:
    __slots__ = ()


@dataclass(frozen=True)
class Declaration(AtomicAxiom):
    kind: EntityKind
    name: StructuredName


@dataclass(frozen=True)
class SubClassOf(AtomicAxiom):
    sub: ClassExpr
    sup: ClassExpr


@dataclass(frozen=True)
class EquivalentClasses(AtomicAxiom):
    a: ClassExpr
    b: ClassExpr


@dataclass(frozen=True)
class DisjointClasses(AtomicAxiom):
    a: ClassExpr
    b: ClassExpr


@dataclass(frozen=True)
class ObjectPropertyDomain(AtomicAxiom):
    prop: StructuredName
    cls: ClassExpr


@dataclass(frozen=True)
class ObjectPropertyRange(AtomicAxiom):
    prop: StructuredName
    cls: ClassExpr


@dataclass(frozen=True)
class InverseProperties(AtomicAxiom):
    prop: StructuredName
    inverse: StructuredName


@dataclass(frozen=True)
class FunctionalProperty(AtomicAxiom):
    prop: StructuredName


@dataclass(frozen=True)
class InverseFunctionalProperty(AtomicAxiom):
    prop: StructuredName


@dataclass(frozen=True)
class SubPropertyOf(AtomicAxiom):
    sub: StructuredName
    sup: StructuredName


@dataclass(frozen=True)
class ClassAssertion(AtomicAxiom):
    cls: ClassExpr
    individual: StructuredName


@dataclass(frozen=True)
class PropertyAssertion(AtomicAxiom):
    prop: StructuredName
    subject: StructuredName
    object: StructuredName


def render_axiom(ax: AtomicAxiom) -> str:
    """One-line Manchester frame fragment; used for reports and diffs."""
    if isinstance(ax, Declaration):
        return f"{ax.kind}: {ax.name}"
    if isinstance(ax, SubClassOf):
        return f"Class: {render_expr(ax.sub)} SubClassOf: {render_expr(ax.sup)}"
    if isinstance(ax, EquivalentClasses):
        return f"Class: {render_expr(ax.a)} EquivalentTo: {render_expr(ax.b)}"
    if isinstance(ax, DisjointClasses):
        return f"Class: {render_expr(ax.a)} DisjointWith: {render_expr(ax.b)}"
    if isinstance(ax, ObjectPropertyDomain):
        return f"ObjectProperty: {ax.prop} Domain: {render_expr(ax.cls)}"
    if isinstance(ax, ObjectPropertyRange):
        return f"ObjectProperty: {ax.prop} Range: {render_expr(ax.cls)}"
    if isinstance(ax, InverseProperties):
        return f"ObjectProperty: {ax.prop} InverseOf: {ax.inverse}"
    if isinstance(ax, FunctionalProperty):
        return f"ObjectProperty: {ax.prop} Characteristics: Functional"
    if isinstance(ax, InverseFunctionalProperty):
        return f"ObjectProperty: {ax.prop} Characteristics: InverseFunctional"
    if isinstance(ax, SubPropertyOf):
        return f"ObjectProperty: {ax.sub} SubPropertyOf: {ax.sup}"
    if isinstance(ax, ClassAssertion):
        return f"Individual: {ax.individual} Types: {render_expr(ax.cls)}"
    if isinstance(ax, PropertyAssertion):
        return f"Individual: {ax.subject} Facts: {ax.prop} {ax.object}"
    raise TypeError(f"unknown axiom {ax!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# Normalization and equality
# ---------------------------------------------------------------------------


def normalize_expr(e: ClassExpr) -> ClassExpr:
    if isinstance(e, Named):
        return e
    if isinstance(e, SomeValuesFrom):
        return SomeValuesFrom(e.prop, normalize_expr(e.filler))
    if isinstance(e, AllValuesFrom):
        return AllValuesFrom(e.prop, normalize_expr(e.filler))
    if isinstance(e, Cardinality):
        return Cardinality(e.prop, e.bound, e.n, normalize_expr(e.filler))
    if isinstance(e, Not):
        return Not(normalize_expr(e.operand))
    if isinstance(e, And):
        ops = sorted((normalize_expr(op) for op in e.operands), key=render_expr)
        return And(tuple(ops))
    if isinstance(e, Or):
        ops = sorted((normalize_expr(op) for op in e.operands), key=render_expr)
        return Or(tuple(ops))
    raise TypeError(f"unknown class expression {e!r}")  # pragma: no cover


def _sort_pair(a: ClassExpr, b: ClassExpr) -> tuple[ClassExpr, ClassExpr]:
    return (a, b) if render_expr(a) <= render_expr(b) else (b, a)


def normalize_axiom(ax: AtomicAxiom) -> AtomicAxiom:
    """Canonical form: commutative operands sorted, everything else preserved."""
    if isinstance(ax, SubClassOf):
        return SubClassOf(normalize_expr(ax.sub), normalize_expr(ax.sup))
    if isinstance(ax, EquivalentClasses):
        a, b = _sort_pair(normalize_expr(ax.a), normalize_expr(ax.b))
        return EquivalentClasses(a, b)
    if isinstance(ax, DisjointClasses):
        a, b = _sort_pair(normalize_expr(ax.a), normalize_expr(ax.b))
        return DisjointClasses(a, b)
    if isinstance(ax, ObjectPropertyDomain):
        return ObjectPropertyDomain(ax.prop, normalize_expr(ax.cls))
    if isinstance(ax, ObjectPropertyRange):
        return ObjectPropertyRange(ax.prop, normalize_expr(ax.cls))
    if isinstance(ax, ClassAssertion):
        return ClassAssertion(normalize_expr(ax.cls), ax.individual)
    return ax


def axioms_equal(a: AtomicAxiom, b: AtomicAxiom) -> bool:
    return normalize_axiom(a) == normalize_axiom(b)


# ---------------------------------------------------------------------------
# Name traversal
# ---------------------------------------------------------------------------


def _expr_names(e: ClassExpr) -> list[StructuredName]:
    if isinstance(e, Named):
        return [e.name]
    if isinstance(e, (SomeValuesFrom, AllValuesFrom, Cardinality)):
        return [e.prop] + _expr_names(e.filler)
    if isinstance(e, Not):
        return _expr_names(e.operand)
    if isinstance(e, (And, Or)):
        out: list[StructuredName] = []
        for op in e.operands:
            out.extend(_expr_names(op))
        return out
    raise TypeError(f"unknown class expression {e!r}")  # pragma: no cover


def axiom_names(ax: AtomicAxiom) -> list[StructuredName]:
    """Names in entity positions, in textual order (no constituent closure)."""
    if isinstance(ax, Declaration):
        return [ax.name]
    if isinstance(ax, SubClassOf):
        return _expr_names(ax.sub) + _expr_names(ax.sup)
    if isinstance(ax, (EquivalentClasses, DisjointClasses)):
        return _expr_names(ax.a) + _expr_names(ax.b)
    if isinstance(ax, (ObjectPropertyDomain, ObjectPropertyRange)):
        return [ax.prop] + _expr_names(ax.cls)
    if isinstance(ax, InverseProperties):
        return [ax.prop, ax.inverse]
    if isinstance(ax, (FunctionalProperty, InverseFunctionalProperty)):
        return [ax.prop]
    if isinstance(ax, SubPropertyOf):
        return [ax.sub, ax.sup]
    if isinstance(ax, ClassAssertion):
        return _expr_names(ax.cls) + [ax.individual]
    if isinstance(ax, PropertyAssertion):
        return [ax.prop, ax.subject, ax.object]
    raise TypeError(f"unknown axiom {ax!r}")  # pragma: no cover


def mentions(ax: AtomicAxiom) -> frozenset[StructuredName]:
    """Every StructuredName occurring in ``ax``, closed under constituents."""
    out: set[StructuredName] = set()
    for n in axiom_names(ax):
        out |= n.closure()
    return frozenset(out)


def referenced_kinds(ax: AtomicAxiom) -> list[tuple[StructuredName, EntityKind]]:
    """Entity-position names with the kind implied by their position."""
    pairs: list[tuple[StructuredName, EntityKind]] = []
    expr = lambda e: _expr_kinds(e, pairs)  # noqa: E731

    if isinstance(ax, Declaration):
        pairs.append((ax.name, ax.kind))
    elif isinstance(ax, SubClassOf):
        expr(ax.sub)
        expr(ax.sup)
    elif isinstance(ax, (EquivalentClasses, DisjointClasses)):
        expr(ax.a)
        expr(ax.b)
    elif isinstance(ax, (ObjectPropertyDomain, ObjectPropertyRange)):
        pairs.append((ax.prop, EntityKind.OBJECT_PROPERTY))
        expr(ax.cls)
    elif isinstance(ax, InverseProperties):
        pairs.append((ax.prop, EntityKind.OBJECT_PROPERTY))
        pairs.append((ax.inverse, EntityKind.OBJECT_PROPERTY))
    elif isinstance(ax, (FunctionalProperty, InverseFunctionalProperty)):
        pairs.append((ax.prop, EntityKind.OBJECT_PROPERTY))
    elif isinstance(ax, SubPropertyOf):
        pairs.append((ax.sub, EntityKind.OBJECT_PROPERTY))
        pairs.append((ax.sup, EntityKind.OBJECT_PROPERTY))
    elif isinstance(ax, ClassAssertion):
        expr(ax.cls)
        pairs.append((ax.individual, EntityKind.INDIVIDUAL))
    elif isinstance(ax, PropertyAssertion):
        pairs.append((ax.prop, EntityKind.OBJECT_PROPERTY))
        pairs.append((ax.subject, EntityKind.INDIVIDUAL))
        pairs.append((ax.object, EntityKind.INDIVIDUAL))
    return pairs


def _expr_kinds(e: ClassExpr, pairs: list[tuple[StructuredName, EntityKind]]) -> None:
    """Class-expression part of :func:`referenced_kinds`. A module-level
    function rather than a closure that calls itself, which would be a
    reference cycle left for the garbage collector at every call."""
    if isinstance(e, Named):
        pairs.append((e.name, EntityKind.CLASS))
    elif isinstance(e, (SomeValuesFrom, AllValuesFrom, Cardinality)):
        pairs.append((e.prop, EntityKind.OBJECT_PROPERTY))
        _expr_kinds(e.filler, pairs)
    elif isinstance(e, Not):
        _expr_kinds(e.operand, pairs)
    elif isinstance(e, (And, Or)):
        for op in e.operands:
            _expr_kinds(op, pairs)


# ---------------------------------------------------------------------------
# Name rewriting and substitution
# ---------------------------------------------------------------------------


def map_expr_names(e: ClassExpr, fn) -> ClassExpr:
    """Apply ``fn`` to every entity-position name in the expression."""
    if isinstance(e, Named):
        return Named(fn(e.name))
    if isinstance(e, SomeValuesFrom):
        return SomeValuesFrom(fn(e.prop), map_expr_names(e.filler, fn))
    if isinstance(e, AllValuesFrom):
        return AllValuesFrom(fn(e.prop), map_expr_names(e.filler, fn))
    if isinstance(e, Cardinality):
        return Cardinality(fn(e.prop), e.bound, e.n, map_expr_names(e.filler, fn))
    if isinstance(e, Not):
        return Not(map_expr_names(e.operand, fn))
    if isinstance(e, And):
        return And(tuple(map_expr_names(op, fn) for op in e.operands))
    if isinstance(e, Or):
        return Or(tuple(map_expr_names(op, fn) for op in e.operands))
    raise TypeError(f"unknown class expression {e!r}")  # pragma: no cover


def map_axiom_names(ax: AtomicAxiom, fn) -> AtomicAxiom:
    expr = lambda e: map_expr_names(e, fn)  # noqa: E731
    if isinstance(ax, Declaration):
        return Declaration(ax.kind, fn(ax.name))
    if isinstance(ax, SubClassOf):
        return SubClassOf(expr(ax.sub), expr(ax.sup))
    if isinstance(ax, EquivalentClasses):
        return EquivalentClasses(expr(ax.a), expr(ax.b))
    if isinstance(ax, DisjointClasses):
        return DisjointClasses(expr(ax.a), expr(ax.b))
    if isinstance(ax, ObjectPropertyDomain):
        return ObjectPropertyDomain(fn(ax.prop), expr(ax.cls))
    if isinstance(ax, ObjectPropertyRange):
        return ObjectPropertyRange(fn(ax.prop), expr(ax.cls))
    if isinstance(ax, InverseProperties):
        return InverseProperties(fn(ax.prop), fn(ax.inverse))
    if isinstance(ax, FunctionalProperty):
        return FunctionalProperty(fn(ax.prop))
    if isinstance(ax, InverseFunctionalProperty):
        return InverseFunctionalProperty(fn(ax.prop))
    if isinstance(ax, SubPropertyOf):
        return SubPropertyOf(fn(ax.sub), fn(ax.sup))
    if isinstance(ax, ClassAssertion):
        return ClassAssertion(expr(ax.cls), fn(ax.individual))
    if isinstance(ax, PropertyAssertion):
        return PropertyAssertion(fn(ax.prop), fn(ax.subject), fn(ax.object))
    raise TypeError(f"unknown axiom {ax!r}")  # pragma: no cover


def substitute_axiom(ax: AtomicAxiom, mapping: dict[StructuredName, StructuredName]) -> AtomicAxiom:
    return map_axiom_names(ax, lambda n: substitute_name(n, mapping))
