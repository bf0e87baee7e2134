"""Class expressions and atomic axioms for the supported Manchester subset.

An atomic axiom is the unit of pruning, deduplication, and comparison: one
frame clause element after desugaring. Normalization sorts the operands of
the commutative constructs (conjunction, disjunction, EquivalentClasses,
DisjointClasses) by their rendered text, which yields a cheap total order
and makes equality a structural check on normal forms.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from operator import attrgetter

from .diagnostics import GodpError
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


def render_expr(e: ClassExpr, min_level: int = _LEVEL_OR) -> str:
    level = _LEVEL_UNARY
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
        level = _LEVEL_AND
    elif isinstance(e, Or):
        text = " or ".join(render_expr(op, _LEVEL_AND) for op in e.operands)
        level = _LEVEL_OR
    else:  # pragma: no cover - closed hierarchy
        raise TypeError(f"unknown class expression {e!r}")
    if level < min_level:
        return "(" + text + ")"
    return text


# ---------------------------------------------------------------------------
# Atomic axioms
# ---------------------------------------------------------------------------

# Field roles besides EntityKind members: a class expression, and the name a
# Declaration declares, whose kind is the Declaration's ``kind`` field.
EXPR = "class expression"
DECLARED = "declared name"

# Frame section keywords, in the order the emitter writes a frame's sections.
SECTION_KEYWORDS = (
    "Characteristics", "Domain", "Range", "InverseOf", "SubPropertyOf",
    "SubClassOf", "EquivalentTo", "DisjointWith", "Types", "Facts",
)


class AtomicAxiom:
    """Base of the atomic axiom types. Each type states its schema in class
    attributes next to its fields (they are not dataclass fields), and every
    per-type operation below is derived from it:

    - ``roles``: per field, the EntityKind of the name in that position,
      EXPR for a class expression, DECLARED, or None for a constant;
    - ``frame_kind`` and ``keyword``: the frame and the section the axiom is
      written in; ``payload`` is the section's constant text (for
      Characteristics), or None when the other fields are the payload;
    - ``subject_at``: the index of the field holding the frame subject;
    - ``commutative``: whether the two class expressions may be swapped,
      which normalization sorts and the emitter uses to find a named subject.
    """

    __slots__ = ()

    roles: tuple = ()
    frame_kind: EntityKind
    keyword: str | None = None
    payload: str | None = None
    subject_at = 0
    commutative = False

    @classmethod
    def from_section(cls, subject: StructuredName, item) -> AtomicAxiom:
        """The axiom one item of a ``keyword`` section means in the frame of
        ``subject``; the item is shaped as :data:`SECTION_ITEM_ROLES` says."""
        values = [] if cls.payload is not None else list(item) if len(cls.roles) > 2 else [item]
        at = cls.subject_at
        values.insert(at, Named(subject) if cls.roles[at] is EXPR else subject)
        return cls(*values)


@dataclass(frozen=True)
class Declaration(AtomicAxiom):
    """A frame header: ``name`` is an entity of ``kind``."""

    kind: EntityKind
    name: StructuredName
    roles = (None, DECLARED)
    subject_at = 1

    @property
    def frame_kind(self) -> EntityKind:
        return self.kind


@dataclass(frozen=True)
class SubClassOf(AtomicAxiom):
    sub: ClassExpr
    sup: ClassExpr
    roles = (EXPR, EXPR)
    frame_kind, keyword = EntityKind.CLASS, "SubClassOf"


@dataclass(frozen=True)
class EquivalentClasses(AtomicAxiom):
    a: ClassExpr
    b: ClassExpr
    roles = (EXPR, EXPR)
    frame_kind, keyword = EntityKind.CLASS, "EquivalentTo"
    commutative = True


@dataclass(frozen=True)
class DisjointClasses(AtomicAxiom):
    a: ClassExpr
    b: ClassExpr
    roles = (EXPR, EXPR)
    frame_kind, keyword = EntityKind.CLASS, "DisjointWith"
    commutative = True


@dataclass(frozen=True)
class ObjectPropertyDomain(AtomicAxiom):
    prop: StructuredName
    cls: ClassExpr
    roles = (EntityKind.OBJECT_PROPERTY, EXPR)
    frame_kind, keyword = EntityKind.OBJECT_PROPERTY, "Domain"


@dataclass(frozen=True)
class ObjectPropertyRange(AtomicAxiom):
    prop: StructuredName
    cls: ClassExpr
    roles = (EntityKind.OBJECT_PROPERTY, EXPR)
    frame_kind, keyword = EntityKind.OBJECT_PROPERTY, "Range"


@dataclass(frozen=True)
class InverseProperties(AtomicAxiom):
    prop: StructuredName
    inverse: StructuredName
    roles = (EntityKind.OBJECT_PROPERTY, EntityKind.OBJECT_PROPERTY)
    frame_kind, keyword = EntityKind.OBJECT_PROPERTY, "InverseOf"


@dataclass(frozen=True)
class FunctionalProperty(AtomicAxiom):
    prop: StructuredName
    roles = (EntityKind.OBJECT_PROPERTY,)
    frame_kind, keyword = EntityKind.OBJECT_PROPERTY, "Characteristics"
    payload = "Functional"


@dataclass(frozen=True)
class InverseFunctionalProperty(AtomicAxiom):
    prop: StructuredName
    roles = (EntityKind.OBJECT_PROPERTY,)
    frame_kind, keyword = EntityKind.OBJECT_PROPERTY, "Characteristics"
    payload = "InverseFunctional"


@dataclass(frozen=True)
class SubPropertyOf(AtomicAxiom):
    sub: StructuredName
    sup: StructuredName
    roles = (EntityKind.OBJECT_PROPERTY, EntityKind.OBJECT_PROPERTY)
    frame_kind, keyword = EntityKind.OBJECT_PROPERTY, "SubPropertyOf"


@dataclass(frozen=True)
class ClassAssertion(AtomicAxiom):
    cls: ClassExpr
    individual: StructuredName
    roles = (EXPR, EntityKind.INDIVIDUAL)
    frame_kind, keyword = EntityKind.INDIVIDUAL, "Types"
    subject_at = 1


@dataclass(frozen=True)
class PropertyAssertion(AtomicAxiom):
    prop: StructuredName
    subject: StructuredName
    object: StructuredName
    roles = (EntityKind.OBJECT_PROPERTY, EntityKind.INDIVIDUAL, EntityKind.INDIVIDUAL)
    frame_kind, keyword = EntityKind.INDIVIDUAL, "Facts"
    subject_at = 1


def _derive(cls: type[AtomicAxiom]) -> None:
    """Precompute from the schema what the walks below read, so that their
    work per call stays flat: a getter of the field values (by attribute, as
    ``vars()`` would give each axiom a dict of its own), (index, role) of each
    name or class-expression field, the indices of the class-expression
    fields, and per choice of subject field the fields of the section text."""
    get = attrgetter(*(f.name for f in fields(cls)))
    cls._values = get if len(cls.roles) > 1 else lambda ax: (get(ax),)
    cls._positions = tuple((i, r) for i, r in enumerate(cls.roles) if r is not None)
    cls._exprs = tuple(i for i, r in cls._positions if r is EXPR)
    cls._text = [tuple(p for p in cls._positions if p[0] != at) for at in range(len(cls.roles))]


# section keyword -> (frame kind, {payload: axiom type}); the payload is None
# for a section whose items fill the fields besides the subject.
SECTIONS: dict[str, tuple[EntityKind, dict[str | None, type[AtomicAxiom]]]] = {}
for _cls in AtomicAxiom.__subclasses__():
    _derive(_cls)
    if _cls.keyword is not None:
        _, _types = SECTIONS.setdefault(_cls.keyword, (_cls.frame_kind, {}))
        _types[_cls.payload] = _cls

# section keyword -> roles of the fields one item fills: a one-field item is
# the value itself, a longer one a tuple; an item of a constant-payload
# section (no roles) is the payload word.
SECTION_ITEM_ROLES: dict[str, tuple] = {
    cls.keyword: () if cls.payload else tuple(r for _, r in cls._text[cls.subject_at])
    for _, types in SECTIONS.values()
    for cls in types.values()
}


def _render(role, value) -> str:
    return render_expr(value) if role is EXPR else value.render()


def render_item(keyword: str, item) -> str:
    """One item of a ``keyword`` section as source text."""
    roles = SECTION_ITEM_ROLES[keyword]
    if not roles:
        return item
    return " ".join(map(_render, roles, (item,) if len(roles) == 1 else item))


def _section_text(ax: AtomicAxiom, values: tuple, at: int) -> str | None:
    """The section text of ``ax`` written in the frame of field ``at``: the
    constant payload, or the other fields in order; None for a Declaration."""
    if ax.keyword is None or ax.payload is not None:
        return ax.payload
    parts = []  # _render inlined: this runs once per emitted axiom
    for i, role in ax._text[at]:
        parts.append(render_expr(values[i]) if role is EXPR else values[i].render())
    return " ".join(parts)


def render_axiom(ax: AtomicAxiom) -> str:
    """One-line Manchester frame fragment; used for reports and diffs."""
    values = type(ax)._values(ax)
    at = ax.subject_at
    head = f"{ax.frame_kind}: {_render(ax.roles[at], values[at])}"
    text = _section_text(ax, values, at)
    return head if text is None else f"{head} {ax.keyword}: {text}"


def frame_entry(ax: AtomicAxiom) -> tuple[StructuredName, str | None, str | None]:
    """Where the emitter writes ``ax``: frame subject, section keyword and
    section text (keyword and text None for a Declaration, a frame header). A
    class-expression subject must be a named class other than owl:Thing; a
    commutative axiom takes it from either side, the first side first."""
    values = type(ax)._values(ax)
    at = ax.subject_at
    subject = values[at]
    if ax.roles[at] is EXPR:
        sides = (0, 1) if ax.commutative else (at,)
        for at in sides:
            subject = values[at]
            if isinstance(subject, Named) and not subject.is_thing:
                subject = subject.name
                break
        else:
            raise GodpError(
                "UnsupportedConstruct",
                "axiom has no named subject to attach a frame to: " + type(ax).__name__,
            )
    return subject, ax.keyword, _section_text(ax, values, at)


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


def normalize_axiom(ax: AtomicAxiom) -> AtomicAxiom:
    """Canonical form: commutative operands sorted, everything else preserved."""
    cls = type(ax)
    if not cls._exprs:
        return ax
    values = list(cls._values(ax))
    for i in cls._exprs:
        values[i] = normalize_expr(values[i])
    if cls.commutative and render_expr(values[1]) < render_expr(values[0]):
        values.reverse()
    return cls(*values)


def axioms_equal(a: AtomicAxiom, b: AtomicAxiom) -> bool:
    return normalize_axiom(a) == normalize_axiom(b)


# ---------------------------------------------------------------------------
# Name traversal
# ---------------------------------------------------------------------------


def referenced_kinds(ax: AtomicAxiom) -> list[tuple[StructuredName, EntityKind]]:
    """Entity-position names in textual order (no constituent closure), each
    with the kind its position implies."""
    pairs: list[tuple[StructuredName, EntityKind]] = []
    values = type(ax)._values(ax)
    for i, role in ax._positions:
        if role is EXPR:
            _expr_kinds(values[i], pairs)
        else:
            pairs.append((values[i], ax.kind if role is DECLARED else role))
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


def axiom_names(ax: AtomicAxiom) -> list[StructuredName]:
    """Names in entity positions, in textual order (no constituent closure)."""
    return [n for n, _ in referenced_kinds(ax)]


def mentions(ax: AtomicAxiom) -> frozenset[StructuredName]:
    """Every StructuredName occurring in ``ax``, closed under constituents."""
    out: set[StructuredName] = set()
    for n, _ in referenced_kinds(ax):
        out |= n.closure()
    return frozenset(out)


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
    """Apply ``fn`` to every entity-position name in the axiom, in textual order."""
    cls = type(ax)
    values = list(cls._values(ax))
    for i, role in cls._positions:
        values[i] = map_expr_names(values[i], fn) if role is EXPR else fn(values[i])
    return cls(*values)


def substitute_axiom(ax: AtomicAxiom, mapping: dict[StructuredName, StructuredName]) -> AtomicAxiom:
    return map_axiom_names(ax, lambda n: substitute_name(n, mapping))
