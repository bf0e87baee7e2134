"""Class expressions and atomic axioms for the supported Manchester subset.

An atomic axiom is the unit of pruning, deduplication, and comparison: one
frame clause element after desugaring. Normalization sorts the operands of
the commutative constructs (conjunction, disjunction, EquivalentClasses,
DisjointClasses) by their rendered text, which yields a cheap total order
and makes equality a structural check on normal forms.
"""

from __future__ import annotations

import enum

from .diagnostics import GodpError, Span
from .names import THING_BASE, StructuredName, substitute_name
from .record import record

# Builds a record without its __post_init__ check, from values known valid.
_new = tuple.__new__


class EntityKind(enum.Enum):
    CLASS = "Class"
    OBJECT_PROPERTY = "ObjectProperty"
    DATA_PROPERTY = "DataProperty"
    INDIVIDUAL = "Individual"

    # Members are singletons compared by identity: hash in C, not through
    # Enum.__hash__, since every signature lookup hashes a kind.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


# ---------------------------------------------------------------------------
# Class expressions
# ---------------------------------------------------------------------------

# Field roles besides EntityKind members: a class expression, the operand
# tuple of a conjunction or disjunction, and the name a Declaration declares,
# whose kind is the Declaration's ``kind`` field.
EXPR = "class expression"
EXPRS = "class expressions"
DECLARED = "declared name"

# Rendering precedence levels: a child rendered at a position demanding a
# tighter level gets parenthesized.
_LEVEL_OR = 0
_LEVEL_AND = 1
_LEVEL_UNARY = 2


class ClassExpr:
    """Base of the class-expression types; all nodes are frozen and hashable.
    Each type states its schema in class attributes, as the atomic axioms
    do: ``roles`` per field (an EntityKind, EXPR, EXPRS for an operand tuple
    whose order normalization sorts, or None for a constant), and either a
    ``template`` with one ``{}`` per field, its class expressions written at
    the unary level, or the ``joiner`` of its operands and its precedence
    ``level``, the operands written one level tighter."""

    __slots__ = ()

    roles: tuple = ()
    joiner: str | None = None
    commutative = False


class Named(ClassExpr, metaclass=record):
    name: StructuredName
    roles = (EntityKind.CLASS,)
    template = "{}"

    @property
    def is_thing(self) -> bool:
        return self.name.base == THING_BASE


class SomeValuesFrom(ClassExpr, metaclass=record):
    prop: StructuredName
    filler: ClassExpr
    roles = (EntityKind.OBJECT_PROPERTY, EXPR)
    template = "{} some {}"


class AllValuesFrom(ClassExpr, metaclass=record):
    prop: StructuredName
    filler: ClassExpr
    roles = (EntityKind.OBJECT_PROPERTY, EXPR)
    template = "{} only {}"


class Cardinality(ClassExpr, metaclass=record):
    prop: StructuredName
    bound: str  # "min" | "max" | "exactly"
    n: int
    filler: ClassExpr
    roles = (EntityKind.OBJECT_PROPERTY, None, None, EXPR)
    template = "{} {} {} {}"

    def __post_init__(self) -> None:
        if self.bound not in ("min", "max", "exactly"):
            raise ValueError(f"bad cardinality bound {self.bound!r}")
        if self.n < 0:
            raise ValueError("cardinality must be non-negative")


class Not(ClassExpr, metaclass=record):
    operand: ClassExpr
    roles = (EXPR,)
    template = "not {}"


class And(ClassExpr, metaclass=record):
    operands: tuple[ClassExpr, ...]
    roles = (EXPRS,)
    joiner, level = " and ", _LEVEL_AND

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise ValueError("conjunction needs at least 2 operands")


class Or(ClassExpr, metaclass=record):
    operands: tuple[ClassExpr, ...]
    roles = (EXPRS,)
    joiner, level = " or ", _LEVEL_OR

    def __post_init__(self) -> None:
        if len(self.operands) < 2:
            raise ValueError("disjunction needs at least 2 operands")


def render_expr(e: ClassExpr, min_level: int = _LEVEL_OR) -> str:
    cls = type(e)
    if cls is Named:  # the most frequent node: no schema lookups
        return e.name.render()
    if cls.joiner is None:  # a loop, not a comprehension: one frame per level
        parts = []
        for r, v in zip(cls.roles, e):
            parts.append(render_expr(v, _LEVEL_UNARY) if r is EXPR else v if r is None else v.render())
        return cls.template.format(*parts)
    text = cls.joiner.join([render_expr(op, cls.level + 1) for op in e[0]])
    return text if cls.level >= min_level else "(" + text + ")"


# ---------------------------------------------------------------------------
# Atomic axioms
# ---------------------------------------------------------------------------

# Frame section keywords, in the order the emitter writes a frame's sections.
SECTION_KEYWORDS = (
    "Characteristics", "Domain", "Range", "InverseOf", "SubPropertyOf",
    "SubClassOf", "EquivalentTo", "DisjointWith", "Types", "Facts",
)


class AtomicAxiom:
    """Base of the atomic axiom types. Each type states its schema in class
    attributes next to its fields (they are not record fields), and every
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


class Declaration(AtomicAxiom, metaclass=record):
    """A frame header: ``name`` is an entity of ``kind``."""

    kind: EntityKind
    name: StructuredName
    roles = (None, DECLARED)
    subject_at = 1

    @property
    def frame_kind(self) -> EntityKind:
        return self.kind


class SubClassOf(AtomicAxiom, metaclass=record):
    sub: ClassExpr
    sup: ClassExpr
    roles = (EXPR, EXPR)
    frame_kind, keyword = EntityKind.CLASS, "SubClassOf"


class EquivalentClasses(AtomicAxiom, metaclass=record):
    a: ClassExpr
    b: ClassExpr
    roles = (EXPR, EXPR)
    frame_kind, keyword = EntityKind.CLASS, "EquivalentTo"
    commutative = True


class DisjointClasses(AtomicAxiom, metaclass=record):
    a: ClassExpr
    b: ClassExpr
    roles = (EXPR, EXPR)
    frame_kind, keyword = EntityKind.CLASS, "DisjointWith"
    commutative = True


class ObjectPropertyDomain(AtomicAxiom, metaclass=record):
    prop: StructuredName
    cls: ClassExpr
    roles = (EntityKind.OBJECT_PROPERTY, EXPR)
    frame_kind, keyword = EntityKind.OBJECT_PROPERTY, "Domain"


class ObjectPropertyRange(AtomicAxiom, metaclass=record):
    prop: StructuredName
    cls: ClassExpr
    roles = (EntityKind.OBJECT_PROPERTY, EXPR)
    frame_kind, keyword = EntityKind.OBJECT_PROPERTY, "Range"


class InverseProperties(AtomicAxiom, metaclass=record):
    prop: StructuredName
    inverse: StructuredName
    roles = (EntityKind.OBJECT_PROPERTY, EntityKind.OBJECT_PROPERTY)
    frame_kind, keyword = EntityKind.OBJECT_PROPERTY, "InverseOf"


class FunctionalProperty(AtomicAxiom, metaclass=record):
    prop: StructuredName
    roles = (EntityKind.OBJECT_PROPERTY,)
    frame_kind, keyword = EntityKind.OBJECT_PROPERTY, "Characteristics"
    payload = "Functional"


class InverseFunctionalProperty(AtomicAxiom, metaclass=record):
    prop: StructuredName
    roles = (EntityKind.OBJECT_PROPERTY,)
    frame_kind, keyword = EntityKind.OBJECT_PROPERTY, "Characteristics"
    payload = "InverseFunctional"


class SubPropertyOf(AtomicAxiom, metaclass=record):
    sub: StructuredName
    sup: StructuredName
    roles = (EntityKind.OBJECT_PROPERTY, EntityKind.OBJECT_PROPERTY)
    frame_kind, keyword = EntityKind.OBJECT_PROPERTY, "SubPropertyOf"


class ClassAssertion(AtomicAxiom, metaclass=record):
    cls: ClassExpr
    individual: StructuredName
    roles = (EXPR, EntityKind.INDIVIDUAL)
    frame_kind, keyword = EntityKind.INDIVIDUAL, "Types"
    subject_at = 1


class PropertyAssertion(AtomicAxiom, metaclass=record):
    prop: StructuredName
    subject: StructuredName
    object: StructuredName
    roles = (EntityKind.OBJECT_PROPERTY, EntityKind.INDIVIDUAL, EntityKind.INDIVIDUAL)
    frame_kind, keyword = EntityKind.INDIVIDUAL, "Facts"
    subject_at = 1


def _derive(cls: type) -> None:
    """Precompute from the schema of an axiom or class-expression type what
    the walks below read, so that their work per call stays flat: (index,
    role) of each name or class-expression field, the indices of the
    class-expression fields, and per choice of subject field the fields of
    the section text."""
    cls._positions = tuple((i, r) for i, r in enumerate(cls.roles) if r is not None)
    cls._exprs = tuple(i for i, r in cls._positions if r is EXPR or r is EXPRS)
    cls._text = [tuple(p for p in cls._positions if p[0] != at) for at in range(len(cls.roles))]


for _cls in ClassExpr.__subclasses__():
    _derive(_cls)

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


def section_text(ax: AtomicAxiom, at: int) -> str | None:
    """The section text of ``ax`` written in the frame of field ``at``: the
    constant payload, or the other fields in order; None for a Declaration."""
    if ax.keyword is None or ax.payload is not None:
        return ax.payload
    parts = []  # _render inlined: this runs once per emitted axiom
    for i, role in ax._text[at]:
        parts.append(render_expr(ax[i]) if role is EXPR else ax[i].render())
    return " ".join(parts)


def render_axiom(ax: AtomicAxiom) -> str:
    """One-line Manchester frame fragment; used for reports and diffs."""
    at = ax.subject_at
    head = f"{ax.frame_kind}: {_render(ax.roles[at], ax[at])}"
    text = section_text(ax, at)
    return head if text is None else f"{head} {ax.keyword}: {text}"


def frame_subject(ax: AtomicAxiom, span: Span | None = None) -> tuple[StructuredName, int]:
    """The subject of the frame the emitter writes ``ax`` in, and the index
    of the field it is in. A class-expression subject must be a named class
    other than owl:Thing; a commutative axiom takes it from either side, the
    first side first. An axiom without one is an error at ``span``."""
    at = ax.subject_at
    if ax.roles[at] is not EXPR:
        return ax[at], at
    for at in (0, 1) if ax.commutative else (at,):
        subject = ax[at]
        if isinstance(subject, Named) and not subject.is_thing:
            return subject.name, at
    raise GodpError(
        "UnsupportedConstruct",
        "axiom has no named subject to attach a frame to: " + type(ax).__name__,
        span,
    )


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------


def normalize_axiom(node: AtomicAxiom | ClassExpr) -> AtomicAxiom | ClassExpr:
    """Canonical form of an axiom or class expression: commutative operands
    sorted by their text, everything else preserved. A node without a
    class-expression field (a Named, or an axiom of names only) is returned
    as it is."""
    cls = type(node)
    if not cls._exprs:
        return node
    values = list(node)
    for i in cls._exprs:
        v = values[i]
        if cls.roles[i] is EXPRS:
            values[i] = tuple(sorted(map(normalize_axiom, v), key=render_expr))
        elif type(v) is not Named:  # a Named is its own normal form
            values[i] = normalize_axiom(v)
    if cls.commutative and render_expr(values[1]) < render_expr(values[0]):
        values.reverse()
    # Built unchecked: sorting keeps each operand count, the only checked
    # field of a conjunction or disjunction; other fields are copied.
    return _new(cls, values)


# ---------------------------------------------------------------------------
# Name traversal
# ---------------------------------------------------------------------------


def referenced_kinds(node: AtomicAxiom | ClassExpr, pairs: list | None = None) -> list[tuple]:
    """Entity-position names of an axiom or class expression in textual
    order (no constituent closure), each with the kind its position implies;
    appended to ``pairs`` if given."""
    if pairs is None:
        pairs = []
    if type(node) is Named:  # the most frequent node: no schema lookups
        pairs.append((node.name, EntityKind.CLASS))
        return pairs
    for i, role in node._positions:
        if role is EXPR:
            referenced_kinds(node[i], pairs)
        elif role is EXPRS:
            for op in node[i]:
                referenced_kinds(op, pairs)
        else:
            pairs.append((node[i], node.kind if role is DECLARED else role))
    return pairs


def mentions(ax: AtomicAxiom) -> frozenset[StructuredName]:
    """Every StructuredName occurring in ``ax``, closed under constituents."""
    out: set[StructuredName] = set()
    for n, _ in referenced_kinds(ax):
        out |= n.closure()
    return frozenset(out)


# ---------------------------------------------------------------------------
# Name rewriting and substitution
# ---------------------------------------------------------------------------


def map_axiom_names(node: AtomicAxiom | ClassExpr, fn) -> AtomicAxiom | ClassExpr:
    """Apply ``fn`` to every entity-position name of an axiom or class
    expression, in textual order."""
    cls = type(node)
    # Each node is built unchecked: the operand count of a conjunction or
    # disjunction stays, and a cardinality's bound and count are copied.
    if cls is Named:  # the most frequent node: no schema lookups
        return _new(Named, (fn(node.name),))
    values = list(node)
    for i, role in cls._positions:
        v = values[i]
        if role is EXPR:
            values[i] = map_axiom_names(v, fn)
        elif role is EXPRS:
            values[i] = tuple([map_axiom_names(op, fn) for op in v])
        else:
            values[i] = fn(v)
    return _new(cls, values)


def substitute_axiom(ax: AtomicAxiom, mapping: dict[StructuredName, StructuredName]) -> AtomicAxiom:
    return map_axiom_names(ax, lambda n: substitute_name(n, mapping))
