"""AST for pattern-library files: items, parameters, arguments, expressions.

Every node carries a span: the span of its first token, except for the
operator nodes ``Then`` and ``AndExpr``, whose ``span`` is that of their first
operator token and whose ``ops`` hold the span of every operator token.
Structural equality for the parse/print stability check goes through
:func:`fingerprint`, which drops spans.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Union

from .axioms import EntityKind
from .diagnostics import Span
from .frames import Frame
from .names import StructuredName


@dataclass(frozen=True)
class SymbolParam:
    kind: EntityKind
    name: StructuredName  # always plain
    optional: bool
    span: Span


@dataclass(frozen=True)
class OntologyParam:
    frames: tuple[Frame, ...]
    optional: bool
    span: Span


Param = Union[SymbolParam, OntologyParam]


@dataclass(frozen=True)
class SymbolArg:
    kind: EntityKind | None  # None for bare arguments
    name: StructuredName
    span: Span


@dataclass(frozen=True)
class OntologyArg:
    name: str
    fit: tuple[tuple[StructuredName, StructuredName], ...]
    span: Span


@dataclass(frozen=True)
class OmittedArg:
    span: Span


Arg = Union[SymbolArg, OntologyArg, OmittedArg]


class OntologyExpr:
    __slots__ = ()


@dataclass(frozen=True)
class Basic(OntologyExpr):
    frames: tuple[Frame, ...]
    span: Span


@dataclass(frozen=True)
class Then(OntologyExpr):
    """``parts[0] then parts[1] then ...``: right-associative extension.
    ``ops[i]`` is the span of the ``then`` between ``parts[i]`` and
    ``parts[i + 1]``; ``span`` is ``ops[0]``. A parenthesized part stays one
    nested part."""

    parts: tuple[OntologyExpr, ...]
    ops: tuple[Span, ...]
    span: Span


@dataclass(frozen=True)
class AndExpr(OntologyExpr):
    """``parts[0] and parts[1] and ...``: left-associative union, with
    ``parts``, ``ops`` and ``span`` as in :class:`Then`."""

    parts: tuple[OntologyExpr, ...]
    ops: tuple[Span, ...]
    span: Span


@dataclass(frozen=True)
class Instantiate(OntologyExpr):
    pattern: str
    args: tuple[Arg, ...]
    span: Span


@dataclass(frozen=True)
class Ref(OntologyExpr):
    name: str
    span: Span


@dataclass(frozen=True)
class OntologyDef:
    name: str
    body: OntologyExpr
    span: Span


@dataclass(frozen=True)
class PatternDef:
    name: str
    params: tuple[Param, ...]
    body: OntologyExpr
    span: Span


Item = Union[OntologyDef, PatternDef]


@dataclass(frozen=True)
class Library:
    name: str
    items: tuple[Item, ...]
    span: Span


def fingerprint(node):
    """Nested-tuple view of an AST (or axiom/frame) with all spans removed."""
    if isinstance(node, (Span, type(None), str, int, bool, EntityKind)):
        return None if isinstance(node, Span) else node
    if isinstance(node, StructuredName):
        return node.render()
    if isinstance(node, tuple):
        return tuple(fingerprint(x) for x in node)
    if hasattr(node, "__dataclass_fields__"):
        return (type(node).__name__,) + tuple(
            fingerprint(getattr(node, f.name)) for f in fields(node) if f.name != "span"
        )
    return node
