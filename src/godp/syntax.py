"""AST for pattern-library files: items, parameters, arguments, expressions.

Every node carries a span: the span of its first token, except for the
operator nodes ``Then`` and ``AndExpr``, whose ``span`` is that of their first
operator token and whose ``ops`` hold the span of every operator token.
"""

from __future__ import annotations

from collections.abc import Iterator

from .axioms import EntityKind
from .diagnostics import Span
from .frames import Frame
from .names import StructuredName
from .record import record


@record
class SymbolParam:
    kind: EntityKind
    name: StructuredName  # always plain
    optional: bool
    span: Span

    @property
    def symbols(self) -> tuple[tuple[StructuredName, EntityKind], ...]:
        """The parameter's signature, as :attr:`OntologyParam.symbols`."""
        return ((self.name, self.kind),)


@record
class OntologyParam:
    frames: tuple[Frame, ...]
    optional: bool
    span: Span

    @property
    def symbols(self) -> tuple[tuple[StructuredName, EntityKind], ...]:
        """The parameter's signature: each frame's subject and kind."""
        return tuple((frame.subject, frame.kind) for frame in self.frames)


Param = SymbolParam | OntologyParam


@record
class SymbolArg:
    kind: EntityKind | None  # None for bare arguments
    name: StructuredName
    span: Span


@record
class OntologyArg:
    name: str
    fit: tuple[tuple[StructuredName, StructuredName], ...]
    span: Span


@record
class OmittedArg:
    span: Span


Arg = SymbolArg | OntologyArg | OmittedArg


class OntologyExpr:
    __slots__ = ()


@record
class Basic(OntologyExpr):
    frames: tuple[Frame, ...]
    span: Span


@record
class Then(OntologyExpr):
    """``parts[0] then parts[1] then ...``: right-associative extension.
    ``ops[i]`` is the span of the ``then`` between ``parts[i]`` and
    ``parts[i + 1]``; ``span`` is ``ops[0]``. A parenthesized part stays one
    nested part."""

    parts: tuple[OntologyExpr, ...]
    ops: tuple[Span, ...]
    span: Span


@record
class AndExpr(OntologyExpr):
    """``parts[0] and parts[1] and ...``: left-associative union, with
    ``parts``, ``ops`` and ``span`` as in :class:`Then`."""

    parts: tuple[OntologyExpr, ...]
    ops: tuple[Span, ...]
    span: Span


@record
class Instantiate(OntologyExpr):
    pattern: str
    args: tuple[Arg, ...]
    span: Span


@record
class Ref(OntologyExpr):
    name: str
    span: Span


@record
class OntologyDef:
    name: str
    body: OntologyExpr
    span: Span


@record
class PatternDef:
    name: str
    params: tuple[Param, ...]
    body: OntologyExpr
    span: Span


Item = OntologyDef | PatternDef


@record
class Library:
    name: str
    items: tuple[Item, ...]
    span: Span


def leaves(expr: OntologyExpr) -> Iterator[OntologyExpr]:
    """The ``Basic``, ``Ref`` and ``Instantiate`` leaves of ``expr`` under its
    nested ``Then`` / ``AndExpr`` nodes, left to right. Iterative, so nesting
    depth costs no stack."""
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, (Then, AndExpr)):
            stack.extend(reversed(e.parts))
        else:
            yield e

