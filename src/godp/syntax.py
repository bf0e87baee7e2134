"""AST for pattern-library files: items, parameters, arguments, expressions.

Every node carries a span: the span of its first token, except for the
operator node ``Chain``, whose ``span`` is that of its first operator token
and whose ``ops`` hold the span of every operator token.
"""

from __future__ import annotations

from collections.abc import Iterator

from .axioms import AtomicAxiom, EntityKind
from .diagnostics import Span
from .frames import Frame
from .names import StructuredName
from .record import record


class SymbolParam(metaclass=record):
    kind: EntityKind
    name: StructuredName  # always plain
    optional: bool
    span: Span

    @property
    def symbols(self) -> tuple[tuple[StructuredName, EntityKind], ...]:
        """The parameter's signature, as :attr:`OntologyParam.symbols`."""
        return ((self.name, self.kind),)


class OntologyParam(metaclass=record):
    frames: tuple[Frame, ...]
    optional: bool
    span: Span

    @property
    def symbols(self) -> tuple[tuple[StructuredName, EntityKind], ...]:
        """The parameter's signature: each frame's subject and kind."""
        return tuple((frame.subject, frame.kind) for frame in self.frames)


Param = SymbolParam | OntologyParam


class SymbolArg(metaclass=record):
    kind: EntityKind | None  # None for bare arguments
    name: StructuredName
    span: Span


class OntologyArg(metaclass=record):
    name: str
    fit: tuple[tuple[StructuredName, StructuredName], ...]
    span: Span


class OmittedArg(metaclass=record):
    span: Span


Arg = SymbolArg | OntologyArg | OmittedArg


class OntologyExpr:
    __slots__ = ()


class Basic(OntologyExpr, metaclass=record):
    axioms: tuple[AtomicAxiom, ...]  # its frames, desugared by the parser
    span: Span


class Chain(OntologyExpr, metaclass=record):
    """``parts[0] and parts[1] and ...``, a left-associative union, or with
    ``extension`` ``parts[0] then parts[1] then ...``, a right-associative
    extension. ``ops[i]`` is the span of the operator between ``parts[i]``
    and ``parts[i + 1]``; ``span`` is ``ops[0]``. A parenthesized part stays
    one nested part."""

    parts: tuple[OntologyExpr, ...]
    ops: tuple[Span, ...]
    span: Span
    extension: bool


class Ref(OntologyExpr, metaclass=record):
    """A library item used by name, with one group in ``args`` per argument
    written: none for a named ontology, one per parameter for a pattern."""

    name: str
    args: tuple[Arg, ...]
    span: Span


class OntologyDef(metaclass=record):
    name: str
    body: OntologyExpr
    span: Span


class PatternDef(metaclass=record):
    name: str
    params: tuple[Param, ...]
    body: OntologyExpr
    span: Span


Item = OntologyDef | PatternDef


class Library(metaclass=record):
    name: str
    items: tuple[Item, ...]
    span: Span


def leaves(expr: OntologyExpr) -> Iterator[OntologyExpr]:
    """The ``Basic`` and ``Ref`` leaves of ``expr`` under its nested
    ``Chain`` nodes, left to right. Iterative, so nesting depth costs no
    stack."""
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, Chain):
            stack.extend(reversed(e.parts))
        else:
            yield e

