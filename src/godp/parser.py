"""Recursive-descent parser for pattern libraries and bare Manchester frames.

Precedence at the structuring level: ``then`` is right-associative and binds
looser than ``and``, which is left-associative. A chain of either operator
is parsed in a loop into one n-ary node; a parenthesized operand stays one
nested part. Inside a frame section the word ``and`` always binds as
Manchester conjunction (greedily), so a structuring ``and`` directly after a
trailing class-expression section needs the left operand parenthesized;
parenthesized ontology expressions are accepted anywhere an expression is.
"""

from __future__ import annotations

from .axioms import (
    EXPR,
    SECTION_ITEM_ROLES,
    SECTIONS,
    AllValuesFrom,
    And,
    Cardinality,
    ClassExpr,
    EntityKind,
    Named,
    Not,
    Or,
    SomeValuesFrom,
)
from .diagnostics import GodpError
from .frames import Frame, Section, desugar_frames
from .lexer import (
    COMMA,
    EOF,
    EQUALS,
    EXPR_WORDS,
    FRAME_KW,
    IDENT,
    INT,
    KEYWORD,
    LBRACE,
    LBRACKET,
    LPAREN,
    MAPSTO,
    OWL_THING,
    QUESTION,
    RBRACE,
    RBRACKET,
    RPAREN,
    SECTION_KW,
    UNSUPPORTED_KW,
    tokenize,
)
from .names import THING, StructuredName
from .syntax import (
    Arg,
    Basic,
    Chain,
    Library,
    OmittedArg,
    OntologyArg,
    OntologyDef,
    OntologyExpr,
    OntologyParam,
    Param,
    PatternDef,
    Ref,
    SymbolArg,
    SymbolParam,
)

class _Parser:
    """Reads the token stream by index: ``kind`` and ``value`` are the
    current token's, and ``advance`` returns the index it consumes, from
    which ``span`` builds a ``Span`` only where the tree keeps one."""

    def __init__(self, text: str, file: str | None = None):
        self.file = file
        tokens = tokenize(text, file)
        self.kinds = tokens.kinds
        self.values = tokens.values
        self.span = tokens.span
        self.plain_names: dict[str, StructuredName] = {}  # one object per plain name
        self.pos = 0
        self.kind = self.kinds[0]
        self.value = self.values[0]

    # -- token plumbing ----------------------------------------------------

    def at(self, kind: str, value: str) -> bool:
        return self.kind == kind and self.value == value

    def advance(self) -> int:
        i = self.pos
        if self.kind != EOF:
            self.pos = i + 1
            self.kind = self.kinds[i + 1]
            self.value = self.values[i + 1]
        return i

    def expect(self, kind: str, value: str | None = None, expected: str | None = None) -> int:
        if self.kind == kind and (value is None or self.value == value):
            return self.advance()
        raise self.error(expected or (value or kind.lower()))

    def error(self, expected: str) -> GodpError:
        found = self.value if self.kind != EOF else "end of input"
        return GodpError(
            "SyntaxError", f"expected {expected}, found {found!r}", self.span(self.pos), self.file
        )

    def unsupported(self) -> GodpError:
        return GodpError(
            "UnsupportedConstruct",
            f"'{self.value}:' is outside the supported subset",
            self.span(self.pos),
            self.file,
        )

    def unsupported_section(self, section: str, kind: EntityKind, at: int) -> GodpError:
        return GodpError(
            "UnsupportedConstruct",
            f"section {section!r} is not supported in a {kind} frame",
            self.span(at),
            self.file,
        )

    # -- names ---------------------------------------------------------------

    def parse_word(self, expected: str) -> str:
        """The current identifier as a name: library, item and entity names
        all follow one rule. The lexer's words are identifiers of Unicode
        letters and digits; a name must be ASCII (see names.StructuredName)
        and not a Manchester operator word."""
        if self.kind != IDENT:
            raise self.error(expected)
        word = self.value
        if word in EXPR_WORDS:
            message = f"{word!r} is a reserved word and cannot be used as a name"
        elif not word.isascii():
            message = f"{word!r} is not a valid name: use ASCII letters, digits and '_'"
        else:
            self.advance()
            return word
        raise GodpError("SyntaxError", message, self.span(self.pos), self.file)

    def parse_name(self) -> StructuredName:
        if self.kind == OWL_THING:
            self.advance()
            return THING
        base = self.parse_word("a name")
        if self.kind != LBRACKET:
            plain = self.plain_names.get(base)
            if plain is None:
                plain = self.plain_names[base] = StructuredName(base)
            return plain
        groups: list[tuple[StructuredName, ...]] = []
        while self.kind == LBRACKET:
            self.advance()
            constituents = [self.parse_name()]
            while self.kind == COMMA:
                self.advance()
                constituents.append(self.parse_name())
            self.expect(RBRACKET, expected="']'")
            groups.append(tuple(constituents))
        return StructuredName(base, tuple(groups))

    def parse_plain_name(self, what: str) -> StructuredName:
        start = self.pos
        n = self.parse_name()
        if not n.is_plain:
            raise GodpError("SyntaxError", f"{what} must be a plain identifier", self.span(start), self.file)
        return n

    # -- class expressions -----------------------------------------------------

    def parse_class_expr(self) -> ClassExpr:
        operands = [self.parse_conjunction()]
        while self.at(IDENT, "or"):
            self.advance()
            operands.append(self.parse_conjunction())
        return operands[0] if len(operands) == 1 else Or(tuple(operands))

    def parse_conjunction(self) -> ClassExpr:
        operands = [self.parse_primary()]
        while self.at(KEYWORD, "and"):
            self.advance()
            operands.append(self.parse_primary())
        return operands[0] if len(operands) == 1 else And(tuple(operands))

    def parse_primary(self) -> ClassExpr:
        kind = self.kind
        if kind == OWL_THING:
            self.advance()
            return Named(THING)
        if kind == LPAREN:
            self.advance()
            inner = self.parse_class_expr()
            self.expect(RPAREN, expected="')'")
            return inner
        if kind == IDENT and self.value == "not":
            self.advance()
            return Not(self.parse_primary())
        n = self.parse_name()
        if self.kind != IDENT:
            return Named(n)
        word = self.value
        if word == "some" or word == "only":
            self.advance()
            filler = self.parse_primary()
            return SomeValuesFrom(n, filler) if word == "some" else AllValuesFrom(n, filler)
        if word == "min" or word == "max" or word == "exactly":
            self.advance()
            digits = self.expect(INT, expected="a non-negative integer")
            text = self.values[digits]
            try:
                count = int(text)
            except ValueError:  # more digits than int() converts
                message = f"cardinality of {len(text)} digits is too large"
                raise GodpError("SyntaxError", message, self.span(digits), self.file) from None
            filler = self.parse_primary()
            return Cardinality(n, word, count, filler)
        return Named(n)

    # -- frames ---------------------------------------------------------------

    def parse_frame(self) -> Frame:
        t = self.expect(FRAME_KW)
        kind = EntityKind(self.values[t])
        subject = self.parse_name()
        sections: list[Section] = []
        while self.kind == SECTION_KW:
            keyword = self.value
            st = self.advance()
            section_kind, types = SECTIONS[keyword]
            if section_kind is not kind:
                # Not a section of this frame kind (DataProperty frames have none).
                raise self.unsupported_section(keyword, kind, st)
            roles = SECTION_ITEM_ROLES[keyword]
            items = [self.parse_section_item(roles)]
            while self.kind == COMMA:
                self.advance()
                items.append(self.parse_section_item(roles))
            for item in () if roles else items:
                # In a constant-payload section (Characteristics) each item picks the axiom type.
                if item not in types:
                    raise self.unsupported_section(f"{keyword}: {item}", kind, st)
            sections.append(Section(keyword, tuple(items)))
        if self.kind == UNSUPPORTED_KW:
            raise self.unsupported()
        return Frame(kind, subject, tuple(sections))

    def parse_section_item(self, roles: tuple):
        """One comma-separated section item, shaped as ``roles`` says (see
        axioms.SECTION_ITEM_ROLES)."""
        if not roles:
            return self.values[self.expect(IDENT, expected="a characteristic")]
        values = [self.parse_class_expr() if role is EXPR else self.parse_name() for role in roles]
        return values[0] if len(values) == 1 else tuple(values)

    def parse_basic(self) -> Basic:
        t = self.pos  # a block's span is its first frame keyword's
        frames = [self.parse_frame()]
        while self.kind == FRAME_KW:
            frames.append(self.parse_frame())
        return Basic(tuple(desugar_frames(frames)), self.span(t))

    # -- ontology expressions ---------------------------------------------------

    def parse_expr(self) -> OntologyExpr:
        parts = [self.parse_and_expr()]
        ops = []
        while self.at(KEYWORD, "then"):
            ops.append(self.span(self.advance()))
            parts.append(self.parse_and_expr())
        return Chain(tuple(parts), tuple(ops), True) if ops else parts[0]

    def parse_and_expr(self) -> OntologyExpr:
        parts = [self.parse_unit()]
        ops = []
        while self.at(KEYWORD, "and"):
            ops.append(self.span(self.advance()))
            parts.append(self.parse_unit())
        return Chain(tuple(parts), tuple(ops), False) if ops else parts[0]

    def parse_unit(self) -> OntologyExpr:
        kind = self.kind
        if kind == LPAREN:
            self.advance()
            inner = self.parse_expr()
            self.expect(RPAREN, expected="')'")
            return inner
        if kind == FRAME_KW:
            return self.parse_basic()
        if kind == UNSUPPORTED_KW:
            raise self.unsupported()
        if kind == IDENT:
            t = self.pos
            name = self.parse_word("an ontology name")
            args: list[Arg] = []
            while self.kind == LBRACKET:
                args.append(self.parse_arg())
            return Ref(name, tuple(args), self.span(t))
        raise self.error("an ontology expression")

    def parse_arg(self) -> Arg:
        lb = self.expect(LBRACKET)
        if self.kind == RBRACKET:
            self.advance()
            return OmittedArg(self.span(lb))
        if self.kind == FRAME_KW:
            kind = EntityKind(self.value)
            self.advance()
            n = self.parse_name()
            self.expect(RBRACKET, expected="']'")
            return SymbolArg(kind, n, self.span(lb))
        start = self.pos
        n = self.parse_name()
        if self.at(KEYWORD, "fit"):
            if not n.is_plain:
                raise GodpError(
                    "SyntaxError", "an ontology argument must be a plain name", self.span(start), self.file
                )
            self.advance()
            fit = [self._parse_fit_pair()]
            while self.kind == COMMA:
                self.advance()
                fit.append(self._parse_fit_pair())
            self.expect(RBRACKET, expected="']'")
            return OntologyArg(n.base, tuple(fit), self.span(lb))
        self.expect(RBRACKET, expected="']'")
        return SymbolArg(None, n, self.span(lb))

    def _parse_fit_pair(self) -> tuple[StructuredName, StructuredName]:
        source = self.parse_plain_name("a fitting-map symbol")
        self.expect(MAPSTO, expected="'|->'")
        target = self.parse_name()
        return (source, target)

    # -- items and library -------------------------------------------------------

    def parse_param(self) -> Param:
        lb = self.expect(LBRACKET)
        if self.at(KEYWORD, "ontology"):
            self.advance()
            self.expect(LBRACE, expected="'{'")
            frames = self.parse_frames_until(RBRACE, "a frame or '}'")
            self.advance()
            optional = self._parse_optional_marker()
            self.expect(RBRACKET, expected="']'")
            return OntologyParam(frames, optional, self.span(lb))
        kt = self.expect(FRAME_KW, expected="a parameter kind such as 'Class:'")
        name = self.parse_plain_name("a parameter name")
        optional = self._parse_optional_marker()
        self.expect(RBRACKET, expected="']'")
        return SymbolParam(EntityKind(self.values[kt]), name, optional, self.span(lb))

    def _parse_optional_marker(self) -> bool:
        if self.kind == QUESTION:
            self.advance()
            return True
        return False

    def parse_item(self):
        if self.at(KEYWORD, "ontology"):
            t = self.advance()
            name = self.parse_word("an ontology name")
            self.expect(EQUALS, expected="'='")
            body = self.parse_expr()
            self.expect(KEYWORD, "end")
            return OntologyDef(name, body, self.span(t))
        if self.at(KEYWORD, "pattern"):
            t = self.advance()
            name = self.parse_word("a pattern name")
            params = []
            while self.kind == LBRACKET:
                params.append(self.parse_param())
            self.expect(EQUALS, expected="'='")
            body = self.parse_expr()
            self.expect(KEYWORD, "end")
            return PatternDef(name, tuple(params), body, self.span(t))
        raise self.error("'ontology' or 'pattern'")

    def parse_library(self) -> Library:
        self.expect(KEYWORD, "library", expected="'library'")
        name = self.parse_word("a library name")
        items = []
        while self.kind != EOF:
            items.append(self.parse_item())
        return Library(name, tuple(items))

    def parse_frames_until(self, end: str, expected: str) -> tuple[Frame, ...]:
        frames = []
        while self.kind != end:
            if self.kind == UNSUPPORTED_KW:
                raise self.unsupported()
            if self.kind != FRAME_KW:
                raise self.error(expected)
            frames.append(self.parse_frame())
        return tuple(frames)


def parse_library(text: str, file: str | None = None) -> Library:
    return _Parser(text, file).parse_library()


def parse_frames(text: str, file: str | None = None) -> tuple[Frame, ...]:
    """Parse a bare Manchester frame document (as produced by the emitter)."""
    return _Parser(text, file).parse_frames_until(EOF, "a frame")

