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
from .frames import Frame, Section, render_frame
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
    Token,
    tokenize,
)
from .names import THING, StructuredName
from .syntax import (
    AndExpr,
    Arg,
    Basic,
    Instantiate,
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
    Then,
)

_KIND_BY_WORD = {
    "Class": EntityKind.CLASS,
    "ObjectProperty": EntityKind.OBJECT_PROPERTY,
    "DataProperty": EntityKind.DATA_PROPERTY,
    "Individual": EntityKind.INDIVIDUAL,
}

_NAME_SECTIONS = frozenset({"InverseOf", "SubPropertyOf"})
_EXPR_SECTIONS = frozenset(
    {"SubClassOf", "EquivalentTo", "DisjointWith", "Domain", "Range", "Types"}
)


class _Parser:
    def __init__(self, text: str, file: str | None = None):
        self.file = file
        self.tokens = tokenize(text, file)
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    @property
    def tok(self) -> Token:
        return self.tokens[self.pos]

    def at(self, kind: str, value: str | None = None) -> bool:
        t = self.tok
        return t.kind == kind and (value is None or t.value == value)

    def advance(self) -> Token:
        t = self.tok
        if t.kind != EOF:
            self.pos += 1
        return t

    def expect(self, kind: str, value: str | None = None, expected: str | None = None) -> Token:
        if self.at(kind, value):
            return self.advance()
        raise self.error(expected or (value or kind.lower()))

    def error(self, expected: str) -> GodpError:
        t = self.tok
        found = t.value if t.kind != EOF else "end of input"
        return GodpError(
            "SyntaxError", f"expected {expected}, found {found!r}", t.span, self.file
        )

    def unsupported(self, t: Token) -> GodpError:
        return GodpError(
            "UnsupportedConstruct", f"'{t.value}:' is outside the supported subset", t.span, self.file
        )

    # -- names ---------------------------------------------------------------

    def parse_name(self) -> StructuredName:
        if self.at(OWL_THING):
            self.advance()
            return THING
        t = self.tok
        if t.kind != IDENT:
            raise self.error("a name")
        if t.value in EXPR_WORDS:
            raise GodpError(
                "SyntaxError",
                f"{t.value!r} is a reserved word and cannot be used as a name",
                t.span,
                self.file,
            )
        self.advance()
        groups: list[tuple[StructuredName, ...]] = []
        while self.at(LBRACKET):
            self.advance()
            constituents = [self.parse_name()]
            while self.at(COMMA):
                self.advance()
                constituents.append(self.parse_name())
            self.expect(RBRACKET, expected="']'")
            groups.append(tuple(constituents))
        return StructuredName(t.value, tuple(groups))

    def parse_plain_name(self, what: str) -> StructuredName:
        t = self.tok
        n = self.parse_name()
        if not n.is_plain:
            raise GodpError("SyntaxError", f"{what} must be a plain identifier", t.span, self.file)
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
        if self.at(IDENT, "not"):
            self.advance()
            return Not(self.parse_primary())
        if self.at(OWL_THING):
            self.advance()
            return Named(THING)
        if self.at(LPAREN):
            self.advance()
            inner = self.parse_class_expr()
            self.expect(RPAREN, expected="')'")
            return inner
        n = self.parse_name()
        if self.at(IDENT) and self.tok.value in ("some", "only"):
            word = self.advance().value
            filler = self.parse_primary()
            return SomeValuesFrom(n, filler) if word == "some" else AllValuesFrom(n, filler)
        if self.at(IDENT) and self.tok.value in ("min", "max", "exactly"):
            bound = self.advance().value
            count = int(self.expect(INT, expected="a non-negative integer").value)
            filler = self.parse_primary()
            return Cardinality(n, bound, count, filler)
        return Named(n)

    # -- frames ---------------------------------------------------------------

    def parse_frame(self) -> Frame:
        t = self.expect(FRAME_KW)
        kind = _KIND_BY_WORD[t.value]
        subject = self.parse_name()
        sections: list[Section] = []
        while True:
            if self.at(UNSUPPORTED_KW):
                raise self.unsupported(self.tok)
            if not self.at(SECTION_KW):
                break
            st = self.advance()
            kw = st.value
            if kw in _EXPR_SECTIONS:
                items: list = [self.parse_class_expr()]
                while self.at(COMMA):
                    self.advance()
                    items.append(self.parse_class_expr())
            elif kw in _NAME_SECTIONS:
                items = [self.parse_name()]
                while self.at(COMMA):
                    self.advance()
                    items.append(self.parse_name())
            elif kw == "Characteristics":
                items = [self.expect(IDENT, expected="a characteristic").value]
                while self.at(COMMA):
                    self.advance()
                    items.append(self.expect(IDENT, expected="a characteristic").value)
            elif kw == "Facts":
                items = [self._parse_fact()]
                while self.at(COMMA):
                    self.advance()
                    items.append(self._parse_fact())
            else:  # pragma: no cover - keyword sets are exhaustive
                raise self.error("a frame section")
            sections.append(Section(kw, tuple(items), st.span))
        return Frame(kind, subject, tuple(sections), t.span)

    def _parse_fact(self) -> tuple[StructuredName, StructuredName]:
        prop = self.parse_name()
        obj = self.parse_name()
        return (prop, obj)

    def parse_basic(self) -> Basic:
        start = self.tok
        frames = [self.parse_frame()]
        while self.at(FRAME_KW):
            frames.append(self.parse_frame())
        if self.at(UNSUPPORTED_KW):
            raise self.unsupported(self.tok)
        return Basic(tuple(frames), start.span)

    # -- ontology expressions ---------------------------------------------------

    def parse_expr(self) -> OntologyExpr:
        parts = [self.parse_and_expr()]
        ops = []
        while self.at(KEYWORD, "then"):
            ops.append(self.advance().span)
            parts.append(self.parse_and_expr())
        return Then(tuple(parts), tuple(ops), ops[0]) if ops else parts[0]

    def parse_and_expr(self) -> OntologyExpr:
        parts = [self.parse_unit()]
        ops = []
        while self.at(KEYWORD, "and"):
            ops.append(self.advance().span)
            parts.append(self.parse_unit())
        return AndExpr(tuple(parts), tuple(ops), ops[0]) if ops else parts[0]

    def parse_unit(self) -> OntologyExpr:
        if self.at(LPAREN):
            self.advance()
            inner = self.parse_expr()
            self.expect(RPAREN, expected="')'")
            return inner
        if self.at(FRAME_KW):
            return self.parse_basic()
        if self.at(UNSUPPORTED_KW):
            raise self.unsupported(self.tok)
        if self.at(IDENT):
            t = self.advance()
            args: list[Arg] = []
            while self.at(LBRACKET):
                args.append(self.parse_arg())
            if args:
                return Instantiate(t.value, tuple(args), t.span)
            return Ref(t.value, t.span)
        raise self.error("an ontology expression")

    def parse_arg(self) -> Arg:
        lb = self.expect(LBRACKET)
        if self.at(RBRACKET):
            self.advance()
            return OmittedArg(lb.span)
        if self.at(FRAME_KW):
            kt = self.advance()
            n = self.parse_name()
            self.expect(RBRACKET, expected="']'")
            return SymbolArg(_KIND_BY_WORD[kt.value], n, lb.span)
        start = self.tok
        n = self.parse_name()
        if self.at(KEYWORD, "fit"):
            if not n.is_plain:
                raise GodpError(
                    "SyntaxError", "an ontology argument must be a plain name", start.span, self.file
                )
            self.advance()
            fit = [self._parse_fit_pair()]
            while self.at(COMMA):
                self.advance()
                fit.append(self._parse_fit_pair())
            self.expect(RBRACKET, expected="']'")
            return OntologyArg(n.base, tuple(fit), lb.span)
        self.expect(RBRACKET, expected="']'")
        return SymbolArg(None, n, lb.span)

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
            frames = []
            while not self.at(RBRACE):
                if self.at(UNSUPPORTED_KW):
                    raise self.unsupported(self.tok)
                if not self.at(FRAME_KW):
                    raise self.error("a frame or '}'")
                frames.append(self.parse_frame())
            self.advance()
            optional = self._parse_optional_marker()
            self.expect(RBRACKET, expected="']'")
            return OntologyParam(tuple(frames), optional, lb.span)
        kt = self.expect(FRAME_KW, expected="a parameter kind such as 'Class:'")
        name = self.parse_plain_name("a parameter name")
        optional = self._parse_optional_marker()
        self.expect(RBRACKET, expected="']'")
        return SymbolParam(_KIND_BY_WORD[kt.value], name, optional, lb.span)

    def _parse_optional_marker(self) -> bool:
        if self.at(QUESTION):
            self.advance()
            return True
        return False

    def parse_item(self):
        if self.at(KEYWORD, "ontology"):
            t = self.advance()
            name = self.expect(IDENT, expected="an ontology name").value
            self.expect(EQUALS, expected="'='")
            body = self.parse_expr()
            self.expect(KEYWORD, "end")
            return OntologyDef(name, body, t.span)
        if self.at(KEYWORD, "pattern"):
            t = self.advance()
            name = self.expect(IDENT, expected="a pattern name").value
            params = []
            while self.at(LBRACKET):
                params.append(self.parse_param())
            self.expect(EQUALS, expected="'='")
            body = self.parse_expr()
            self.expect(KEYWORD, "end")
            return PatternDef(name, tuple(params), body, t.span)
        raise self.error("'ontology' or 'pattern'")

    def parse_library(self) -> Library:
        t = self.expect(KEYWORD, "library", expected="'library'")
        name = self.expect(IDENT, expected="a library name").value
        items = []
        while not self.at(EOF):
            items.append(self.parse_item())
        return Library(name, tuple(items), t.span)

    def parse_frames_document(self) -> tuple[Frame, ...]:
        frames = []
        while not self.at(EOF):
            if self.at(UNSUPPORTED_KW):
                raise self.unsupported(self.tok)
            if not self.at(FRAME_KW):
                raise self.error("a frame")
            frames.append(self.parse_frame())
        return tuple(frames)


def parse_library(text: str, file: str | None = None) -> Library:
    return _Parser(text, file).parse_library()


def parse_frames(text: str, file: str | None = None) -> tuple[Frame, ...]:
    """Parse a bare Manchester frame document (as produced by the emitter)."""
    return _Parser(text, file).parse_frames_document()


# ---------------------------------------------------------------------------
# Pretty printer (parse -> print -> parse is structurally stable)
# ---------------------------------------------------------------------------


def format_library(lib: Library) -> str:
    chunks = [f"library {lib.name}"]
    for item in lib.items:
        if isinstance(item, OntologyDef):
            chunks.append(f"ontology {item.name} =\n{_format_expr(item.body, '  ')}\nend")
        else:
            params = " ".join(_format_param(p) for p in item.params)
            head = f"pattern {item.name} {params}".rstrip()
            chunks.append(f"{head} =\n{_format_expr(item.body, '  ')}\nend")
    return "\n\n".join(chunks) + "\n"


def _format_param(p: Param) -> str:
    q = " ?" if p.optional else ""
    if isinstance(p, SymbolParam):
        return f"[{p.kind}: {p.name}{q}]"
    body = "\n".join("  " + line for f in p.frames for line in render_frame(f, "  "))
    return "[ontology {\n" + body + "\n}" + q + "]"


def _format_expr(e: OntologyExpr, indent: str) -> str:
    if isinstance(e, Basic):
        return "\n".join(
            indent + line for frame in e.frames for line in render_frame(frame, "  ")
        )
    if isinstance(e, Ref):
        return indent + e.name
    if isinstance(e, Instantiate):
        return indent + e.pattern + " " + "".join(_format_arg(a) for a in e.args)
    if isinstance(e, Then):
        # A nested Then part would be spliced into this chain when re-parsed.
        return f"\n{indent}then\n".join(
            indent + "(\n" + _format_expr(p, indent) + "\n" + indent + ")"
            if isinstance(p, Then)
            else _format_expr(p, indent)
            for p in e.parts
        )
    if isinstance(e, AndExpr):
        return f"\n{indent}and\n".join(_paren_operand(p, indent) for p in e.parts)
    raise TypeError(f"unknown expression {e!r}")  # pragma: no cover


def _paren_operand(e: OntologyExpr, indent: str) -> str:
    # A Basic to the left of 'and' would be re-parsed greedily; a Then part
    # would change precedence, and a nested AndExpr part would be spliced
    # into its parent chain. Parenthesize all three.
    if isinstance(e, (Basic, Then, AndExpr)):
        return indent + "(\n" + _format_expr(e, indent + "  ") + "\n" + indent + ")"
    return _format_expr(e, indent)


def _format_arg(a: Arg) -> str:
    if isinstance(a, OmittedArg):
        return "[]"
    if isinstance(a, SymbolArg):
        if a.kind is None:
            return f"[{a.name}]"
        return f"[{a.kind}: {a.name}]"
    if a.fit:
        pairs = ", ".join(f"{s} |-> {t}" for s, t in a.fit)
        return f"[{a.name} fit {pairs}]"
    return f"[{a.name}]"
