"""Tokenizer for pattern-library files.

``%%`` starts a comment running to end of line. A frame or section keyword
is an identifier immediately followed by ``:`` (``Class:``, ``Domain:``,
...); ``owl:Thing`` is lexed as a single atom. Everything else is
identifiers, integers, and punctuation.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import axioms
from .diagnostics import GodpError, Span

KEYWORDS = frozenset({"library", "ontology", "pattern", "end", "then", "and", "fit"})

# Manchester operator words; rejecting them as entity names keeps class
# expressions unambiguous.
EXPR_WORDS = frozenset({"some", "only", "not", "min", "max", "exactly", "or"})

FRAME_KEYWORDS = frozenset(kind.value for kind in axioms.EntityKind)
SECTION_KEYWORDS = frozenset(axioms.SECTION_KEYWORDS)

# Recognized Manchester constructs outside the supported subset; the parser
# reports these as UnsupportedConstruct rather than a plain syntax error.
UNSUPPORTED_KEYWORDS = frozenset(
    {
        "Annotations",
        "AnnotationProperty",
        "Datatype",
        "Prefix",
        "Ontology",
        "Import",
        "EquivalentProperties",
        "DisjointProperties",
        "SubPropertyChain",
        "SameAs",
        "DifferentFrom",
        "DisjointUnionOf",
        "HasKey",
    }
)

IDENT = "IDENT"
INT = "INT"
KEYWORD = "KEYWORD"  # value in KEYWORDS
FRAME_KW = "FRAME_KW"  # Class: / ObjectProperty: / ...
SECTION_KW = "SECTION_KW"  # SubClassOf: / Domain: / ...
UNSUPPORTED_KW = "UNSUPPORTED_KW"
OWL_THING = "OWL_THING"
LBRACKET, RBRACKET = "LBRACKET", "RBRACKET"
LBRACE, RBRACE = "LBRACE", "RBRACE"
LPAREN, RPAREN = "LPAREN", "RPAREN"
COMMA, EQUALS, QUESTION, MAPSTO = "COMMA", "EQUALS", "QUESTION", "MAPSTO"
EOF = "EOF"

_PUNCT = {
    "[": LBRACKET,
    "]": RBRACKET,
    "{": LBRACE,
    "}": RBRACE,
    "(": LPAREN,
    ")": RPAREN,
    ",": COMMA,
    "=": EQUALS,
    "?": QUESTION,
}


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    span: Span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Token({self.kind}, {self.value!r}, {self.span})"


def tokenize(text: str, file: str | None = None) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def span_from(start_line: int, start_col: int) -> Span:
        return Span(start_line, start_col, line, col)

    def error(message: str, start_line: int, start_col: int) -> GodpError:
        return GodpError("SyntaxError", message, Span(start_line, start_col), file)

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "%" and i + 1 < n and text[i + 1] == "%":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue

        start_line, start_col = line, col

        if c == "|":
            if text[i : i + 3] == "|->":
                i += 3
                col += 3
                tokens.append(Token(MAPSTO, "|->", span_from(start_line, start_col)))
                continue
            raise error("unexpected character '|' (did you mean '|->'?)", line, col)

        if c in _PUNCT:
            i += 1
            col += 1
            tokens.append(Token(_PUNCT[c], c, span_from(start_line, start_col)))
            continue

        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            value = text[i:j]
            col += j - i
            i = j
            tokens.append(Token(INT, value, span_from(start_line, start_col)))
            continue

        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            # owl:Thing is a single atom (no spaces around the colon).
            if word == "owl" and text[j : j + 6] == ":Thing" and not (
                j + 6 < n and (text[j + 6].isalnum() or text[j + 6] == "_")
            ):
                j += 6
                col += j - i
                i = j
                tokens.append(Token(OWL_THING, "owl:Thing", span_from(start_line, start_col)))
                continue
            if j < n and text[j] == ":":
                j += 1
                col += j - i
                i = j
                if word in FRAME_KEYWORDS:
                    kind = FRAME_KW
                elif word in SECTION_KEYWORDS:
                    kind = SECTION_KW
                elif word in UNSUPPORTED_KEYWORDS:
                    kind = UNSUPPORTED_KW
                else:
                    raise error(f"unknown frame or section keyword '{word}:'", start_line, start_col)
                tokens.append(Token(kind, word, span_from(start_line, start_col)))
                continue
            col += j - i
            i = j
            kind = KEYWORD if word in KEYWORDS else IDENT
            tokens.append(Token(kind, word, span_from(start_line, start_col)))
            continue

        raise error(f"unexpected character {c!r}", line, col)

    tokens.append(Token(EOF, "", Span(line, col)))
    return tokens
