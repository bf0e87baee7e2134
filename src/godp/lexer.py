r"""Tokenizer for pattern-library files.

``%%`` starts a comment running to end of line. A frame or section keyword
is an identifier immediately followed by ``:`` (``Class:``, ``Domain:``,
...); ``owl:Thing`` is lexed as a single atom. Everything else is
identifiers, integers, and punctuation.

An identifier starts with a letter (``str.isalpha()``); its tail is scanned
with the regular expression ``\w*``, whose ``\w`` matches exactly the
characters for which ``str.isalnum()`` is true, and ``_``. An integer is a
run of ``str.isdigit()`` characters.
"""

from __future__ import annotations

import re
from typing import NamedTuple

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


class Token(NamedTuple):
    """One token: its kind, its text and where it starts and ends. The
    ``Span`` is built only when asked for, since the parser keeps few."""

    kind: str
    value: str
    line: int
    col: int
    end_line: int
    end_col: int

    @property
    def span(self) -> Span:
        return Span(self.line, self.col, self.end_line, self.end_col)


_WORD_TAIL = re.compile(r"\w*")
_BLANKS = re.compile(r"[ \t\r]+")


def tokenize(text: str, file: str | None = None) -> list[Token]:
    tokens: list[Token] = []
    append = tokens.append
    i = 0
    n = len(text)
    line = 1
    line_start = 0  # index of the line's first character: column is i - line_start + 1

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            line_start = i
            continue
        if c in " \t\r":
            i = _BLANKS.match(text, i).end()
            continue
        if c == "%" and text.startswith("%", i + 1):
            i = text.find("\n", i)
            if i < 0:
                i = n
            continue

        col = i - line_start + 1

        if c.isalpha():
            j = _WORD_TAIL.match(text, i + 1).end()
            word = text[i:j]
            # owl:Thing is a single atom (no spaces around the colon).
            if word == "owl" and text.startswith(":Thing", j) and not (
                j + 6 < n and (text[j + 6].isalnum() or text[j + 6] == "_")
            ):
                i = j + 6
                append(Token(OWL_THING, "owl:Thing", line, col, line, col + 9))
                continue
            if j < n and text[j] == ":":
                if word in FRAME_KEYWORDS:
                    kind = FRAME_KW
                elif word in SECTION_KEYWORDS:
                    kind = SECTION_KW
                elif word in UNSUPPORTED_KEYWORDS:
                    kind = UNSUPPORTED_KW
                else:
                    raise _error(f"unknown frame or section keyword '{word}:'", line, col, file)
                i = j + 1
                append(Token(kind, word, line, col, line, i - line_start + 1))
                continue
            i = j
            append(Token(KEYWORD if word in KEYWORDS else IDENT, word, line, col, line, i - line_start + 1))
            continue

        kind = _PUNCT.get(c)
        if kind is not None:
            i += 1
            append(Token(kind, c, line, col, line, col + 1))
            continue

        if c.isdigit():
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            append(Token(INT, text[i:j], line, col, line, j - line_start + 1))
            i = j
            continue

        if c == "|":
            if text.startswith("|->", i):
                i += 3
                append(Token(MAPSTO, "|->", line, col, line, col + 3))
                continue
            raise _error("unexpected character '|' (did you mean '|->'?)", line, col, file)

        raise _error(f"unexpected character {c!r}", line, col, file)

    col = n - line_start + 1
    append(Token(EOF, "", line, col, line, col))
    return tokens


def _error(message: str, line: int, col: int, file: str | None) -> GodpError:
    return GodpError("SyntaxError", message, Span(line, col), file)
