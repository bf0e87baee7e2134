r"""Tokenizer for pattern-library files.

``%%`` starts a comment running to end of line. A frame or section keyword
is an identifier immediately followed by ``:`` (``Class:``, ``Domain:``,
...); ``owl:Thing`` is lexed as a single atom. Everything else is
identifiers, integers, and punctuation.

An identifier starts with a letter (``str.isalpha()``); its tail is scanned
with the regular expression ``\w*``, whose ``\w`` matches exactly the
characters for which ``str.isalnum()`` is true, and ``_``. An integer is a
run of ``str.isdigit()`` characters.

``tokenize`` returns a :class:`TokenStream`: the kinds, values and start
offsets of the tokens as three parallel sequences, read by index. It builds
no object per token: the kinds are shared constants, each spelling of a word
is one shared ``str``, and the offsets are machine integers in an ``array``.
A token's line and column come from its offset by bisecting the offsets of
the line starts, only when a ``Span`` is asked for.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_right

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


class TokenStream:
    """The tokens of one text as parallel sequences: the lists ``kinds`` and
    ``values``, and the array ``starts`` (the offset of each token's first
    character), plus the array ``line_starts``, the offset of each line's
    first character. A token's ``Span`` is built only when asked for."""

    __slots__ = ("kinds", "values", "starts", "line_starts")

    def __init__(self, kinds: list[str], values: list[str], starts: array, line_starts: array):
        self.kinds = kinds
        self.values = values
        self.starts = starts
        self.line_starts = line_starts

    def __len__(self) -> int:
        return len(self.kinds)

    def span(self, i: int) -> Span:
        """The line and column where token ``i`` starts."""
        start = self.starts[i]
        line = bisect_right(self.line_starts, start)
        return Span(line, start - self.line_starts[line - 1] + 1)


_WORD_TAIL = re.compile(r"\w*")
_BLANKS = re.compile(r"[ \t\r\n]+")
_NEWLINE = re.compile(r"\n")


def tokenize(text: str, file: str | None = None) -> TokenStream:
    kinds: list[str] = []
    values: list[str] = []
    starts = array("q")
    add_kind, add_value, add_start = kinds.append, values.append, starts.append
    # One str per spelling: a word's value is the first slice of its text.
    spelling = {}.setdefault
    i = 0
    n = len(text)

    while i < n:
        c = text[i]
        if c == " ":
            i += 1
            continue
        if c in "\t\r\n":
            i = _BLANKS.match(text, i).end()
            continue
        if c == "%" and text.startswith("%", i + 1):
            i = text.find("\n", i)
            if i < 0:
                i = n
            continue

        start = i
        if c.isalpha():
            j = _WORD_TAIL.match(text, i + 1).end()
            value = text[i:j]
            value = spelling(value, value)
            # owl:Thing is a single atom (no spaces around the colon).
            if value == "owl" and text.startswith(":Thing", j) and not (
                j + 6 < n and (text[j + 6].isalnum() or text[j + 6] == "_")
            ):
                kind, value, i = OWL_THING, "owl:Thing", j + 6
            elif j < n and text[j] == ":":
                if value in FRAME_KEYWORDS:
                    kind = FRAME_KW
                elif value in SECTION_KEYWORDS:
                    kind = SECTION_KW
                elif value in UNSUPPORTED_KEYWORDS:
                    kind = UNSUPPORTED_KW
                else:
                    raise _error(f"unknown frame or section keyword '{value}:'", text, i, file)
                i = j + 1
            else:
                kind = KEYWORD if value in KEYWORDS else IDENT
                i = j
        elif (kind := _PUNCT.get(c)) is not None:
            value = c
            i += 1
        elif c.isdigit():
            i += 1
            while i < n and text[i].isdigit():
                i += 1
            kind, value = INT, text[start:i]
        elif text.startswith("|->", i):
            kind, value = MAPSTO, "|->"
            i += 3
        elif c == "|":
            raise _error("unexpected character '|' (did you mean '|->'?)", text, i, file)
        else:
            raise _error(f"unexpected character {c!r}", text, i, file)
        add_kind(kind)
        add_value(value)
        add_start(start)

    add_kind(EOF)
    add_value("")
    add_start(n)
    line_starts = array("q", [0])
    line_starts.extend(m.end() for m in _NEWLINE.finditer(text))
    return TokenStream(kinds, values, starts, line_starts)


def _error(message: str, text: str, i: int, file: str | None) -> GodpError:
    """A syntax error at offset ``i`` of ``text``."""
    line_start = text.rfind("\n", 0, i) + 1
    return GodpError("SyntaxError", message, Span(text.count("\n", 0, i) + 1, i - line_start + 1), file)
