"""The tokenizer against a character-by-character reference.

``reference_tokenize`` is the original scanner, written out here: one loop
step per character, ``str.isalnum()`` for identifier tails. ``tokenize``
must give the same kinds, values and spans, and fail with the same code,
message and position, on the fixtures, on a generated library and on random
text that includes non-ASCII letters, digits and numerals. The regular
expression for identifier tails is also checked on every code point, and
the stream is checked to hold no object per token.
"""

from __future__ import annotations

import gc
import importlib.util
import sys
import tracemalloc
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, example, given, settings

from godp.diagnostics import GodpError
from godp.lexer import (
    COMMA,
    EOF,
    EQUALS,
    FRAME_KEYWORDS,
    FRAME_KW,
    INT,
    IDENT,
    KEYWORD,
    KEYWORDS,
    LBRACE,
    LBRACKET,
    LPAREN,
    MAPSTO,
    OWL_THING,
    QUESTION,
    RBRACE,
    RBRACKET,
    RPAREN,
    SECTION_KEYWORDS,
    SECTION_KW,
    UNSUPPORTED_KEYWORDS,
    UNSUPPORTED_KW,
    _WORD_TAIL,
    tokenize,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

PUNCT = {
    "[": LBRACKET, "]": RBRACKET, "{": LBRACE, "}": RBRACE, "(": LPAREN, ")": RPAREN,
    ",": COMMA, "=": EQUALS, "?": QUESTION,
}


def reference_tokenize(text: str):
    """(kind, value, line, col, end_line, end_col) per token, or the error
    as (code, message, line, col, end_line, end_col)."""
    tokens = []
    i, line, col, n = 0, 1, 1, len(text)

    def error(message, at_line, at_col):
        return ("SyntaxError", message, at_line, at_col, at_line, at_col)

    while i < n:
        c = text[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i, col = i + 1, col + 1
            continue
        if c == "%" and i + 1 < n and text[i + 1] == "%":
            while i < n and text[i] != "\n":
                i, col = i + 1, col + 1
            continue
        start_col = col
        if c == "|":
            if text[i : i + 3] == "|->":
                i, col = i + 3, col + 3
                tokens.append((MAPSTO, "|->", line, start_col, line, col))
                continue
            return error("unexpected character '|' (did you mean '|->'?)", line, col)
        if c in PUNCT:
            i, col = i + 1, col + 1
            tokens.append((PUNCT[c], c, line, start_col, line, col))
            continue
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            value = text[i:j]
            col, i = col + j - i, j
            tokens.append((INT, value, line, start_col, line, col))
            continue
        if c.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word == "owl" and text[j : j + 6] == ":Thing" and not (
                j + 6 < n and (text[j + 6].isalnum() or text[j + 6] == "_")
            ):
                j += 6
                col, i = col + j - i, j
                tokens.append((OWL_THING, "owl:Thing", line, start_col, line, col))
                continue
            if j < n and text[j] == ":":
                j += 1
                col, i = col + j - i, j
                if word in FRAME_KEYWORDS:
                    kind = FRAME_KW
                elif word in SECTION_KEYWORDS:
                    kind = SECTION_KW
                elif word in UNSUPPORTED_KEYWORDS:
                    kind = UNSUPPORTED_KW
                else:
                    return error(f"unknown frame or section keyword '{word}:'", line, start_col)
                tokens.append((kind, word, line, start_col, line, col))
                continue
            col, i = col + j - i, j
            tokens.append((KEYWORD if word in KEYWORDS else IDENT, word, line, start_col, line, col))
            continue
        return error(f"unexpected character {c!r}", line, col)
    tokens.append((EOF, "", line, col, line, col))
    return tokens


def actual(text: str):
    """tokenize's result in reference_tokenize's shape."""
    try:
        tokens = tokenize(text)
    except GodpError as exc:
        s = exc.span
        return (exc.code, exc.message, s.line, s.col, s.end_line, s.end_col)
    spans = map(tokens.span, range(len(tokens)))
    return [
        (kind, value, s.line, s.col, s.end_line, s.end_col)
        for kind, value, s in zip(tokens.kinds, tokens.values, spans, strict=True)
    ]


def test_word_tail_is_isalnum_or_underscore():
    # The scanner relies on this for identifier tails; it depends on the
    # interpreter's Unicode tables, so every code point is checked.
    differ = [hex(i) for i in range(0x110000)
              if (_WORD_TAIL.fullmatch(chr(i)) is not None) != (chr(i).isalnum() or chr(i) == "_")]
    assert differ == []


def _library_check_text() -> str:
    """The benchmark's library_check input: renamed copies of the fixtures."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module.build("library_check", 1, 1, FIXTURES).text


@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.gdol")))
def test_fixture(fixture):
    text = (FIXTURES / fixture).read_text(encoding="utf-8")
    assert actual(text) == reference_tokenize(text)


def test_generated_library():
    text = _library_check_text()
    expected = reference_tokenize(text)
    assert isinstance(expected, list) and len(expected) > 10_000
    assert actual(text) == expected


# The lexer's own alphabet, characters whose Unicode class differs between
# isalpha, isdigit and isalnum, and words at the edges of the owl:Thing atom.
ALPHABET = (
    "abcxyzABCXYZ019_ :,[]{}()=?|->%\n\t\r"
    "é²½Ⅻ\xa0"
)
# Fragments that lex on their own; joined by blanks they give long valid input.
FRAGMENTS = [
    "owl:Thing", "owl:Thing_", "owl:Thingx", "owl", "Class:", "SubClassOf:", "then", "and",
    "fit", "|->", "%% note\n", "x²", "²1", "12", "aⅫ", "é", "Ab_1", "[", "]", "(", ",", "?",
    " ", "\n", "\r\n", "\t",
]
# Fragments that end lexing with an error, or only in some contexts.
EDGES = ["owl:Thin", "_", "\xa0", ":Thing", "Annotations:", "Foo:", "%", "|", "½", "Ⅻ", "a½"]

texts = st.one_of(
    st.text(alphabet=ALPHABET, max_size=60),
    st.lists(st.sampled_from(FRAGMENTS), max_size=30).map(" ".join),
    st.lists(st.one_of(st.sampled_from(FRAGMENTS + EDGES), st.text(alphabet=ALPHABET, max_size=4)), max_size=20).map(
        "".join
    ),
)


@settings(max_examples=500, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])
@given(texts)
@example("owl:Thing_ owl:Thingx owl:Thing")
@example("x² ½")
@example("aⅫ Ⅻ")
@example("é\xa0")
@example("a | b")
@example("%% comment\n  Foo: x")
def test_random_text(text):
    assert actual(text) == reference_tokenize(text)


class TestCompactStream:
    """The stream holds no object per token: kinds are shared constants,
    each spelling of a word is one ``str``, and offsets are machine
    integers."""

    def test_bytes_per_token(self):
        # The 80-copy library: 46,643 tokens from 475 KB. A fresh str per
        # word and an int per offset cost over 100 bytes a token; three
        # shared references and one machine offset cost about 32.
        text = _library_check_text()
        gc.collect()
        tracemalloc.start()
        try:
            tokens = tokenize(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(tokens) > 40_000
        assert peak / len(tokens) < 48

    def test_equal_spellings_are_one_object(self):
        tokens = tokenize(
            "library Library ontology Person = Class: Person SubClassOf: hasPart some Person end"
            " ontology Other = Person and Class: Other end"
        )
        first: dict[str, str] = {}
        shared = [first.setdefault(value, value) is value for value in tokens.values]
        assert all(shared)
        assert tokens.values.count("Person") == 4 and tokens.values.count("ontology") == 2
