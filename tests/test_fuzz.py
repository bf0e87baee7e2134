"""Mutation fuzzing of the CLI: every run ends in output or in a documented
error exit with an error diagnostic, never in an internal error.

The inputs are seeded mutations of the four fixtures and of a library whose
pattern body passes an argument to an ontology parameter. A mutation deletes
a stretch of text, inserts a grammar word or punctuation, replaces an
identifier with another one of the text, or duplicates a line. Each mutant
is checked, then flattened and its obligations reported for up to three of
its ontologies. The expander looks up only names the resolver bound, so a
binding the resolver missed would end here as an InternalError, exit 4; and
it takes each argument as the resolver checked it, so no argument error may
come from a site.
"""

from __future__ import annotations

import contextlib
import io
import random
import re

import pytest

from godp import GodpError, expand, parse_library, resolve, stratify_ontology
from godp.cli import main

from tests.conftest import SUBSTITUTED_ARGUMENT, fixture_text

MUTANTS = 200  # per source

SOURCES = {
    "role": fixture_text("role.gdol"),
    "driving": fixture_text("driving.gdol"),
    "obligations": fixture_text("obligations.gdol"),
    "collision": fixture_text("collision.gdol"),
    "substituted": SUBSTITUTED_ARGUMENT.replace("{}", "A"),
}

WORDS = (
    "library", "ontology", "pattern", "end", "then", "and", "or", "not", "some", "only",
    "min 1", "max 2", "fit", "|->", "Class:", "ObjectProperty:", "DataProperty:",
    "Individual:", "SubClassOf:", "EquivalentTo:", "DisjointWith:", "Domain:", "Range:",
    "InverseOf:", "Characteristics:", "Functional", "Types:", "Facts:", "owl:Thing",
    "[", "]", "{", "}", "(", ")", "[]", "?", ",", "=", "%%",
)

IDENTIFIER = re.compile(r"[A-Za-z_]\w*")
# An error the resolver reports where the argument is written, never at a
# site: no expansion note follows it.
ARGUMENT_ERROR_AT_A_SITE = re.compile(
    r": error: (ArityMismatch|MissingMandatoryArgument|OntologyArgForSymbolParam|SymbolArgForOntologyParam"
    r"|UnknownFitSymbol|KindMismatch: argument \d+ of \w+: expected \w+, got )[^\n]*\n[^\n]*note: while expanding"
)
ONTOLOGY_NAME = re.compile(r"^\s*ontology\s+(\w+)", re.M)


def mutate(text: str, rng: random.Random) -> str:
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(4)
        if op == 0:
            start = rng.randrange(len(text))
            text = text[:start] + text[start + rng.randint(1, 12):]
        elif op == 1:
            at = rng.randrange(len(text) + 1)
            text = f"{text[:at]} {rng.choice(WORDS)} {text[at:]}"
        elif op == 2:
            found = list(IDENTIFIER.finditer(text))
            if found:
                start, end = rng.choice(found).span()
                text = text[:start] + rng.choice(found).group() + text[end:]
        else:
            lines = text.splitlines(keepends=True)
            line = rng.randrange(len(lines))
            lines.insert(line, lines[line])
            text = "".join(lines)
    return text


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_mutants_end_in_output_or_error_diagnostic(tmp_path, source):
    for index in range(MUTANTS):
        rng = random.Random(f"{source}-{index}")
        text = mutate(SOURCES[source], rng)
        file = tmp_path / f"{index}.gdol"  # a new file: rewriting one can be slow
        file.write_text(text, encoding="utf-8")
        path = str(file)
        runs = [["check", path]]
        for name in ONTOLOGY_NAME.findall(text)[:3]:
            runs += [["flatten", path, "--target", name], ["obligations", path, "--target", name]]
        for argv in runs:
            code, err = run(argv)
            context = f"mutant {source}-{index} under {argv[0]} {argv[2:]}:\n{text}\n{err}"
            assert code in (0, 1, 2), context
            assert code == 0 or ": error: " in err, context
            assert "InternalError" not in err and "Traceback" not in err, context
            assert not ARGUMENT_ERROR_AT_A_SITE.search(err), context


def test_accepted_stratification_never_fails_when_read():
    """stratify_ontology raises every error when it is called, though the
    ontology it returns is renamed on its first read: for every mutant target
    it accepts, that first read raises nothing."""
    renamed = rejected = 0
    for source in sorted(SOURCES):
        for index in range(MUTANTS):
            text = mutate(SOURCES[source], random.Random(f"{source}-{index}"))
            try:
                resolved = resolve(parse_library(text))
            except GodpError:
                continue
            if resolved.errors:
                continue
            for target in resolved.ontology_names():
                try:
                    o = expand(resolved, target).ontology
                except GodpError:
                    continue
                try:
                    out = stratify_ontology(o)
                except GodpError:
                    rejected += 1
                    continue
                if out is not o:
                    renamed += 1
                    try:
                        out.signature  # the first read builds the rename
                    except GodpError as exc:
                        raise AssertionError(f"mutant {source}-{index}, target {target}") from exc
    assert renamed > 100 and rejected > 10, (renamed, rejected)
