from __future__ import annotations

from pathlib import Path

import pytest

from godp import expand, parse_library, resolve, stratify_ontology
from godp.ontology import FlatOntology
from godp.resolver import ResolvedLibrary

FIXTURES = Path(__file__).parent / "fixtures"

# A pattern body that passes its own parameter X where Q takes an ontology;
# "{}" is P's argument at the one site.
SUBSTITUTED_ARGUMENT = (
    "library L\nontology X = Class: A end\npattern Q [ontology {Class: A}] = Class: B end\n"
    "pattern P [Class: X] = Q [X] end\nontology O = P [Class: {}] end\n"
)


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def resolve_text(text: str) -> ResolvedLibrary:
    resolved = resolve(parse_library(text))
    assert not resolved.errors, [d.format() for d in resolved.errors]
    return resolved


def flatten_text(text: str, target: str, stratify: bool = True) -> FlatOntology:
    result = expand(resolve_text(text), target)
    return stratify_ontology(result.ontology) if stratify else result.ontology


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture(scope="session")
def driving() -> ResolvedLibrary:
    return resolve_text(fixture_text("driving.gdol"))


@pytest.fixture(scope="session")
def role() -> ResolvedLibrary:
    return resolve_text(fixture_text("role.gdol"))


@pytest.fixture(scope="session")
def obligations_lib() -> ResolvedLibrary:
    return resolve_text(fixture_text("obligations.gdol"))
