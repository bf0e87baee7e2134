"""Compiler for generic ontology design patterns.

Parses pattern libraries written in a structuring language over an OWL 2
Manchester-syntax subset, type-checks pattern instantiations, and flattens
them into plain Manchester-syntax ontologies via substitution, optional-
parameter pruning, and parameterized-name stratification. The package
exports the pipeline; every other name is imported from its module.
"""

from .diagnostics import Diagnostic, GodpError
from .emitter import emit_manchester
from .expansion import expand, stratify_ontology
from .parser import parse_library
from .resolver import resolve

__all__ = [
    "Diagnostic",
    "GodpError",
    "emit_manchester",
    "expand",
    "parse_library",
    "resolve",
    "stratify_ontology",
]

__version__ = "0.1.0"
