"""Compiler for generic ontology design patterns.

Parses pattern libraries written in a structuring language over an OWL 2
Manchester-syntax subset, type-checks pattern instantiations, and flattens
them into plain Manchester-syntax ontologies via substitution, optional-
parameter pruning, and parameterized-name stratification.
"""

from .axioms import (
    AtomicAxiom,
    ClassExpr,
    EntityKind,
    mentions,
    normalize_axiom,
    render_axiom,
)
from .diagnostics import Diagnostic, GodpError, Span
from .emitter import emit_manchester
from .expansion import (
    ExpansionResult,
    Obligation,
    Substitution,
    apply_substitution,
    expand,
    prune_omitted,
    stratify_ontology,
)
from .frames import Frame, desugar_frames
from .names import StructuredName, stratify_name
from .ontology import FlatOntology
from .parser import parse_frames, parse_library
from .report import render_report
from .resolver import ResolvedLibrary, detect_cycles, resolve

__all__ = [
    "AtomicAxiom",
    "ClassExpr",
    "Diagnostic",
    "EntityKind",
    "ExpansionResult",
    "FlatOntology",
    "Frame",
    "GodpError",
    "Obligation",
    "ResolvedLibrary",
    "Span",
    "StructuredName",
    "Substitution",
    "apply_substitution",
    "desugar_frames",
    "detect_cycles",
    "emit_manchester",
    "expand",
    "mentions",
    "normalize_axiom",
    "parse_frames",
    "parse_library",
    "prune_omitted",
    "render_axiom",
    "render_report",
    "resolve",
    "stratify_name",
    "stratify_ontology",
]

__version__ = "0.1.0"
