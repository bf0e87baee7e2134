"""Manchester frames and their desugaring into atomic axioms.

Each frame header contributes one Declaration; each comma-separated element
of a section contributes one axiom, in textual order. A disjunction inside
one element stays a single axiom.
"""

from __future__ import annotations

from dataclasses import dataclass

from .axioms import (
    AtomicAxiom,
    ClassAssertion,
    Declaration,
    DisjointClasses,
    EntityKind,
    EquivalentClasses,
    FunctionalProperty,
    InverseFunctionalProperty,
    InverseProperties,
    Named,
    ObjectPropertyDomain,
    ObjectPropertyRange,
    PropertyAssertion,
    SubClassOf,
    SubPropertyOf,
    render_expr,
)
from .diagnostics import GodpError, Span
from .names import StructuredName


@dataclass(frozen=True)
class Section:
    keyword: str
    # Payload per keyword:
    #   SubClassOf/EquivalentTo/DisjointWith/Domain/Range/Types -> ClassExpr
    #   InverseOf/SubPropertyOf                                 -> StructuredName
    #   Characteristics                                         -> str
    #   Facts                                                   -> (prop, individual)
    items: tuple
    span: Span | None = None


@dataclass(frozen=True)
class Frame:
    kind: EntityKind
    subject: StructuredName
    sections: tuple[Section, ...] = ()
    span: Span | None = None


CLASS_SECTIONS = ("SubClassOf", "EquivalentTo", "DisjointWith")
PROPERTY_SECTIONS = ("Characteristics", "Domain", "Range", "InverseOf", "SubPropertyOf")
INDIVIDUAL_SECTIONS = ("Types", "Facts")

CHARACTERISTICS = {"Functional", "InverseFunctional"}


def desugar_frames(frames: list[Frame] | tuple[Frame, ...]) -> list[AtomicAxiom]:
    out: list[AtomicAxiom] = []
    for frame in frames:
        out.append(Declaration(frame.kind, frame.subject))
        for section in frame.sections:
            out.extend(_desugar_section(frame, section))
    return out


def _desugar_section(frame: Frame, section: Section) -> list[AtomicAxiom]:
    subj = frame.subject
    kw = section.keyword
    axioms: list[AtomicAxiom] = []
    if frame.kind is EntityKind.CLASS:
        cls = Named(subj)
        if kw == "SubClassOf":
            axioms = [SubClassOf(cls, e) for e in section.items]
        elif kw == "EquivalentTo":
            axioms = [EquivalentClasses(cls, e) for e in section.items]
        elif kw == "DisjointWith":
            axioms = [DisjointClasses(cls, e) for e in section.items]
        else:
            raise _unsupported(kw, frame, section)
    elif frame.kind is EntityKind.OBJECT_PROPERTY:
        if kw == "Domain":
            axioms = [ObjectPropertyDomain(subj, e) for e in section.items]
        elif kw == "Range":
            axioms = [ObjectPropertyRange(subj, e) for e in section.items]
        elif kw == "InverseOf":
            axioms = [InverseProperties(subj, n) for n in section.items]
        elif kw == "SubPropertyOf":
            axioms = [SubPropertyOf(subj, n) for n in section.items]
        elif kw == "Characteristics":
            for c in section.items:
                if c == "Functional":
                    axioms.append(FunctionalProperty(subj))
                elif c == "InverseFunctional":
                    axioms.append(InverseFunctionalProperty(subj))
                else:
                    raise _unsupported(f"Characteristics: {c}", frame, section)
        else:
            raise _unsupported(kw, frame, section)
    elif frame.kind is EntityKind.INDIVIDUAL:
        if kw == "Types":
            axioms = [ClassAssertion(e, subj) for e in section.items]
        elif kw == "Facts":
            axioms = [PropertyAssertion(p, subj, o) for (p, o) in section.items]
        else:
            raise _unsupported(kw, frame, section)
    else:
        # DataProperty frames carry no sections in the supported subset.
        raise _unsupported(kw, frame, section)
    return axioms


def _unsupported(kw: str, frame: Frame, section: Section) -> GodpError:
    return GodpError(
        "UnsupportedConstruct",
        f"section {kw!r} is not supported in a {frame.kind} frame",
        section.span or frame.span,
    )


def render_frame(frame: Frame, indent: str = "  ") -> list[str]:
    """Frame as .gdol/.omn source lines, one section per line."""
    lines = [f"{frame.kind}: {frame.subject}"]
    for section in frame.sections:
        if section.keyword == "Characteristics":
            payload = ", ".join(section.items)
        elif section.keyword in ("InverseOf", "SubPropertyOf"):
            payload = ", ".join(n.render() for n in section.items)
        elif section.keyword == "Facts":
            payload = ", ".join(f"{p} {o}" for (p, o) in section.items)
        else:
            payload = ", ".join(render_expr(e) for e in section.items)
        lines.append(f"{indent}{section.keyword}: {payload}")
    return lines
