"""Deterministic Manchester-syntax serialization of a flat ontology.

Frames are grouped per entity; entities are ordered ObjectProperties,
DataProperties, Classes, Individuals, alphabetically within each kind.
Sections follow a fixed order and axioms keep first-occurrence order inside
their section, so equal inputs produce byte-identical output.
"""

from __future__ import annotations

from .axioms import SECTION_KEYWORDS, EntityKind, frame_subject, section_text
from .diagnostics import GodpError, Span
from .names import StructuredName
from .ontology import FlatOntology

_KIND_ORDER = {
    EntityKind.OBJECT_PROPERTY: 0,
    EntityKind.DATA_PROPERTY: 1,
    EntityKind.CLASS: 2,
    EntityKind.INDIVIDUAL: 3,
}

_SECTION_ORDER = {keyword: i for i, keyword in enumerate(SECTION_KEYWORDS)}


def emit_manchester(o: FlatOntology, allow_structured: bool = False, span: Span | None = None) -> str:
    """``o`` as Manchester frames; a diagnostic points at ``span``, the
    emitted ontology's definition."""
    if not allow_structured:
        # The signature holds each name of the axioms once, in the order the
        # axioms first mention it: its first bracketed name is theirs.
        for n in o.signature:
            if n.groups:
                raise GodpError(
                    "UnstratifiedName",
                    f"structured name {n} survives in the output; stratify first",
                    span,
                )

    # frame subject -> (kind, list of (section keyword, section text))
    frames: dict[StructuredName, tuple[EntityKind, list[tuple[str, str]]]] = {}
    for ax in o.axioms:
        subject, at = frame_subject(ax, span)
        entry = frames.get(subject)
        if entry is None:
            entry = frames[subject] = (ax.frame_kind, [])
        if ax.keyword is not None:  # a Declaration is a frame header only
            entry[1].append((ax.keyword, section_text(ax, at)))

    if not frames:
        return ""

    ordered = sorted(
        frames.items(), key=lambda item: (_KIND_ORDER[item[1][0]], item[0].render())
    )

    blocks: list[str] = []
    for subject, (kind, sections) in ordered:
        lines = [f"{kind}: {subject.render()}"]
        # sorted() is stable: a section's axioms keep their first-occurrence order.
        for keyword, text in sorted(sections, key=lambda section: _SECTION_ORDER[section[0]]):
            lines.append(f"  {keyword}: {text}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
