"""Manchester frames and their desugaring into atomic axioms.

Each frame header contributes one Declaration; each comma-separated element
of a section contributes one axiom, in textual order. A disjunction inside
one element stays a single axiom. The parser rejects a section that its
frame's kind lacks, and a characteristic without an axiom type, so
desugaring cannot fail.
"""

from __future__ import annotations

from .axioms import SECTIONS, AtomicAxiom, Declaration, EntityKind
from .names import StructuredName
from .record import record


class Section(metaclass=record):
    keyword: str
    items: tuple  # each shaped as axioms.SECTION_ITEM_ROLES[keyword] says


class Frame(metaclass=record):
    kind: EntityKind
    subject: StructuredName
    sections: tuple[Section, ...] = ()


def desugar_frames(frames: list[Frame] | tuple[Frame, ...]) -> list[AtomicAxiom]:
    """The axioms of frames the parser built, in textual order."""
    out: list[AtomicAxiom] = []
    for frame in frames:
        out.append(Declaration(frame.kind, frame.subject))
        for section in frame.sections:
            types = SECTIONS[section.keyword][1]
            for item in section.items:
                # In a constant-payload section (Characteristics) the item picks the type.
                cls = types.get(None) or types[item]
                out.append(cls.from_section(frame.subject, item))
    return out
