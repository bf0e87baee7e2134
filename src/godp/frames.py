"""Manchester frames and their desugaring into atomic axioms.

Each frame header contributes one Declaration; each comma-separated element
of a section contributes one axiom, in textual order. A disjunction inside
one element stays a single axiom.
"""

from __future__ import annotations

from .axioms import SECTIONS, AtomicAxiom, Declaration, EntityKind
from .diagnostics import GodpError, Span
from .names import StructuredName
from .record import record


class Section(metaclass=record):
    keyword: str
    items: tuple  # each shaped as axioms.SECTION_ITEM_ROLES[keyword] says
    span: Span | None = None


class Frame(metaclass=record):
    kind: EntityKind
    subject: StructuredName
    sections: tuple[Section, ...] = ()
    span: Span | None = None


def desugar_frames(frames: list[Frame] | tuple[Frame, ...]) -> list[AtomicAxiom]:
    out: list[AtomicAxiom] = []
    for frame in frames:
        out.append(Declaration(frame.kind, frame.subject))
        for section in frame.sections:
            kind, types = SECTIONS.get(section.keyword, (None, None))
            if kind is not frame.kind:
                # Not a section of this frame kind (DataProperty frames have none).
                raise _unsupported(section.keyword, frame, section)
            for item in section.items:
                # In a constant-payload section (Characteristics) the item picks the type.
                cls = types.get(None) or types.get(item)
                if cls is None:
                    raise _unsupported(f"{section.keyword}: {item}", frame, section)
                out.append(cls.from_section(frame.subject, item))
    return out


def _unsupported(kw: str, frame: Frame, section: Section) -> GodpError:
    return GodpError(
        "UnsupportedConstruct",
        f"section {kw!r} is not supported in a {frame.kind} frame",
        section.span or frame.span,
    )

