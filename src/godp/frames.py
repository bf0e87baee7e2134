"""Manchester frames and their desugaring into atomic axioms.

Each frame header contributes one Declaration; the parser builds one axiom
per comma-separated element of a section, in textual order. A disjunction
inside one element stays a single axiom. The parser rejects a section that
its frame's kind lacks, and a characteristic without an axiom type, so
desugaring cannot fail.
"""

from __future__ import annotations

from .axioms import AtomicAxiom, Declaration, EntityKind
from .names import StructuredName
from .record import record


class Frame(metaclass=record):
    kind: EntityKind
    subject: StructuredName
    axioms: tuple[AtomicAxiom, ...]  # one per section item, in textual order


def desugar_frames(frames: list[Frame] | tuple[Frame, ...]) -> list[AtomicAxiom]:
    """The axioms of frames the parser built, in textual order: each
    frame's Declaration, then its section axioms."""
    out: list[AtomicAxiom] = []
    for frame in frames:
        out.append(Declaration(frame.kind, frame.subject))
        out += frame.axioms
    return out
