"""Flattened ontologies: a signature plus an ordered, deduplicated axiom list."""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .axioms import (
    AtomicAxiom,
    Declaration,
    EntityKind,
    normalize_axiom,
    referenced_kinds,
)
from .diagnostics import GodpError, Span
from .names import THING_BASE, StructuredName


@dataclass(frozen=True)
class SigEntry:
    kind: EntityKind
    declared: bool


def _conflict(n: StructuredName, existing: EntityKind, kind: EntityKind, span: Span | None) -> GodpError:
    return GodpError("ConflictingKind", f"{n} is used both as {existing} and as {kind}", span)


class Signature:
    """Ordered map from name to entity kind, tracking declared vs referenced."""

    def __init__(self) -> None:
        self._entries: dict[StructuredName, SigEntry] = {}

    def __contains__(self, n: StructuredName) -> bool:
        return n in self._entries

    def __iter__(self):
        return iter(self._entries.items())

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, n: StructuredName) -> SigEntry | None:
        return self._entries.get(n)

    def add(self, n: StructuredName, kind: EntityKind, declared: bool, span: Span | None = None) -> None:
        if n.base == THING_BASE:
            return
        existing = self._entries.get(n)
        if existing is None:
            self._entries[n] = SigEntry(kind, declared)
            return
        if existing.kind is not kind:
            raise _conflict(n, existing.kind, kind, span)
        if declared and not existing.declared:
            self._entries[n] = SigEntry(kind, True)

    def undeclared(self) -> list[tuple[StructuredName, EntityKind]]:
        return [(n, e.kind) for n, e in self._entries.items() if not e.declared]


class FlatOntology:
    """A signature plus axioms deduplicated up to normalization.

    The axioms live in one insertion-ordered map from normal form to the
    first axiom seen with that form. The map is filled once, when the
    ontology is built, so each axiom is normalized once; ``axioms`` is the
    tuple of its values. An ontology is never changed once built, because
    named ontologies are memoized and shared.
    """

    __slots__ = ("signature", "axioms", "_keyed")

    def __init__(self, signature: Signature | None = None, axioms: Iterable[AtomicAxiom] = ()) -> None:
        keyed: dict[AtomicAxiom, AtomicAxiom] = {}
        for ax in axioms:
            keyed.setdefault(normalize_axiom(ax), ax)
        self._set(Signature() if signature is None else signature, keyed)

    def _set(self, signature: Signature, keyed: dict[AtomicAxiom, AtomicAxiom]) -> None:
        self.signature = signature
        self._keyed = keyed
        self.axioms: tuple[AtomicAxiom, ...] = tuple(keyed.values())

    def __repr__(self) -> str:
        return f"FlatOntology(signature={list(self.signature)!r}, axioms={self.axioms!r})"

    @staticmethod
    def from_axioms(axioms: Iterable[AtomicAxiom], span: Span | None = None) -> "FlatOntology":
        """Build with first-occurrence dedup and position-inferred signature."""
        onto = FlatOntology(Signature(), axioms)
        for ax in onto.axioms:
            declared = isinstance(ax, Declaration)
            for n, kind in referenced_kinds(ax):
                onto.signature.add(n, kind, declared, span)
        return onto

    def normalized_set(self) -> frozenset[AtomicAxiom]:
        return frozenset(self._keyed)


def combine(left: FlatOntology, right: FlatOntology, span: Span | None = None) -> FlatOntology:
    """Union of signatures and axioms, keeping the first occurrence of a
    normalization-equal axiom; raises ConflictingKind on a kind clash. The
    two-operand case of :func:`union`, with ``span`` the operator's span."""
    return union((left, right), (span,))


def union(
    parts: Iterable[FlatOntology], ops: Sequence[Span | None], *, extension: bool = False
) -> FlatOntology:
    """Union of the parts of one ``and`` chain, or with ``extension`` of one
    ``then`` chain: what folding :func:`combine` over the parts gives, left
    to right for ``and`` and right to left for ``then``, in O(total axioms +
    names) dict work.

    ``ops[i]`` is the span of the operator between parts i and i + 1. Names
    keep their first place and become declared if any part declares them;
    each normal form keeps its first axiom. A kind clash raises
    ConflictingKind where the binary fold raised it:

    - ``and`` is a lazy left fold: part i + 1 is drawn from ``parts`` only
      after part i is merged, and a clash names the first clashing name in
      part i + 1's order, with ``ops[i]``;
    - ``then`` is a right fold: every part is drawn first, then the last
      junction i whose part i clashes with parts[i + 1:] is reported, naming
      the first clashing name of that suffix (names in order of first
      appearance), with ``ops[i]``.

    The parts are merged into a fresh accumulator, so no operand changes;
    memoized named ontologies are shared between expressions.
    """
    if extension:
        parts = list(parts)
        _check_extension(parts, ops)
    parts = iter(parts)
    first = next(parts)
    entries = dict(first.signature._entries)
    keyed = dict(first._keyed)
    merged = [first._keyed]
    for span, part in zip(ops, parts):  # draws part i + 1 after ops[i]
        _merge_entries(entries, part.signature._entries, span)
        keyed.update(part._keyed)  # C-level: reuses the stored hashes
        merged.append(part._keyed)
    if len(keyed) < sum(map(len, merged)):
        # Some axioms are shared: update() kept each key's first place but
        # its last axiom. Re-applying the parts last to first restores the first.
        for later in reversed(merged):
            keyed.update(later)
    signature = Signature()
    signature._entries = entries
    out = FlatOntology.__new__(FlatOntology)  # the keys are known: skip normalizing
    out._set(signature, keyed)
    return out


def _merge_entries(
    entries: dict[StructuredName, SigEntry], theirs: dict[StructuredName, SigEntry], span: Span | None
) -> None:
    """Merge the signature entries ``theirs`` into ``entries`` in place. New
    names are appended in order; a shared name keeps its place and becomes
    declared if either side declares it. Only shared names are examined one
    by one; on a kind clash the first clashing name in ``theirs`` order is
    reported and ``entries`` is left unchanged."""
    shared = entries.keys() & theirs.keys()
    if not shared:
        entries.update(theirs)
        return
    declared = {}
    for n in shared:
        mine = entries[n]
        if mine.kind is not theirs[n].kind:
            first = next(m for m, e in theirs.items() if m in shared and entries[m].kind is not e.kind)
            raise _conflict(first, entries[first].kind, theirs[first].kind, span)
        if mine.declared:
            declared[n] = mine
    entries.update(theirs)
    entries.update(declared)


def _check_extension(parts: list[FlatOntology], ops: Sequence[Span | None]) -> None:
    """Raise the kind clash of the right fold ``parts[0] then (parts[1] then
    ...)``, if any: junctions are checked from the last one leftwards."""
    suffix: dict[StructuredName, SigEntry] = {}  # the names of parts[i + 1:]
    for i in range(len(parts) - 2, -1, -1):
        suffix.update(parts[i + 1].signature._entries)  # no clash inside the suffix
        mine = parts[i].signature._entries
        if any(mine[n].kind is not suffix[n].kind for n in mine.keys() & suffix.keys()):
            ordered: dict[StructuredName, SigEntry] = {}
            for later in parts[i + 1 :]:
                _merge_entries(ordered, later.signature._entries, None)
            _merge_entries(dict(mine), ordered, ops[i])  # raises: the clash found above
