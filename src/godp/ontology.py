"""Flattened ontologies: a signature plus an ordered, deduplicated axiom list."""

from __future__ import annotations

from collections.abc import Iterable
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

    def merge(self, other: "Signature", span: Span | None = None) -> "Signature":
        """A new signature: this one's entries in order, then the other's new
        names in order. A shared name keeps its place and becomes declared if
        either side declares it. Only shared names are examined one by one;
        on a kind clash the first clashing name in the other's order is
        reported. Neither operand changes."""
        mine, theirs = self._entries, other._entries
        merged = mine | theirs
        if len(merged) < len(mine) + len(theirs):  # some names are shared
            merged.update(mine)
            for n in mine.keys() & theirs.keys():
                if mine[n].kind is not theirs[n].kind:
                    first = next(m for m, e in theirs.items() if m in mine and mine[m].kind is not e.kind)
                    raise _conflict(first, mine[first].kind, theirs[first].kind, span)
                if theirs[n].declared and not mine[n].declared:
                    merged[n] = theirs[n]
        out = Signature()
        out._entries = merged
        return out

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
    normalization-equal axiom; raises ConflictingKind on a kind clash.

    Nothing is normalized here: the two keyed maps are united in
    O(|left| + |right|) dict operations, with left's representatives and
    order winning. Neither operand changes."""
    signature = left.signature.merge(right.signature, span)
    keyed = left._keyed | right._keyed
    if len(keyed) < len(left._keyed) + len(right._keyed):  # shared axioms keep left's representative
        keyed.update(left._keyed)
    out = FlatOntology.__new__(FlatOntology)  # the keys are known: skip normalizing
    out._set(signature, keyed)
    return out
