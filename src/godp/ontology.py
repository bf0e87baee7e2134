"""Flattened ontologies: a signature plus an ordered, deduplicated axiom list."""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from .axioms import (
    AtomicAxiom,
    Declaration,
    EntityKind,
    map_axiom_names,
    normalize_axiom,
    referenced_kinds,
)
from .diagnostics import GodpError, Span
from .names import THING_BASE, StructuredName
from .record import record


class SigEntry(metaclass=record):
    kind: EntityKind
    declared: bool


# Every possible entry, shared: from_axioms looks one up per name it meets.
_ENTRIES = {(kind, declared): SigEntry(kind, declared) for kind in EntityKind for declared in (False, True)}


def _add(signature: dict[StructuredName, SigEntry], n: StructuredName, entry: SigEntry, span: Span | None) -> None:
    """Merge one entry into ``signature`` in place: a new name is appended; a
    known name keeps its place and becomes declared if either side declares
    it; a kind clash raises ConflictingKind at ``span``."""
    existing = signature.get(n)
    if existing is None:
        signature[n] = entry
    elif existing.kind is not entry.kind:
        raise GodpError("ConflictingKind", f"{n} is used both as {existing.kind} and as {entry.kind}", span)
    elif entry.declared and not existing.declared:
        signature[n] = entry


class FlatOntology:
    """A signature plus axioms deduplicated up to normalization.

    The signature maps each name, in order, to its kind and whether it is
    declared. The axioms live in one insertion-ordered map from normal form
    to the first axiom seen with that form, so each axiom is normalized once;
    ``axioms`` is the tuple of its values. An ontology is never changed once
    built, because named ontologies are memoized and shared; a renamed one
    (see :meth:`rename`) is built on its first read and then never changed.
    """

    __slots__ = ("signature", "axioms", "_keyed")

    def __init__(self, signature: dict[StructuredName, SigEntry], keyed: dict[AtomicAxiom, AtomicAxiom]) -> None:
        self.signature = signature
        self._keyed = keyed
        self.axioms: tuple[AtomicAxiom, ...] = tuple(keyed.values())

    def __repr__(self) -> str:
        return f"FlatOntology(signature={list(self.signature.items())!r}, axioms={self.axioms!r})"

    @staticmethod
    def from_axioms(axioms: Iterable[AtomicAxiom], span: Span | None = None) -> "FlatOntology":
        """Build with first-occurrence dedup and position-inferred signature;
        owl:Thing is left out of the signature."""
        keyed: dict[AtomicAxiom, AtomicAxiom] = {}
        for ax in axioms:
            keyed.setdefault(normalize_axiom(ax), ax)
        signature: dict[StructuredName, SigEntry] = {}
        for ax in keyed.values():
            declared = isinstance(ax, Declaration)
            for n, kind in referenced_kinds(ax):
                if n.base != THING_BASE:
                    _add(signature, n, _ENTRIES[kind, declared], span)
        return FlatOntology(signature, keyed)

    def normalized_set(self) -> frozenset[AtomicAxiom]:
        return frozenset(self._keyed)

    def rename(self, mapping: dict[StructuredName, StructuredName]) -> "FlatOntology":
        """A new ontology with each name in ``mapping`` replaced, everywhere, built on its first read.

        An axiom that mentions no such name keeps its object and its normal
        form; a renamed one is normalized again. Each normal form keeps its
        first axiom, as when the ontology was built. Each renamed name takes
        its old name's place in the signature; if it was there already, the
        two entries merge as in :func:`_add`."""
        return _Renamed(self, mapping)


class _Renamed(FlatOntology):
    __slots__ = ("_source", "_mapping")  # the inherited slots stay empty until __getattr__ fills them

    def __init__(self, source: FlatOntology, mapping: dict[StructuredName, StructuredName]) -> None:
        self._source, self._mapping = source, mapping

    def __getattr__(self, attr: str):
        if attr not in FlatOntology.__slots__:  # not least _source and _mapping, once dropped
            raise AttributeError(attr)
        source, mapping, get = self._source, self._mapping, self._mapping.get
        keyed: dict[AtomicAxiom, AtomicAxiom] = {}
        for key, ax in source._keyed.items():
            if any(n in mapping for n, _ in referenced_kinds(ax)):
                ax = map_axiom_names(ax, lambda n: get(n, n))
                key = normalize_axiom(ax)
            keyed.setdefault(key, ax)
        signature: dict[StructuredName, SigEntry] = {}
        for n, entry in source.signature.items():
            _add(signature, get(n, n), entry, None)
        FlatOntology.__init__(self, signature, keyed)
        del self._source, self._mapping
        return getattr(self, attr)


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
    merge as in :func:`_add`; each normal form keeps its first axiom. A kind
    clash raises ConflictingKind where the binary fold raised it:

    - ``and`` is a lazy left fold: part i + 1 is drawn from ``parts`` only
      after part i is merged, and a clash names the first clashing name in
      part i + 1's order, with ``ops[i]``;
    - ``then`` is a right fold: every part is drawn first, then the last
      junction i whose part i clashes with parts[i + 1:] is reported, naming
      the first clashing name of that suffix (names in order of first
      appearance), with ``ops[i]``.

    A part that is the same ontology as an earlier one adds nothing and
    cannot clash, so it is skipped, and if every part is ``first``, the
    result is ``first`` itself. Otherwise the parts are merged into a fresh
    accumulator, so no operand changes; memoized named ontologies are
    shared between expressions.
    """
    if extension:
        parts = list(parts)
        _check_extension(parts, ops)
    parts = iter(parts)
    first = next(parts)
    # The keyed dicts merged so far, by id: holding them keeps the ids unique.
    merged = {id(first._keyed): first._keyed}
    signature = None
    for span, part in zip(ops, parts):  # draws part i + 1 after ops[i]
        if id(part._keyed) in merged:
            continue
        if signature is None:
            signature = dict(first.signature)
            keyed = dict(first._keyed)
        theirs = part.signature
        if signature.keys().isdisjoint(theirs):
            signature.update(theirs)
        else:
            for n, entry in theirs.items():
                _add(signature, n, entry, span)
        keyed.update(part._keyed)  # C-level: reuses the stored hashes
        merged[id(part._keyed)] = part._keyed
    if signature is None:
        return first
    if len(keyed) < sum(map(len, merged.values())):
        # Some axioms are shared: update() kept each key's first place but
        # its last axiom. Re-applying the parts last to first restores the first.
        for later in reversed(merged.values()):
            keyed.update(later)
    return FlatOntology(signature, keyed)


def _check_extension(parts: list[FlatOntology], ops: Sequence[Span | None]) -> None:
    """Raise the kind clash of the right fold ``parts[0] then (parts[1] then
    ...)``, if any: junctions are checked from the last one leftwards."""
    suffix: dict[StructuredName, SigEntry] = {}  # the names of parts[i + 1:]
    for i in range(len(parts) - 2, -1, -1):
        suffix.update(parts[i + 1].signature)  # no clash inside the suffix
        mine = parts[i].signature
        if any(mine[n].kind is not suffix[n].kind for n in mine.keys() & suffix.keys()):
            # Only mine's names can clash, so the first clash met in the
            # suffix's order of first appearance is the one found above.
            signature = dict(mine)
            for later in parts[i + 1 :]:
                for n, entry in later.signature.items():
                    _add(signature, n, entry, ops[i])
