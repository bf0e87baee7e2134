"""Identifiers with bracketed constituent names, and their stratification.

A structured name is a base identifier followed by zero or more bracket
groups, each holding one or more constituent names (themselves structured),
e.g. ``rolePerformedBy[Performer]`` or ``rel[A,B]``. Instantiation replaces
constituents (and bases) by argument names; once expansion is complete the
brackets are flattened away by :func:`stratify_name`.
"""

from __future__ import annotations

import re

from .diagnostics import GodpError
from .record import record

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")

THING_BASE = "owl:Thing"


class StructuredName(metaclass=record):
    base: str
    groups: tuple[tuple[StructuredName, ...], ...] = ()
    __slots__ = ("_hash",)

    def __post_init__(self) -> None:
        if self.base != THING_BASE and not _IDENT_RE.match(self.base):
            raise ValueError(f"invalid identifier: {self.base!r}")
        if self.base == THING_BASE and self.groups:
            raise ValueError("owl:Thing takes no constituents")
        # Hashed once: names key every signature, substitution and closure.
        # A slot, not a field, so equality and repr do not see it.
        object.__setattr__(self, "_hash", hash((self.base, self.groups)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def is_plain(self) -> bool:
        return not self.groups

    @property
    def constituents(self) -> tuple[StructuredName, ...]:
        return tuple(c for group in self.groups for c in group)

    def render(self) -> str:
        parts = [self.base]
        for group in self.groups:
            parts.append("[" + ",".join(c.render() for c in group) + "]")
        return "".join(parts)

    def closure(self) -> frozenset[StructuredName]:
        """The name, its base as a plain name, and every constituent's closure."""
        out = {self, StructuredName(self.base)}
        for c in self.constituents:
            out |= c.closure()
        return frozenset(out)

    def __str__(self) -> str:
        return self.render()


THING = StructuredName(THING_BASE)


def name(text: str) -> StructuredName:
    """Build a plain StructuredName (convenience for tests and callers)."""
    return StructuredName(text)


def stratify_name(n: StructuredName) -> str:
    """Flatten brackets: ``[`` and ``,`` become ``_``, ``]`` is dropped."""
    return n.render().translate(_STRATIFY_TABLE)


_STRATIFY_TABLE = str.maketrans({"[": "_", ",": "_", "]": None})


def substitute_name(n: StructuredName, mapping: dict[StructuredName, StructuredName]) -> StructuredName:
    """Replace parameter names inside ``n``.

    A whole-name match is replaced outright; otherwise the base and every
    constituent are rewritten independently. Substituting a structured
    argument for a base prepends the argument's groups, e.g. ``p[X]`` under
    ``p -> q[Z]`` becomes ``q[Z][X]``; owl:Thing, which takes no
    constituents, cannot replace a base: that is a KindMismatch.
    """
    if n in mapping:
        return mapping[n]
    if not n.groups:  # a plain name is its own base: nothing to replace
        return n
    new_groups = tuple(
        tuple(substitute_name(c, mapping) for c in group) for group in n.groups
    )
    base_plain = StructuredName(n.base)
    if base_plain in mapping:
        repl = mapping[base_plain]
        if repl.base == THING_BASE:
            raise GodpError("KindMismatch", f"owl:Thing cannot replace {n.base} in {n}: it takes no constituents")
        return StructuredName(repl.base, repl.groups + new_groups)
    return StructuredName(n.base, new_groups)
